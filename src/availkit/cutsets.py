"""Cut-set extraction and minimization for coherent fault trees.

A cut set is a set of basic events whose joint occurrence triggers the
top event; the tree's disjunctive normal form is a collection of cut
sets, found bottom-up by substituting each gate's cut sets into its
parent (Vesely et al., Fault Tree Handbook, NUREG-0492, 1981, ch. XI).
Collections are kept canonically ordered (by size, then by the sorted
event ids) so output is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import AND, LEAF, And, Basic, GateExpr, Or, _node_children, _path, compile_structure

__all__ = [
    "CutSetCollection",
    "NonCoherentError",
    "ExpansionLimitError",
    "is_coherent",
    "expand_to_cutsets",
    "minimize",
]

DEFAULT_EXPANSION_LIMIT = 4096


class NonCoherentError(Exception):
    """The tree uses a gate outside {AND, OR, basic event}."""


class ExpansionLimitError(Exception):
    """DNF expansion would exceed the configured cut-set budget."""


def _canonical(sets) -> tuple[frozenset[str], ...]:
    unique = set(sets)
    return tuple(sorted(unique, key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class CutSetCollection:
    """A duplicate-free, canonically ordered collection of cut sets."""

    sets: tuple[frozenset[str], ...]
    minimized: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", _canonical(self.sets))

    def holds(self, occurred: frozenset[str] | set[str]) -> bool:
        """Boolean function of the collection: some cut set fully occurred."""
        return any(cs <= occurred for cs in self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def _incoherence(tree: GateExpr) -> str | None:
    """NonCoherentError's message for the first node in document order that is not AND, OR or basic, or None."""
    stack: list[tuple] = [(tree, None)]  # (node, link), as model._path spells it
    while stack:
        node, link = stack.pop()
        if isinstance(node, (And, Or)):
            for segment, child in reversed(_node_children(node)):
                stack.append((child, (segment, link)))
        elif not isinstance(node, Basic):
            return f"non-coherent tree: {type(node).__name__} gate at {_path('tree', link)}"
    return None


def is_coherent(tree: GateExpr) -> bool:
    """True iff the tree contains only basic events, AND and OR gates."""
    return _incoherence(tree) is None


def expand_to_cutsets(tree: GateExpr, max_cutsets: int = DEFAULT_EXPANSION_LIMIT) -> CutSetCollection:
    """The DNF of a coherent tree as cut sets; a non-coherent tree raises NonCoherentError.

    Runs the tree's post-order program (model.compile_structure) on a stack
    of cut-set lists: a leaf is one singleton set, and a gate combines its
    children's lists one at a time, OR by concatenation and AND by cross
    product union.  Each partial list is bounded by max_cutsets to keep the
    exponential blowup explicit rather than silent.
    """
    message = _incoherence(tree)
    if message is not None:
        raise NonCoherentError(message)
    stack: list[list[frozenset[str]]] = []
    for op, arg in compile_structure(tree).steps:
        if op == LEAF:
            stack.append([frozenset((arg,))])
            continue
        sets: list[frozenset[str]] = [frozenset()] if op == AND else []
        for child in stack[len(stack) - arg:]:
            if op == AND:
                sets = [left | right for left in sets for right in child]
            else:
                sets.extend(child)
            if len(sets) > max_cutsets:
                raise ExpansionLimitError(f"cut-set expansion exceeds the {max_cutsets}-set limit")
        del stack[len(stack) - arg:]
        stack.append(sets)
    return CutSetCollection(tuple(stack.pop()), minimized=False)


def minimize(collection: CutSetCollection) -> CutSetCollection:
    """Remove every cut set that is a superset of another (absorption).

    Processing in increasing size order reaches the fixpoint in one pass;
    the result is an antichain representing the same boolean function,
    i.e. the minimal cut sets.
    """
    keep: list[frozenset[str]] = []
    for cs in collection.sets:  # already ordered smallest first
        if not any(k <= cs for k in keep):
            keep.append(cs)
    return CutSetCollection(tuple(keep), minimized=True)
