"""Cut-set extraction and minimization for coherent fault trees.

A cut set is a set of basic events whose joint occurrence triggers the
top event; the tree's disjunctive normal form is a collection of cut
sets.  Collections are kept canonically ordered (by size, then by the
sorted event ids) so output is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import And, Basic, GateExpr, Or

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


def is_coherent(tree: GateExpr) -> bool:
    """True iff the tree contains only basic events, AND and OR gates."""
    stack = [tree]  # explicit, so any nesting depth works
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif not isinstance(node, Basic):
            return False
    return True


def expand_to_cutsets(tree: GateExpr, max_cutsets: int = DEFAULT_EXPANSION_LIMIT) -> CutSetCollection:
    """Top-down DNF expansion of a coherent tree.

    OR gates union their children's collections; AND gates distribute,
    taking the cross-product union of the children's cut sets.  The
    intermediate collection is bounded by max_cutsets to keep the
    exponential blowup explicit rather than silent.  Children are expanded
    in document order with an explicit stack, so any nesting depth works.
    """

    def check(acc: list) -> list:
        if len(acc) > max_cutsets:
            raise ExpansionLimitError(
                f"cut-set expansion exceeds the {max_cutsets}-set limit"
            )
        return acc

    # [node, its cut sets so far (None before its first visit), children taken];
    # each frame below the top is expanding its child number children taken - 1
    stack: list[list] = [[tree, None, 0]]
    done: list[frozenset[str]] = []  # the cut sets of the node finished last
    while stack:
        frame = stack[-1]
        node, acc, taken = frame
        if acc is None:
            if isinstance(node, Basic):
                done = [frozenset((node.event,))]
                stack.pop()
                continue
            if not isinstance(node, (And, Or)):
                path = "tree" + "".join(f".children[{f[2] - 1}]" for f in stack[:-1])
                raise NonCoherentError(
                    f"non-coherent tree: {type(node).__name__} gate at {path}"
                )
            acc = frame[1] = [frozenset()] if isinstance(node, And) else []
        elif isinstance(node, And):
            acc = frame[1] = check([left | right for left in acc for right in done])
        else:
            acc.extend(done)
        if taken < len(node.children):
            frame[2] = taken + 1
            stack.append([node.children[taken], None, 0])
        else:
            done = check(acc) if isinstance(node, Or) else acc
            stack.pop()
    return CutSetCollection(tuple(done), minimized=False)


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
