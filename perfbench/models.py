"""The benchmark's own model form, `.avm` writer and reference evaluators.

Models are plain tuples so the benchmark never depends on availkit's
classes: the program only ever sees the `.avm` text written here.

    ("unit", name)  ("basic", name)                       leaves
    ("series" | "parallel" | "and" | "or" | "nor", [child, ...])
    ("nand", ([negated, ...], [plain, ...]))
    ("xor", (left, right))
    ("not", child)

A leaf is "true" in the model's native polarity: up for a block diagram
(abd), failed for a fault tree (ft).  References are computed here, not
with availkit, so the output checks are independent of the code they
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

Number = Union[Fraction, float]

LEAF_KINDS = ("unit", "basic")
GROUP_KINDS = ("series", "parallel", "and", "or", "nor")


@dataclass(frozen=True)
class Model:
    name: str
    kind: str  # "abd" or "ft"
    rates: dict  # component -> (failure rate, repair rate) as Fractions
    body: tuple


# --- structure ---------------------------------------------------------------


def leaves(node: tuple) -> list[str]:
    """Leaf names in document order, with repeats."""
    out: list[str] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current[0] in LEAF_KINDS:
            out.append(current[1])
        else:
            stack.extend(reversed(children(current)))
    return out


def children(node: tuple) -> list[tuple]:
    kind, arg = node
    if kind in LEAF_KINDS:
        return []
    if kind in GROUP_KINDS:
        return list(arg)
    if kind == "nand":
        return list(arg[0]) + list(arg[1])
    if kind == "xor":
        return list(arg)
    return [arg]


def events(model: Model) -> list[str]:
    """Distinct leaves in document order."""
    return list(dict.fromkeys(leaves(model.body)))


def depth(node: tuple) -> int:
    return 1 + max((depth(c) for c in children(node)), default=0)


# --- .avm text ---------------------------------------------------------------


def to_avm(model: Model) -> str:
    lines = [f'model "{model.name}"']
    for name, (lam, mu) in model.rates.items():
        lines.append(f"component {name} lambda={lam} mu={mu}")
    lines.append(model.kind)
    _node_text(model.body, 1, lines)
    return "\n".join(lines) + "\n"


def _node_text(node: tuple, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    kind, arg = node
    if kind in LEAF_KINDS:
        out.append(f"{pad}{kind} {arg}")
        return
    if kind == "nand":
        out.append(f"{pad}nand {{")
        _group_text("neg", arg[0], indent + 1, out)
        out[-1] += ";"
        _group_text("pos", arg[1], indent + 1, out)
        out.append(f"{pad}}}")
        return
    _group_text(kind, children(node), indent, out)


def _group_text(keyword: str, items: list[tuple], indent: int, out: list[str]) -> None:
    pad = "  " * indent
    out.append(f"{pad}{keyword} {{")
    for i, child in enumerate(items):
        _node_text(child, indent + 1, out)
        if i + 1 < len(items):
            out[-1] += ";"
    out.append(f"{pad}}}")


# --- probabilities -------------------------------------------------------------


def steady_leaf(model: Model) -> Callable[[str], Fraction]:
    """Exact steady-state probability that a leaf is true."""

    def p(name: str) -> Fraction:
        lam, mu = model.rates[name]
        return (lam if model.kind == "ft" else mu) / (lam + mu)

    return p


def point_leaf(model: Model, t: float) -> Callable[[str], float]:
    """Probability that a leaf is true at time t, starting up at t = 0."""

    def p(name: str) -> float:
        lam, mu = (float(r) for r in model.rates[name])
        q = lam / (lam + mu) * (1.0 - math.exp(-(lam + mu) * t))
        return q if model.kind == "ft" else 1.0 - q

    return p


def compose(node: tuple, p: Callable[[str], Number]) -> Number:
    """Probability of the structure function for distinct (independent) leaves."""
    kind, arg = node
    if kind in LEAF_KINDS:
        return p(arg)
    if kind == "xor":
        a, b = compose(arg[0], p), compose(arg[1], p)
        return a * (1 - b) + b * (1 - a)
    if kind == "not":
        return 1 - compose(arg, p)
    if kind == "nand":
        value = 1
        for c in arg[0]:
            value = value * (1 - compose(c, p))
        for c in arg[1]:
            value = value * compose(c, p)
        return value
    value = 1
    if kind in ("series", "and"):
        for c in arg:
            value = value * compose(c, p)
        return value
    for c in arg:
        value = value * (1 - compose(c, p))
    return value if kind == "nor" else 1 - value


def signal(node: tuple, cols: dict[str, np.ndarray]) -> np.ndarray:
    """Structure function over boolean columns, one row per assignment."""
    kind, arg = node
    if kind in LEAF_KINDS:
        return cols[arg]
    if kind == "xor":
        return signal(arg[0], cols) != signal(arg[1], cols)
    if kind == "not":
        return ~signal(arg, cols)
    if kind == "nand":
        neg = np.logical_and.reduce([~signal(c, cols) for c in arg[0]])
        return neg & np.logical_and.reduce([signal(c, cols) for c in arg[1]])
    parts = [signal(c, cols) for c in arg]
    if kind in ("series", "and"):
        return np.logical_and.reduce(parts)
    either = np.logical_or.reduce(parts)
    return ~either if kind == "nor" else either


def enumerate_probability(model: Model, p: Callable[[str], Number]) -> float:
    """Float probability of the structure function by full enumeration.

    Handles shared leaves; meant for at most ~20 events.
    """
    names = events(model)
    rows = np.arange(1 << len(names), dtype=np.int64)
    cols = {}
    weight = np.ones(len(rows))
    for i, name in enumerate(names):
        bit = (rows >> i) & 1 == 1
        cols[name] = bit
        pi = float(p(name))
        weight *= np.where(bit, pi, 1.0 - pi)
    return float(weight[signal(model.body, cols)].sum())


# --- cut sets -------------------------------------------------------------------


def failure_tree(model: Model) -> tuple:
    """The coherent failure tree of a block diagram (a fault tree as is)."""

    def dual(node: tuple) -> tuple:
        kind, arg = node
        if kind == "unit":
            return ("basic", arg)
        return ("or" if kind == "series" else "and", [dual(c) for c in arg])

    return model.body if model.kind == "ft" else dual(model.body)


def minimal_cutsets(tree: tuple, limit: int = 20000) -> list[frozenset]:
    """Minimal cut sets of an and/or tree, smallest first, None past `limit`."""

    def expand(node: tuple):
        kind, arg = node
        if kind == "basic":
            return [frozenset((arg,))]
        acc: list[frozenset] = [] if kind == "or" else [frozenset()]
        for child in arg:
            part = expand(child)
            if part is None:
                return None
            acc = acc + part if kind == "or" else [a | b for a in acc for b in part]
            acc = _absorb(acc)
            if len(acc) > limit:
                return None
        return acc

    return expand(tree)


def _absorb(sets: list[frozenset]) -> list[frozenset]:
    keep: list[frozenset] = []
    for cs in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(k <= cs for k in keep):
            keep.append(cs)
    return keep


def is_coherent(node: tuple) -> bool:
    kind, arg = node
    if kind in LEAF_KINDS:
        return True
    if kind in ("series", "parallel", "and", "or"):
        return all(is_coherent(c) for c in arg)
    return False


def expansion_size(tree: tuple) -> int:
    """Largest cut-set list a naive top-down DNF expansion holds at any node.

    availkit's expansion keeps duplicates and supersets until the end, so
    this is the number its expansion budget is checked against.
    """
    largest = 0

    def size(node: tuple) -> int:
        nonlocal largest
        kind, arg = node
        if kind == "basic":
            return 1
        counts = [size(c) for c in arg]
        total = sum(counts) if kind == "or" else math.prod(counts)
        largest = max(largest, total)
        return total

    size(tree)
    return largest
