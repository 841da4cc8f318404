"""Closed-form (un)availability evaluation.

Component level, for exponential failure/repair rates (lam, mu):

    steady availability      A    = mu / (mu + lam)
    point availability       A(t) = A + (1 - A) * exp(-(lam + mu) t)
    steady unavailability    Q    = lam / (lam + mu)
    point unavailability     Q(t) = Q - Q * exp(-(lam + mu) t)
    reliability (no repair)  R(t) = exp(-lam t)

System level, one walker (compose) evaluates a structure in its native
polarity assuming independent leaves: series and AND multiply, parallel
and OR complement-multiply, and NAND, NOR, XOR and NOT follow their set
definitions.  Leaves naming the same component are one event, so such
models go through pivotal (Shannon) decomposition on the repeated events
(Barlow & Proschan, 1975): P(S) = p_x P(S | x) + (1 - p_x) P(S | not x),
each side folded and decomposed again until no leaf repeats.  This is
exact for every gate, in steady state and at a point in time.  A
decomposition past PIVOT_LIMIT pivots falls back, for coherent
structures, to inclusion-exclusion over the minimal cut sets; whatever
neither route can take is referred to the oracle module.

Steady-state quantities involve no exponential, so with rational rates
they are computed in exact rational arithmetic.  Point quantities are
floating point.  pie_probability always accumulates exactly (floats are
lifted to their exact binary rationals) because the alternating sum is
otherwise prone to cancellation; the result is rounded once at the end.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cutsets import CutSetCollection, ExpansionLimitError, expand_to_cutsets, is_coherent, minimize
from .model import (
    And,
    Basic,
    BlockExpr,
    Expr,
    Nand,
    Nor,
    Not,
    Or,
    Parallel,
    RatePair,
    Series,
    SystemModel,
    Unit,
    Xor,
    iter_leaves,
    validate,
)

__all__ = [
    "Probability",
    "AnalysisResult",
    "RequiresOracleError",
    "CutSetLimitError",
    "METHOD_CLOSED_FORM",
    "METHOD_COMPOSITIONAL",
    "METHOD_PIVOTAL",
    "METHOD_INCLUSION_EXCLUSION",
    "steady_availability",
    "steady_unavailability",
    "inst_availability",
    "inst_unavailability",
    "reliability_exp",
    "series_steady",
    "parallel_steady",
    "series_parallel_steady",
    "parallel_series_steady",
    "and_gate_unavail",
    "or_gate_unavail",
    "nor_gate_unavail",
    "nand_gate_unavail",
    "xor_gate_unavail",
    "not_gate_unavail",
    "pie_probability",
    "evaluate_steady",
    "evaluate_point",
]

Number = Union[Fraction, float]

METHOD_CLOSED_FORM = "closed-form"
METHOD_COMPOSITIONAL = "compositional"
METHOD_PIVOTAL = "pivotal-decomposition"
METHOD_INCLUSION_EXCLUSION = "inclusion-exclusion"

# Most pivots one pivotal decomposition may take before it falls back or is refused.
PIVOT_LIMIT = 4096


class RequiresOracleError(Exception):
    """Pivotal decomposition passed PIVOT_LIMIT and inclusion-exclusion does not apply."""


class CutSetLimitError(Exception):
    """Inclusion-exclusion refused: too many cut sets for the term budget."""


@dataclass(frozen=True)
class Probability:
    """A probability in [0, 1]; exact when the value is a Fraction.

    Out-of-range values are internal errors, never clamped.
    """

    value: Number

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"probability out of range: {self.value!r}")

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def as_float(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class AnalysisResult:
    """A probability plus how it was obtained; time is None for steady state."""

    probability: Probability
    method: str
    time: Optional[float] = None


# --- component level ---------------------------------------------------------


def steady_availability(rates: RatePair) -> Probability:
    """Long-run availability mu / (mu + lam)."""
    lam, mu = rates.failure_rate, rates.repair_rate
    return Probability(mu / (mu + lam))


def steady_unavailability(rates: RatePair) -> Probability:
    """Long-run unavailability lam / (lam + mu)."""
    lam, mu = rates.failure_rate, rates.repair_rate
    return Probability(lam / (lam + mu))


def _check_time(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return t


def inst_availability(rates: RatePair, t: float) -> Probability:
    """Availability at time t, starting from the working state at t=0."""
    t = _check_time(t)
    lam, mu = float(rates.failure_rate), float(rates.repair_rate)
    steady = mu / (mu + lam)
    return Probability(steady + (1.0 - steady) * math.exp(-(lam + mu) * t))


def inst_unavailability(rates: RatePair, t: float) -> Probability:
    """Unavailability at time t; the pointwise complement of inst_availability."""
    t = _check_time(t)
    lam, mu = float(rates.failure_rate), float(rates.repair_rate)
    q = lam / (lam + mu)
    return Probability(q - q * math.exp(-(lam + mu) * t))


def reliability_exp(failure_rate: Number, t: float) -> Probability:
    """Survival probability exp(-lam t) of an exponential lifetime."""
    t = _check_time(t)
    lam = float(failure_rate)
    if lam <= 0:
        raise ValueError(f"failure rate must be > 0, got {failure_rate}")
    return Probability(math.exp(-lam * t))


# --- block structures, steady state ------------------------------------------


def series_steady(rates: Sequence[RatePair]) -> Probability:
    """Product of member availabilities; the empty series is the sure event."""
    return Probability(math.prod((steady_availability(r).value for r in rates), start=Fraction(1)))


def parallel_steady(rates: Sequence[RatePair]) -> Probability:
    """1 - product of member unavailabilities; empty parallel never works."""
    return Probability(1 - math.prod((steady_unavailability(r).value for r in rates), start=Fraction(1)))


def series_parallel_steady(groups: Sequence[Sequence[RatePair]]) -> Probability:
    """Series of parallel stages: prod_i (1 - prod_j (1 - A_ij))."""
    if not groups:
        raise ValueError("series-parallel structure needs at least one stage")
    for i, stage in enumerate(groups):
        if not stage:
            raise ValueError(f"stage {i} of series-parallel structure is empty")
    return Probability(math.prod((parallel_steady(s).value for s in groups), start=Fraction(1)))


def parallel_series_steady(groups: Sequence[Sequence[RatePair]]) -> Probability:
    """Parallel of series branches: 1 - prod_i (1 - prod_j A_ij)."""
    if not groups:
        raise ValueError("parallel-series structure needs at least one branch")
    for i, branch in enumerate(groups):
        if not branch:
            raise ValueError(f"branch {i} of parallel-series structure is empty")
    return Probability(1 - math.prod((1 - series_steady(b).value for b in groups), start=Fraction(1)))


# --- fault tree gates, steady state ------------------------------------------


def and_gate_unavail(rates: Sequence[RatePair]) -> Probability:
    """All inputs down: prod lam_i / (lam_i + mu_i)."""
    if not rates:
        raise ValueError("AND gate needs at least one input")
    return Probability(math.prod((steady_unavailability(r).value for r in rates), start=Fraction(1)))


def or_gate_unavail(rates: Sequence[RatePair]) -> Probability:
    """At least one input down: 1 - prod (1 - Q_i)."""
    if not rates:
        raise ValueError("OR gate needs at least one input")
    return Probability(1 - nor_gate_unavail(rates).value)


def nor_gate_unavail(rates: Sequence[RatePair]) -> Probability:
    """No input down: prod (1 - Q_i)."""
    if not rates:
        raise ValueError("NOR gate needs at least one input")
    return Probability(math.prod((1 - steady_unavailability(r).value for r in rates), start=Fraction(1)))


def nand_gate_unavail(negated: Sequence[RatePair], plain: Sequence[RatePair]) -> Probability:
    """Negated group all up, plain group all down.

    Probability is the product of the negated group's availabilities with
    the plain group's unavailabilities.
    """
    if not negated or not plain:
        raise ValueError("NAND gate needs at least one input in each group")
    up = math.prod((steady_availability(r).value for r in negated), start=Fraction(1))
    return Probability(up * math.prod(steady_unavailability(r).value for r in plain))


def xor_gate_unavail(a: RatePair, b: RatePair) -> Probability:
    """Exactly one of two inputs down: (1-Q1) Q2 + Q1 (1-Q2)."""
    qa = steady_unavailability(a).value
    qb = steady_unavailability(b).value
    return Probability((1 - qa) * qb + qa * (1 - qb))


def not_gate_unavail(a: RatePair) -> Probability:
    """Complement of the input event: mu / (lam + mu)."""
    return Probability(1 - steady_unavailability(a).value)


# --- probabilistic inclusion-exclusion ---------------------------------------


def _exact_probability(value: object, event: str) -> tuple[Fraction, bool]:
    """Lift one event probability to an exact rational, noting its mode."""
    if isinstance(value, Probability):
        value = value.value
    if isinstance(value, bool):
        raise TypeError(f"probability for event {event!r} is a bool")
    if isinstance(value, Fraction):
        exact = True
    elif isinstance(value, int):
        value, exact = Fraction(value), True
    elif isinstance(value, float):
        value, exact = Fraction(value), False
    else:
        raise TypeError(f"cannot use {value!r} as a probability for event {event!r}")
    if not 0 <= value <= 1:
        raise ValueError(f"probability for event {event!r} out of range: {float(value)}")
    return value, exact


def pie_probability(
    cutsets: Union[CutSetCollection, Iterable[frozenset[str]]],
    probs: Mapping[str, Union[Probability, Number, int]],
    max_cutsets: int = 20,
) -> Probability:
    """Probability of the union of cut sets, by inclusion-exclusion.

    Each cut set occurs when all of its (mutually independent) events do;
    the union's probability is the alternating sum over nonempty subsets J
    of the cut sets of (-1)^(|J|-1) * prod of the probabilities of the
    events in union(J).  The 2^m - 1 terms make this exponential in the
    number of cut sets m, so the expansion refuses beyond max_cutsets.
    """
    sets = list(cutsets.sets if isinstance(cutsets, CutSetCollection) else cutsets)
    m = len(sets)
    if m > max_cutsets:
        raise CutSetLimitError(
            f"refusing inclusion-exclusion over {m} cut sets: "
            f"2^{m} - 1 = {2 ** m - 1} terms exceeds the {max_cutsets}-set limit"
        )
    if m == 0:
        return Probability(Fraction(0))

    events: dict[str, int] = {}
    for cs in sets:
        for e in cs:
            events.setdefault(e, len(events))
    exact = True
    by_index: list[Fraction] = [Fraction(0)] * len(events)
    for e, idx in events.items():
        if e not in probs:
            raise KeyError(f"no probability for event {e!r}")
        value, value_exact = _exact_probability(probs[e], e)
        by_index[idx] = value
        exact = exact and value_exact

    set_events: list[list[int]] = [sorted(events[e] for e in cs) for cs in sets]

    # Walk the subsets of cut sets in Gray-code order: exactly one cut set
    # is toggled per step, so the union is maintained by per-event
    # inclusion counts and the product by one multiply or divide per
    # event entering or leaving the union.  Zero-probability events are
    # counted separately to keep division safe.
    counts = [0] * len(events)
    product = Fraction(1)
    zero_events_in_union = 0
    size = 0
    total = Fraction(0)
    for step in range(1, 1 << m):
        toggled = (step & -step).bit_length() - 1
        gray = step ^ (step >> 1)
        entering = gray & (1 << toggled) != 0
        if entering:
            size += 1
            for idx in set_events[toggled]:
                counts[idx] += 1
                if counts[idx] == 1:
                    if by_index[idx]:
                        product *= by_index[idx]
                    else:
                        zero_events_in_union += 1
        else:
            size -= 1
            for idx in set_events[toggled]:
                counts[idx] -= 1
                if counts[idx] == 0:
                    if by_index[idx]:
                        product /= by_index[idx]
                    else:
                        zero_events_in_union -= 1
        if zero_events_in_union:
            continue
        if size & 1:
            total += product
        else:
            total -= product
    return Probability(total if exact else float(total))


# --- whole-model evaluation ---------------------------------------------------


def _require_valid(model: SystemModel) -> None:
    diags = validate(model)
    if diags:
        raise ValueError("invalid model: " + "; ".join(str(d) for d in diags))


def compose(expr: Expr, leaf_p: Mapping[str, Number]) -> Number:
    """Probability that expr holds, given each leaf's probability of being true.

    Series is And and Parallel is Or; exact when no component repeats.
    """
    if isinstance(expr, Unit):
        return leaf_p[expr.component]
    if isinstance(expr, Basic):
        return leaf_p[expr.event]
    if isinstance(expr, (Series, And)):
        return math.prod(compose(child, leaf_p) for child in expr.children)
    if isinstance(expr, (Parallel, Or, Nor)):
        none = math.prod(1 - compose(child, leaf_p) for child in expr.children)
        return none if isinstance(expr, Nor) else 1 - none
    if isinstance(expr, Nand):
        up = [1 - compose(child, leaf_p) for child in expr.negated]
        return math.prod(up + [compose(child, leaf_p) for child in expr.plain])
    if isinstance(expr, Xor):
        ql, qr = compose(expr.left, leaf_p), compose(expr.right, leaf_p)
        return (1 - ql) * qr + ql * (1 - qr)
    return 1 - compose(expr.child, leaf_p)


def _condition(expr: Expr, event: str, value: bool, shared: set, leaf_p: dict) -> Union[Expr, bool]:
    """expr with the leaves naming event fixed to value, constants folded.

    The result is a bool when the constant decides expr.  Otherwise each
    part of it free of the shared leaves is folded into one pseudo-leaf:
    such a part is independent of the rest, so compose evaluates it once
    here instead of once per later branch.  The free children of one
    n-ary gate fold together.  Pseudo-leaf probabilities go into leaf_p
    under names ("#k") that no component identifier can take.
    """

    def fold(part: Expr) -> Expr:
        if isinstance(part, (Unit, Basic)):
            return part
        name = f"#{len(leaf_p)}"
        leaf_p[name] = compose(part, leaf_p)
        return Basic(name)

    def walk(node: Expr) -> Union[Expr, bool, None]:  # None when node holds no shared leaf
        if isinstance(node, (Unit, Basic)):
            leaf = node.component if isinstance(node, Unit) else node.event
            return value if leaf == event else (node if leaf in shared else None)
        if isinstance(node, Not):
            child = walk(node.child)
            if isinstance(child, bool):
                return not child
            return None if child is None else Not(child)
        if isinstance(node, Xor):
            left, right = walk(node.left), walk(node.right)
            if left is None and right is None:
                return None
            left = fold(node.left) if left is None else left
            right = fold(node.right) if right is None else right
            if isinstance(left, bool):
                left, right = right, left
            if not isinstance(right, bool):
                return Xor(left, right)
            if isinstance(left, bool):
                return left != right
            return Not(left) if right else left
        if isinstance(node, Nand):
            return walk(And((Nor(node.negated), And(node.plain))))
        # An AND-like gate is decided by a false input, an OR-like one by a true one.
        stop = not isinstance(node, (Series, And))
        kept, loose = [], []
        for child in node.children:
            part = walk(child)
            if part is stop:
                return stop != isinstance(node, Nor)
            if part is None:
                loose.append(child)
            elif not isinstance(part, bool):
                kept.append(part)
        if len(loose) == len(node.children):
            return None
        if len(loose) > 1:  # a NOR's inputs group under an OR
            loose = [(Or if isinstance(node, Nor) else type(node))(tuple(loose))]
        kept += [fold(child) for child in loose]
        return type(node)(tuple(kept)) if kept else (not stop) != isinstance(node, Nor)

    return walk(expr)


def _failure_dual(block: BlockExpr) -> Expr:
    """The coherent fault tree that occurs iff the block diagram is down."""
    if isinstance(block, Unit):
        return Basic(block.component)
    if isinstance(block, Series):
        return Or(tuple(_failure_dual(c) for c in block.children))
    return And(tuple(_failure_dual(c) for c in block.children))


def _inclusion_exclusion(model: SystemModel, leaf_p: Mapping[str, Number]) -> Number:
    """P(body) by inclusion-exclusion over the minimal cut sets of a coherent structure."""
    tree = model.body if model.is_fault_tree else _failure_dual(model.body)
    down = leaf_p if model.is_fault_tree else {cid: 1 - p for cid, p in leaf_p.items()}
    reason = "the tree is not coherent"
    if is_coherent(tree):
        try:
            union = pie_probability(minimize(expand_to_cutsets(tree)), down).value
            return union if model.is_fault_tree else 1 - union
        except (ExpansionLimitError, CutSetLimitError) as exc:
            reason = str(exc)
    raise RequiresOracleError(
        f"shared leaves: pivotal decomposition exceeds the {PIVOT_LIMIT}-pivot limit "
        f"({reason}); use exhaustive enumeration or simulation"
    )


def _evaluate(model: SystemModel, leaf_p: dict, t: Optional[float] = None) -> AnalysisResult:
    """Pivotal decomposition on repeated leaves, then compose on each branch.

    While a leaf repeats, condition on the most repeated one (the first in
    document order on ties).  Past PIVOT_LIMIT pivots, fall back to
    inclusion-exclusion.  leaf_p gains entries for folded subtrees.
    """
    pivots = 0

    def holds(tree: Union[Expr, bool]) -> Number:
        nonlocal pivots
        if isinstance(tree, bool):
            return int(tree)
        leaves = list(iter_leaves(tree))
        if len(set(leaves)) == len(leaves):
            return compose(tree, leaf_p)
        pivots += 1
        if pivots > PIVOT_LIMIT:
            raise RequiresOracleError  # caught below: fall back to inclusion-exclusion
        counts = Counter(leaves)
        event = counts.most_common(1)[0][0]
        shared = {e for e, n in counts.items() if n > 1}
        up, down = (_condition(tree, event, v, shared, leaf_p) for v in (True, False))
        p = leaf_p[event]
        return p * holds(up) + (1 - p) * holds(down)

    try:
        value = holds(model.body)
    except RequiresOracleError:
        value, method = _inclusion_exclusion(model, leaf_p), METHOD_INCLUSION_EXCLUSION
    else:
        single = isinstance(model.body, (Unit, Basic))
        method = METHOD_PIVOTAL if pivots else (METHOD_CLOSED_FORM if single else METHOD_COMPOSITIONAL)
    return AnalysisResult(Probability(value), method, time=t)


def evaluate_steady(model: SystemModel) -> AnalysisResult:
    """Steady-state availability (block body) or unavailability (tree body).

    Leaves take their exact steady probabilities, so the result is an
    exact rational.  Repeated leaves are handled by pivotal decomposition,
    with inclusion-exclusion past the pivot limit.
    """
    _require_valid(model)
    return _steady(model)


def _steady(model: SystemModel) -> AnalysisResult:
    """evaluate_steady of a model already validated (parse_model validates)."""
    leaf = steady_unavailability if model.is_fault_tree else steady_availability
    return _evaluate(model, {cid: leaf(c.rates).value for cid, c in model.components.items()})


def evaluate_point(model: SystemModel, t: float) -> AnalysisResult:
    """Availability (block body) or unavailability (tree body) at time t.

    Leaves take their point probabilities (floats); repeated leaves are
    handled as in evaluate_steady.
    """
    _require_valid(model)
    return _point(model, t)


def _point(model: SystemModel, t: float) -> AnalysisResult:
    """evaluate_point of a model already validated (parse_model validates)."""
    t = _check_time(t)
    leaf = inst_unavailability if model.is_fault_tree else inst_availability
    return _evaluate(model, {cid: leaf(c.rates, t).value for cid, c in model.components.items()}, t)
