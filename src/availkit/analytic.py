"""Closed-form (un)availability evaluation.

Component level, for exponential failure/repair rates (lam, mu):

    steady availability      A    = mu / (mu + lam)
    point availability       A(t) = A + (1 - A) * exp(-(lam + mu) t)
    steady unavailability    Q    = lam / (lam + mu)
    point unavailability     Q(t) = Q - Q * exp(-(lam + mu) t)
    reliability (no repair)  R(t) = exp(-lam t)

System level, one loop evaluates a structure in its native polarity:
series and AND multiply, parallel and OR complement-multiply, and NOR,
XOR and NOT follow their set definitions.  It runs the structure's
post-order program (see model.compile_structure, which lowers NAND to an
AND over NOTs; a SystemModel compiles its body once and keeps the
program) over an operand stack, so it takes any nesting depth.  Its
operands are (numerator, denominator) pairs: exact leaves enter as
reduced integer pairs, multiply without a gcd per step, and the result
is reduced once; float leaves enter as (x, 1.0), so the float
operations, and their order, are those of the gate formulas evaluated
child by child on plain floats.

Leaves naming the same component are one event.  Such events are the
variables of a reduced ordered binary decision diagram (Bryant, 1986;
Rauzy, 1993, for fault trees), built once per model from its program
alone.  A part of the structure with no repeated event enters it as one
variable, computed as a pair at each evaluation.  At each time point,
and in steady state, P(top) is one bottom-up pass over the nodes,
P(u) = p P(hi) + (1 - p) P(lo): pivotal (Shannon) decomposition with
shared sub-results.  It is exact for every gate; a diagram past
NODE_LIMIT nodes is referred to the oracle module.

Steady-state quantities involve no exponential, so with rational rates
they are computed in exact rational arithmetic: each leaf's pair comes
straight from the integer numerators and denominators of its rates.
Point quantities are floating point.  pie_probability always accumulates
exactly (floats are lifted to their exact binary rationals) because the
alternating sum is otherwise prone to cancellation; the result is
rounded once at the end.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .cutsets import CutSetCollection
from .cutsets import expand_to_cutsets, minimize  # noqa: F401 -- unused; perfbench/tracing.py wraps them here
from .model import AND, LEAF, NOR, NOT, OR, XOR, Program, RatePair, SystemModel, _require_valid
from .model import validate  # noqa: F401 -- unused; perfbench/tracing.py wraps analytic.validate

__all__ = [
    "Probability",
    "AnalysisResult",
    "RequiresOracleError",
    "CutSetLimitError",
    "METHOD_CLOSED_FORM",
    "METHOD_COMPOSITIONAL",
    "METHOD_PIVOTAL",
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

# Most nodes the decision diagram of one model may build before it is refused.
# Counted as apply's memo entries: each makes at most one node, and bounds the
# work also where the nodes already exist.
NODE_LIMIT = 1 << 16


class RequiresOracleError(Exception):
    """The decision diagram for the shared events grew past NODE_LIMIT nodes."""


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


def _steady_pair(rates: RatePair, up: bool) -> tuple[int, int]:
    """Steady availability (up) or unavailability as a reduced integer pair.

    With lam = a/b and mu = c/e, A = cb / (cb + ae) and Q = ae / (cb + ae).
    """
    lam, mu = rates.failure_rate, rates.repair_rate
    if not (isinstance(lam, Fraction) and isinstance(mu, Fraction)):
        raise ValueError(f"non-finite rate in {rates}")
    a, b = lam.as_integer_ratio()
    c, e = mu.as_integer_ratio()
    down = a * e
    total = c * b + down
    part = total - down if up else down
    g = math.gcd(part, total)
    return part // g, total // g


def _check_rates(rates: RatePair) -> RatePair:
    """rates, or a ValueError naming its problems (RatePair.problems)."""
    problems = rates.problems()
    if problems:
        raise ValueError(f"{' and '.join(problems)} in {rates}")
    return rates


def steady_availability(rates: RatePair) -> Probability:
    """Long-run availability mu / (mu + lam)."""
    return Probability(Fraction(*_steady_pair(_check_rates(rates), True)))


def steady_unavailability(rates: RatePair) -> Probability:
    """Long-run unavailability lam / (lam + mu)."""
    return Probability(Fraction(*_steady_pair(_check_rates(rates), False)))


def _check_time(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return abs(t)  # -0.0 passes the check; it is time 0.0


def _float_rates(rates: RatePair, cid: Optional[str] = None) -> tuple[float, float]:
    """Rates as floats, or a ValueError naming component cid (or the pair) if one or their sum overflows or both round to 0."""
    try:
        lam, mu = float(rates.failure_rate), float(rates.repair_rate)
    except OverflowError:
        problem = "a rate of {} is too large"
    else:
        if 0.0 < lam + mu < math.inf:
            return lam, mu
        problem = "the rates of {} are too small" if lam + mu == 0.0 else "the sum of the rates of {} is too large"
    owner = "this pair" if cid is None else f"component {cid!r}"
    raise ValueError(problem.format(owner) + " for floating point; only exact steady-state analysis applies")


def _inst(lam: float, mu: float, t: float, up: bool) -> float:
    """Point availability (up) or unavailability at t from float rates."""
    if up:
        steady = mu / (mu + lam)
        return steady + (1.0 - steady) * math.exp(-(lam + mu) * t)
    q = lam / (lam + mu)
    return q - q * math.exp(-(lam + mu) * t)


def inst_availability(rates: RatePair, t: float) -> Probability:
    """Availability at time t, starting from the working state at t=0."""
    t = _check_time(t)
    return Probability(_inst(*_float_rates(_check_rates(rates)), t, True))


def inst_unavailability(rates: RatePair, t: float) -> Probability:
    """Unavailability at time t; the pointwise complement of inst_availability."""
    t = _check_time(t)
    return Probability(_inst(*_float_rates(_check_rates(rates)), t, False))


def reliability_exp(failure_rate: Number, t: float) -> Probability:
    """Survival probability exp(-lam t) of an exponential lifetime."""
    t = _check_time(t)
    try:
        lam = float(failure_rate)
    except OverflowError:
        raise ValueError("failure rate is too large for floating point") from None
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

    # A cut set holding a zero-probability event never occurs and adds 0 to
    # every term it joins, so it is left out; the products below then never
    # divide by zero.
    set_events: list[list[int]] = [sorted(events[e] for e in cs) for cs in sets if all(by_index[events[e]] for e in cs)]
    m = len(set_events)

    # Walk the subsets of cut sets in Gray-code order: exactly one cut set
    # is toggled per step, so the union is maintained by per-event
    # inclusion counts and the product by one multiply or divide per
    # event entering or leaving the union.
    counts = [0] * len(events)
    product = Fraction(1)
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
                    product *= by_index[idx]
        else:
            size -= 1
            for idx in set_events[toggled]:
                counts[idx] -= 1
                if counts[idx] == 0:
                    product /= by_index[idx]
        if size & 1:
            total += product
        else:
            total -= product
    return Probability(total if exact else float(total))


# --- whole-model evaluation ---------------------------------------------------


def _step(op: int, arg: int, stack: list) -> tuple:
    """Pop a gate's arg independent pair operands off stack; return the gate's unreduced pair.

    Series and AND multiply, parallel and OR complement-multiply (1 - n/d
    is (d - n)/d), and NOR, XOR and NOT follow their set definitions.
    (x, 1.0) operands keep every denominator 1.0, and the numerators take
    the float operations of the gate formulas, in operand order.
    """
    if op == XOR:
        rn, rd = stack.pop()
        ln, ld = stack.pop()
        return (ld - ln) * rn + ln * (rd - rn), ld * rd
    if op == NOT:
        n, d = stack.pop()
        return d - n, d
    top = len(stack) - arg
    operands = stack[top:]
    del stack[top:]
    n = d = 1
    if op == AND:
        for cn, cd in operands:
            n *= cn
            d *= cd
        return n, d
    for cn, cd in operands:  # OR or NOR
        n *= cd - cn
        d *= cd
    return (d - n, d) if op == OR else (n, d)


def _fold(steps: Sequence[tuple[int, object]], pairs: Mapping[str, tuple]) -> tuple:
    """The unreduced pair of a program, or of a span of one, whose leaves are all independent."""
    stack: list = []
    for op, arg in steps:
        stack.append(pairs[arg] if op == LEAF else _step(op, arg, stack))
    return stack.pop()


class _Diagram:
    """A reduced ordered binary decision diagram (Bryant, 1986) of one program, with no probabilities in it.

    Node 0 is false and node 1 is true.  Node u > 1 tests the variable at
    level var[u]: it goes to hi[u] when that variable is true and to lo[u]
    when it is false.  Levels count up in the order the program meets the
    variables, and the newest sits on top, nearest the root, so a gate's
    own variable goes above its subtrees' diagrams.  Children are older
    nodes, with smaller ids.  levels[k] is (op, spans): the variable at
    level k is the OR or AND of the parts steps[a:b], one per span (a, b),
    each a post-order subtree with no shared event.  A shared event is the
    span of its first leaf; a program with none is one variable.  The
    shape depends on the program alone, so a model builds its diagram
    once (see _evaluate) and every evaluation passes it its own leaf pairs.
    """

    def __init__(self, program: Program) -> None:
        self.var = [-1, -1]  # the terminals sit below every variable
        self.lo = [0, 1]
        self.hi = [0, 1]
        self.unique: dict[tuple, int] = {}
        self.memo: dict[tuple, int] = {}  # (op, f, g) -> the node of f op g
        self.levels: list[tuple[int, tuple]] = []
        self.steps = program.steps
        shared = {e for e, n in Counter(program.leaves).items() if n > 1}
        events: dict[str, int] = {}
        stack: list = []  # operands: spans (a, b) and node ids
        for i, (op, arg) in enumerate(self.steps):
            if op == LEAF:
                if arg in shared and arg not in events:
                    events[arg] = self.variable(AND, ((i, i + 1),))
                stack.append(events.get(arg, (i, i + 1)))
                continue
            top = len(stack) - arg
            operands = stack[top:]
            del stack[top:]
            stack.append(self.gate(op, operands) if any(type(x) is int for x in operands) else (operands[0][0], i + 1))
        root = self.root = stack.pop() if shared else self.variable(AND, (stack.pop(),))
        reached = [False] * (root + 1)
        reached[root] = True
        for u in range(root, 1, -1):
            if reached[u]:
                reached[self.lo[u]] = reached[self.hi[u]] = True
        self.reached = [u for u in range(2, root + 1) if reached[u]]  # the nodes the pass visits, children first
        del self.unique, self.memo  # needed only while building

    def node(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        u = self.unique.get(key)
        if u is None:
            u = self.unique[key] = len(self.var)
            self.var.append(level)
            self.lo.append(lo)
            self.hi.append(hi)
        return u

    def variable(self, op: int, spans: tuple) -> int:
        """A new variable, the op of the parts that spans compute, above every earlier one."""
        self.levels.append((op, spans))
        return self.node(len(self.levels) - 1, 0, 1)

    def apply(self, op: int, f: int, g: int) -> int:
        """The node of f op g for op in AND, OR, XOR; f XOR 1 is not f.

        Iterative, with an explicit stack of tasks: a pair of nodes to
        combine, or a (level, f, g) triple whose two cofactors are done.
        """
        var, lo, hi, memo = self.var, self.lo, self.hi, self.memo
        tasks: list[tuple] = [(f, g)]
        done: list[int] = []
        while tasks:
            task = tasks.pop()
            if len(task) == 3:
                level, f, g = task
                high = done.pop()
                r = memo[op, f, g] = self.node(level, done.pop(), high)
                done.append(r)
                continue
            f, g = task
            if f > g:
                f, g = g, f
            if f == g:
                r = 0 if op == XOR else f
            elif f == 0:
                r = 0 if op == AND else g
            elif f == 1 and op != XOR:
                r = g if op == AND else 1
            else:
                r = memo.get((op, f, g))
            if r is not None:
                done.append(r)
                continue
            if len(memo) >= NODE_LIMIT:
                limit = f"the decision diagram exceeds the {NODE_LIMIT}-node limit"
                raise RequiresOracleError(f"shared events: {limit}; use exhaustive enumeration or simulation")
            vf, vg = var[f], var[g]
            level = vf if vf > vg else vg
            tasks.append((level, f, g))
            tasks.append((hi[f] if vf == level else f, hi[g] if vg == level else g))
            tasks.append((lo[f] if vf == level else f, lo[g] if vg == level else g))
        return done.pop()

    def gate(self, op: int, operands: list) -> int:
        """One program step over operands of which at least one is a node.

        The span operands are independent of everything else, so they enter
        as one new variable, their fold under OR (for OR and NOR; a NOR is
        negated with the rest at the end) or AND (XOR has one span at most,
        which AND passes through); then apply combines the nodes two at a time.
        """
        if op == NOT:
            return self.apply(XOR, 1, operands[0])
        nodes, spans = [], []
        for x in operands:
            (nodes if type(x) is int else spans).append(x)
        if spans:
            nodes.append(self.variable(OR if op == OR or op == NOR else AND, tuple(spans)))
        combine = OR if op == OR or op == NOR else XOR if op == XOR else AND
        nodes.sort(key=self.var.__getitem__)  # deepest first: each apply then adds few nodes
        top = nodes[0]
        for u in nodes[1:]:
            top = self.apply(combine, top, u)
        return self.apply(XOR, 1, top) if op == NOR else top

    def probability(self, pairs: Mapping[str, tuple]) -> tuple:
        """P(root) as an unreduced pair, given each leaf's pair, from one bottom-up pass.

        A level's pair is _step over the folds of its parts.  Node u gets
        the numerator N[u] of P(u) = N[u] / scale[var[u] + 1], where
        scale[k] is the product of the denominators of the levels below k,
        so P(u) = p P(hi) + (1 - p) P(lo) needs integer products only.
        """
        steps = self.steps
        probs = [_step(op, len(spans), [_fold(steps[a:b], pairs) for a, b in spans]) for op, spans in self.levels]
        var, lo, hi, root = self.var, self.lo, self.hi, self.root
        scale = [1.0 if isinstance(probs[0][1], float) else 1]
        for _, d in probs:
            scale.append(scale[-1] * d)
        value = [0, scale[0]] + [0] * (root - 1)
        for u in self.reached:
            level, h, g = var[u], hi[u], lo[u]
            n, d = probs[level]
            up, down = scale[level] // scale[var[h] + 1], scale[level] // scale[var[g] + 1]
            value[u] = n * value[h] * up + (d - n) * value[g] * down
        return value[root], scale[var[root] + 1]


def _evaluate(model: SystemModel, pairs: Mapping[str, tuple], t: Optional[float] = None) -> AnalysisResult:
    """The probability that the model's structure holds, reduced once to a Fraction or a float.

    pairs gives each leaf's probability of being true as a pair: integers
    for an exact value, (x, 1.0) for a float x.  With every leaf distinct
    the program folds straight into one pair; leaves naming one component
    are one event, which the model's decision diagram handles.
    """
    program = model.program
    if program.distinct:
        n, d = _fold(program.steps, pairs)
        method = METHOD_CLOSED_FORM if len(program.steps) == 1 else METHOD_COMPOSITIONAL
    else:
        # built once and kept in the __dict__ like program; so is a refusal,
        # as (message, the NODE_LIMIT it was made under), until the limit changes
        kept = vars(model).get("_diagram")
        if kept is None or (isinstance(kept, tuple) and kept[1] != NODE_LIMIT):
            try:
                kept = _Diagram(program)
            except RequiresOracleError as refusal:
                kept = (str(refusal), NODE_LIMIT)
            vars(model)["_diagram"] = kept
        if isinstance(kept, tuple):
            raise RequiresOracleError(kept[0])
        n, d = kept.probability(pairs)
        method = METHOD_PIVOTAL
    return AnalysisResult(Probability(Fraction(n, d) if isinstance(d, int) else n / d), method, time=t)


def _leaf_pairs(model: SystemModel, pair_of: Callable[[RatePair, str], tuple]) -> dict[str, tuple]:
    """Each event's leaf pair, from pair_of(rates, event) called once per rate-pair object.

    Keyed by the pair object's id, not its value: equal pairs give equal
    leaf pairs anyway, and hashing a pair hashes its Fractions in Python.
    The parser gives every component declared with the same two literals
    one pair object, so a large parsed model calls pair_of a few times.
    """
    components = model.components
    by_rates: dict[int, tuple] = {}
    pairs = {}
    for e in model.program.events:
        rates = components[e].rates
        pair = by_rates.get(id(rates))
        if pair is None:
            pair = by_rates[id(rates)] = pair_of(rates, e)
        pairs[e] = pair
    return pairs


def evaluate_steady(model: SystemModel) -> AnalysisResult:
    """Steady-state availability (block body) or unavailability (tree body).

    Leaves take their exact steady probabilities, so the result is an
    exact rational; each is computed once per rate-pair object, which
    components may share.  Repeated leaves are handled by the decision
    diagram.
    """
    _require_valid(model)
    up = not model.is_fault_tree
    return _evaluate(model, _leaf_pairs(model, lambda rates, e: _steady_pair(rates, up)))


def evaluate_point(model: SystemModel, t: float) -> AnalysisResult:
    """Availability (block body) or unavailability (tree body) at time t.

    Leaves take their point probabilities (floats), computed once per
    rate-pair object as in evaluate_steady.  Rates that do not fit
    floating point raise a ValueError naming the first component, in
    event order, that has such rates.  Repeated leaves are handled as in
    evaluate_steady.
    """
    _require_valid(model)
    t = _check_time(t)
    up = not model.is_fault_tree
    return _evaluate(model, _leaf_pairs(model, lambda rates, e: (_inst(*_float_rates(rates, e), t, up), 1.0)), t)
