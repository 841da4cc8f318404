"""Shared helpers for the test suite: random model generation and
independent brute-force oracles (kept free of the code paths they check)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np

import availkit as ak
from availkit import oracle
from availkit.modelfile import NESTING_LIMIT

GATE_KINDS = ("and", "or", "nor", "nand", "xor", "not")


def rand_rate_pair(rng: random.Random) -> ak.RatePair:
    """Rational rates with numerator and denominator drawn from 1..9."""
    return ak.RatePair(
        Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        Fraction(rng.randint(1, 9), rng.randint(1, 9)),
    )


def make_components(rng: random.Random, n: int) -> dict[str, ak.ComponentDef]:
    return {f"c{i}": ak.ComponentDef(f"c{i}", rand_rate_pair(rng)) for i in range(1, n + 1)}


def _is_leaf_turn(rng: random.Random, depth: int, depth_limit: int) -> bool:
    return depth >= depth_limit or rng.random() < 0.12 + 0.22 * depth


def _arity(rng: random.Random, depth: int) -> int:
    return rng.randint(2, 4) if depth <= 1 else rng.randint(1, 3)


def random_block(
    rng: random.Random, ids: Sequence[str], depth: int = 0, depth_limit: int = 3
) -> ak.BlockExpr:
    if _is_leaf_turn(rng, depth, depth_limit):
        return ak.Unit(rng.choice(ids))
    children = tuple(
        random_block(rng, ids, depth + 1, depth_limit) for _ in range(_arity(rng, depth))
    )
    return ak.Series(children) if rng.random() < 0.5 else ak.Parallel(children)


def random_coherent_gate(
    rng: random.Random, ids: Sequence[str], depth: int = 0, depth_limit: int = 3
) -> ak.GateExpr:
    if _is_leaf_turn(rng, depth, depth_limit):
        return ak.Basic(rng.choice(ids))
    children = tuple(
        random_coherent_gate(rng, ids, depth + 1, depth_limit) for _ in range(_arity(rng, depth))
    )
    return ak.And(children) if rng.random() < 0.5 else ak.Or(children)


def random_gate(
    rng: random.Random, ids: Sequence[str], depth: int = 0, depth_limit: int = 3
) -> ak.GateExpr:
    if _is_leaf_turn(rng, depth, depth_limit):
        return ak.Basic(rng.choice(ids))
    kind = rng.choice(GATE_KINDS)
    if kind in ("and", "or", "nor"):
        children = tuple(
            random_gate(rng, ids, depth + 1, depth_limit) for _ in range(_arity(rng, depth))
        )
        return {"and": ak.And, "or": ak.Or, "nor": ak.Nor}[kind](children)
    if kind == "nand":
        negated = tuple(random_gate(rng, ids, depth + 1, depth_limit) for _ in range(rng.randint(1, 2)))
        plain = tuple(random_gate(rng, ids, depth + 1, depth_limit) for _ in range(rng.randint(1, 2)))
        return ak.Nand(negated, plain)
    if kind == "xor":
        return ak.Xor(
            random_gate(rng, ids, depth + 1, depth_limit),
            random_gate(rng, ids, depth + 1, depth_limit),
        )
    return ak.Not(random_gate(rng, ids, depth + 1, depth_limit))


def random_model(rng: random.Random, kind: str, max_components: int = 6) -> ak.SystemModel:
    """A valid random model; leaves may repeat, so shared events do occur.

    kind: 'abd', 'coherent-ft' or 'ft' (all gate types).
    """
    components = make_components(rng, rng.randint(1, max_components))
    ids = list(components)
    if kind == "abd":
        body = random_block(rng, ids)
    elif kind == "coherent-ft":
        body = random_coherent_gate(rng, ids)
    elif kind == "ft":
        body = random_gate(rng, ids)
    else:
        raise ValueError(kind)
    used = set(ak.basic_events(ak.SystemModel("tmp", components, body)))
    kept = {cid: c for cid, c in components.items() if cid in used}
    if rng.random() < 0.3:  # sometimes keep an unreferenced declaration
        kept = dict(components)
    return ak.SystemModel(f"random-{kind}", kept, body)


def xor_parity_model(k: int) -> ak.SystemModel:
    """XOR of two parity chains over the same k events.

    The top event never occurs, but conditioning on any event only flips
    a chain, so every other event stays repeated: pivotal decomposition
    without shared sub-results needs 2^k - 1 pivots.
    """
    names = [f"x{i}" for i in range(k)]

    def chain(order: Sequence[str]) -> ak.GateExpr:
        expr: ak.GateExpr = ak.Basic(order[0])
        for name in order[1:]:
            expr = ak.Xor(expr, ak.Basic(name))
        return expr

    comps = {c: ak.ComponentDef(c, ak.RatePair(1, 1)) for c in names}
    return ak.SystemModel(f"parity-{k}", comps, ak.Xor(chain(names), chain(names[::-1])))


def complete_graph_model(n: int, block: bool = False) -> ak.SystemModel:
    """One term per vertex of K_n, each over the events of its n - 1 edges.

    As a fault tree, the OR of those ANDs: n minimal cut sets, each edge
    shared by two.  As a block diagram, the series of the matching
    parallels, whose failure dual is that tree.  Every perfect matching of
    pivoted-down edges ends a separate branch, so pivotal decomposition
    without shared sub-results needs at least (n - 1)!! pivots.
    """
    leaf = ak.Unit if block else ak.Basic
    comps, rows = {}, []
    for i in range(n):
        names = [f"e{min(i, j)}_{max(i, j)}" for j in range(n) if j != i]
        comps.update({c: ak.ComponentDef(c, ak.RatePair(1, 3)) for c in names})
        row = tuple(leaf(c) for c in names)
        rows.append(ak.Parallel(row) if block else ak.And(row))
    body = ak.Series(tuple(rows)) if block else ak.Or(tuple(rows))
    return ak.SystemModel(f"k{n}", comps, body)


def k8_and_implied_model() -> ak.SystemModel:
    """K_8's tree ANDed with a function it implies: K_8's value, but a build
    that a NODE_LIMIT of 2000 refuses and 4000 allows (K_8 alone fits 2000)."""
    k8 = complete_graph_model(8)
    return ak.SystemModel("k8-implied", k8.components, ak.And((k8.body, ak.Or((k8.body, ak.Basic("e0_1"))))))


def nested_model_text(kind: str, depth: int) -> str:
    """.avm text whose braces nest exactly `depth` deep, over three shared components.

    kind 'abd' alternates series and parallel, 'coherent-ft' alternates
    and/or, and 'ft' cycles through every gate (a nand opens two levels).
    """
    gates = {"abd": ("series", "parallel"), "coherent-ft": ("and", "or"), "ft": ("nand", "xor", "not", "nor", "and", "or")}[kind]
    leaf = "unit" if kind == "abd" else "basic"
    text, level, i = f"{leaf} c0", 0, 0
    while level < depth:
        gate = gates[i % len(gates)]
        i += 1
        if gate == "nand" and depth - level >= 2:
            text, level = f"nand {{ neg {{ basic c2 }}; pos {{ {text} }} }}", level + 2
        elif gate == "not":
            text, level = f"not {{ {text} }}", level + 1
        elif gate != "nand":
            text, level = f"{gate} {{ {leaf} c{1 + i % 2}; {text} }}", level + 1
    comps = "".join(f"component c{j} lambda={j + 1}/4 mu=1\n" for j in range(3))
    return f'model "nested-{depth}"\n{comps}{"abd" if kind == "abd" else "ft"}\n{text}\n'


def series_lines(n: int = 3000) -> list[str]:
    """Lines of a model text: a series of n components c0, c1, ... over 15 pairs of rate literals.

    Line k + 2 declares c{k}; components k and k + 15 declare the same two
    literals.  The body is the last line.
    """
    lines = ['model "big"']
    lines += [f"component c{i} lambda={i % 3 + 1}/100 mu={i % 5 + 1}" for i in range(n)]
    lines.append("abd series { " + "; ".join(f"unit c{i}" for i in range(n)) + " }")
    return lines


def reference_lex(text: str) -> list[tuple]:
    """The character-by-character tokenizer the regex lexer replaced.

    Tokens are (kind, text, line, column, offset, value); failures raise
    ModelFileError with one positioned diagnostic.  Unlike the regex lexer
    it takes non-ASCII letters and digits (str.isalpha, str.isdigit) into
    identifiers and numbers.  A number followed by an exponent ('e' or
    'E', an optional sign and digits) is refused at its first character.
    """
    tokens: list[tuple] = []
    i, line, line_start = 0, 1, 0
    n = len(text)
    depth = 0

    def token(kind: str, literal: str, pos: int, value=None) -> tuple:
        return (kind, literal, line, pos - line_start + 1, pos, value)

    def fail(pos: int, message: str) -> ak.ModelFileError:
        span = ak.SourceSpan(line=line, column=pos - line_start + 1, offset=pos)
        return ak.ModelFileError([ak.ParseDiagnostic(message, span)])

    def quoted(literal: str) -> str:
        # a literal of more than 32 characters is named by its first 32 and its length
        return repr(literal) if len(literal) <= 32 else f"{literal[:32]!r}... ({len(literal)} characters)"

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            end = i + 1
            while end < n and text[end] not in '"\n':
                end += 1
            if end >= n or text[end] != '"':
                raise fail(i, "unterminated string")
            tokens.append(token("string", text[i : end + 1], i, text[i + 1 : end]))
            i = end + 1
            continue
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] in "./" and i + 1 < n and text[i + 1].isdigit():
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                end = i + 1 + (i + 1 < n and text[i + 1] in "+-")
                if end < n and text[end].isdigit():
                    while end < n and text[end].isdigit():
                        end += 1
                    raise fail(start, f"exponent in number literal {quoted(text[start:end])}; numbers are integers, decimals or p/q")
            literal = text[start:i]
            try:
                value = Fraction(literal)
            except ZeroDivisionError:
                raise fail(start, f"zero denominator in rational literal {quoted(literal)}") from None
            except ValueError:  # past Python's int-string digit limit
                raise fail(start, f"number literal too long to read ({len(literal)} characters)") from None
            tokens.append(token("number", literal, start, value))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(token("ident", text[start:i], start))
            continue
        if c in "{};=":
            depth += (c == "{") - (c == "}")
            if depth > NESTING_LIMIT:
                raise fail(i, f"nesting deeper than {NESTING_LIMIT} levels")
            tokens.append(token("sym", c, i))
            i += 1
            continue
        raise fail(i, f"unexpected character {c!r}")

    tokens.append(token("eof", "", n))
    return tokens


def primes_in(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p < hi, by a segmented sieve (lo >= 2)."""
    flags = bytearray([1]) * (hi - lo)
    for d in range(2, math.isqrt(hi - 1) + 1):
        first = max(d * d, -(-lo // d) * d)
        flags[first - lo::d] = bytes(len(range(first - lo, hi - lo, d)))
    return [lo + i for i, flag in enumerate(flags) if flag]


def prime_series_model(count: int, lo: int = 10 ** 6) -> ak.SystemModel:
    """A series of `count` units with failure rates 1/p for distinct primes p >= lo.

    Its steady availability is the product of p/(p + 1), whose numerator
    is the product of the primes: about 6 * count digits for lo = 10^6.
    """
    primes = primes_in(lo, lo + 40 * count)[:count]
    comps = {f"u{i}": ak.ComponentDef(f"u{i}", ak.RatePair(Fraction(1, p), 1)) for i, p in enumerate(primes)}
    return ak.SystemModel(f"primes-{count}", comps, ak.Series(tuple(ak.Unit(c) for c in comps)))


def steady_leaf_probs(model: ak.SystemModel) -> dict[str, ak.Probability]:
    """Exact leaf probabilities in the model's native polarity."""
    probs = {}
    for event in ak.basic_events(model):
        rates = model.components[event].rates
        if model.is_fault_tree:
            probs[event] = ak.steady_unavailability(rates)
        else:
            probs[event] = ak.steady_availability(rates)
    return probs


def _reference_children(expr) -> list[tuple[str, object]]:
    if isinstance(expr, (ak.Series, ak.Parallel, ak.And, ak.Or, ak.Nor)):
        return [(f".children[{i}]", c) for i, c in enumerate(expr.children)]
    if isinstance(expr, ak.Nand):
        return [(f".negated[{i}]", c) for i, c in enumerate(expr.negated)] + [
            (f".plain[{i}]", c) for i, c in enumerate(expr.plain)
        ]
    if isinstance(expr, ak.Xor):
        return [(".left", expr.left), (".right", expr.right)]
    if isinstance(expr, ak.Not):
        return [(".child", expr.child)]
    return []


def reference_leaves(expr) -> list[str]:
    """iter_leaves by plain recursion: leaf ids in document order, with repeats."""
    if isinstance(expr, ak.Unit):
        return [expr.component]
    if isinstance(expr, ak.Basic):
        return [expr.event]
    return [leaf for _, child in _reference_children(expr) for leaf in reference_leaves(child)]


def reference_body_diagnostics(model: ak.SystemModel, expr=None, path: str = "body") -> list[ak.Diagnostic]:
    """validate's findings on the body, by plain recursion in document order."""
    expr = model.body if expr is None else expr
    gates = (ak.Basic, ak.And, ak.Or, ak.Nor, ak.Nand, ak.Xor, ak.Not)
    is_gate = isinstance(expr, gates)
    if not (is_gate or isinstance(expr, (ak.Unit, ak.Series, ak.Parallel))):
        return [ak.Diagnostic(f"unexpected node {type(expr).__name__}", path)]
    if is_gate != model.is_fault_tree:
        kind = "gate" if is_gate else "block"
        return [ak.Diagnostic(f"{kind} node {type(expr).__name__} in the wrong structure kind", path)]
    if isinstance(expr, (ak.Unit, ak.Basic)):
        leaf = reference_leaves(expr)[0]
        return [] if leaf in model.components else [ak.Diagnostic(f"unknown component reference {leaf!r}", path)]
    out = []
    if isinstance(expr, (ak.Series, ak.Parallel, ak.And, ak.Or, ak.Nor)) and not expr.children:
        out.append(ak.Diagnostic(f"{type(expr).__name__} node has no children", path))
    if isinstance(expr, ak.Nand):
        if not expr.negated:
            out.append(ak.Diagnostic("Nand node has an empty negated group", path))
        if not expr.plain:
            out.append(ak.Diagnostic("Nand node has an empty plain group", path))
    for segment, child in _reference_children(expr):
        out += reference_body_diagnostics(model, child, path + segment)
    return out


def corrupt(rng: random.Random, expr, rate: float = 0.15):
    """A copy of expr with some subtrees replaced by invalid ones.

    The replacements are a dangling leaf, an empty gate or block, a Nand
    with an empty group, a node of the other structure kind, and an object
    that is no node at all.
    """
    if rng.random() < rate:
        return rng.choice([
            ak.Unit("ghost"),
            ak.Basic("ghost"),
            ak.And(()),
            ak.Series(()),
            ak.Nand((), (expr,)),
            ak.Nand((expr,), ()),
            ak.Or((ak.Unit("ghost"), expr)),
            "junk",
        ])
    if isinstance(expr, (ak.Series, ak.Parallel, ak.And, ak.Or, ak.Nor)):
        return type(expr)(tuple(corrupt(rng, c, rate) for c in expr.children))
    if isinstance(expr, ak.Nand):
        return ak.Nand(tuple(corrupt(rng, c, rate) for c in expr.negated), tuple(corrupt(rng, c, rate) for c in expr.plain))
    if isinstance(expr, ak.Xor):
        return ak.Xor(corrupt(rng, expr.left, rate), corrupt(rng, expr.right, rate))
    if isinstance(expr, ak.Not):
        return ak.Not(corrupt(rng, expr.child, rate))
    return expr


def reference_holds(expr, truth: dict[str, bool]) -> bool:
    """The structure function by plain recursion over the gate set definitions."""
    if isinstance(expr, (ak.Unit, ak.Basic)):
        return truth[expr.component if isinstance(expr, ak.Unit) else expr.event]
    if isinstance(expr, (ak.Series, ak.And)):
        return all(reference_holds(c, truth) for c in expr.children)
    if isinstance(expr, (ak.Parallel, ak.Or)):
        return any(reference_holds(c, truth) for c in expr.children)
    if isinstance(expr, ak.Nor):
        return not any(reference_holds(c, truth) for c in expr.children)
    if isinstance(expr, ak.Nand):
        negated = all(not reference_holds(c, truth) for c in expr.negated)
        return negated and all(reference_holds(c, truth) for c in expr.plain)
    if isinstance(expr, ak.Xor):
        return reference_holds(expr.left, truth) != reference_holds(expr.right, truth)
    return not reference_holds(expr.child, truth)


def reference_compose(expr, leaf_p: dict):
    """analytic._run with no shared events, as plain recursion: every leaf independent.

    Series is And and Parallel is Or; exact when no component repeats.
    """
    if isinstance(expr, ak.Unit):
        return leaf_p[expr.component]
    if isinstance(expr, ak.Basic):
        return leaf_p[expr.event]
    if isinstance(expr, (ak.Series, ak.And)):
        return math.prod(reference_compose(child, leaf_p) for child in expr.children)
    if isinstance(expr, (ak.Parallel, ak.Or, ak.Nor)):
        none = math.prod(1 - reference_compose(child, leaf_p) for child in expr.children)
        return none if isinstance(expr, ak.Nor) else 1 - none
    if isinstance(expr, ak.Nand):
        up = [1 - reference_compose(child, leaf_p) for child in expr.negated]
        return math.prod(up + [reference_compose(child, leaf_p) for child in expr.plain])
    if isinstance(expr, ak.Xor):
        ql, qr = reference_compose(expr.left, leaf_p), reference_compose(expr.right, leaf_p)
        return (1 - ql) * qr + ql * (1 - qr)
    return 1 - reference_compose(expr.child, leaf_p)


def reference_signal(expr, leaves: dict) -> np.ndarray:
    """oracle._signal as it was before structures were compiled: plain recursion over leaf truth arrays."""
    if isinstance(expr, (ak.Unit, ak.Basic)):
        return leaves[expr.component if isinstance(expr, ak.Unit) else expr.event]
    if isinstance(expr, (ak.Series, ak.And)):
        return np.logical_and.reduce([reference_signal(c, leaves) for c in expr.children])
    if isinstance(expr, (ak.Parallel, ak.Or)):
        return np.logical_or.reduce([reference_signal(c, leaves) for c in expr.children])
    if isinstance(expr, ak.Nor):
        return ~np.logical_or.reduce([reference_signal(c, leaves) for c in expr.children])
    if isinstance(expr, ak.Nand):
        neg = np.logical_and.reduce([~reference_signal(c, leaves) for c in expr.negated])
        pos = np.logical_and.reduce([reference_signal(c, leaves) for c in expr.plain])
        return neg & pos
    if isinstance(expr, ak.Xor):
        return reference_signal(expr.left, leaves) != reference_signal(expr.right, leaves)
    return ~reference_signal(expr.child, leaves)


def reference_exhaustive(model: ak.SystemModel, leaf_probs: dict) -> ak.Probability:
    """exhaustive_probability row by row: the Fraction weight of every assignment that holds.

    The result is exact unless some leaf probability is a float, and then
    the exact sum rounded once.
    """
    events = ak.basic_events(model)
    values = [leaf_probs[e].value if isinstance(leaf_probs[e], ak.Probability) else leaf_probs[e] for e in events]
    probs = [Fraction(v) for v in values]
    total = Fraction(0)
    for bits in product((False, True), repeat=len(events)):
        if reference_holds(model.body, dict(zip(events, bits))):
            weight = Fraction(1)
            for p, bit in zip(probs, bits):
                weight *= p if bit else 1 - p
            total += weight
    exact = not any(isinstance(v, float) for v in values)
    return ak.Probability(total if exact else float(total))


def assignments(events: Sequence[str]) -> Iterable[dict[str, bool]]:
    """All 2^n truth assignments over the given events."""
    for bits in product((False, True), repeat=len(events)):
        yield dict(zip(events, bits))


def brute_force_union_probability(cutsets: Iterable[frozenset], probs: dict) -> Fraction:
    """Independent oracle for P(union of cut sets): joint-state enumeration.

    Sums, over every assignment of the involved events, the Bernoulli
    weight of assignments in which at least one cut set fully occurs.
    """
    sets = [frozenset(cs) for cs in cutsets]
    events = sorted({e for cs in sets for e in cs})
    total = Fraction(0)
    for state in assignments(events):
        occurred = {e for e, v in state.items() if v}
        if any(cs <= occurred for cs in sets):
            weight = Fraction(1)
            for e in events:
                p = Fraction(probs[e]) if not isinstance(probs[e], Fraction) else probs[e]
                weight *= p if state[e] else 1 - p
            total += weight
    return total


def reference_round(seed: int, trial: int, component: int, round: int, count: int) -> np.ndarray:
    """The count words of one round of a (trial, component) stream, per the oracle module's contract.

    Each round has its own np.random.Philox, set at the counter just before
    the trial's first block of the round.
    """
    counter = [trial * -(-count // 4), round, 0, component]
    return np.random.Philox(key=seed % 2 ** 64, counter=counter).random_raw(count)


def _reference_cycles(seed: int, trial: int, component: int, lam: float, mu: float, target: float) -> np.ndarray:
    """One stream's boundaries: rounds of 2n words, n doubling, while the last boundary so far is <= target.

    The first round's size is read from oracle._first_round_cycles, so a
    test that patches it changes both this and the estimators.
    """
    n = oracle._first_round_cycles(lam, mu, target)
    ups, downs = [], []
    bounds = np.zeros(1)
    while bounds[-1] <= target:
        words = reference_round(seed, trial, component, len(ups), 2 * n)
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        ups.append(-np.log(u[0::2]) / lam)
        downs.append(-np.log(u[1::2]) / mu)
        merged = np.empty(2 * sum(len(up) for up in ups))
        merged[0::2] = np.concatenate(ups)
        merged[1::2] = np.concatenate(downs)
        bounds = np.cumsum(merged)
        n *= 2
    return bounds


def _reference_rates(model: ak.SystemModel) -> list[tuple[str, float, float]]:
    return [
        (c, float(model.components[c].rates.failure_rate), float(model.components[c].rates.repair_rate))
        for c in ak.basic_events(model)
    ]


def _reference_estimate(values: np.ndarray) -> ak.Estimate:
    n = len(values)
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return ak.Estimate(mean=float(values.mean()), std_error=se, trials=n)


def reference_mc_point(model: ak.SystemModel, t: float, cfg: ak.SimConfig, target: Optional[float] = None) -> ak.Estimate:
    """The per-trial point estimator that the batched one must equal exactly.

    One np.random.Philox generator per (trial, component, round), drawn
    in the rounds of _reference_cycles out to target (t by default; a
    time of a curve is drawn to the largest time of its group); the state
    at t is read from the boundaries with searchsorted and the structure
    with reference_holds.
    """
    target = t if target is None else target
    values = np.empty(cfg.trials, dtype=np.float64)
    for trial in range(cfg.trials):
        truth = {}
        for ci, (comp, lam, mu) in enumerate(_reference_rates(model)):
            bounds = _reference_cycles(cfg.seed, trial, ci, lam, mu, target)
            up = int(np.searchsorted(bounds, t, side="right")) % 2 == 0
            truth[comp] = (not up) if model.is_fault_tree else up
        values[trial] = 1.0 if reference_holds(model.body, truth) else 0.0
    return _reference_estimate(values)


def reference_unrounded_time_held(bounds_by_comp: dict[str, np.ndarray], horizon: float, holds) -> float:
    """Time in [0, horizon) during which holds(truth) is true, one trial at a time, times read as given.

    bounds_by_comp gives each component's sorted state-change times (it
    starts up); truth maps each component to "is up".  The epochs are the
    distinct change times below the horizon, found with np.unique, and
    each component's state in an epoch is read with searchsorted.  The
    held durations are added left to right, starting from 0.0.
    """
    toggles = [np.array([0.0])] + [b[b < horizon] for b in bounds_by_comp.values()]
    epochs = np.unique(np.concatenate(toggles))
    durations = np.diff(np.append(epochs, horizon))
    ups = {c: np.searchsorted(b, epochs, side="right") % 2 == 0 for c, b in bounds_by_comp.items()}
    # holds is read once per distinct joint state; up to 62 components code a state as one integer
    states = np.stack(list(ups.values()), axis=1)
    if states.shape[1] <= 62:
        _, first, index = np.unique(states @ (1 << np.arange(states.shape[1])), return_index=True, return_inverse=True)
    else:
        _, first, index = np.unique(states, axis=0, return_index=True, return_inverse=True)
    held = np.array([holds(dict(zip(ups, map(bool, states[i])))) for i in first], dtype=bool)
    total = 0.0
    for duration in durations[held[index.ravel()]].tolist():
        total += duration
    return total


def reference_time_held(bounds_by_comp: dict[str, np.ndarray], horizon: float, holds) -> float:
    """Fraction of [0, horizon) during which holds(truth) is true, with times rounded as the oracle module rounds them.

    Every time and the horizon lose the low `tag` bits of their floats,
    tag being the bit length of the component count, which rounds each
    down to a multiple of 2**tag ulps; a horizon that would round to 0.0
    becomes the first such multiple above it.  The held time over the
    rounded times, by reference_unrounded_time_held, is divided by the
    rounded horizon.
    """
    tag = len(bounds_by_comp).bit_length()

    def rounded(times):
        return (np.asarray(times, dtype=np.float64).view(np.int64) & -(1 << tag)).view(np.float64)

    horizon = max(float(rounded(horizon)), math.ldexp(1.0, tag - 1074))
    held = reference_unrounded_time_held({c: rounded(b) for c, b in bounds_by_comp.items()}, horizon, holds)
    return held / horizon


def reference_mc_steady(model: ak.SystemModel, cfg: ak.SimConfig) -> ak.Estimate:
    """The per-trial steady-state estimator that the batched one must equal exactly.

    One np.random.Philox generator per (trial, component, round), drawn
    in the rounds of _reference_cycles out to the horizon; each trial's
    value is the fraction of the rounded horizon that reference_time_held
    finds the structure, read with reference_holds, to hold.
    """
    horizon = float(cfg.horizon)
    values = np.empty(cfg.trials, dtype=np.float64)

    def holds(up: dict[str, bool]) -> bool:
        truth = {c: not v for c, v in up.items()} if model.is_fault_tree else up
        return reference_holds(model.body, truth)

    for trial in range(cfg.trials):
        bounds = {
            comp: _reference_cycles(cfg.seed, trial, ci, lam, mu, horizon)
            for ci, (comp, lam, mu) in enumerate(_reference_rates(model))
        }
        values[trial] = reference_time_held(bounds, horizon, holds)
    return _reference_estimate(values)
