"""Shared helpers for the test suite: random model generation and
independent brute-force oracles (kept free of the code paths they check)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

import availkit as ak
from availkit.oracle import _boundaries, _sample_cycles, _stream

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
    needs 2^k - 1 pivots.
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
    needs at least (n - 1)!! pivots.
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


def reference_mc_point(model: ak.SystemModel, t: float, cfg: ak.SimConfig) -> ak.Estimate:
    """The per-trial point estimator that the batched one must equal exactly.

    One np.random.Philox generator per (trial, component), drawn through
    the steady-state sampler _sample_cycles; the state at t is read from
    the boundaries with searchsorted and the structure with reference_holds.
    """
    comps = [
        (c, float(model.components[c].rates.failure_rate), float(model.components[c].rates.repair_rate))
        for c in ak.basic_events(model)
    ]
    values = np.empty(cfg.trials, dtype=np.float64)
    for trial in range(cfg.trials):
        truth = {}
        for ci, (comp, lam, mu) in enumerate(comps):
            ups, downs = _sample_cycles(_stream(cfg.seed, trial, ci), lam, mu, t)
            up = int(np.searchsorted(_boundaries(ups, downs), t, side="right")) % 2 == 0
            truth[comp] = (not up) if model.is_fault_tree else up
        values[trial] = 1.0 if reference_holds(model.body, truth) else 0.0
    n = cfg.trials
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return ak.Estimate(mean=float(values.mean()), std_error=se, trials=n)
