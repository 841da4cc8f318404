"""Compiled structure programs: equal to the recursive evaluators they replaced, at any depth."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import analytic, oracle
from availkit.model import LEAF, NAND, NOT, OR, compile_structure
from support import assignments, reference_compose, reference_holds, reference_leaves, reference_signal

NAMES = ("a", "b", "c", "d")


def trees(block: bool) -> st.SearchStrategy:
    """Block diagrams or fault trees of every gate kind over NAMES, so leaves often repeat."""
    leaf = st.sampled_from(NAMES).map(ak.Unit if block else ak.Basic)

    def extend(kids: st.SearchStrategy) -> st.SearchStrategy:
        group = st.lists(kids, min_size=1, max_size=4).map(tuple)
        if block:
            return st.one_of(group.map(ak.Series), group.map(ak.Parallel))
        small = st.lists(kids, min_size=1, max_size=2).map(tuple)
        return st.one_of(
            group.map(ak.And),
            group.map(ak.Or),
            group.map(ak.Nor),
            st.builds(ak.Nand, small, small),
            st.builds(ak.Xor, kids, kids),
            kids.map(ak.Not),
        )

    return st.recursive(leaf, extend, max_leaves=24)


def renamed(expr, names: list):
    """expr with its leaves renamed in document order from the front of names (consumed)."""
    if isinstance(expr, ak.Unit):
        return ak.Unit(names.pop(0))
    if isinstance(expr, ak.Basic):
        return ak.Basic(names.pop(0))
    if isinstance(expr, ak.Nand):
        return ak.Nand(tuple(renamed(c, names) for c in expr.negated), tuple(renamed(c, names) for c in expr.plain))
    if isinstance(expr, ak.Xor):
        return ak.Xor(renamed(expr.left, names), renamed(expr.right, names))
    if isinstance(expr, ak.Not):
        return ak.Not(renamed(expr.child, names))
    return type(expr)(tuple(renamed(c, names) for c in expr.children))


@st.composite
def structures(draw) -> tuple:
    """(tree, its leaf ids): shared leaves as drawn, or every leaf renamed apart."""
    tree = draw(st.booleans().flatmap(trees))
    if draw(st.booleans()):
        tree = renamed(tree, [f"x{i}" for i in range(len(reference_leaves(tree)))])
    return tree, sorted(set(reference_leaves(tree)))


exact_probs = st.fractions(min_value=0, max_value=1, max_denominator=1000)
float_probs = st.floats(min_value=0.0, max_value=1.0)


def as_pairs(probs: dict) -> dict:
    """Each leaf's probability as analytic._run takes it: an integer pair, or (x, 1.0) for a float x."""
    return {e: (p, 1.0) if isinstance(p, float) else (p.numerator, p.denominator) for e, p in probs.items()}


class TestEqualsRecursiveReference:
    @settings(deadline=None)
    @given(structures(), st.booleans(), st.data())
    def test_compose(self, structure, exact, data):
        tree, events = structure
        probs = {e: data.draw(exact_probs if exact else float_probs, label=e) for e in events}
        got = analytic._run(compile_structure(tree).steps, as_pairs(probs))
        want = reference_compose(tree, probs)
        if exact:
            assert isinstance(got, Fraction) and got == want
        else:
            assert isinstance(got, float) and got.hex() == float(want).hex()

    @settings(deadline=None)
    @given(structures(), st.integers(0, 2**32 - 1))
    def test_signal_and_leaves(self, structure, seed):
        tree, events = structure
        program = compile_structure(tree)
        assert list(program.leaves) == reference_leaves(tree)
        assert sorted(program.events) == events
        assert program.distinct == (len(events) == len(program.leaves))
        rng = np.random.default_rng(seed)
        leaves = {e: rng.random(64) < 0.5 for e in events}
        got = oracle._signal(program, leaves)
        assert got.dtype == bool and np.array_equal(got, reference_signal(tree, leaves))


class TestSharedEvents:
    @settings(deadline=None)
    @given(st.booleans().flatmap(trees), st.booleans(), st.data())
    def test_run_equals_enumeration(self, tree, exact, data):
        # the leaves of the repeated events are one event each: _run's
        # decision diagram equals summing over the truth table
        events = sorted(set(reference_leaves(tree)))
        probs = {e: data.draw(exact_probs if exact else float_probs, label=e) for e in events}
        program = compile_structure(tree)
        shared = {e for e in events if program.leaves.count(e) > 1}
        got = analytic._run(program.steps, as_pairs(probs), shared)
        want = sum(
            math.prod(probs[e] if truth[e] else 1 - probs[e] for e in events)
            for truth in assignments(events)
            if reference_holds(tree, truth)
        )
        if exact:
            assert isinstance(got, Fraction) and got == want
        else:
            assert isinstance(got, float) and got == pytest.approx(want, abs=1e-12)


class TestProgram:
    def test_post_order_steps(self):
        body = ak.Or((ak.Basic("a"), ak.Nand((ak.Basic("b"),), (ak.Not(ak.Basic("a")), ak.Basic("c")))))
        program = compile_structure(body)
        assert program.steps == (
            (LEAF, "a"),
            (LEAF, "b"),
            (LEAF, "a"),
            (NOT, None),
            (LEAF, "c"),
            (NAND, (1, 2)),
            (OR, 2),
        )
        assert program.events == ("a", "b", "c") and not program.distinct

    def test_series_is_and_parallel_is_or(self):
        block = compile_structure(ak.Series((ak.Unit("a"), ak.Parallel((ak.Unit("b"), ak.Unit("c"))))))
        gate = compile_structure(ak.And((ak.Basic("a"), ak.Or((ak.Basic("b"), ak.Basic("c"))))))
        assert block == gate

    def test_compiled_once_per_model_and_ignored_by_eq(self):
        model = ak.SystemModel("m", {"a": ak.ComponentDef("a", ak.RatePair(1, 2))}, ak.Not(ak.Basic("a")))
        twin = ak.SystemModel("m", dict(model.components), model.body)
        assert model.program is model.program
        assert model == twin and repr(model) == repr(twin)

    def test_not_a_structure_node(self):
        with pytest.raises(TypeError, match="not a structure node"):
            compile_structure(ak.And((ak.Basic("a"), "junk")))


# --- deep models built through the API: the parser stops at NESTING_LIMIT, the engines do not ---

DEPTH = 5000
RATES = ak.RatePair(1, 3)


def not_chain(depth: int) -> ak.SystemModel:
    """`depth` NOTs over one basic event: the event itself when depth is even."""
    expr = ak.Basic("a")
    for _ in range(depth):
        expr = ak.Not(expr)
    return ak.SystemModel(f"not-{depth}", {"a": ak.ComponentDef("a", RATES)}, expr)


def and_or_chain(depth: int, every: int) -> ak.SystemModel:
    """`depth` nested gates, AND at odd levels and OR at even ones, over the leaf x0.

    Level k (1 at the bottom) also takes its own leaf xk when k is a
    multiple of `every`, so every leaf is distinct; an odd `every` puts
    such leaves under both gate kinds.
    """
    expr = ak.Basic("x0")
    for k in range(1, depth + 1):
        children = (ak.Basic(f"x{k}"), expr) if k % every == 0 else (expr,)
        expr = ak.And(children) if k % 2 else ak.Or(children)
    names = ["x0"] + [f"x{k}" for k in range(every, depth + 1, every)]
    return ak.SystemModel(f"and-or-{depth}", {c: ak.ComponentDef(c, RATES) for c in names}, expr)


def and_or_closed_form(depth: int, every: int, q):
    """The chain's top-event probability, level by level, each leaf with probability q."""
    value = q
    for k in range(every, depth + 1, every):
        value = value * q if k % 2 else 1 - (1 - value) * (1 - q)
    return value


class TestDeepModels:
    def check_five_engines(self, model, steady, point_at):
        t = 0.4
        assert ak.evaluate_steady(model).probability.value == steady
        assert ak.evaluate_point(model, t).probability.value == pytest.approx(point_at(t), rel=1e-12)
        probs = {e: ak.steady_unavailability(RATES) for e in ak.basic_events(model)}
        assert ak.exhaustive_probability(model, probs).value == steady
        est = ak.mc_point_availability(model, t, ak.SimConfig(trials=400, seed=11))
        assert abs(est.mean - point_at(t)) <= 4 * est.std_error
        est = ak.mc_steady_availability(model, ak.SimConfig(trials=100, horizon=50.0, seed=11))
        assert abs(est.mean - float(steady)) <= 4 * est.std_error

    def test_not_chain_through_every_engine(self):
        q = ak.steady_unavailability(RATES).value
        self.check_five_engines(not_chain(DEPTH), q, lambda t: ak.inst_unavailability(RATES, t).value)

    def test_and_or_chain_through_every_engine(self):
        every = 455  # 11 events, within the enumeration limit
        q = ak.steady_unavailability(RATES).value
        steady = and_or_closed_form(DEPTH, every, q)
        assert steady not in (q, 0, 1)
        self.check_five_engines(
            and_or_chain(DEPTH, every),
            steady,
            lambda t: and_or_closed_form(DEPTH, every, ak.inst_unavailability(RATES, t).value),
        )

    def test_and_or_chain_with_a_leaf_at_every_level(self):
        model = and_or_chain(DEPTH, 1)
        q = ak.steady_unavailability(RATES).value
        steady = ak.evaluate_steady(model)
        assert steady.method == "compositional"
        assert steady.probability.value == and_or_closed_form(DEPTH, 1, q)
        point = ak.evaluate_point(model, 0.4).probability.value
        assert point == pytest.approx(and_or_closed_form(DEPTH, 1, ak.inst_unavailability(RATES, 0.4).value), rel=1e-12)
        assert len(ak.basic_events(model)) == DEPTH + 1 and model.leaves_distinct
