"""Closed forms: frozen hand-derived values, algebraic properties, shared events through the decision diagram."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import analytic
from availkit.casestudies import dfh3_abd, dfh3_ft
from support import brute_force_union_probability, complete_graph_model, k8_and_implied_model, random_model, series_lines, steady_leaf_probs, xor_parity_model

R13 = ak.RatePair("0.1", "0.3")
R25 = ak.RatePair("0.2", "0.5")
R34 = ak.RatePair("0.3", "0.4")
R78 = ak.RatePair("0.7", "0.8")
R55 = ak.RatePair("0.5", "0.5")

rates_st = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)).map(
    lambda f: f.limit_denominator(1000)
)
pair_st = st.builds(ak.RatePair, rates_st, rates_st)


class TestComponentLevel:
    def test_steady_symmetric(self):
        assert ak.steady_availability(R55).value == Fraction(1, 2)

    def test_steady_exact_values(self):
        assert ak.steady_availability(R13).value == Fraction(3, 4)
        assert ak.steady_availability(R78).value == Fraction(8, 15)

    def test_steady_is_exact_rational(self):
        p = ak.steady_availability(R13)
        assert p.exact and isinstance(p.value, Fraction)

    def test_unavailability_complements(self):
        assert ak.steady_unavailability(R13).value == Fraction(1, 4)

    def test_inst_availability_at_zero(self):
        assert ak.inst_availability(R25, 0.0).value == 1.0

    def test_inst_availability_value(self):
        # hand evaluation: 0.75 + 0.25 * e^-4
        expected = 0.75 + 0.25 * math.exp(-4.0)
        assert ak.inst_availability(R13, 10.0).value == pytest.approx(expected, abs=1e-15)

    def test_inst_availability_decreases_to_steady(self):
        values = [ak.inst_availability(R13, t).value for t in (0.0, 1.0, 5.0, 20.0, 80.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= 0.75 for v in values)
        assert values[-1] == pytest.approx(0.75, abs=1e-12)

    def test_inst_unavailability_at_zero(self):
        assert ak.inst_unavailability(R13, 0.0).value == 0.0

    def test_inst_unavailability_value(self):
        expected = 0.25 - 0.25 * math.exp(-4.0)
        assert ak.inst_unavailability(R13, 10.0).value == pytest.approx(expected, abs=1e-15)

    def test_complement_at_fixed_time(self):
        a = ak.inst_availability(R25, 3.7).value
        q = ak.inst_unavailability(R25, 3.7).value
        assert abs(a + q - 1.0) <= 1e-15

    def test_negative_time_rejected(self):
        for fn in (ak.inst_availability, ak.inst_unavailability):
            with pytest.raises(ValueError):
                fn(R13, -0.5)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ak.steady_availability(ak.RatePair(-1, 1)), "nonpositive failure rate"),
            (lambda: ak.steady_unavailability(ak.RatePair(1, 0)), "nonpositive repair rate"),
            (lambda: ak.steady_availability(ak.RatePair(math.inf, 1)), "non-finite failure rate"),
            (lambda: ak.inst_availability(ak.RatePair(-1, 1), 1.0), "nonpositive failure rate"),
            (lambda: ak.inst_availability(ak.RatePair(10**400, 1), 1.0), "too large for floating point"),
            (lambda: ak.inst_unavailability(ak.RatePair(1, 10**400), 1.0), "too large for floating point"),
            (lambda: ak.inst_unavailability(ak.RatePair(Fraction(1, 10**400), Fraction(1, 10**400)), 1.0), "too small for floating point"),
            (lambda: ak.inst_availability(ak.RatePair(10**308, 10**308), 1.0), "sum of the rates of this pair is too large"),
            (lambda: ak.reliability_exp(10**400, 1.0), "too large for floating point"),
            (lambda: ak.series_steady([R13, ak.RatePair(0, 1)]), "nonpositive failure rate"),
        ],
        ids=["steady-negative", "steady-zero", "steady-inf", "inst-negative", "inst-overflow", "inst-unavail-overflow", "inst-underflow", "inst-sum-overflow", "reliability-overflow", "series-zero"],
    )
    def test_bad_rates_raise_value_error(self, call, message):
        # a bad rate is a ValueError naming the problem, never ZeroDivisionError or OverflowError
        with pytest.raises(ValueError, match=message):
            call()

    def test_reliability(self):
        assert ak.reliability_exp(Fraction(1, 10), 0.0).value == 1.0
        assert ak.reliability_exp(Fraction(1, 10), 10.0).value == pytest.approx(math.exp(-1.0), abs=1e-15)
        with pytest.raises(ValueError):
            ak.reliability_exp(0, 1.0)
        with pytest.raises(ValueError):
            ak.reliability_exp(Fraction(1, 10), -1.0)

    @given(pair_st, st.floats(min_value=0.0, max_value=200.0))
    def test_complementarity_property(self, rates, t):
        total = ak.inst_availability(rates, t).value + ak.inst_unavailability(rates, t).value
        assert abs(total - 1.0) <= 1e-15

    @given(pair_st, st.floats(min_value=0.0, max_value=200.0))
    def test_availability_dominates_reliability(self, rates, t):
        avail = ak.inst_availability(rates, t).value
        rel = ak.reliability_exp(rates.failure_rate, t).value
        assert avail >= rel - 1e-15

    @given(pair_st, st.floats(min_value=0.0, max_value=200.0))
    def test_convergence_bound(self, rates, t):
        gap = abs(ak.inst_availability(rates, t).value - float(ak.steady_availability(rates).value))
        lam, mu = float(rates.failure_rate), float(rates.repair_rate)
        assert gap <= math.exp(-(lam + mu) * t) + 1e-15

    @given(pair_st, rates_st)
    def test_steady_monotonic_in_rates(self, rates, bump):
        base = ak.steady_availability(rates).value
        more_failures = ak.steady_availability(
            ak.RatePair(rates.failure_rate + bump, rates.repair_rate)
        ).value
        faster_repair = ak.steady_availability(
            ak.RatePair(rates.failure_rate, rates.repair_rate + bump)
        ).value
        assert more_failures < base < faster_repair

    @given(pair_st, rates_st)
    def test_steady_scale_invariant(self, rates, factor):
        scaled = ak.RatePair(rates.failure_rate * factor, rates.repair_rate * factor)
        assert ak.steady_availability(scaled).value == ak.steady_availability(rates).value


class TestBlockStructures:
    def test_series_empty_is_one(self):
        assert ak.series_steady([]).value == Fraction(1)

    def test_series_example(self):
        assert ak.series_steady([R13, R25]).value == Fraction(15, 28)

    def test_series_single(self):
        assert ak.series_steady([R78]).value == Fraction(8, 15)

    def test_parallel_empty_is_zero(self):
        assert ak.parallel_steady([]).value == Fraction(0)

    def test_parallel_example(self):
        assert ak.parallel_steady([R55, R55]).value == Fraction(3, 4)

    def test_parallel_single(self):
        assert ak.parallel_steady([R13]).value == ak.steady_availability(R13).value

    def test_series_parallel_dfh3(self):
        stages = [[R13, R13], [R25], [R34, R34], [R78], [R78], [R55, R55]]
        value = ak.series_parallel_steady(stages).value
        assert value == Fraction(40, 343)
        assert float(value) == pytest.approx(0.116618075802, abs=5e-13)

    def test_series_parallel_degenerate(self):
        assert ak.series_parallel_steady([[R13]]).value == Fraction(3, 4)
        assert ak.series_parallel_steady([[R13], [R25]]).value == ak.series_steady([R13, R25]).value

    def test_parallel_series_examples(self):
        assert ak.parallel_series_steady([[R13]]).value == Fraction(3, 4)
        assert ak.parallel_series_steady([[R13, R25], [R55]]).value == Fraction(43, 56)
        assert ak.parallel_series_steady([[R13], [R25]]).value == ak.parallel_steady([R13, R25]).value

    def test_empty_structures_rejected(self):
        for fn in (ak.series_parallel_steady, ak.parallel_series_steady):
            with pytest.raises(ValueError):
                fn([])
            with pytest.raises(ValueError):
                fn([[]])


class TestGates:
    def test_and_example(self):
        assert ak.and_gate_unavail([R13, R25]).value == Fraction(1, 14)

    def test_and_single(self):
        assert ak.and_gate_unavail([R55]).value == Fraction(1, 2)

    def test_or_example(self):
        assert ak.or_gate_unavail([R13, R25]).value == Fraction(13, 28)

    def test_or_single(self):
        assert ak.or_gate_unavail([R25]).value == ak.steady_unavailability(R25).value

    def test_nor_example(self):
        assert ak.nor_gate_unavail([R13, R25]).value == Fraction(15, 28)

    def test_nor_single(self):
        assert ak.nor_gate_unavail([R55]).value == Fraction(1, 2)

    def test_or_nor_complement(self):
        rates = [R13, R25, R78]
        assert ak.or_gate_unavail(rates).value + ak.nor_gate_unavail(rates).value == 1

    def test_nand_example(self):
        assert ak.nand_gate_unavail([R13], [R25]).value == Fraction(3, 14)

    def test_nand_symmetric_rates(self):
        assert ak.nand_gate_unavail([R55], [R55]).value == Fraction(1, 4)

    def test_xor_example(self):
        assert ak.xor_gate_unavail(R13, R25).value == Fraction(11, 28)

    def test_xor_symmetric(self):
        assert ak.xor_gate_unavail(R13, R25).value == ak.xor_gate_unavail(R25, R13).value

    def test_xor_identical_rates(self):
        assert ak.xor_gate_unavail(R55, R55).value == Fraction(1, 2)

    def test_not_values(self):
        assert ak.not_gate_unavail(R55).value == Fraction(1, 2)
        assert ak.not_gate_unavail(R13).value == Fraction(3, 4)

    def test_not_double_complement(self):
        q = ak.steady_unavailability(R25).value
        assert 1 - ak.not_gate_unavail(R25).value == q

    def test_empty_inputs_rejected(self):
        for fn in (ak.and_gate_unavail, ak.or_gate_unavail, ak.nor_gate_unavail):
            with pytest.raises(ValueError):
                fn([])
        with pytest.raises(ValueError):
            ak.nand_gate_unavail([], [R13])
        with pytest.raises(ValueError):
            ak.nand_gate_unavail([R13], [])


class TestPie:
    def test_single_event(self):
        assert ak.pie_probability([frozenset("a")], {"a": Fraction(3, 10)}).value == Fraction(3, 10)

    def test_two_singletons(self):
        # brute force over the 4 joint states: 0.3 + 0.2 - 0.06
        value = ak.pie_probability(
            [frozenset("a"), frozenset("b")], {"a": Fraction(3, 10), "b": Fraction(1, 5)}
        ).value
        assert value == Fraction(11, 25)

    def test_overlapping_pair(self):
        # brute force over the 8 joint states with p = 1/2 each
        sets = [frozenset({"a", "b"}), frozenset({"b", "c"})]
        probs = {e: Fraction(1, 2) for e in "abc"}
        assert ak.pie_probability(sets, probs).value == Fraction(3, 8)

    def test_float_inputs_give_float_mode(self):
        p = ak.pie_probability([frozenset("a")], {"a": 0.3})
        assert not p.exact and p.value == pytest.approx(0.3)

    def test_term_limit(self):
        sets = [frozenset({f"e{i}"}) for i in range(21)]
        probs = {f"e{i}": Fraction(1, 2) for i in range(21)}
        with pytest.raises(ak.CutSetLimitError) as err:
            ak.pie_probability(sets, probs)
        assert str(2 ** 21 - 1) in str(err.value)

    def test_limit_is_configurable(self):
        sets = [frozenset({f"e{i}"}) for i in range(5)]
        probs = {f"e{i}": Fraction(1, 10) for i in range(5)}
        with pytest.raises(ak.CutSetLimitError):
            ak.pie_probability(sets, probs, max_cutsets=4)
        assert ak.pie_probability(sets, probs, max_cutsets=5).value == 1 - Fraction(9, 10) ** 5

    def test_missing_probability(self):
        with pytest.raises(KeyError):
            ak.pie_probability([frozenset("ab")], {"a": Fraction(1, 2)})

    def test_accepts_collection(self):
        collection = ak.CutSetCollection((frozenset("a"), frozenset("b")))
        value = ak.pie_probability(collection, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert value.value == Fraction(3, 4)

    def test_zero_probability_events(self):
        sets = [frozenset({"a", "z"}), frozenset({"b"})]
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 3), "z": Fraction(0)}
        # the {a,z} cut set can never occur
        assert ak.pie_probability(sets, probs).value == Fraction(1, 3)

    def test_zero_probability_events_match_brute_force(self):
        # sets holding a zero-probability event are left out of the walk,
        # in exact and in float mode
        rng = random.Random(12)
        for _ in range(40):
            sets = [frozenset(rng.sample("abcdef", rng.randint(1, 3))) for _ in range(rng.randint(1, 7))]
            probs = {e: rng.choice([Fraction(0), Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1)]) for e in "abcdef"}
            expected = brute_force_union_probability(sets, probs)
            assert ak.pie_probability(sets, probs).value == expected
            floats = {e: float(p) for e, p in probs.items()}
            assert ak.pie_probability(sets, floats).value == float(brute_force_union_probability(sets, floats))

    def test_zero_probability_sets_still_checked(self):
        # the term limit counts the caller's sets, and every event's probability is checked
        sets = [frozenset({f"e{i}", "z"}) for i in range(21)]
        probs = {f"e{i}": Fraction(1, 2) for i in range(21)} | {"z": Fraction(0)}
        with pytest.raises(ak.CutSetLimitError, match="21 cut sets"):
            ak.pie_probability(sets, probs)
        assert ak.pie_probability(sets, probs, max_cutsets=21).value == 0
        with pytest.raises(KeyError, match="'a'"):
            ak.pie_probability([frozenset({"a", "z"})], {"z": Fraction(0)})
        with pytest.raises(ValueError, match="'a' out of range"):
            ak.pie_probability([frozenset({"a", "z"})], {"a": Fraction(3, 2), "z": Fraction(0)})

    def test_certain_event(self):
        sets = [frozenset({"a"}), frozenset({"b", "c"})]
        probs = {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1, 2)}
        assert ak.pie_probability(sets, probs).value == Fraction(1)

    def test_disjoint_pairs_match_product_identity(self):
        # pairwise-disjoint cut sets are independent: 1 - prod(1 - p_a p_b)
        events = [f"e{i}" for i in range(16)]
        sets = [frozenset({events[2 * i], events[2 * i + 1]}) for i in range(8)]
        rng = random.Random(3)
        probs = {e: Fraction(rng.randint(1, 9), rng.randint(10, 19)) for e in events}
        expected = Fraction(1)
        for cs in sets:
            a, b = sorted(cs)
            expected *= 1 - probs[a] * probs[b]
        assert ak.pie_probability(sets, probs).value == 1 - expected

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        ),
        st.fixed_dictionaries(
            {e: st.fractions(min_value=0, max_value=1).map(lambda f: f.limit_denominator(50)) for e in "abcde"}
        ),
    )
    def test_matches_brute_force_property(self, sets, probs):
        from support import brute_force_union_probability

        assert ak.pie_probability(sets, probs).value == brute_force_union_probability(sets, probs)


class TestEvaluateSteady:
    def test_dfh3_abd_golden(self):
        result = ak.evaluate_steady(dfh3_abd())
        assert result.probability.value == Fraction(40, 343)
        assert result.probability.exact
        assert result.method == "compositional"
        assert result.time is None

    def test_single_unit_closed_form(self):
        model = ak.SystemModel("m", {"A": ak.ComponentDef("A", R13)}, ak.Unit("A"))
        result = ak.evaluate_steady(model)
        assert result.probability.value == Fraction(3, 4)
        assert result.method == "closed-form"

    def test_dfh3_ft_value_matches_derivation(self):
        # independent derivation: OR of three independent branches collapsed by hand
        result = ak.evaluate_steady(dfh3_ft())
        q = Fraction(1, 4)
        c1 = 1 - (1 - q) ** 4
        c2 = q ** 2
        c3 = 1 - (1 - q) ** 8
        expected = 1 - (1 - c1) * (1 - c2) * (1 - c3)
        assert result.probability.value == expected == Fraction(260463841, 268435456)

    def test_dfh3_ft_pie_equals_oracle_and_composition(self):
        # the same top-event probability by all three routes
        model = dfh3_ft()
        mcs = ak.minimize(ak.expand_to_cutsets(model.body))
        probs = steady_leaf_probs(model)
        via_pie = ak.pie_probability(mcs, probs).value
        via_enum = ak.exhaustive_probability(model, probs).value
        via_composition = ak.evaluate_steady(model).probability.value
        assert via_pie == via_enum == via_composition

    def test_shared_leaf_coherent_ft_pivots(self):
        comps = {c: ak.ComponentDef(c, R13) for c in "ab"}
        body = ak.Or((ak.And((ak.Basic("a"), ak.Basic("b"))), ak.Basic("a")))
        model = ak.SystemModel("m", comps, body)
        result = ak.evaluate_steady(model)
        assert result.method == "pivotal-decomposition"
        # P(ab or a) = P(a) = 1/4, also by inclusion-exclusion over the minimal cut sets
        probs = steady_leaf_probs(model)
        via_pie = ak.pie_probability(ak.minimize(ak.expand_to_cutsets(body)), probs).value
        oracle = ak.exhaustive_probability(model, probs).value
        assert result.probability.value == via_pie == oracle == Fraction(1, 4)

    def test_shared_leaf_abd_pivots(self):
        comps = {c: ak.ComponentDef(c, R55) for c in "ab"}
        body = ak.Series((ak.Parallel((ak.Unit("a"), ak.Unit("b"))), ak.Unit("a")))
        model = ak.SystemModel("m", comps, body)
        result = ak.evaluate_steady(model)
        assert result.method == "pivotal-decomposition"
        # available iff a up (a up implies the parallel stage up): 1/2
        oracle = ak.exhaustive_probability(model, steady_leaf_probs(model)).value
        assert result.probability.value == oracle == Fraction(1, 2)

    def test_shared_leaf_noncoherent_exact(self):
        comps = {"a": ak.ComponentDef("a", R13)}
        model = ak.SystemModel("m", comps, ak.Xor(ak.Basic("a"), ak.Not(ak.Basic("a"))))
        result = ak.evaluate_steady(model)
        assert result.method == "pivotal-decomposition"
        oracle = ak.exhaustive_probability(model, steady_leaf_probs(model)).value
        assert result.probability.value == oracle == Fraction(1)

    def test_doubled_or_pivots_linearly(self, monkeypatch):
        # each event feeds both OR gates; combining the deepest operands first
        # keeps the diagram to 2k + 1 nodes, well inside a linear budget
        k = 16
        monkeypatch.setattr(analytic, "NODE_LIMIT", 3 * k)
        comps = {f"x{i}": ak.ComponentDef(f"x{i}", ak.RatePair(1, 2)) for i in range(1, k + 1)}
        events = tuple(ak.Basic(f"x{i}") for i in range(1, k + 1))
        model = ak.SystemModel("m", comps, ak.And((ak.Or(events), ak.Or(events[::-1]))))
        result = ak.evaluate_steady(model)
        assert result.method == "pivotal-decomposition"
        assert result.probability.value == 1 - Fraction(2, 3) ** k

    def test_parity_is_exact(self):
        # every event stays repeated under any conditioning, which took
        # pivoting 2^13 - 1 pivots; the diagram needs 171 nodes.  An
        # independent 1000-leaf OR beside the parity enters as one variable,
        # also when it holds x0 and so joins the diagram itself.
        parity = xor_parity_model(13)
        assert ak.evaluate_steady(parity).probability.value == 0
        assert ak.evaluate_point(parity, 0.7).probability.value == pytest.approx(0.0, abs=1e-12)
        comps = dict(parity.components)
        comps.update({f"y{i}": ak.ComponentDef(f"y{i}", R55) for i in range(1000)})
        wide = tuple(ak.Basic(f"y{i}") for i in range(1000))
        for extra, q_x0 in [((), Fraction(0)), ((ak.Basic("x0"),), Fraction(1, 2))]:
            model = ak.SystemModel("m", comps, ak.Or((parity.body, ak.Or(wide + extra))))
            result = ak.evaluate_steady(model)
            assert result.method == "pivotal-decomposition"
            # the parity never occurs, so the top is the OR: 1 - P(no y) P(x0 up)
            assert result.probability.value == 1 - Fraction(1, 2) ** 1000 * (1 - q_x0)

    def test_k12_is_exact(self):
        # K_12: 12 minimal cut sets but at least 11!! = 10395 pivots; the
        # diagram stays under the node limit
        tree = complete_graph_model(12)
        result = ak.evaluate_steady(tree)
        assert result.method == "pivotal-decomposition"
        probs = steady_leaf_probs(tree)
        via_pie = ak.pie_probability(ak.minimize(ak.expand_to_cutsets(tree.body)), probs).value
        assert result.probability.value == via_pie

    @pytest.mark.parametrize("block", [False, True])
    def test_fallback_matches_enumeration(self, block):
        # K_5 in both polarities, the models that once exercised the
        # inclusion-exclusion fallback, through the diagram
        model = complete_graph_model(5, block=block)
        steady = ak.evaluate_steady(model)
        assert steady.method == "pivotal-decomposition"
        assert steady.probability.value == ak.exhaustive_probability(model, steady_leaf_probs(model)).value
        leaf = ak.inst_availability if block else ak.inst_unavailability
        probs = {c: leaf(comp.rates, 0.7) for c, comp in model.components.items()}
        point = ak.evaluate_point(model, 0.7)
        assert point.method == "pivotal-decomposition"
        assert point.probability.value == pytest.approx(ak.exhaustive_probability(model, probs).value, abs=1e-12)

    def test_fallback_refuses_too_many_cutsets(self):
        # K_21's diagram passes the node limit: the model is referred to the oracles
        with pytest.raises(ak.RequiresOracleError, match=f"{analytic.NODE_LIMIT}-node limit"):
            ak.evaluate_steady(complete_graph_model(21))

    def test_node_limit_bounds_apply_work(self, monkeypatch):
        # ANDing K_8's tree with a function it implies adds no node, but walks
        # pairs of cofactors: each counts against the limit, so this model
        # needs more of it than K_8 alone
        k8 = complete_graph_model(8)
        model = k8_and_implied_model()
        monkeypatch.setattr(analytic, "NODE_LIMIT", 2000)
        assert ak.evaluate_steady(k8).probability.value
        with pytest.raises(ak.RequiresOracleError, match="2000-node limit"):
            ak.evaluate_steady(model)
        monkeypatch.setattr(analytic, "NODE_LIMIT", 4000)
        assert ak.evaluate_steady(model).probability.value == ak.evaluate_steady(k8).probability.value

    def test_node_limit_refusal_is_kept(self, monkeypatch):
        # a refusal is kept with the limit it was made under: the steady state
        # and three time points build once, and a raised limit builds again
        model = k8_and_implied_model()
        builds = []
        build = analytic._Diagram
        monkeypatch.setattr(analytic, "_Diagram", lambda program: builds.append(program) or build(program))
        monkeypatch.setattr(analytic, "NODE_LIMIT", 2000)
        for t in (None, 0.5, 1.0, 2.0):
            with pytest.raises(ak.RequiresOracleError, match="2000-node limit"):
                ak.evaluate_steady(model) if t is None else ak.evaluate_point(model, t)
        assert len(builds) == 1
        monkeypatch.setattr(analytic, "NODE_LIMIT", 4000)
        assert ak.evaluate_steady(model).method == "pivotal-decomposition"
        assert ak.evaluate_point(model, 0.5).method == "pivotal-decomposition"
        assert len(builds) == 2

    @pytest.mark.parametrize("kind", ["and-not", "and-or"])
    def test_deep_chain_with_a_repeated_leaf(self, kind):
        # 5000 nested gates over a leaf a, each AND also taking a leaf xj from
        # a short cycle, and a again at the top: the diagram is built and
        # read without recursion
        rates = {"a": ak.RatePair(1, 3), "x0": ak.RatePair(1, 1), "x1": ak.RatePair(2, 3), "x2": ak.RatePair(1, 4)}
        expr = ak.Basic("a")
        for level in range(1, 5001):
            if level % 2:
                expr = ak.And((expr, ak.Basic(f"x{level % 3}")))
            else:
                expr = ak.Not(expr) if kind == "and-not" else ak.Or((expr, ak.Basic(f"x{level % 3}")))
        comps = {c: ak.ComponentDef(c, r) for c, r in rates.items()}
        model = ak.SystemModel("chain", comps, ak.Or((expr, ak.Basic("a"))))
        steady = ak.evaluate_steady(model)
        assert steady.method == "pivotal-decomposition"
        assert steady.probability.value == ak.exhaustive_probability(model, steady_leaf_probs(model)).value
        probs = {c: ak.inst_unavailability(r, 0.7) for c, r in rates.items()}
        point = ak.evaluate_point(model, 0.7).probability.value
        assert point == pytest.approx(ak.exhaustive_probability(model, probs).value, abs=1e-12)

    def test_deep_chain_with_a_leaf_per_level(self):
        # 5000 alternating AND/NOT levels, each AND with a leaf of its own, over
        # a repeated leaf a: every level's leaf enters the diagram above the
        # levels below it, so the diagram grows by a few nodes per level
        expr = ak.Basic("a")
        comps = {"a": ak.ComponentDef("a", ak.RatePair(1, 1))}
        for level in range(1, 5001):
            if level % 2:
                comps[f"x{level}"] = ak.ComponentDef(f"x{level}", ak.RatePair(1, 1))
                expr = ak.And((expr, ak.Basic(f"x{level}")))
            else:
                expr = ak.Not(expr)
        model = ak.SystemModel("chain", comps, ak.Or((expr, ak.Basic("a"))))
        # the top occurs with a; without a the chain depends only on its
        # independent leaves, so its probability follows level by level
        q = Fraction(1, 2)
        down = Fraction(0)  # P(chain | not a)
        for level in range(1, 5001):
            down = down * q if level % 2 else 1 - down
        assert ak.evaluate_steady(model).probability.value == q + (1 - q) * down

    def test_invalid_model_rejected(self):
        model = ak.SystemModel("m", {}, ak.Unit("ghost"))
        with pytest.raises(ValueError):
            ak.evaluate_steady(model)

    def test_random_models_match_oracle(self):
        rng = random.Random(42)
        for _ in range(30):
            kind = rng.choice(["abd", "coherent-ft", "ft"])
            model = random_model(rng, kind)
            expected = ak.exhaustive_probability(model, steady_leaf_probs(model))
            got = ak.evaluate_steady(model)
            assert got.probability.value == expected.value, ak.serialize_model(model)

    def test_rate_scaling_leaves_steady_results_unchanged(self):
        rng = random.Random(8)
        for factor in (Fraction(7), Fraction(1, 13), Fraction(355, 113)):
            model = random_model(rng, "coherent-ft")
            scaled = ak.SystemModel(
                model.name,
                {
                    cid: ak.ComponentDef(
                        cid,
                        ak.RatePair(
                            c.rates.failure_rate * factor, c.rates.repair_rate * factor
                        ),
                    )
                    for cid, c in model.components.items()
                },
                model.body,
            )
            assert (
                ak.evaluate_steady(scaled).probability.value
                == ak.evaluate_steady(model).probability.value
            )


class TestEvaluatePoint:
    def test_any_model_at_zero(self):
        assert ak.evaluate_point(dfh3_abd(), 0.0).probability.value == 1.0
        assert ak.evaluate_point(dfh3_ft(), 0.0).probability.value == 0.0

    def test_two_unit_series(self):
        comps = {c: ak.ComponentDef(c, R13) for c in "ab"}
        model = ak.SystemModel("m", comps, ak.Series((ak.Unit("a"), ak.Unit("b"))))
        single = 0.75 + 0.25 * math.exp(-4.0)
        result = ak.evaluate_point(model, 10.0)
        assert result.probability.value == pytest.approx(single ** 2, abs=1e-12)
        assert result.time == 10.0

    def test_converges_to_steady(self):
        steady = float(ak.evaluate_steady(dfh3_abd()).probability.value)
        point = ak.evaluate_point(dfh3_abd(), 200.0).probability.value
        assert abs(point - steady) < 1e-9

    def test_shared_leaves_match_enumeration(self):
        comps = {"a": ak.ComponentDef("a", R13)}
        model = ak.SystemModel("m", comps, ak.Parallel((ak.Unit("a"), ak.Unit("a"))))
        result = ak.evaluate_point(model, 1.0)
        assert result.method == "pivotal-decomposition"
        single = ak.inst_availability(R13, 1.0)
        oracle = ak.exhaustive_probability(model, {"a": single}).value
        assert result.probability.value == pytest.approx(oracle, abs=1e-12)
        assert result.probability.value == pytest.approx(single.value, abs=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ak.evaluate_point(dfh3_abd(), -1.0)

    def test_negative_zero_is_time_zero(self):
        # -0.0 passes the check as time 0; it is reported as 0.0, not with its sign
        result = ak.evaluate_point(dfh3_abd(), -0.0)
        assert result.probability.value == 1.0
        assert math.copysign(1.0, result.time) == 1.0

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        # inf used to return the steady value through floating point
        calls = [
            lambda: ak.inst_availability(R13, t),
            lambda: ak.inst_unavailability(R13, t),
            lambda: ak.reliability_exp(Fraction(1, 10), t),
            lambda: ak.evaluate_point(dfh3_abd(), t),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be finite"):
                call()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6), st.floats(min_value=0.0, max_value=50.0))
    def test_matches_oracle_at_time(self, seed, t):
        rng = random.Random(seed)
        model = random_model(rng, rng.choice(["abd", "ft"]), max_components=4)
        probs = {}
        for event in ak.basic_events(model):
            rates = model.components[event].rates
            p = ak.inst_unavailability(rates, t) if model.is_fault_tree else ak.inst_availability(rates, t)
            probs[event] = p
        expected = ak.exhaustive_probability(model, probs)
        got = ak.evaluate_point(model, t)
        assert got.probability.value == pytest.approx(expected.value, abs=1e-12)


class TestLeafValuesOncePerPair:
    """evaluate_steady and evaluate_point compute a leaf value once per rate-pair
    object; the parser gives components declared alike one object."""

    TEXT = "\n".join(series_lines()) + "\n"

    def counted(self, monkeypatch, name):
        calls = []
        real = getattr(analytic, name)

        def wrapper(rates, *args):
            calls.append(rates)
            return real(rates, *args)

        monkeypatch.setattr(analytic, name, wrapper)
        return calls

    def test_once_per_distinct_pair(self, monkeypatch):
        model = ak.parse_model(self.TEXT)
        steady = self.counted(monkeypatch, "_steady_pair")
        floats = self.counted(monkeypatch, "_float_rates")
        ak.evaluate_steady(model)
        assert len(steady) == 15 and len({id(r) for r in steady}) == 15
        for t in (10.0, 100.0):
            ak.evaluate_point(model, t)
        assert len(floats) == 2 * 15 and len({id(r) for r in floats}) == 15

    @staticmethod
    def unshared(model):
        """model with every component given a rate pair of its own, equal to the one it had."""
        comps = {cid: ak.ComponentDef(cid, ak.RatePair(c.rates.failure_rate, c.rates.repair_rate))
                 for cid, c in model.components.items()}
        return ak.SystemModel(model.name, comps, model.body)

    def test_equal_distinct_pairs_give_the_same_bits(self):
        rng = random.Random(11)
        models = [ak.parse_model(self.TEXT)]
        models += [ak.parse_model(ak.serialize_model(random_model(rng, rng.choice(["abd", "ft"]), max_components=8)))
                   for _ in range(40)]
        for shared in models:
            built = self.unshared(shared)
            assert len({id(c.rates) for c in built.components.values()}) == len(built.components)
            assert ak.evaluate_steady(built) == ak.evaluate_steady(shared)
            for t in (0.5, 10.0, 100.0):
                got, want = ak.evaluate_point(built, t), ak.evaluate_point(shared, t)
                assert got.probability.value.hex() == want.probability.value.hex() and got.method == want.method

    @pytest.mark.parametrize("share", [True, False], ids=["one-pair-object", "equal-pair-objects"])
    def test_overflow_names_the_first_component_in_event_order(self, share):
        huge = ak.RatePair(10**400, 1)
        comps = {c: ak.ComponentDef(c, R13) for c in "ac"}
        comps["b"] = ak.ComponentDef("b", huge)
        comps["d"] = ak.ComponentDef("d", huge if share else ak.RatePair(10**400, 1))
        model = ak.SystemModel("m", comps, ak.Series(tuple(map(ak.Unit, "adcb"))))
        with pytest.raises(ValueError, match="^a rate of component 'd' is too large for floating point"):
            ak.evaluate_point(model, 1.0)
        assert ak.evaluate_steady(model).probability.exact


class TestProbabilityType:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            ak.Probability(Fraction(3, 2))
        with pytest.raises(ValueError):
            ak.Probability(-0.25)

    def test_mode_tag(self):
        assert ak.Probability(Fraction(1, 3)).exact
        assert not ak.Probability(0.5).exact
        assert ak.Probability(Fraction(1, 4)).as_float() == 0.25
