"""Exhaustive enumeration and renewal-process simulation oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import oracle
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit.oracle import ComponentState
from support import random_model, reference_mc_point, steady_leaf_probs

R13 = ak.RatePair("0.1", "0.3")
R55 = ak.RatePair("0.5", "0.5")


def gate_model(body, ids="ab", rates=R13):
    comps = {c: ak.ComponentDef(c, rates) for c in ids}
    return ak.SystemModel("m", comps, body)


class TestExhaustive:
    def test_or_example(self):
        model = gate_model(ak.Or((ak.Basic("a"), ak.Basic("b"))))
        probs = {"a": Fraction(3, 10), "b": Fraction(1, 5)}
        assert ak.exhaustive_probability(model, probs).value == Fraction(11, 25)  # 0.44

    def test_and_example(self):
        model = gate_model(ak.And((ak.Basic("a"), ak.Basic("b"))))
        probs = {"a": Fraction(3, 10), "b": Fraction(1, 5)}
        assert ak.exhaustive_probability(model, probs).value == Fraction(3, 50)  # 0.06

    def test_xor_shared_leaf_is_zero(self):
        model = gate_model(ak.Xor(ak.Basic("a"), ak.Basic("a")), ids="a")
        assert ak.exhaustive_probability(model, {"a": Fraction(1, 3)}).value == 0

    def test_abd_polarity_is_availability(self):
        model = ak.SystemModel("m", {"A": ak.ComponentDef("A", R13)}, ak.Unit("A"))
        assert ak.exhaustive_probability(model, {"A": Fraction(9, 10)}).value == Fraction(9, 10)

    def test_event_limit_refusal_names_count(self):
        ids = [f"e{i}" for i in range(21)]
        model = gate_model(ak.Or(tuple(ak.Basic(i) for i in ids)), ids=ids)
        with pytest.raises(ValueError) as err:
            ak.exhaustive_probability(model, {i: Fraction(1, 2) for i in ids})
        assert "21" in str(err.value)

    def test_missing_probability(self):
        model = gate_model(ak.Or((ak.Basic("a"), ak.Basic("b"))))
        with pytest.raises(KeyError):
            ak.exhaustive_probability(model, {"a": Fraction(1, 2)})

    def test_float_inputs_round_once(self):
        model = gate_model(ak.Or((ak.Basic("a"), ak.Basic("b"))))
        p = ak.exhaustive_probability(model, {"a": 0.3, "b": 0.2})
        assert not p.exact
        assert p.value == pytest.approx(0.44, abs=1e-15)

    def test_nand_set_semantics(self):
        # not(a) and b: (1 - 1/4) * 1/4
        model = gate_model(ak.Nand((ak.Basic("a"),), (ak.Basic("b"),)))
        probs = {"a": Fraction(1, 4), "b": Fraction(1, 4)}
        assert ak.exhaustive_probability(model, probs).value == Fraction(3, 16)

    def test_matches_compositional_on_distinct_models(self):
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            model = random_model(rng, rng.choice(["abd", "coherent-ft", "ft"]))
            if not model.leaves_distinct:
                continue
            checked += 1
            expected = ak.evaluate_steady(model).probability.value
            got = ak.exhaustive_probability(model, steady_leaf_probs(model)).value
            assert got == expected, ak.serialize_model(model)


class TestStructureHolds:
    def test_gate_truth_tables(self):
        a, b = ak.Basic("a"), ak.Basic("b")
        cases = {
            ak.And((a, b)): [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
            ak.Or((a, b)): [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
            ak.Nor((a, b)): [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)],
            ak.Xor(a, b): [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
            ak.Nand((a,), (b,)): [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)],
        }
        for tree, rows in cases.items():
            for va, vb, expected in rows:
                truth = {"a": bool(va), "b": bool(vb)}
                assert ak.structure_holds(tree, truth) == bool(expected), (tree, truth)

    def test_not_and_blocks(self):
        assert ak.structure_holds(ak.Not(ak.Basic("a")), {"a": False})
        series = ak.Series((ak.Unit("a"), ak.Unit("b")))
        assert ak.structure_holds(series, {"a": True, "b": True})
        assert not ak.structure_holds(series, {"a": True, "b": False})


class TestTrajectory:
    def test_state_at_zero_is_up(self):
        traj = ak.RenewalTrajectory((2.0,), (1.0,))
        assert traj.state_at(0.0) is ComponentState.UP

    def test_repair_interval_is_down(self):
        traj = ak.RenewalTrajectory((2.0,), (1.0,))
        assert traj.state_at(2.5) is ComponentState.DOWN

    def test_second_cycle_up(self):
        traj = ak.RenewalTrajectory((2.0, 5.0), (1.0, 1.0))
        assert traj.state_at(3.1) is ComponentState.UP

    def test_boundaries(self):
        traj = ak.RenewalTrajectory((2.0, 5.0), (1.0, 1.0))
        assert traj.state_at(2.0) is ComponentState.DOWN  # repair starts
        assert traj.state_at(3.0) is ComponentState.UP  # second cycle starts

    def test_cycle_starts(self):
        traj = ak.RenewalTrajectory((2.0, 5.0, 1.0), (1.0, 1.0, 4.0))
        assert traj.cycle_starts == (0.0, 3.0, 9.0)
        assert traj.span == 14.0

    def test_too_short_rejected(self):
        traj = ak.RenewalTrajectory((2.0,), (1.0,))
        with pytest.raises(ValueError):
            traj.state_at(3.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ak.RenewalTrajectory((1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            ak.RenewalTrajectory((0.0,), (1.0,))

    def test_sample_trajectory_deterministic_and_long_enough(self):
        a = ak.sample_trajectory(R13, 50.0, seed=3)
        b = ak.sample_trajectory(R13, 50.0, seed=3)
        c = ak.sample_trajectory(R13, 50.0, seed=4)
        assert a == b
        assert a != c
        assert a.span > 50.0
        assert all(d > 0 for d in a.up_durations + a.down_durations)


class TestMonteCarlo:
    def test_point_at_zero_is_exactly_one(self):
        model = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))
        est = ak.mc_point_availability(model, 0.0, ak.SimConfig(trials=300, seed=5))
        assert est.mean == 1.0

    def test_point_determinism(self):
        model = dfh3_abd()
        cfg = ak.SimConfig(trials=200, seed=123)
        assert ak.mc_point_availability(model, 4.0, cfg) == ak.mc_point_availability(model, 4.0, cfg)

    def test_point_thread_invariance(self):
        model = dfh3_abd()
        serial = ak.mc_point_availability(model, 4.0, ak.SimConfig(trials=120, seed=9, threads=1))
        threaded = ak.mc_point_availability(model, 4.0, ak.SimConfig(trials=120, seed=9, threads=4))
        assert serial == threaded

    def test_point_matches_closed_form(self):
        model = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))
        est = ak.mc_point_availability(model, 2.0, ak.SimConfig(trials=5000, seed=21))
        expected = ak.inst_availability(R13, 2.0).value
        assert abs(est.mean - expected) <= 4 * est.std_error

    def test_steady_symmetric_component(self):
        model = ak.SystemModel("m", {"C": ak.ComponentDef("C", R55)}, ak.Unit("C"))
        est = ak.mc_steady_availability(model, ak.SimConfig(trials=100, horizon=1000.0, seed=2))
        assert abs(est.mean - 0.5) <= 4 * est.std_error

    def test_steady_determinism_and_threads(self):
        model = dfh3_abd()
        cfg1 = ak.SimConfig(trials=50, horizon=500.0, seed=77, threads=1)
        cfg4 = ak.SimConfig(trials=50, horizon=500.0, seed=77, threads=4)
        assert ak.mc_steady_availability(model, cfg1) == ak.mc_steady_availability(model, cfg4)

    def test_steady_requires_horizon(self):
        model = dfh3_abd()
        with pytest.raises(ValueError):
            ak.mc_steady_availability(model, ak.SimConfig(trials=10, seed=1))
        with pytest.raises(ValueError):
            ak.mc_steady_availability(model, ak.SimConfig(trials=10, horizon=0.0, seed=1))

    def test_zero_trials_rejected(self):
        model = dfh3_abd()
        with pytest.raises(ValueError):
            ak.mc_point_availability(model, 1.0, ak.SimConfig(trials=0, seed=1))

    def test_negative_time_rejected(self):
        model = dfh3_abd()
        with pytest.raises(ValueError):
            ak.mc_point_availability(model, -1.0, ak.SimConfig(trials=10, seed=1))

    def test_fault_tree_estimates_unavailability(self):
        model = gate_model(ak.Or((ak.Basic("a"), ak.Basic("b"))), rates=R55)
        est = ak.mc_steady_availability(model, ak.SimConfig(trials=120, horizon=800.0, seed=13))
        expected = float(ak.evaluate_steady(model).probability.value)  # 3/4
        assert abs(est.mean - expected) <= 4 * est.std_error

    def test_shared_leaves_handled(self):
        # xor of a component with itself never occurs
        model = gate_model(ak.Xor(ak.Basic("a"), ak.Basic("a")), ids="a", rates=R55)
        est = ak.mc_steady_availability(model, ak.SimConfig(trials=20, horizon=200.0, seed=3))
        assert est.mean == 0.0

    def test_renewal_long_run_fraction(self):
        # empirical up fraction of one component converges to mu/(mu+lam)
        model = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))
        est = ak.mc_steady_availability(model, ak.SimConfig(trials=150, horizon=2000.0, seed=29))
        assert abs(est.mean - 0.75) <= 4 * est.std_error
        assert est.std_error < 0.01

    def test_three_engines_agree_on_nand_tree(self):
        # non-coherent gates: closed form, enumeration, and simulation line up
        body = ak.Nand((ak.Basic("a"),), (ak.Basic("b"), ak.Basic("c")))
        comps = {c: ak.ComponentDef(c, ak.RatePair(f"0.{i + 2}", "0.5")) for i, c in enumerate("abc")}
        model = ak.SystemModel("m", comps, body)

        steady = ak.evaluate_steady(model).probability.value
        enumerated = ak.exhaustive_probability(model, steady_leaf_probs(model)).value
        assert steady == enumerated
        est = ak.mc_steady_availability(model, ak.SimConfig(trials=150, horizon=1500.0, seed=41))
        assert abs(est.mean - float(steady)) <= 4 * est.std_error

        t = 3.0
        point = ak.evaluate_point(model, t).probability.value
        point_probs = {
            c: ak.inst_unavailability(comps[c].rates, t) for c in ak.basic_events(model)
        }
        point_enum = ak.exhaustive_probability(model, point_probs).value
        assert point == pytest.approx(point_enum, abs=1e-12)
        est_t = ak.mc_point_availability(model, t, ak.SimConfig(trials=4000, seed=43))
        assert abs(est_t.mean - point) <= 4 * est_t.std_error


class TestPhilox:
    # np.random.Philox reads counter entries of 2**63 and above through
    # float64, so trial and component indices stay below that
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 64 - 1),
        trials=st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=3),
        component=st.integers(0, 2 ** 63 - 1),
        start=st.integers(0, 70),
        count=st.integers(1, 70),
    )
    def test_matches_numpy_philox(self, seed, trials, component, start, count):
        # words start.. continue a stream that already gave `start` words,
        # as a later round does: the draw crosses block and call boundaries
        got = oracle._philox_words(seed, np.array(trials, dtype=np.uint64), component, start, count)
        assert got.shape == (len(trials), count)
        for row, trial in zip(got, trials):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, trial, component]))
            gen.integers(0, 1 << 64, size=start, dtype=np.uint64)
            assert np.array_equal(row, gen.integers(0, 1 << 64, size=count, dtype=np.uint64))


class TestBatchedPoint:
    """The batched point estimator equals the per-trial reference exactly."""

    @pytest.mark.parametrize(
        "block_words, first_round",
        [
            (None, None),  # the module's own sizes
            (64, None),  # blocks of a few trials split the trial range
            (64, 1),  # rounds of 2, 4, 8, ... words: many rounds, split blocks
        ],
    )
    def test_equals_per_trial_reference(self, monkeypatch, block_words, first_round):
        if block_words is not None:
            monkeypatch.setattr(oracle, "POINT_BLOCK_WORDS", block_words)
        if first_round is not None:
            # both estimators read the first round's size from this helper
            monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: first_round)
        rng = random.Random(31)
        models = [dfh3_abd(), dfh3_ft()]
        while len(models) < 14:
            model = random_model(rng, ("abd", "coherent-ft", "ft")[len(models) % 3])
            if not model.leaves_distinct:  # shared leaves in every random model
                models.append(model)
        for i, model in enumerate(models):
            for t in (0.0, 0.4, 2.5, 9.0):
                cfg = ak.SimConfig(trials=(2, 9, 41)[i % 3], seed=rng.randrange(2 ** 64))
                got = ak.mc_point_availability(model, t, cfg)
                assert got == reference_mc_point(model, t, cfg), (ak.serialize_model(model), t, cfg)


class TestSimulationInputs:
    SINGLE = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_point_time_must_be_finite(self, t):
        with pytest.raises(ValueError, match="finite"):
            ak.mc_point_availability(self.SINGLE, t, ak.SimConfig(trials=3, seed=1))

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_horizon_must_be_finite(self, horizon):
        with pytest.raises(ValueError, match="finite"):
            ak.mc_steady_availability(self.SINGLE, ak.SimConfig(trials=3, horizon=horizon, seed=1))

    def test_stream_draw_budget(self, monkeypatch):
        # R13's mean cycle is 40/3: t = 1000 asks for 2 * 98 words up front
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 150)
        cfg = ak.SimConfig(trials=3, horizon=1000.0, seed=1)
        with pytest.raises(ValueError, match="limit of 150"):
            ak.mc_point_availability(self.SINGLE, 1000.0, cfg)
        with pytest.raises(ValueError, match="limit of 150"):
            ak.mc_steady_availability(self.SINGLE, cfg)
        assert ak.mc_point_availability(self.SINGLE, 100.0, cfg).trials == 3  # 2 * 17 words

    def test_stream_draw_budget_counts_later_rounds(self, monkeypatch):
        # rounds of 8, 16, 32, ... words: reaching t = 800 (about 60 cycles) needs a fourth round
        monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: 4)
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 8 + 16 + 32)
        cfg = ak.SimConfig(trials=2, horizon=800.0, seed=1)
        with pytest.raises(ValueError, match="limit of 56"):
            ak.mc_point_availability(self.SINGLE, 800.0, cfg)
        with pytest.raises(ValueError, match="limit of 56"):
            ak.mc_steady_availability(self.SINGLE, cfg)
