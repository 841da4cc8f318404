"""Exhaustive enumeration and renewal-process simulation oracles."""

import concurrent.futures
import math
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

import availkit as ak
from availkit import oracle
from availkit.casestudies import dfh3_abd, dfh3_ft
from support import (
    random_model,
    reference_exhaustive,
    reference_holds,
    reference_mc_point,
    reference_mc_steady,
    reference_round,
    reference_time_held,
    reference_unrounded_time_held,
    steady_leaf_probs,
)

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


def _leaf_probs(rng, events, mode):
    """Leaf probabilities of one kind: exact, float, mixed or 0/1 (as ints, floats and Fractions)."""
    def exact():
        return Fraction(rng.randint(0, 12), 12) if rng.random() < 0.8 else ak.Probability(Fraction(rng.randint(1, 6), 7))

    def floating():
        return rng.choice([rng.random(), rng.random(), 1e-300, 1 - 2 ** -53])

    pick = {
        "exact": exact,
        "float": floating,
        "mixed": lambda: exact() if rng.random() < 0.5 else floating(),
        "zero-one": lambda: rng.choice([0, 1, 0.0, 1.0, Fraction(0), Fraction(1)]),
    }[mode]
    return {e: pick() for e in events}


class TestExhaustiveContraction:
    """The truth-table contraction equals a row-by-row Fraction sum, in value and type."""

    @pytest.mark.parametrize("mode", ["exact", "float", "mixed", "zero-one"])
    @pytest.mark.parametrize("kind", ["abd", "coherent-ft", "ft"])
    def test_equals_row_by_row_reference(self, kind, mode):
        rng = random.Random(f"{kind}-{mode}")
        for _ in range(25):
            model = random_model(rng, kind, max_components=8)
            probs = _leaf_probs(rng, ak.basic_events(model), mode)
            got = ak.exhaustive_probability(model, probs)
            want = reference_exhaustive(model, probs)
            assert got == want and type(got.value) is type(want.value), ak.serialize_model(model)

    def test_event_limit_model_equals_closed_form(self):
        # a ring of 20 shared events: each sits in two ANDs, and every third one is negated once
        ids = [f"e{i}" for i in range(oracle.EXHAUSTIVE_EVENT_LIMIT)]
        terms = []
        for i, e in enumerate(ids):
            nxt = ak.Basic(ids[(i + 1) % len(ids)])
            terms.append(ak.And((ak.Basic(e), ak.Not(nxt) if i % 3 == 0 else nxt)))
        comps = {c: ak.ComponentDef(c, ak.RatePair(Fraction(i + 1, 7), Fraction(3, i + 2))) for i, c in enumerate(ids)}
        model = ak.SystemModel("ring", comps, ak.Or(tuple(terms)))
        got = ak.exhaustive_probability(model, steady_leaf_probs(model)).value
        assert isinstance(got, Fraction)
        assert got == ak.evaluate_steady(model).probability.value


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

    def test_missing_leaf_raises_even_when_short_circuited(self):
        # every leaf is read, so a missing one raises whatever the others say
        with pytest.raises(KeyError):
            ak.structure_holds(ak.Or((ak.Basic("a"), ak.Basic("b"))), {"a": True})

    def test_not_a_structure_node(self):
        with pytest.raises(TypeError, match="not a structure node"):
            ak.structure_holds("a", {"a": True})


class TestTrajectory:
    """Renewal trajectories as the simulation grid holds them: boundary rounds, the sweep over them and the read at t."""

    SINGLE = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))

    @classmethod
    def up_time(cls, ups, downs, horizon):
        steps = np.empty(2 * len(ups))
        steps[0::2], steps[1::2] = ups, downs
        bounds = np.cumsum(steps)
        grid = np.concatenate(([0.0], bounds))[None, :]
        owner = np.array([-1] + [0] * bounds.size)
        return float(oracle._time_held(cls.SINGLE, grid, owner, horizon, oracle._state_table(cls.SINGLE))[0] * horizon)

    def test_state_at_zero_is_up(self):
        assert self.up_time((2.0,), (1.0,), 1.5) == 1.5

    def test_repair_interval_is_down(self):
        assert self.up_time((2.0,), (1.0,), 2.5) == 2.0

    def test_second_cycle_up(self):
        assert self.up_time((2.0, 5.0), (1.0, 1.0), 3.5) == 2.5

    def test_boundaries(self):
        # a state change at the horizon is not counted: its phase has length 0
        assert self.up_time((2.0, 5.0), (1.0, 1.0), 2.0) == 2.0  # repair starts
        assert self.up_time((2.0, 5.0), (1.0, 1.0), 3.0) == 2.0  # second cycle starts

    def test_cycle_starts(self, monkeypatch):
        # rounds of 2 then 4 words whose durations are the words themselves: cycles start at 0, 3
        # and 9 across the round boundary, the last boundary 3 <= 9.5 asks for a second round, whose
        # sum goes on from 3, and its boundaries up to 9.5 land in the grid
        monkeypatch.setattr(oracle, "_durations", lambda words, lam, mu: words * 1.0)
        words = np.array([2, 1, 5, 1, 1, 4, 9, 9], dtype=np.uint64)
        starts = {0: 0, 1: 2}  # where each round's words begin
        draws = []
        monkeypatch.setattr(
            oracle, "_draw",
            lambda bitgen, state, trials, c, r, count: draws.append((r, count)) or words[None, starts[r]:starts[r] + count],
        )
        grid, owner = oracle._grid(None, None, [(1.0, 1.0, 1)], np.arange(1), 9.5)
        assert draws == [(0, 2), (1, 4)]
        assert grid.tolist() == [[0.0, 2.0, 3.0, 8.0, 9.0]]
        assert owner.tolist() == [-1, 0, 0, 0, 0]

    def test_point_read_at_boundaries(self, monkeypatch):
        # words are durations, rounds 2 then 4 words; at t = 4 a boundary at 4 is a state change:
        # trial 0 spans 2 <= 4 in its first round and reaches 4 in its second, trial 1 stops after
        # one round (+inf padding after 7), trial 2 has no boundary up to 4.  The grid ends with
        # the third boundary, the most that any stream has <= 4
        rounds = {0: ([1, 1], [2, 5, 5, 5]), 1: ([4, 3],), 2: ([5, 1],)}
        monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: 1)
        monkeypatch.setattr(oracle, "_durations", lambda words, lam, mu: words * 1.0)
        monkeypatch.setattr(oracle, "_draw", lambda bitgen, state, trials, c, r, count: np.array([rounds[i][r] for i in trials]))
        grid, owner = oracle._grid(None, None, [(1.0, 1.0, 1)], np.arange(3), 4.0)
        assert grid.tolist() == [
            [0.0, 1.0, 2.0, 4.0],
            [0.0, 4.0, 7.0, math.inf],
            [0.0, 5.0, 6.0, math.inf],
        ]
        assert owner.tolist() == [-1, 0, 0, 0]
        assert oracle._held_at(self.SINGLE, grid, owner, 4.0).tolist() == [False, False, True]
        # with no boundary <= 0.5 in any stream, the component keeps one column, which the read needs
        grid, owner = oracle._grid(None, None, [(1.0, 1.0, 1)], np.arange(3), 0.5)
        assert grid.tolist() == [[0.0, 1.0], [0.0, 4.0], [0.0, 5.0]]
        assert oracle._held_at(self.SINGLE, grid, owner, 0.5).tolist() == [True, True, True]
        assert ak.mc_point_availability(self.SINGLE, 4.0, ak.SimConfig(trials=3)).mean == 1 / 3
        ft = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Basic("C"))
        assert ak.mc_point_availability(ft, 4.0, ak.SimConfig(trials=3)).mean == 2 / 3

    def test_stream_reaches_past_the_target(self, monkeypatch):
        # a stream draws until its last boundary passes the target.  Round 0's boundaries
        # all round to 2**53, so round 1 is drawn, and its first boundary is a fifth at 2**53.
        # Stopping on a separate sum of the durations, 2**53 + 2 when taken pairwise, would miss it
        rounds = ([2 ** 53, 1, 1, 1], [1, 5, 5, 5, 5, 5, 5, 5])
        monkeypatch.setattr(oracle, "_durations", lambda words, lam, mu: words * 1.0)
        monkeypatch.setattr(oracle, "_draw", lambda bitgen, state, trials, c, r, count: np.array([rounds[r]]))
        target = 2.0 ** 53
        grid, owner = oracle._grid(None, None, [(1.0, 1.0, 2)], np.arange(1), target)
        assert grid.tolist() == [[0.0] + [target] * 5]
        assert oracle._held_at(self.SINGLE, grid, owner, target).tolist() == [False]  # five changes: down

    def test_rounds_deterministic_and_long_enough(self, monkeypatch):
        # first rounds of one cycle, so that every stream runs over several rounds
        def draw(seed):
            bitgen = np.random.Philox(key=seed)
            return oracle._grid(bitgen, bitgen.state, [(0.1, 0.3, 1)], np.arange(3), 50.0)

        a, owner = draw(3)
        assert np.array_equal(a, draw(3)[0])
        assert not np.array_equal(a, draw(4)[0])
        assert owner.tolist() == [-1] + [0] * (a.shape[1] - 1)
        assert (a[:, 0] == 0.0).all() and (a[:, -1] <= 50.0).any()  # the last column holds some boundary <= 50
        # record each round's trials and durations, and rebuild every stream whole from them
        rounds = []
        words, durations = oracle._draw, oracle._durations

        def record(*args):
            out = durations(*args)
            rounds[-1].append(out.copy())  # _grid sums the durations in place
            return out

        monkeypatch.setattr(oracle, "_draw", lambda *args: rounds.append([args[2].tolist()]) or words(*args))
        monkeypatch.setattr(oracle, "_durations", record)
        assert np.array_equal(draw(3)[0], a)
        for trial, row in enumerate(a):
            drawn = [steps[trials.index(trial)] for trials, steps in rounds if trial in trials]
            assert len(drawn) > 1
            assert all((steps > 0).all() for steps in drawn)  # positive durations
            stream = np.cumsum(np.concatenate(drawn))
            # each round but the stream's last ends <= 50, and the last one ends past it
            ends = np.cumsum([steps.size for steps in drawn]) - 1
            assert (stream[ends[:-1]] <= 50.0).all() and stream[-1] > 50.0
            # the row holds the stream's first boundaries, every one <= 50 among them, then +inf padding;
            # the sum across rounds is the same float as one cumsum over them all
            expected = np.full(a.shape[1] - 1, np.inf)
            expected[:stream.size] = stream[:expected.size]
            assert np.array_equal(row[1:], expected)
            assert (stream[expected.size:] > 50.0).all()


class TestMonteCarlo:
    def test_point_at_zero_is_exactly_one(self):
        model = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))
        est = ak.mc_point_availability(model, 0.0, ak.SimConfig(trials=300, seed=5))
        assert est.mean == 1.0

    def test_point_determinism(self):
        model = dfh3_abd()
        cfg = ak.SimConfig(trials=200, seed=123)
        assert ak.mc_point_availability(model, 4.0, cfg) == ak.mc_point_availability(model, 4.0, cfg)

    def test_single_trial_estimates_compare_equal(self):
        # one trial has no standard error: None, so that equal runs compare equal
        cfg = ak.SimConfig(trials=1, horizon=5.0, seed=1)
        steady = ak.mc_steady_availability(dfh3_abd(), cfg)
        point = ak.mc_point_availability(dfh3_abd(), 4.0, cfg)
        assert steady.std_error is None and point.std_error is None
        assert steady == ak.mc_steady_availability(dfh3_abd(), cfg)
        assert point == ak.mc_point_availability(dfh3_abd(), 4.0, cfg)

    def test_point_thread_invariance(self):
        # the point estimator runs on the calling thread alone (TestSteadyWorker checks that it
        # starts none), so the invariance left to pin is one config, one estimate, bitwise
        cfg = ak.SimConfig(trials=120, seed=9)
        assert ak.mc_point_availability(dfh3_abd(), 4.0, cfg) == ak.mc_point_availability(dfh3_abd(), 4.0, cfg)

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
        # the steady-state estimator integrates its blocks on an executor's thread (TestSteadyWorker);
        # however the two threads interleave, the same config twice gives the same estimate
        cfg = ak.SimConfig(trials=50, horizon=500.0, seed=77)
        assert ak.mc_steady_availability(dfh3_abd(), cfg) == ak.mc_steady_availability(dfh3_abd(), cfg)

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


class TestDraw:
    # sorted trial sets with gaps draw one run of consecutive trials at a time
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-2 ** 70, 2 ** 70),
        trials=st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True).map(sorted),
        first=st.sampled_from([0, oracle.TRIAL_LIMIT - 41]),  # the last trials reach the largest counters
        component=st.integers(0, 2 ** 20),
        round=st.integers(0, 22),
        count=st.integers(1, 35).map(lambda n: 2 * n),  # 2n words; an odd n part-fills each trial's last block
    )
    def test_equals_per_round_reference(self, seed, trials, first, component, round, count):
        trials = [first + trial for trial in trials]
        bitgen = np.random.Philox(key=seed & oracle._MASK64)
        got = oracle._draw(bitgen, bitgen.state, np.array(trials), component, round, count)
        assert got.shape == (len(trials), count)
        for row, trial in zip(got, trials):
            assert np.array_equal(row, reference_round(seed, trial, component, round, count))

    def test_counter_stays_below_two_to_the_63(self):
        # np.random.Philox(counter=...), which the references use, reads entries of
        # 2**63 and above through float64; the largest counter word 0 is TRIAL_LIMIT * B_r
        # for the largest round
        assert oracle.TRIAL_LIMIT * -(-oracle.STREAM_DRAW_LIMIT // 4) < 2 ** 63


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


class TestPointCurve:
    """A sequence of times is one simulation per group of times, read at each of them."""

    TIMES = (2.5, 0.0, 0.4, 9.0)

    @staticmethod
    def shared_models(seed):
        rng = random.Random(seed)
        models = [dfh3_abd(), dfh3_ft()]
        while len(models) < 11:
            model = random_model(rng, ("abd", "coherent-ft", "ft")[len(models) % 3])
            if not model.leaves_distinct:  # shared leaves in every random model
                models.append(model)
        return rng, models

    def test_each_time_equals_the_reference_drawn_to_the_largest(self):
        rng, models = self.shared_models(37)
        for i, model in enumerate(models):
            cfg = ak.SimConfig(trials=(2, 9, 41)[i % 3], seed=rng.randrange(2 ** 64))
            got = ak.mc_point_availability(model, self.TIMES, cfg)
            assert isinstance(got, list) and len(got) == len(self.TIMES)
            for t, est in zip(self.TIMES, got):
                assert est == reference_mc_point(model, t, cfg, target=9.0), (ak.serialize_model(model), t, cfg)

    def test_one_time_is_a_group_of_one(self):
        # a single float keeps its return value and its bits; a list of one gives the same estimate in a list
        rng, models = self.shared_models(41)
        for model in models[:5]:
            cfg = ak.SimConfig(trials=23, seed=rng.randrange(2 ** 64))
            for t in (0.4, 2.5):
                est = ak.mc_point_availability(model, t, cfg)
                assert isinstance(est, ak.Estimate)
                assert est == reference_mc_point(model, t, cfg)
                assert ak.mc_point_availability(model, [t], cfg) == [est]
                assert ak.mc_point_availability(model, np.array([t]), cfg) == [est]
        assert ak.mc_point_availability(dfh3_abd(), [], ak.SimConfig(trials=3, seed=1)) == []

    def test_order_and_repeats_do_not_matter(self):
        cfg = ak.SimConfig(trials=50, seed=8)
        for model in (dfh3_abd(), dfh3_ft()):
            by_time = dict(zip(sorted(self.TIMES), ak.mc_point_availability(model, sorted(self.TIMES), cfg)))
            for times in ([9.0, 0.4, 2.5, 0.0], [0.4, 9.0, 0.4, 2.5, 9.0], (0.0, 0.0, 9.0, 2.5, 0.4, 2.5)):
                assert ak.mc_point_availability(model, times, cfg) == [by_time[t] for t in times], times

    @pytest.mark.parametrize(
        "times, message",
        [
            ([1.0, 2.0, math.inf], "time must be finite and >= 0, got inf"),
            ([math.nan, 1.0], "time must be finite and >= 0, got nan"),
            ((4.0, -1.0, 2.0), "time must be finite and >= 0, got -1.0"),
        ],
    )
    def test_bad_time_refused_before_any_draw(self, monkeypatch, times, message):
        draws = []
        draw = oracle._draw
        monkeypatch.setattr(oracle, "_draw", lambda *args: draws.append(args) or draw(*args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ak.mc_point_availability(dfh3_abd(), times, ak.SimConfig(trials=5, seed=1))
        assert draws == []
        ak.mc_point_availability(dfh3_abd(), [1.0, 2.0], ak.SimConfig(trials=5, seed=1))
        assert draws  # the counter sees the draws of a good list

    def test_groups_bounded_by_the_trial_limit(self, monkeypatch):
        # at most TRIAL_LIMIT // trials times share a simulation: 5 trials against a limit
        # of 10 make groups of two consecutive distinct times, the last one alone
        monkeypatch.setattr(oracle, "TRIAL_LIMIT", 10)
        grids = []
        build = oracle._grid
        monkeypatch.setattr(oracle, "_grid", lambda *args: grids.append(args[4]) or build(*args))
        times = [7.0, 0.3, 2.0, 1.0, 4.0, 2.0]
        groups = {0.3: 1.0, 1.0: 1.0, 2.0: 4.0, 4.0: 4.0, 7.0: 7.0}  # each time's group's largest time
        cfg = ak.SimConfig(trials=5, seed=12)
        for model in (dfh3_abd(), dfh3_ft()):
            grids.clear()
            got = ak.mc_point_availability(model, times, cfg)
            assert grids == [1.0, 4.0, 7.0]  # one block per group, drawn to its largest time
            for t, est in zip(times, got):
                assert est == reference_mc_point(model, t, cfg, target=groups[t]), (model.name, t)


class TestBatchedSteady:
    """The batched steady-state estimator equals the per-trial reference exactly."""

    @pytest.mark.parametrize(
        "block_words, first_round",
        [
            (None, None),  # the module's own sizes
            (64, None),  # blocks of a few trials split the trial range
            (64, 1),  # rounds of 2, 4, 8, ... words: later rounds and +inf padding
        ],
    )
    def test_equals_per_trial_reference(self, monkeypatch, block_words, first_round):
        if block_words is not None:
            monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", block_words)
        if first_round is not None:
            # both estimators read the first round's size from this helper
            monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: first_round)
        rng = random.Random(37)
        models = [dfh3_abd(), dfh3_ft()]
        while len(models) < 14:
            model = random_model(rng, ("abd", "coherent-ft", "ft")[len(models) % 3])
            if not model.leaves_distinct:  # shared leaves in every random model
                models.append(model)
        for i, model in enumerate(models):
            horizons = (0.3, 5.0, 200.0, 3000.0) if i < 2 else (0.3, 5.0, 200.0)
            for j, horizon in enumerate(horizons):
                seed = (-1 - rng.randrange(2 ** 70), 2 ** 64 + rng.randrange(2 ** 70), rng.randrange(2 ** 64))[(i + j) % 3]
                cfg = ak.SimConfig(trials=(1, 2, 9, 41)[(i + j) % 4], horizon=horizon, seed=seed)
                got = ak.mc_steady_availability(model, cfg)
                assert got == reference_mc_steady(model, cfg), (ak.serialize_model(model), cfg)
        # hundreds of trials at a short horizon: at the module's sizes all 300 fit in one block
        series = ak.SystemModel("series", {c: ak.ComponentDef(c, ak.RatePair(1, 3)) for c in "ab"}, ak.Series((ak.Unit("a"), ak.Unit("b"))))
        cfg = ak.SimConfig(trials=300, horizon=5.0, seed=rng.randrange(2 ** 64))
        assert ak.mc_steady_availability(series, cfg) == reference_mc_steady(series, cfg)

    @pytest.mark.parametrize("block", [True, False])
    def test_more_components_than_bits_in_a_word(self, block):
        # 130 components: the parity sweep keeps their states in three 64-bit words
        names = [f"c{i}" for i in range(130)]
        comps = {c: ak.ComponentDef(c, ak.RatePair(Fraction(i % 7 + 1, 3), Fraction(i % 5 + 1, 2))) for i, c in enumerate(names)}
        if block:
            body = ak.Series(tuple(ak.Parallel((ak.Unit(a), ak.Unit(b))) for a, b in zip(names[0::2], names[1::2])))
        else:
            pairs = zip(names[0::2], names[1::2])
            body = ak.Or(tuple(ak.And((ak.Basic(a), ak.Xor(ak.Basic(b), ak.Basic(names[0])))) for a, b in pairs))
        model = ak.SystemModel("wide", comps, body)
        cfg = ak.SimConfig(trials=3, horizon=4.0, seed=2 ** 64 + 9)
        assert ak.mc_steady_availability(model, cfg) == reference_mc_steady(model, cfg)

    @pytest.mark.parametrize(
        "block_words, first_round",
        [
            (None, None),
            (64, None),
            (64, 1),
        ],
    )
    def test_state_table_width(self, monkeypatch, block_words, first_round):
        # 16 components read the structure from one state table, 17 take the 64-bit group sweep
        if block_words is not None:
            monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", block_words)
        if first_round is not None:
            monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: first_round)
        for n in (oracle.TABLE_COMPONENTS, oracle.TABLE_COMPONENTS + 1):
            for model in self.width_models(n):
                assert len(ak.basic_events(model)) == n
                assert (oracle._state_table(model) is None) == (n > oracle.TABLE_COMPONENTS)
                for horizon, trials in ((0.3, 9), (6.0, 4)):
                    cfg = ak.SimConfig(trials=trials, horizon=horizon, seed=2 ** 64 + n)
                    assert ak.mc_steady_availability(model, cfg) == reference_mc_steady(model, cfg), (ak.serialize_model(model), cfg)

    @staticmethod
    def width_models(n):
        """A block diagram and a non-coherent tree over n components c0 .. c(n-1)."""
        names = [f"c{i}" for i in range(n)]
        comps = {c: ak.ComponentDef(c, ak.RatePair(Fraction(i % 4 + 1, 2), Fraction(i % 3 + 2, 1))) for i, c in enumerate(names)}
        half = n // 2
        pairs = zip(names[0::2], names[1::2])
        abd = ak.Series((*(ak.Parallel((ak.Unit(a), ak.Unit(b))) for a, b in pairs), ak.Parallel((ak.Unit(names[-1]), ak.Unit(names[0])))))
        ft = ak.Or((
            ak.Xor(ak.Basic(names[0]), ak.Basic(names[-1])),
            ak.Nand(tuple(ak.Basic(c) for c in names[1:half]), tuple(ak.Basic(c) for c in names[half:])),
        ))
        return [ak.SystemModel(f"width-{n}", comps, body) for body in (abd, ft)]

    def test_rounding_bound(self):
        # read with the times as drawn, each trial's held fraction is within the grid's
        # columns times 2**tag ulps of the horizon: each time, the horizon among them,
        # moves by less than 2**tag ulps of itself when the sort rounds it
        for n in (oracle.TABLE_COMPONENTS, oracle.TABLE_COMPONENTS + 1):
            tag = n.bit_length()
            for model in self.width_models(n):
                events = ak.basic_events(model)

                def holds(up, model=model):
                    return reference_holds(model.body, {c: not v for c, v in up.items()} if model.is_fault_tree else up)

                for horizon in (0.3, 6.0, 200.0):
                    bitgen = np.random.Philox(key=n)
                    comps = [(lam, mu, oracle._first_round_cycles(lam, mu, horizon)) for lam, mu in oracle._component_rates(model)]
                    grid, owner = oracle._grid(bitgen, bitgen.state, comps, np.arange(9), horizon)
                    got = oracle._time_held(model, grid, owner, horizon, oracle._state_table(model))
                    bound = grid.shape[1] * 2 ** tag * math.ulp(horizon) / horizon
                    for row, times in enumerate(grid):
                        bounds = {e: times[owner == i] for i, e in enumerate(events)}
                        unrounded = reference_unrounded_time_held(bounds, horizon, holds) / horizon
                        assert abs(got[row] - unrounded) <= bound, (model.name, horizon, row)

    def test_one_state_table_per_estimate(self, monkeypatch):
        # the table is built once per estimate, however many blocks the trials take
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        calls = {"_state_table": 0, "_grid": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(oracle, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(oracle, name, counted)
        for model in (dfh3_abd(), dfh3_ft()):
            ak.mc_steady_availability(model, ak.SimConfig(trials=30, horizon=20.0, seed=4))
        assert calls["_state_table"] == 2
        assert calls["_grid"] == 2 * 30  # a block of 64 first-round words holds one trial

    def test_one_draw_per_component_and_round(self, monkeypatch):
        # rounds of 2, 4, 8, ... words in blocks of 8 first-round words: a block holds
        # several trials, and a later round of their streams needs more than 8 words,
        # yet each round of a component in a block is one draw
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 8)
        monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: 1)
        blocks, draws = [], []
        grid, draw = oracle._grid, oracle._draw
        monkeypatch.setattr(oracle, "_grid", lambda *args: blocks.append(args[3].tolist()) or grid(*args))
        monkeypatch.setattr(oracle, "_draw", lambda *args: draws.append((len(blocks), args[3], args[4], args[2].size, args[5])) or draw(*args))
        single = ak.SystemModel("single", {"a": ak.ComponentDef("a", R13)}, ak.Unit("a"))
        series = ak.SystemModel("series", {c: ak.ComponentDef(c, R13) for c in "ab"}, ak.Series((ak.Unit("a"), ak.Unit("b"))))
        for model in (single, series):
            blocks.clear()
            draws.clear()
            cfg = ak.SimConfig(trials=12, horizon=50.0, seed=3)
            assert ak.mc_steady_availability(model, cfg) == reference_mc_steady(model, cfg)
            assert max(map(len, blocks)) > 1
            assert any(streams * count > 8 for _, _, _, streams, count in draws)
            keys = [key[:3] for key in draws]  # (block, component, round)
            assert len(keys) == len(set(keys)), model.name

    def test_peak_memory(self):
        # the boundary grid of a block stays small next to the process (the benchmark bounds peak RSS),
        # at mc-steady's horizon and at compare's default
        for model in (dfh3_abd(), dfh3_ft()):
            for horizon in (3000.0, 10000.0):
                tracemalloc.start()
                try:
                    ak.mc_steady_availability(model, ak.SimConfig(trials=100, horizon=horizon, seed=1))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 8 * 2 ** 20, (model.name, horizon, peak)


def serial_steady(model, cfg):
    """mc_steady_availability with every block drawn and then integrated on the calling thread."""
    horizon = float(cfg.horizon)
    table = oracle._state_table(model)
    values = np.empty(cfg.trials, dtype=np.float64)
    for block, grid, owner in oracle._simulate(model, cfg, horizon, oracle.STEADY_BLOCK_WORDS):
        values[block] = oracle._time_held(model, grid, owner, horizon, table)
    return oracle._estimate(values)


class TestSteadyWorker:
    """The steady-state estimator integrates each block on one worker thread while the calling thread draws the next."""

    SINGLE = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))

    @staticmethod
    def raised_on_a_daemon(fn):
        """Run fn on a daemon thread and return what it raised, or None; a hang fails, not blocks, the test."""
        raised = []

        def run():
            try:
                fn()
            except BaseException as error:
                raised.append(error)
            else:
                raised.append(None)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the estimate did not return"
        return raised[0]

    def test_equals_serial_blocks(self, monkeypatch):
        # blocks of 64 first-round words hold one trial each, so dozens of blocks overlap;
        # the 17-component tree takes the 64-bit group sweep in place of the state table
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        wide = TestBatchedSteady.width_models(oracle.TABLE_COMPONENTS + 1)[1]
        assert oracle._state_table(wide) is None
        for model, horizon in ((dfh3_abd(), 300.0), (dfh3_ft(), 300.0), (wide, 6.0)):
            cfg = ak.SimConfig(trials=40, horizon=horizon, seed=2 ** 64 + 5)
            assert sum(1 for _ in oracle._simulate(model, cfg, horizon, oracle.STEADY_BLOCK_WORDS)) == 40
            assert ak.mc_steady_availability(model, cfg) == serial_steady(model, cfg), model.name

    def test_draws_stay_on_the_calling_thread(self, monkeypatch):
        # only the caller touches the generator; every block is integrated on one other thread
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        threads = {"_draw": set(), "_time_held": set()}
        for name in threads:
            def recorded(*args, _name=name, _real=getattr(oracle, name)):
                threads[_name].add(threading.get_ident())
                return _real(*args)

            monkeypatch.setattr(oracle, name, recorded)
        ak.mc_steady_availability(dfh3_abd(), ak.SimConfig(trials=10, horizon=100.0, seed=3))
        assert threads["_draw"] == {threading.get_ident()}
        assert len(threads["_time_held"]) == 1 and threading.get_ident() not in threads["_time_held"]

    def test_integration_error_propagates(self, monkeypatch):
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        held, real = [], oracle._time_held

        def failing(*args):
            held.append(args[1].shape[0])
            if len(held) == 3:
                raise RuntimeError("integration failed on block 3")
            return real(*args)

        monkeypatch.setattr(oracle, "_time_held", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^integration failed on block 3$"):
            ak.mc_steady_availability(dfh3_abd(), ak.SimConfig(trials=20, horizon=300.0, seed=1))
        assert threading.active_count() == before
        assert len(held) == 3  # the failure is raised before a fourth block is handed over

    def test_draw_refusal_propagates(self, monkeypatch):
        # rounds of 8, 16, 32 and 64 words in blocks of one trial: at horizon 700 and seed 7,
        # trial 6 is the first whose stream needs a fifth round, over the limit of 120 words
        monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: 4)
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 8 + 16 + 32 + 64)
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 8)
        calls = {"_grid": 0, "_time_held": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(oracle, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(oracle, name, counted)
        before = threading.active_count()
        message = "simulation refused: a renewal stream would draw 248 random words, over the per-stream limit of 120; shorten the time or horizon"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ak.mc_steady_availability(self.SINGLE, ak.SimConfig(trials=12, horizon=700.0, seed=7))
        assert threading.active_count() == before
        # the six blocks drawn before the refusal were all integrated before it was raised
        assert calls == {"_grid": 7, "_time_held": 6}

    def test_point_estimate_starts_no_thread(self, monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name) or start(thread))
        before = threading.active_count()
        for times in (4.0, [0.5, 1.0, 4.0]):
            ak.mc_point_availability(dfh3_abd(), times, ak.SimConfig(trials=300, seed=3))
        assert started == []
        # the probe sees the one worker of a steady-state estimate, joined when it returns
        ak.mc_steady_availability(dfh3_abd(), ak.SimConfig(trials=10, horizon=50.0, seed=3))
        assert len(started) == 1 and threading.active_count() == before

    @pytest.mark.parametrize("stage", ["_grid", "_time_held"])
    def test_interrupt_in_a_stage(self, monkeypatch, stage):
        # Ctrl-C while the caller draws block 3, or while the worker integrates it: the
        # interrupt reaches the caller and the worker is joined
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        calls, real = [], getattr(oracle, stage)

        def interrupted(*args):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(oracle, stage, interrupted)
        before = threading.active_count()
        cfg = ak.SimConfig(trials=20, horizon=300.0, seed=1)
        assert type(self.raised_on_a_daemon(lambda: ak.mc_steady_availability(dfh3_abd(), cfg))) is KeyboardInterrupt
        assert threading.active_count() == before

    @pytest.mark.parametrize("done", [False, True], ids=["before", "after"])
    @pytest.mark.parametrize("owner, name", [
        (concurrent.futures.ThreadPoolExecutor, "submit"),  # the handover of block 3
        (concurrent.futures.Future, "result"),  # the wait for block 3, once block 4 is drawn
    ], ids=["submit", "result"])
    def test_interrupt_in_a_handover(self, monkeypatch, owner, name, done):
        # Ctrl-C lands in the handover of block 3 or in the wait for it, before or after the
        # executor's call does its work: the interrupt reaches the caller, and leaving the
        # executor still joins its thread, whether or not block 3 was handed over or waited for
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        calls, real = [], getattr(owner, name)

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) != 3:
                return real(*args, **kwargs)
            if done:
                real(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(owner, name, interrupted)
        before = threading.active_count()
        cfg = ak.SimConfig(trials=20, horizon=300.0, seed=1)
        assert type(self.raised_on_a_daemon(lambda: ak.mc_steady_availability(dfh3_abd(), cfg))) is KeyboardInterrupt
        assert len(calls) == 3
        assert threading.active_count() == before

    def test_concurrent_estimates(self, monkeypatch):
        # four callers, each with its own worker, on short switch intervals: eight threads
        # hand blocks over at once, and every estimate still equals its serial loop
        monkeypatch.setattr(oracle, "STEADY_BLOCK_WORDS", 64)
        cases = [(model, ak.SimConfig(trials=24, horizon=200.0, seed=seed)) for seed in (1, 2) for model in (dfh3_abd(), dfh3_ft())]
        expected = [serial_steady(model, cfg) for model, cfg in cases]
        got = [None] * len(cases)

        def run(i):
            got[i] = ak.mc_steady_availability(*cases[i])

        # daemons, so that a deadlocked handover fails the assertion below instead of holding pytest at exit
        callers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == expected


# two floats past 8.0, in the middle of 8.0's bucket of 2**tag = 4 floats for two components
BUCKET_HORIZON = math.nextafter(math.nextafter(8.0, 9.0), 9.0)
SHARED = np.cumsum(np.arange(1, 201) * 0.6180339887498949 % 1.0 + 0.05).tolist()


class TestTimeHeld:
    """The block sweep integrates hand-made boundary grids as np.unique + searchsorted does per trial."""

    BODIES = {
        "series": ak.Series((ak.Unit("a"), ak.Unit("b"))),
        "parallel": ak.Parallel((ak.Unit("a"), ak.Unit("b"))),
        "unit": ak.Unit("a"),
        "xor": ak.Xor(ak.Basic("a"), ak.Basic("b")),
        "nand": ak.Nand((ak.Basic("a"),), (ak.Basic("b"),)),
    }
    # one dict per trial: each component's sorted boundaries
    GRIDS = {
        "same-instant": ([{"a": [1.0, 2.0, 4.0], "b": [1.0, 3.0, 4.0, 7.0]}], 6.0),
        "at-horizon": ([{"a": [1.0, 2.5, 3.0], "b": [0.5, 2.5]}], 2.5),
        "inf-tail": ([{"a": [1.0, 9.0], "b": [2.0, 3.0, 4.0, 5.0, 11.0]}, {"a": [0.5, 1.5, 2.5, 3.5, 10.0], "b": [6.0, 12.0]}], 8.0),
        "zero-and-repeat": ([{"a": [0.0, 1.0, 1.0, 2.0], "b": [1.0, 2.0, 2.0]}], 3.0),
        "all-below-horizon": ([{"a": [1.0, 2.0], "b": [1.5, 2.5]}], 4.0),
        # 200 instants at which both components toggle, with inexact spacings: a sum
        # of the held durations that took a zero-length epoch per tie would round differently
        "shared-instants": ([{"a": SHARED, "b": SHARED}], SHARED[100] + 0.5 * (SHARED[101] - SHARED[100])),
        # b toggles at 1.0 and a one float later: the two times share a bucket of 2**tag floats,
        # whose low bits the sort keys give to the owner, so both read as the one instant 1.0.
        # The state between them, one float long, is not integrated, whatever a's state decides
        "adjacent-floats": ([{"a": [math.nextafter(1.0, 2.0)], "b": [1.0]}], 1.5),
        # the horizon lies inside its bucket of 2**tag floats.  Trial 0 holds a boundary one float
        # above it and trial 1 one float below it; both round to the bucket's start, so both count
        # as at the horizon.  Trial 2 has those columns below the horizon, so the grid keeps them
        "horizon-bucket": (
            [
                {"a": [1.0, 5.0, math.nextafter(BUCKET_HORIZON, 9.0)], "b": [2.0]},
                {"a": [1.0, 5.0], "b": [2.0, math.nextafter(BUCKET_HORIZON, 0.0)]},
                {"a": [1.0, 3.0, 4.0], "b": [2.0, 6.0]},
            ],
            BUCKET_HORIZON,
        ),
    }

    @staticmethod
    def grid(model, trials, shuffle):
        """The trials' boundaries as one grid: a 0.0 column, then the columns of each of the model's components, +inf past a short row."""
        columns, owner = [np.zeros((len(trials), 1))], [-1]
        for ci, comp in enumerate(ak.basic_events(model)):
            width = max(len(t[comp]) for t in trials)
            cols = np.full((len(trials), width), np.inf)
            for row, t in enumerate(trials):
                cols[row, :len(t[comp])] = t[comp]
            columns.append(cols)
            owner += [ci] * width
        grid, owner = np.concatenate(columns, axis=1), np.array(owner)
        if shuffle:  # the sweep reads columns in any order
            perm = np.random.default_rng(5).permutation(owner.size)
            grid, owner = grid[:, perm], owner[perm]
        return grid, owner

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("grid_name", list(GRIDS))
    @pytest.mark.parametrize("body_name", list(BODIES))
    def test_equals_unique_and_searchsorted(self, body_name, grid_name, shuffle):
        body = self.BODIES[body_name]
        model = gate_model(body)
        trials, horizon = self.GRIDS[grid_name]
        grid, owner = self.grid(model, trials, shuffle)

        def holds(up):
            return reference_holds(body, {c: not v for c, v in up.items()} if model.is_fault_tree else up)

        # the state table read, and the 64-bit group sweep that models too wide for a table take
        for table in (oracle._state_table(model), None):
            got = oracle._time_held(model, grid, owner, horizon, table)
            for row, trial in enumerate(trials):
                bounds = {c: np.array(trial[c]) for c in ak.basic_events(model)}
                assert got[row] == reference_time_held(bounds, horizon, holds), (row, trial, table)


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

    def test_subnormal_horizon(self):
        # the smallest horizon rounds to 0.0 with the times, so it takes the first bucket above it;
        # every component stays up that long, so a single unit holds throughout
        cfg = ak.SimConfig(trials=3, horizon=5e-324, seed=1)
        got = ak.mc_steady_availability(self.SINGLE, cfg)
        assert got == reference_mc_steady(self.SINGLE, cfg)
        assert got.mean == 1.0

    def test_stream_draw_budget(self, monkeypatch):
        # R13's mean cycle is 40/3: t = 1000 asks for 2 * 114 words up front
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 150)
        cfg = ak.SimConfig(trials=3, horizon=1000.0, seed=1)
        with pytest.raises(ValueError, match="limit of 150"):
            ak.mc_point_availability(self.SINGLE, 1000.0, cfg)
        with pytest.raises(ValueError, match="limit of 150"):
            ak.mc_steady_availability(self.SINGLE, cfg)
        assert ak.mc_point_availability(self.SINGLE, 100.0, cfg).trials == 3  # 2 * 21 words

    def test_stream_past_float_range_refused(self):
        # the expected cycle count overflows a float, so the stream is refused before its first round is sized
        huge = ak.SystemModel("m", {"A": ak.ComponentDef("A", ak.RatePair(10**300, 10**300))}, ak.Unit("A"))
        cfg = ak.SimConfig(trials=3, horizon=1e10, seed=1)
        with pytest.raises(ValueError, match="per-stream limit"):
            ak.mc_point_availability(huge, 1e10, cfg)
        with pytest.raises(ValueError, match="per-stream limit"):
            ak.mc_steady_availability(huge, cfg)

    def test_trial_budget(self):
        # refused before the estimators allocate their per-trial value arrays
        cfg = ak.SimConfig(trials=oracle.TRIAL_LIMIT + 1, horizon=10.0, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"trials must be <= {oracle.TRIAL_LIMIT}, got {oracle.TRIAL_LIMIT + 1}"):
                ak.mc_point_availability(self.SINGLE, 1.0, cfg)
            with pytest.raises(ValueError, match=f"trials must be <= {oracle.TRIAL_LIMIT}"):
                ak.mc_steady_availability(self.SINGLE, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_stream_draw_budget_counts_later_rounds(self, monkeypatch):
        # rounds of 8, 16, 32, ... words: reaching t = 800 (about 60 cycles) needs a fourth round
        monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: 4)
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 8 + 16 + 32)
        cfg = ak.SimConfig(trials=2, horizon=800.0, seed=1)
        with pytest.raises(ValueError, match="limit of 56"):
            ak.mc_point_availability(self.SINGLE, 800.0, cfg)
        with pytest.raises(ValueError, match="limit of 56"):
            ak.mc_steady_availability(self.SINGLE, cfg)


class TestFirstRound:
    """The first round is the least n whose Chernoff bound on a second round is at most the module's epsilon.

    The bound is recomputed here by a numerical minimisation over theta, not
    by the oracle's root formula, and the exact chance of a second round,
    P(S_n <= t) with S_n the sum of a Gamma(n, lam) up time and a
    Gamma(n, mu) down time, by quadrature.
    """

    DFH3 = [(0.1, 0.3), (0.2, 0.5), (0.3, 0.4), (0.7, 0.8), (0.5, 0.5)]
    SHARED = [(0.4, 4.0), (0.8, 8.0), (0.8, 4.0), (1.2, 8.0), (0.4, 8.0), (1.2, 12.0), (2.0, 12.0), (0.8, 12.0)]
    LARGE = [(lam / 1000, lam * b / 1000) for lam in (1, 2, 5) for b in (1, 2, 3, 4, 9)]
    CASES = (
        [(lam, mu, t) for lam, mu in DFH3 for t in (0.25, 0.5, 1.0, 2.0, 4.0, 3000.0)]
        + [(lam, mu, 100.0) for lam, mu in SHARED]
        + [(lam, mu, t) for lam, mu in LARGE for t in (10.0, 100.0, 1000.0)]
    )

    @staticmethod
    def bound(lam, mu, t, n):
        """inf over theta > 0 of e^(theta t) (lam / (lam + theta))^n (mu / (mu + theta))^n, searched over log theta."""
        def log_bound(s):
            theta = math.exp(s)
            return theta * t - n * (math.log1p(theta / lam) + math.log1p(theta / mu))

        hi = math.log(4 * n / t + lam + mu)  # past the minimiser, near 2n / t for small t
        best = optimize.minimize_scalar(log_bound, bounds=(-60.0, hi), method="bounded", options={"xatol": 1e-12})
        return math.exp(min(best.fun, 0.0))

    @staticmethod
    def second_round(lam, mu, t, n):
        """P(S_n <= t): the Gamma(n, lam) density against the Gamma(n, mu) distribution function."""
        def integrand(u):
            return stats.gamma.pdf(u, n, scale=1 / lam) * stats.gamma.cdf(t - u, n, scale=1 / mu)

        peak = min((n - 1) / lam, t)  # the density's mode, where the mass lies
        value, _ = integrate.quad(integrand, 0.0, t, points=[peak], epsabs=0.0, epsrel=1e-10, limit=500)
        return value

    @pytest.mark.parametrize("lam, mu, t", CASES)
    def test_least_n_whose_bound_is_at_most_epsilon(self, lam, mu, t):
        n = oracle._first_round_cycles(lam, mu, t)
        eps = oracle._SECOND_ROUND
        assert self.bound(lam, mu, t, n) <= eps * (1 + 1e-9)
        assert n == 1 or self.bound(lam, mu, t, n - 1) > eps
        assert self.second_round(lam, mu, t, n) <= self.bound(lam, mu, t, n)

    def test_rates_and_sizes_of_the_workloads(self):
        sizes = {(0.1, 0.3, 0.5): 3, (0.7, 0.8, 4.0): 8, (0.1, 0.3, 3000.0): 290, (0.7, 0.8, 3000.0): 1247, (0.4, 4.0, 100.0): 69, (2.0, 12.0, 100.0): 234}
        assert {key: oracle._first_round_cycles(*key) for key in sizes} == sizes

    @pytest.mark.parametrize("t", [0.0, -0.0, 5e-324])
    def test_no_time_to_the_target_is_one_cycle(self, t):
        # one up duration passes t = 0 surely; at the smallest float the bound at n = 1 is 0
        assert oracle._first_round_cycles(0.1, 0.3, t) == 1
        assert oracle._first_round_cycles(1e300, 1e-300, t) == 1

    @pytest.mark.parametrize(
        "lam, mu, t", [(1e300, 1e-300, 1e10), (1e-300, 1e300, 1e10), (1e308, 1.0, 1e5), (1.0, 1e305, 1e4)]
    )
    def test_rate_times_target_past_the_float_range(self, lam, mu, t):
        # the fast rate's durations are nothing to t, and its product with t overflows, or its
        # product with n would: the bound is the slow rate's alone, e^(n - rt) (rt / n)^n for n > rt
        rt = min(lam, mu) * t

        def log_bound(n):
            return n - rt - n * math.log1p((n - rt) / rt) if n > rt else 0.0

        n = oracle._first_round_cycles(lam, mu, t)
        assert log_bound(n) <= math.log(oracle._SECOND_ROUND)
        assert n == 1 or log_bound(n - 1) > math.log(oracle._SECOND_ROUND)

    def test_estimate_with_a_rate_times_target_past_the_float_range(self):
        model = ak.SystemModel("m", {"A": ak.ComponentDef("A", ak.RatePair(10**300, Fraction(1, 10**300)))}, ak.Unit("A"))
        assert ak.mc_steady_availability(model, ak.SimConfig(trials=3, horizon=1e10, seed=1)).trials == 3

    @pytest.mark.parametrize(
        "t, count", [(1e4, "1e+304"), (1e10, "more than 1.8e+308")], ids=["over-the-limit", "past-float-range"]
    )
    def test_expected_cycles_past_the_limit_refused(self, t, count):
        # 10**300 rates: the expected cycles alone are over the limit, or past the float range
        with pytest.raises(ValueError, match=f"would draw {re.escape(count)} random words"):
            oracle._first_round_cycles(1e300, 1e300, t)
