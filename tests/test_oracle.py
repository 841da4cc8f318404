"""Exhaustive enumeration and renewal-process simulation oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import oracle
from availkit.casestudies import dfh3_abd, dfh3_ft
from support import (
    random_model,
    reference_exhaustive,
    reference_holds,
    reference_mc_point,
    reference_mc_steady,
    reference_time_held,
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
    """Renewal trajectories as the steady-state sampler holds them: boundary rounds and the sweep over them."""

    SINGLE = ak.SystemModel("m", {"C": ak.ComponentDef("C", R13)}, ak.Unit("C"))

    @classmethod
    def up_time(cls, ups, downs, horizon):
        steps = np.empty(2 * len(ups))
        steps[0::2], steps[1::2] = ups, downs
        bounds = np.cumsum(steps)
        grid = np.concatenate(([0.0], bounds))[None, :]
        owner = np.array([-1] + [0] * bounds.size)
        return float(oracle._time_held(cls.SINGLE, ["C"], grid, owner, horizon)[0])

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
        # rounds of 2 then 4 words whose durations are the words themselves:
        # cycles start at 0, 3 and 9 across the round boundary, and the span 3 <= 5 asks for a second round
        monkeypatch.setattr(oracle, "_first_round_cycles", lambda lam, mu, target: 1)
        monkeypatch.setattr(oracle, "_durations", lambda words, lam, mu: (words[:, 0::2] * 1.0, words[:, 1::2] * 1.0))
        words = np.array([2, 1, 5, 1, 1, 4, 9, 9], dtype=np.uint64)
        rounds = list(oracle._rounds(1.0, 1.0, 5.0, 1, lambda rows, start, count: words[None, start:start + count], 64))
        assert [start for _, start, _ in rounds] == [0, 2]
        assert np.concatenate([bounds[0] for _, _, bounds in rounds]).tolist() == [2.0, 3.0, 8.0, 9.0, 10.0, 14.0]

    def test_rounds_deterministic_and_long_enough(self):
        def grid(seed):
            return oracle._steady_grid(np.random.Philox(key=seed), [("C", 0.1, 0.3)], np.arange(3), 50.0)

        a, owner = grid(3)
        assert np.array_equal(a, grid(3)[0])
        assert not np.array_equal(a, grid(4)[0])
        assert owner.tolist() == [-1] + [0] * (a.shape[1] - 1)
        for row in a:
            bounds = row[np.isfinite(row)]
            assert bounds[0] == 0.0 and (np.diff(bounds) > 0).all()  # positive durations
            assert bounds[-1] > 50.0
            assert np.isinf(row[bounds.size:]).all()  # padding only after the stream's own rounds


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


class TestBatchedSteady:
    """The batched steady-state estimator equals the per-trial reference exactly."""

    @pytest.mark.parametrize(
        "block_words, first_round",
        [
            (None, None),  # the module's own sizes
            (64, None),  # blocks of a few trials, rounds split into single streams
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

    def test_peak_memory(self):
        # the boundary grid of a block stays small next to the process (the benchmark bounds peak RSS)
        for model in (dfh3_abd(), dfh3_ft()):
            tracemalloc.start()
            try:
                ak.mc_steady_availability(model, ak.SimConfig(trials=100, horizon=3000.0, seed=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2 ** 20, (model.name, peak)


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
    }

    @staticmethod
    def grid(trials, shuffle):
        """The trials' boundaries as one grid: a 0.0 column, then each component's columns, +inf past a short row."""
        columns, owner = [np.zeros((len(trials), 1))], [-1]
        for ci, comp in enumerate("ab"):
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
        grid, owner = self.grid(trials, shuffle)
        got = oracle._time_held(model, ["a", "b"], grid, owner, horizon)

        def holds(up):
            return reference_holds(body, {c: not v for c, v in up.items()} if model.is_fault_tree else up)

        for row, trial in enumerate(trials):
            bounds = {c: np.array(trial[c]) for c in "ab"}
            assert got[row] == reference_time_held(bounds, horizon, holds), (row, trial)


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
