"""Cut-set expansion, minimization, and semantic preservation."""

import random

import pytest

import availkit as ak
from availkit.casestudies import dfh3_ft
from support import assignments, random_coherent_gate, make_components


def fs(*events):
    return frozenset(events)


class TestExpand:
    def test_or_is_already_dnf(self):
        tree = ak.Or((ak.Basic("a"), ak.Basic("b")))
        assert ak.expand_to_cutsets(tree).sets == (fs("a"), fs("b"))

    def test_and_distributes_over_or(self):
        tree = ak.And((ak.Basic("a"), ak.Or((ak.Basic("b"), ak.Basic("c")))))
        assert ak.expand_to_cutsets(tree).sets == (fs("a", "b"), fs("a", "c"))

    def test_dfh3_tree_thirteen_cut_sets(self):
        collection = ak.expand_to_cutsets(dfh3_ft().body)
        assert len(collection) == 13
        singles = {fs(f"x{i}") for i in (1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14)}
        assert set(collection.sets) == singles | {fs("x5", "x6")}
        assert collection.minimized is False

    def test_idempotent_events_within_set(self):
        tree = ak.And((ak.Basic("a"), ak.Basic("a")))
        assert ak.expand_to_cutsets(tree).sets == (fs("a"),)

    def test_and_only_tree_single_cut_set(self):
        tree = ak.And((ak.Basic("a"), ak.Basic("b"), ak.Basic("c")))
        assert ak.expand_to_cutsets(tree).sets == (fs("a", "b", "c"),)

    def test_duplicate_cut_sets_removed(self):
        tree = ak.Or((ak.Basic("a"), ak.Basic("a")))
        assert ak.expand_to_cutsets(tree).sets == (fs("a"),)

    def test_non_coherent_rejected_with_path(self):
        tree = ak.Or((ak.Basic("a"), ak.Not(ak.Basic("b"))))
        with pytest.raises(ak.NonCoherentError) as err:
            ak.expand_to_cutsets(tree)
        assert "Not" in str(err.value)
        assert "children[1]" in str(err.value)

    @pytest.mark.parametrize("gate", [ak.And, ak.Or])
    def test_deep_chain(self, gate):
        # gate((Basic(e_k), level k - 1)) for k = 1 .. 3000 over Basic(e0)
        tree = ak.Basic("e0")
        for k in range(1, 3001):
            tree = gate((ak.Basic(f"e{k}"), tree))
        events = [f"e{k}" for k in range(3001)]
        expected = {fs(*events)} if gate is ak.And else {fs(e) for e in events}
        assert set(ak.expand_to_cutsets(tree).sets) == expected

    def test_non_coherent_path_at_depth(self):
        tree = ak.Not(ak.Basic("b"))
        for _ in range(3000):
            tree = ak.Or((ak.Basic("a"), tree))
        with pytest.raises(ak.NonCoherentError, match=r"Not gate at tree(\.children\[1\]){3000}$"):
            ak.expand_to_cutsets(tree)

    def test_expansion_limit(self):
        # 13 two-way ORs under one AND distribute to 2^13 = 8192 cut sets
        ors = tuple(
            ak.Or((ak.Basic(f"a{i}"), ak.Basic(f"b{i}"))) for i in range(13)
        )
        with pytest.raises(ak.ExpansionLimitError) as err:
            ak.expand_to_cutsets(ak.And(ors))
        assert "4096" in str(err.value)
        assert len(ak.expand_to_cutsets(ak.And(ors), max_cutsets=10000)) == 8192

    def test_canonical_order(self):
        tree = ak.Or((ak.And((ak.Basic("z"), ak.Basic("y"))), ak.Basic("m"), ak.Basic("b")))
        assert ak.expand_to_cutsets(tree).sets == (fs("b"), fs("m"), fs("y", "z"))


class TestMinimize:
    def test_absorption(self):
        collection = ak.CutSetCollection((fs("a"), fs("a", "b")))
        assert ak.minimize(collection).sets == (fs("a"),)

    def test_commutativity_is_structural(self):
        collection = ak.CutSetCollection((fs("a", "b"), fs("b", "a")))
        assert collection.sets == (fs("a", "b"),)
        assert ak.minimize(collection).sets == (fs("a", "b"),)

    def test_minimized_flag(self):
        collection = ak.minimize(ak.CutSetCollection((fs("a"),)))
        assert collection.minimized is True

    def test_dfh3_minimal_already(self):
        expanded = ak.expand_to_cutsets(dfh3_ft().body)
        assert ak.minimize(expanded).sets == expanded.sets

    def test_no_superset_pairs_after_minimize(self):
        rng = random.Random(7)
        for _ in range(25):
            tree = random_coherent_gate(rng, [f"e{i}" for i in range(8)])
            mcs = ak.minimize(ak.expand_to_cutsets(tree)).sets
            for i, a in enumerate(mcs):
                for b in mcs[i + 1 :]:
                    assert not (a <= b or b <= a)

    def test_truth_table_preserved_on_random_trees(self):
        rng = random.Random(99)
        events = [f"e{i}" for i in range(8)]
        for _ in range(20):
            tree = random_coherent_gate(rng, events)
            expanded = ak.expand_to_cutsets(tree)
            minimized = ak.minimize(expanded)
            for state in assignments(events):
                expected = ak.structure_holds(tree, state)
                occurred = {e for e, v in state.items() if v}
                assert expanded.holds(occurred) == expected
                assert minimized.holds(occurred) == expected

    def test_minimality_every_set_needed(self):
        rng = random.Random(5)
        events = [f"e{i}" for i in range(6)]
        for _ in range(10):
            tree = random_coherent_gate(rng, events)
            mcs = ak.minimize(ak.expand_to_cutsets(tree))
            for dropped in range(len(mcs)):
                reduced = [cs for i, cs in enumerate(mcs.sets) if i != dropped]
                changed = any(
                    ak.CutSetCollection(tuple(reduced)).holds({e for e, v in state.items() if v})
                    != mcs.holds({e for e, v in state.items() if v})
                    for state in assignments(events)
                )
                assert changed, "dropping a minimal cut set must change the function"

    def test_pie_agrees_before_and_after_minimize(self):
        rng = random.Random(31)
        comps = make_components(rng, 6)
        probs = {
            cid: ak.steady_unavailability(defn.rates) for cid, defn in comps.items()
        }
        for _ in range(15):
            tree = random_coherent_gate(rng, list(comps))
            expanded = ak.expand_to_cutsets(tree)
            if len(expanded) > 18:
                continue
            raw = ak.pie_probability(expanded, probs).value
            reduced = ak.pie_probability(ak.minimize(expanded), probs).value
            assert raw == reduced  # exact rational mode


class TestCollection:
    def test_holds(self):
        collection = ak.CutSetCollection((fs("a", "b"), fs("c")))
        assert collection.holds({"c"})
        assert collection.holds({"a", "b", "x"})
        assert not collection.holds({"a"})

    def test_is_coherent(self):
        assert ak.is_coherent(dfh3_ft().body)
        assert not ak.is_coherent(ak.Not(ak.Basic("a")))
        assert not ak.is_coherent(ak.And((ak.Basic("a"), ak.Xor(ak.Basic("a"), ak.Basic("b")))))
        assert not ak.is_coherent(ak.Unit("a"))
        assert not ak.is_coherent(ak.Series((ak.Unit("a"),)))
        assert not ak.is_coherent(ak.Or((ak.Basic("a"), ak.Parallel((ak.Unit("b"),)))))

    def test_is_coherent_at_any_depth(self):
        # a 5000-level AND/OR chain: the walk keeps its own stack
        tree = ak.Basic("a")
        for level in range(5000):
            tree = (ak.And if level % 2 else ak.Or)((tree, ak.Basic(f"x{level % 7}")))
        assert ak.is_coherent(tree)
        assert not ak.is_coherent(ak.Or((tree, ak.Not(ak.Basic("a")))))
