"""Model types, validation diagnostics, and basic-event extraction."""

import random
from fractions import Fraction

import pytest

import availkit as ak
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit import model as model_module
from availkit.model import iter_leaves
from support import corrupt, random_model, reference_body_diagnostics, reference_leaves


def one_component_model(rates=("0.5", "0.5"), body=None):
    comp = ak.ComponentDef("A", ak.RatePair(*rates))
    return ak.SystemModel("m", {"A": comp}, body if body is not None else ak.Unit("A"))


class TestRatePair:
    def test_decimal_inputs_are_exact(self):
        r = ak.RatePair(0.1, 0.3)
        assert r.failure_rate == Fraction(1, 10)
        assert r.repair_rate == Fraction(3, 10)

    def test_string_and_fraction_inputs(self):
        r = ak.RatePair("2/7", Fraction(1, 2))
        assert r.failure_rate == Fraction(2, 7)
        assert r.repair_rate == Fraction(1, 2)

    def test_mttf_mttr(self):
        r = ak.RatePair("0.1", "0.3")
        assert r.mttf == 10
        assert r.mttr == Fraction(10, 3)

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            ak.RatePair(object(), 1)


class TestValidate:
    def test_zero_failure_rate_diagnostic(self):
        model = one_component_model(rates=(0, "0.5"))
        messages = [d.message for d in ak.validate(model)]
        assert "nonpositive failure rate at A" in messages

    def test_zero_repair_rate_diagnostic(self):
        model = one_component_model(rates=("0.5", 0))
        messages = [d.message for d in ak.validate(model)]
        assert "nonpositive repair rate at A" in messages

    def test_nonfinite_rate_diagnostic(self):
        model = one_component_model(rates=(float("inf"), "0.5"))
        messages = [d.message for d in ak.validate(model)]
        assert "non-finite failure rate at A" in messages

    def test_case_studies_validate_clean(self):
        assert ak.validate(dfh3_abd()) == []
        assert ak.validate(dfh3_ft()) == []

    def test_xor_with_shared_leaf_is_valid_but_not_distinct(self):
        model = one_component_model(body=ak.Xor(ak.Basic("A"), ak.Basic("A")))
        assert ak.validate(model) == []
        assert model.leaves_distinct is False

    def test_unknown_reference(self):
        model = one_component_model(body=ak.Series((ak.Unit("A"), ak.Unit("B"))))
        diags = ak.validate(model)
        assert any("unknown component reference 'B'" in d.message for d in diags)
        assert any("children[1]" in d.path for d in diags)

    def test_empty_children(self):
        model = one_component_model(body=ak.Series(()))
        assert any("no children" in d.message for d in ak.validate(model))

    def test_empty_nand_group(self):
        model = one_component_model(body=ak.Nand((), (ak.Basic("A"),)))
        assert any("empty negated group" in d.message for d in ak.validate(model))

    def test_gate_inside_block_body(self):
        model = one_component_model(body=ak.Series((ak.Basic("A"),)))
        assert any("wrong structure kind" in d.message for d in ak.validate(model))

    def test_bad_identifier(self):
        comp = ak.ComponentDef("not an ident", ak.RatePair(1, 1))
        model = ak.SystemModel("m", {"not an ident": comp}, ak.Unit("not an ident"))
        assert any("invalid component identifier" in d.message for d in ak.validate(model))

    def test_walks_once_per_model(self, monkeypatch):
        walked = []

        def counting(expr, _children=model_module._node_children):
            walked.append(expr)
            return _children(expr)

        monkeypatch.setattr(model_module, "_node_children", counting)
        body = ak.Parallel((ak.Series(()), ak.Unit("A"), ak.Unit("B")))
        model = one_component_model(body=body)
        first = ak.validate(model)
        assert len(walked) == 2 and len(first) == 2
        second = ak.validate(model)
        assert second == first and second is not first
        first.clear()  # each call returns its own list
        assert ak.validate(model) == second
        assert len(walked) == 2
        assert ak.validate(one_component_model(body=body)) == second  # an equal model is walked anew
        assert len(walked) == 4

    def test_diagnostics_carry_paths(self):
        model = one_component_model(body=ak.Parallel((ak.Series(()), ak.Unit("A"))))
        diags = ak.validate(model)
        assert diags and all(d.path.startswith("body") or d.path.startswith("components") for d in diags)


class TestBasicEvents:
    def test_single_leaf(self):
        assert ak.basic_events(one_component_model()) == ["A"]

    def test_shared_leaf_deduplicates(self):
        model = one_component_model(body=ak.Series((ak.Unit("A"), ak.Unit("A"))))
        assert ak.basic_events(model) == ["A"]

    def test_dfh3_ft_has_fourteen_events_in_order(self):
        events = ak.basic_events(dfh3_ft())
        assert events == [f"x{i}" for i in range(1, 15)]

    def test_document_order_and_idempotence(self):
        model = dfh3_abd()
        first = ak.basic_events(model)
        assert first == ak.basic_events(model)
        assert first == ["ED1", "ED2", "CK", "SS1", "SS2", "HB1", "HB2", "HL1", "HL2"]

    def test_nand_order_is_negated_then_plain(self):
        comps = {c: ak.ComponentDef(c, ak.RatePair(1, 1)) for c in "abc"}
        body = ak.Nand((ak.Basic("b"),), (ak.Basic("a"), ak.Basic("c")))
        model = ak.SystemModel("m", comps, body)
        assert ak.basic_events(model) == ["b", "a", "c"]


class TestLeavesDistinct:
    def test_distinct(self):
        assert dfh3_abd().leaves_distinct is True

    def test_repeated(self):
        model = one_component_model(body=ak.Parallel((ak.Unit("A"), ak.Unit("A"))))
        assert model.leaves_distinct is False


def nand_chain(depth, bottom="a"):
    """Nand((Basic(e_k),), (level k - 1,)) for k = 1 .. depth over Basic(bottom), e_k = e{k % 5}."""
    expr = ak.Basic(bottom)
    for k in range(1, depth + 1):
        expr = ak.Nand((ak.Basic(f"e{k % 5}"),), (expr,))
    comps = {c: ak.ComponentDef(c, ak.RatePair(1, 1)) for c in ["a"] + [f"e{i}" for i in range(5)]}
    return ak.SystemModel("chain", comps, expr)


class TestIterativeWalks:
    """validate's walk and iter_leaves use explicit stacks: same output as recursion, at any depth."""

    @pytest.mark.parametrize("kind", ["abd", "coherent-ft", "ft"])
    def test_equal_recursive_reference(self, kind):
        rng = random.Random(f"walks-{kind}")
        for _ in range(60):
            model = random_model(rng, kind)
            model = ak.SystemModel(model.name, model.components, corrupt(rng, model.body))
            diags = [d for d in ak.validate(model) if d.path.startswith("body")]
            assert diags == reference_body_diagnostics(model), model.body
            assert list(iter_leaves(model.body)) == reference_leaves(model.body)

    def test_deep_nand_chain(self):
        model = nand_chain(3000)
        assert ak.validate(model) == []
        assert ak.basic_events(model) == ["e0", "e4", "e3", "e2", "e1", "a"]
        assert len(list(iter_leaves(model.body))) == 3001

    def test_deep_dangling_leaf_has_full_path(self):
        diags = ak.validate(nand_chain(3000, bottom="ghost"))
        assert diags == [ak.Diagnostic("unknown component reference 'ghost'", "body" + ".plain[0]" * 3000)]
