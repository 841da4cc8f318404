"""Model types, validation diagnostics, and basic-event extraction."""

import dataclasses
import random
from fractions import Fraction

import pytest

import availkit as ak
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit import model as model_module
from availkit.model import iter_leaves
from support import (
    corrupt,
    random_model,
    reference_body_diagnostics,
    reference_fields,
    reference_leaves,
    reference_repr,
)


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


class TestEquality:
    def test_equal_but_unhashable(self):
        # models compare field by field; the component map is a dict, so the class
        # declares itself unhashable and the error names it, not the dict
        text = 'model "m" component a lambda=1 mu=1 abd unit a'
        model = ak.parse_model(text)
        with pytest.raises(TypeError, match="^unhashable type: 'SystemModel'$"):
            hash(model)
        assert model == ak.parse_model(text)
        assert model != ak.parse_model(text.replace("mu=1", "mu=2"))


class TestReadOnce:
    """A model's components are read once, as its findings and program are:
    the engines' rate table and validate keep what the first use read, so
    the components must not be mutated after it."""

    @pytest.mark.parametrize("parsed", [False, True], ids=["api", "parsed"])
    def test_components_read_at_first_use(self, parsed):
        model = dfh3_abd()
        if parsed:
            model = ak.parse_model(ak.serialize_model(model))
        assert ak.evaluate_steady(model).probability.value == Fraction(40, 343)
        rates = model._rates
        assert rates == {cid: comp.rates for cid, comp in model.components.items()}
        model.components["ED1"] = ak.ComponentDef("ED1", ak.RatePair(0, 1))  # what the rule forbids
        assert model._rates is rates and rates["ED1"] != ak.RatePair(0, 1)
        assert ak.validate(model) == [] and ak.evaluate_steady(model).probability.value == Fraction(40, 343)

    def test_unused_model_reads_its_components_then(self):
        model = one_component_model()
        model.components["A"] = ak.ComponentDef("A", ak.RatePair(0, 1))
        assert [d.message for d in ak.validate(model)] == ["nonpositive failure rate at A"]
        assert model._rates == {"A": ak.RatePair(0, 1)}


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
    """validate's walk and iter_leaves (compile_structure's leaves) use explicit stacks: same output as recursion, at any depth."""

    @pytest.mark.parametrize("kind", ["abd", "coherent-ft", "ft"])
    def test_equal_recursive_reference(self, kind):
        rng = random.Random(f"walks-{kind}")
        for _ in range(60):
            model = random_model(rng, kind)
            model = ak.SystemModel(model.name, model.components, corrupt(rng, model.body))
            diags = [d for d in ak.validate(model) if d.path.startswith("body")]
            assert diags == reference_body_diagnostics(model), model.body
            if any(d.message == "unexpected node str" for d in diags):  # the "junk" non-node
                with pytest.raises(TypeError, match="not a structure node"):
                    iter_leaves(model.body)
            else:
                assert list(iter_leaves(model.body)) == reference_leaves(model.body)

    def test_deep_nand_chain(self):
        model = nand_chain(3000)
        assert ak.validate(model) == []
        assert ak.basic_events(model) == ["e0", "e4", "e3", "e2", "e1", "a"]
        assert len(list(iter_leaves(model.body))) == 3001

    def test_deep_dangling_leaf_has_full_path(self):
        diags = ak.validate(nand_chain(3000, bottom="ghost"))
        assert diags == [ak.Diagnostic("unknown component reference 'ghost'", "body" + ".plain[0]" * 3000)]


GROUP_KINDS = [ak.Series, ak.Parallel, ak.And, ak.Or, ak.Nor]


class TestGroupNodes:
    """The five n-ary kinds share one frozen dataclass and stay distinct node types."""

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    def test_dataclass_surface(self, kind):
        children = [ak.Unit("a"), ak.Unit("b")]
        node = kind(children)
        assert node.children == (ak.Unit("a"), ak.Unit("b"))  # coerced to a tuple
        assert repr(node) == f"{kind.__name__}(children=(Unit(component='a'), Unit(component='b')))"
        assert node == kind(tuple(children)) and hash(node) == hash(kind(tuple(children)))
        assert [f.name for f in dataclasses.fields(kind)] == ["children"]
        replaced = dataclasses.replace(node, children=[ak.Unit("c")])
        assert type(replaced) is kind and replaced.children == (ak.Unit("c"),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.children = ()

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    def test_equality_checks_the_kind(self, kind):
        children = (ak.Basic("a"),)
        for other in GROUP_KINDS:
            assert (kind(children) == other(children)) == (kind is other)
        assert len({kind(children) for kind in GROUP_KINDS}) == len(GROUP_KINDS)


def mixed_chain(depth, bottom="a"):
    """depth gates over Basic(bottom), from the bottom up nand, xor, not, nor, and, or in turn, and their repr.

    Each gate but not and the one-input nor and or also takes Basic("b").
    The repr is built from each level's text before and after the level
    below it, so building it does not recurse either.
    """
    levels = [
        (lambda e: ak.Nand((ak.Basic("b"),), (e,)), "Nand(negated=(Basic(event='b'),), plain=(", ",))"),
        (lambda e: ak.Xor(ak.Basic("b"), e), "Xor(left=Basic(event='b'), right=", ")"),
        (ak.Not, "Not(child=", ")"),
        (lambda e: ak.Nor((e,)), "Nor(children=(", ",))"),
        (lambda e: ak.And((ak.Basic("b"), e)), "And(children=(Basic(event='b'), ", "))"),
        (lambda e: ak.Or((e,)), "Or(children=(", ",))"),
    ]
    expr, before, after = ak.Basic(bottom), [], []
    for k in range(depth):
        make, head, tail = levels[k % len(levels)]
        expr = make(expr)
        before.append(head)
        after.append(tail)
    return expr, "".join(reversed(before)) + f"Basic(event={bottom!r})" + "".join(after)


class TestNodeMethods:
    """==, hash and repr of the structure nodes walk with explicit stacks and
    keep the meaning of the dataclass-generated methods they replace."""

    @pytest.mark.parametrize("kind", ["abd", "coherent-ft", "ft"])
    def test_equal_recursive_reference(self, kind):
        rng = random.Random(f"node-methods-{kind}")
        for _ in range(200):
            body = random_model(rng, kind, max_components=2).body
            others = [corrupt(rng, body, 0.0), corrupt(rng, body, 0.1), random_model(rng, kind, max_components=2).body]
            for other in others:
                same = reference_fields(body) == reference_fields(other)
                assert (body == other) is same and (other == body) is same and (body != other) is not same
                if same:
                    assert hash(body) == hash(other)
                assert repr(other) == reference_repr(other)

    def test_kinds_and_shapes_are_told_apart(self):
        a = ak.Basic("a")
        assert ak.And((ak.Or((a,)),)) != ak.And((ak.And((a,)),))
        assert ak.Not(ak.Unit("a")) != ak.Not(a)
        assert ak.And(((a, a), a)) != ak.And(((a,), a, a))
        assert ak.Nand((a,), (a, a)) != ak.Nand((a, a), (a,))

    def test_fields_that_are_no_nodes(self):
        assert ak.And(((), 1)) != ak.And((0, 1))
        assert ak.And(((), 1)) == ak.And(((), 1)) and hash(ak.And(((), 1))) == hash(ak.And(((), 1)))
        assert ak.Xor(1, 1.0) == ak.Xor(1.0, 1) and hash(ak.Xor(1, 1.0)) == hash(ak.Xor(1.0, 1))
        assert ak.And(("junk",)) != ak.And((ak.Basic("junk"),))
        assert repr(ak.And(((), 1, ("x",)))) == "And(children=((), 1, ('x',)))"
        assert ak.Unit("a") != ak.Basic("a") and ak.Unit("a") != "a"
        assert ak.Unit("a").__eq__(ak.Basic("a")) is NotImplemented

    def test_deep_mixed_chain(self):
        expr, text = mixed_chain(5000)
        twin, _ = mixed_chain(5000)
        other, _ = mixed_chain(5000, bottom="c")
        assert expr == twin and hash(expr) == hash(twin)
        assert expr != other
        assert repr(expr) == text
