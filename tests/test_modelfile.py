"""Parser, diagnostics with source positions, and the canonical serializer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit.modelfile import NESTING_LIMIT, _lex, _Positions
from support import nested_model_text, random_model, reference_lex

MINIMAL = 'model "m" component A lambda=0.5 mu=0.5 abd { unit A }'


def span_valid(span, text):
    assert span.line >= 1 and span.column >= 1
    assert 0 <= span.offset <= len(text)
    lines = text[: span.offset].split("\n")
    assert span.line == len(lines)
    assert span.column == len(lines[-1]) + 1


def brace_depth(text):
    depth = deepest = 0
    for c in text:
        depth += (c == "{") - (c == "}")
        deepest = max(deepest, depth)
    return deepest


class TestParse:
    def test_minimal_model(self):
        model = ak.parse_model(MINIMAL)
        assert model.name == "m"
        assert model.body == ak.Unit("A")
        assert model.components["A"].rates == ak.RatePair(Fraction(1, 2), Fraction(1, 2))

    def test_minimal_without_braces(self):
        model = ak.parse_model('model "m" component A lambda=1/2 mu=1/2 abd unit A')
        assert model.body == ak.Unit("A")

    def test_decimals_are_decimal_fractions(self):
        model = ak.parse_model('model "m" component A lambda=0.1 mu=0.3 abd unit A')
        assert model.components["A"].rates.failure_rate == Fraction(1, 10)

    def test_rational_literals(self):
        model = ak.parse_model('model "m" component A lambda=2/7 mu=9 abd unit A')
        assert model.components["A"].rates == ak.RatePair(Fraction(2, 7), Fraction(9))

    def test_comments_and_whitespace(self):
        text = """
        # availability model
        model "spaced"   # trailing comment
          component A lambda = 1/2 mu = 1/2
        abd
          series { unit A }  # done
        """
        model = ak.parse_model(text)
        assert model.body == ak.Series((ak.Unit("A"),))

    def test_all_gates_parse(self):
        text = (
            'model "g" '
            "component a lambda=1 mu=1 component b lambda=1 mu=1 "
            "ft or { and { basic a; basic b }; nor { basic a }; "
            "nand { neg { basic a }; pos { basic b } }; "
            "xor { basic a; basic b }; not { basic b } }"
        )
        model = ak.parse_model(text)
        assert isinstance(model.body, ak.Or)
        kinds = [type(c) for c in model.body.children]
        assert kinds == [ak.And, ak.Nor, ak.Nand, ak.Xor, ak.Not]

    def test_dfh3_fixture_evaluates_to_golden(self):
        model = ak.parse_model(ak.serialize_model(dfh3_abd()))
        assert ak.evaluate_steady(model).probability.value == Fraction(40, 343)


class TestParseErrors:
    def assert_error(self, text, fragment):
        with pytest.raises(ak.ModelFileError) as err:
            ak.parse_model(text)
        messages = [d.message for d in err.value.diagnostics]
        assert any(fragment in m for m in messages), messages
        for diag in err.value.diagnostics:
            span_valid(diag.span, text)
        return err.value

    def test_unknown_reference_span(self):
        text = 'model "m" component A lambda=1 mu=1 abd unit B'
        err = self.assert_error(text, "unknown component reference 'B'")
        diag = err.diagnostics[0]
        assert text[diag.span.offset] == "B"

    def test_duplicate_component(self):
        text = 'model "m" component A lambda=1 mu=1 component A lambda=2 mu=2 abd unit A'
        self.assert_error(text, "duplicate component id 'A'")

    def test_nonpositive_rate_at_number_span(self):
        text = 'model "m" component A lambda=0 mu=1 abd unit A'
        err = self.assert_error(text, "nonpositive failure rate at A")
        assert text[err.diagnostics[0].span.offset] == "0"

    def test_multiple_diagnostics_collected(self):
        text = 'model "m" component A lambda=0 mu=0 abd unit B'
        with pytest.raises(ak.ModelFileError) as err:
            ak.parse_model(text)
        assert len(err.value.diagnostics) == 3

    def test_xor_arity(self):
        text = (
            'model "m" component a lambda=1 mu=1 '
            "ft xor { basic a; basic a; basic a }"
        )
        self.assert_error(text, "xor takes exactly 2 operands")

    def test_missing_body(self):
        self.assert_error('model "m" component A lambda=1 mu=1', "expected 'abd' or 'ft'")

    def test_unexpected_character(self):
        self.assert_error('model "m" component A lambda=1 mu=1 abd unit A %', "unexpected character")

    def test_unterminated_string(self):
        self.assert_error('model "m', "unterminated string")

    def test_zero_denominator(self):
        self.assert_error('model "m" component A lambda=1/0 mu=1 abd unit A', "zero denominator")

    def test_unbalanced_brace(self):
        self.assert_error('model "m" component A lambda=1 mu=1 abd series { unit A', "expected")

    def test_trailing_input(self):
        self.assert_error(MINIMAL + " stray", "unexpected trailing input")

    def test_empty_input(self):
        self.assert_error("", "expected 'model'")

    @pytest.mark.parametrize("kind", ["abd", "coherent-ft", "ft"])
    def test_nesting_limit(self, kind):
        at_limit = nested_model_text(kind, NESTING_LIMIT)
        assert brace_depth(at_limit) == NESTING_LIMIT
        ak.parse_model(at_limit)
        text = nested_model_text(kind, NESTING_LIMIT + 1)
        err = self.assert_error(text, f"nesting deeper than {NESTING_LIMIT} levels")
        offset = err.diagnostics[0].span.offset
        assert text[offset] == "{" and brace_depth(text[: offset + 1]) == NESTING_LIMIT + 1

    def test_rate_literal_past_int_string_limit(self):
        literal = "7" * 5000
        text = f'model "m" component A lambda={literal} mu=1 abd unit A'
        err = self.assert_error(text, "number literal too long")
        assert err.diagnostics[0].span.offset == text.index(literal)

    # identifiers and numbers are ASCII: any other letter or digit is an
    # unexpected character
    @pytest.mark.parametrize(
        "text, char",
        [
            ('model "m" component A lambda=\u00b2 mu=1 abd unit A', "\u00b2"),  # superscript two
            ('model "m" component \u00e9 lambda=1 mu=1 abd unit \u00e9', "\u00e9"),
            ('model "m" component A lambda=\u0661 mu=1 abd unit A', "\u0661"),  # Arabic-Indic one
        ],
        ids=["superscript-digit", "latin-letter", "arabic-indic-digit"],
    )
    def test_non_ascii_letter_or_digit(self, text, char):
        err = self.assert_error(text, f"unexpected character {char!r}")
        assert len(err.diagnostics) == 1
        span = err.diagnostics[0].span
        assert (span.line, span.column, span.offset) == (1, text.index(char) + 1, text.index(char))


# Pieces the generated texts are joined from; neighbours run together, so
# an identifier meets a number, a quote opens a string across the next
# pieces, and brace runs add up past NESTING_LIMIT.  Non-ASCII letters and
# digits appear in comments only: a comment holds no quote, so it never
# ends up inside a closed string, and it ends at a newline.
LEX_PIECES = [
    *"model component lambda mu abd ft unit series basic nand neg pos".split(),
    *"{};=",
    "x", "_a1", "Z9_", "b12",
    "0", "7", "12", "1.5", "3/4", "2.", "5/", "1/0", "07/000", "9" * 4301,
    '"m"', '""', '"a b{#;"', '"\u00a0\t"', '"',
    "#\u00e9 \u00b2\u0661\n", "#\u2028{\r\n", "#\n", "# lambda=1\n",
    " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000",
    "%", ".", "/", "-", "'", "\u20ac", "\x00",
    *("{" * k for k in range(NESTING_LIMIT - 3, NESTING_LIMIT + 2)),
    "}", "}}}", "{}",
]


def regex_lex(text):
    """_lex's tokens with their positions, in reference_lex's form."""
    positions = _Positions(text)
    tokens = []
    for kind, tok, offset, value in _lex(text):
        span = positions.span(offset)
        tokens.append((kind, tok, span.line, span.column, offset, value))
    return tokens


def lexed(lex, text):
    try:
        return lex(text)
    except ak.ModelFileError as err:
        return str(err)


class TestLexerMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join))
    def test_same_tokens_or_diagnostic(self, text):
        assert lexed(regex_lex, text) == lexed(reference_lex, text)


class TestSerialize:
    def test_round_trip_case_studies(self):
        for model in (dfh3_abd(), dfh3_ft()):
            text = ak.serialize_model(model)
            again = ak.parse_model(text)
            assert again == model
            assert ak.serialize_model(again) == text  # idempotent

    def test_ft_round_trip_keeps_components(self):
        again = ak.parse_model(ak.serialize_model(dfh3_ft()))
        assert len(again.components) == 14
        assert ak.basic_events(again) == [f"x{i}" for i in range(1, 15)]

    def test_canonical_shape(self):
        text = ak.serialize_model(ak.parse_model(MINIMAL))
        assert text == 'model "m"\ncomponent A lambda=1/2 mu=1/2\nabd\n  unit A\n'

    def test_nested_gate_layout(self):
        text = (
            'model "g" component a lambda=1 mu=1 component b lambda=1 mu=1 '
            "ft nand { neg { basic a }; pos { basic b; basic a } }"
        )
        model = ak.parse_model(text)
        canonical = ak.serialize_model(model)
        assert ak.parse_model(canonical) == model
        assert canonical.count("\n") == len(canonical.splitlines())
        assert "  nand {" in canonical

    def test_invalid_model_not_serializable(self):
        model = ak.SystemModel("m", {}, ak.Unit("ghost"))
        with pytest.raises(ValueError):
            ak.serialize_model(model)

    def test_deep_chain(self):
        # Or((Basic(b), And((Basic(a), Or(...))))) 5000 levels deep, over Basic(a)
        tree = ak.Basic("a")
        for k in range(5000):
            tree = (ak.And, ak.Or)[k % 2]((ak.Basic("ab"[k % 2]), tree))
        comps = {c: ak.ComponentDef(c, ak.RatePair(1, 2)) for c in "ab"}
        text = ak.serialize_model(ak.SystemModel("deep", comps, tree))
        opening, closing = [], []
        for depth, k in enumerate(range(4999, -1, -1), start=1):
            pad = "  " * depth
            opening += [f"{pad}{('and', 'or')[k % 2]} {{", f"{pad}  basic {'ab'[k % 2]};"]
            closing.append(f"{pad}}}")
        head = 'model "deep"\ncomponent a lambda=1 mu=2\ncomponent b lambda=1 mu=2\nft\n'
        assert text == head + "\n".join(opening + ["  " * 5001 + "basic a"] + closing[::-1]) + "\n"

    def test_seeded_fuzz_round_trip(self):
        rng = random.Random(2024)
        for _ in range(60):
            model = random_model(rng, rng.choice(["abd", "coherent-ft", "ft"]))
            text = ak.serialize_model(model)
            assert ak.parse_model(text) == model

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_property_round_trip(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, rng.choice(["abd", "coherent-ft", "ft"]))
        text = ak.serialize_model(model)
        assert ak.parse_model(text) == model
        assert ak.serialize_model(ak.parse_model(text)) == text
