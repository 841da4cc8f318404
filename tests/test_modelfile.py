"""Parser, diagnostics with source positions, and the canonical serializer."""

import copy
import dataclasses
import pickle
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import model as model_module
from availkit import modelfile
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit.cli import main
from availkit.modelfile import _TOKEN, _lexical_fault, _Parser, _split_tokens
from support import (
    ReferenceParser,
    nested_model_text,
    parse_outcome,
    rand_rate_pair,
    random_model,
    reference_declarations,
    reference_lex,
    series_lines,
)

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

    @pytest.mark.parametrize(
        "body, message, at",
        [
            ("abd and { unit A }", "expected a block ('unit', 'series' or 'parallel'), found 'and'", "and"),
            ("abd series { nand { neg { unit A }; pos { unit A } } }", "expected a block ('unit', 'series' or 'parallel'), found 'nand'", "nand"),
            ("abd series { unit A; basic A }", "expected a block ('unit', 'series' or 'parallel'), found 'basic'", "basic"),
            ("abd", "expected a block ('unit', 'series' or 'parallel'), found ''", None),
            ("ft series { basic A }", "expected a gate, found 'series'", "series"),
            ("ft or { basic A; unit A }", "expected a gate, found 'unit'", "unit"),
            ("ft not { { 7 } }", "expected a gate, found '7'", "7"),
            ("abd parallel { unit 7 }", "expected component identifier, found '7'", "7"),
            ("ft and { basic }", "expected event identifier, found '}'", "}"),
            ("ft basic", "expected event identifier", None),
            ("abd series unit A", "expected '{', found 'unit'", "unit"),
            ("abd { unit A; unit A }", "expected '}', found ';'", ";"),
            ("abd parallel { unit A unit A }", "expected '}', found 'unit'", "unit A }"),
            ("ft and { basic A; }", "expected a gate, found '}'", "}"),
            ("ft not { basic A; basic A }", "expected '}', found ';'", ";"),
            ("ft not { basic A", "expected '}'", None),
            ("ft xor { basic A }", "expected ';', found '}'", "}"),
            ("ft xor { basic A basic A }", "expected ';', found 'basic'", "basic"),
            ("ft xor { basic A; basic A basic A }", "expected '}', found 'basic'", "basic A }"),
            ("ft xor { basic A; basic A", "expected '}', found ''", None),
            ("ft xor { basic A; basic A; basic A }", "xor takes exactly 2 operands", "; basic A }"),
            ("ft nand { pos { basic A } }", "expected 'neg', found 'pos'", "pos"),
            ("ft nand { neg basic A }", "expected '{', found 'basic'", "basic"),
            ("ft nand { neg { basic A } pos { basic A } }", "expected ';', found 'pos'", "pos"),
            ("ft nand { neg { basic A }; { basic A } }", "expected 'pos', found '{'", "{ basic A } }"),
            ("ft nand { neg { basic A }; pos { basic A }; basic A }", "expected '}', found ';'", "; basic A }"),
        ],
    )
    def test_node_errors_of_both_body_kinds(self, body, message, at):
        text = f'model "m" component A lambda=1 mu=1 {body}'
        err = self.assert_error(text, message)
        assert [d.message for d in err.diagnostics] == [message]
        offset = err.diagnostics[0].span.offset
        assert text[offset:] == "" if at is None else text[offset:].startswith(at)
        assert parse_outcome(ReferenceParser, text) == ("error", err.diagnostics)

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

    def test_rate_literal_past_int_string_limit(self):
        literal = "7" * 5000
        text = f'model "m" component A lambda={literal} mu=1 abd unit A'
        err = self.assert_error(text, "number literal too long")
        assert err.diagnostics[0].span.offset == text.index(literal)

    # a diagnostic names a token of more than 32 characters by its first 32 and its
    # length, at the same position and with the same exit code as a short one
    @pytest.mark.parametrize(
        "text, message",
        [
            ('model "m" component A lambda=1 mu=1 abd unit ' + "9" * 4000,
             "1:46: expected component identifier, found '%s'... (4000 characters)" % ("9" * 32)),
            ('model "m" component A lambda=%se3 mu=1 abd unit A' % ("9" * 4000),
             "1:30: exponent in number literal '%s'... (4002 characters); numbers are integers, decimals or p/q" % ("9" * 32)),
            ('model "m" component A lambda=%s/0 mu=1 abd unit A' % ("9" * 4000),
             "1:30: zero denominator in rational literal '%s'... (4002 characters)" % ("9" * 32)),
            ('model "m" component A lambda=1 mu=1 abd unit ' + "b" * 4000,
             "1:46: unknown component reference '%s'... (4000 characters)" % ("b" * 32)),
            ('model "m" component A lambda=1 mu=1 abd unit A "%s"' % ("n" * 31),
             "1:48: unexpected trailing input '\"%s'... (33 characters)" % ("n" * 31)),
            ('model "m" component A lambda=1 mu=1 abd unit A "%s"' % ("n" * 30),
             "1:48: unexpected trailing input '\"%s\"'" % ("n" * 30)),
        ],
        ids=["identifier-expected", "exponent", "zero-denominator", "unknown-reference", "trailing-33", "trailing-32"],
    )
    def test_long_token_quoted_short(self, text, message, tmp_path, capsys):
        assert lexed(ak.parse_model, text) == message
        path = tmp_path / "long.avm"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == message + "\n"

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
# an identifier meets a number, a number meets 'e' or 'E' and a sign or
# digits (an exponent), a quote opens a string across the next pieces, and
# long brace runs nest deep.  Non-ASCII letters and
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
    "%", ".", "/", "-", "+", "'", "\u20ac", "\x00", "e", "E",
    "{" * 1000, "}" * 1000,
    "}", "}}}", "{}",
]


def kind_and_value(tok):
    """A token's kind and value as reference_lex gives them, from its text alone."""
    if not tok:
        return "eof", None
    if tok[0] == '"':
        return "string", tok[1:-1]
    if tok[0].isdigit():
        return "number", Fraction(tok)
    return ("sym" if tok in ("{", "}", ";", "=") else "ident"), None


def regex_lex(text):
    """The parser's token texts with their positions, in reference_lex's form, up to the end."""
    parser = _Parser(text)
    tokens = []
    for index, tok in enumerate(parser.tokens):
        span = parser.span(index)  # the first span raises the text's first lexical fault
        kind, value = kind_and_value(tok)
        tokens.append((kind, tok, span.line, span.column, span.offset, value))
        if not tok:
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


class TestFastRouteMatchesPositioned:
    """The parser reads token texts from one findall, and works out
    positions and scans for lexical faults only to place a diagnostic."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join))
    def test_same_token_texts_or_diagnostic(self, text):
        fast = _Parser(text).tokens
        try:
            reference = [tok[1] for tok in reference_lex(text)]
        except ak.ModelFileError as err:
            # the parser accepts no text with a lexical fault, and reports its first one alone
            assert lexed(ak.parse_model, text) == str(err)
        else:
            end = fast.index("")  # the end of the text; an empty match may follow it
            assert fast[: end + 1] == reference
            assert set(fast[end:]) == {""}

    @pytest.fixture()
    def lex_calls(self, monkeypatch):
        calls = []

        def counted(tokens):
            calls.append(tokens)
            return _lexical_fault(tokens)

        monkeypatch.setattr(modelfile, "_lexical_fault", counted)
        return calls

    def test_clean_parse_never_runs_the_positioned_loop(self, lex_calls):
        rng = random.Random(3)
        comps = {f"c{i}": ak.ComponentDef(f"c{i}", rand_rate_pair(rng)) for i in range(3000)}
        body = ak.Or(tuple(ak.And((ak.Basic(f"c{i}"), ak.Basic(f"c{i + 1}"))) for i in range(0, 3000, 2)))
        model = ak.SystemModel("big", comps, body)
        assert ak.parse_model(ak.serialize_model(model)) == model
        assert lex_calls == []

    def test_several_faults_run_it_once(self, lex_calls):
        text = (
            'model "m"\n'
            "component A lambda=0 mu=1\n"
            "component A lambda=1 mu=1\n"
            "component B lambda=1 mu=0\n"
            "abd series { unit A; unit C; unit D }\n"
        )
        with pytest.raises(ak.ModelFileError) as err:
            ak.parse_model(text)
        assert str(err.value).splitlines() == [
            "2:20: nonpositive failure rate at A",
            "3:11: duplicate component id 'A'",
            "4:25: nonpositive repair rate at B",
            "5:27: unknown component reference 'C'",
            "5:35: unknown component reference 'D'",
        ]
        assert len(lex_calls) == 1

    def test_syntax_fault_runs_it_once(self, lex_calls):
        with pytest.raises(ak.ModelFileError) as err:
            ak.parse_model('model "m"\ncomponent A lambda=1 mu=0\nabd series { unit A unit A }\n')
        assert str(err.value).splitlines() == ["2:25: nonpositive repair rate at A", "3:21: expected '}', found 'unit'"]
        assert len(lex_calls) == 1

    def test_each_repeated_nonpositive_literal_reported_at_its_place(self):
        # a literal is read and its sign checked once, but every use is reported
        text = 'model "m"\ncomponent A lambda=0 mu=1\n  component B lambda=0 mu=1\nabd series { unit A; unit B }\n'
        with pytest.raises(ak.ModelFileError) as err:
            ak.parse_model(text)
        assert str(err.value).splitlines() == ["2:20: nonpositive failure rate at A", "3:22: nonpositive failure rate at B"]

    def test_equal_rate_literals_share_one_pair(self):
        text = 'model "m" component A lambda=1/2 mu=3 component B lambda=1/2 mu=3 component C lambda=0.5 mu=3 abd series { unit A; unit B; unit C }'
        comps = ak.parse_model(text).components
        assert comps["A"].rates is comps["B"].rates
        assert comps["C"].rates == comps["A"].rates


# Every character str.isspace accepts, which str.split() splits on and \s matches.
WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000"

# Pieces the split route reads: identifiers, numbers with '.' or '/',
# symbols and closed strings holding spaces, braces and non-ASCII, some run
# together.  Each is followed by whitespace, so no two pieces run together
# into another token.
CLEAN_PIECES = [
    *"model component lambda mu abd ft unit series basic x _a1 Z9_ b12".split(),
    "0", "7", "12", "1.5", "3/4", "07/000", "9" * 4301,
    *"{};=", "{}", "a{b}", "x=1;", "{{", "}}",
    '"m"', '""', '"a b{#;"', '"\u00a0\t x=1 }"', '"\u00e9\u0661 1e3 -"', 'x"m"7', '{"a b"}', '=""=',
]


EXPONENT = "exponent in number literal %r; numbers are integers, decimals or p/q"


class TestSplitRoute:
    """_split_tokens reads the findall's token texts by str.split when every
    chunk is one whole token, and hands every other text to the regex."""

    def test_whitespace_kinds_agree(self):
        spaces = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
        assert spaces == WHITESPACE and len(spaces) == 29
        assert all(re.fullmatch(r"\s", c) for c in spaces)
        assert f"a{spaces}b".split() == ["a", "b"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CLEAN_PIECES), st.text(WHITESPACE, min_size=1, max_size=3)), max_size=40)
           .map(lambda pairs: "".join(tok + space for tok, space in pairs)))
    def test_clean_text_takes_the_split_route(self, text):
        tokens = _split_tokens(text)
        assert tokens is not None
        found = _TOKEN.findall(text)
        assert tokens == found[: found.index("") + 1]
        assert _Parser(text).tokens == tokens

    # each outcome is the regex route's
    @pytest.mark.parametrize(
        "text, outcome",
        [
            ('model "m" component A lambda=1e3 mu=1 abd unit A', f"1:30: {EXPONENT % '1e3'}"),
            ('model "m" component A lambda=1e-3 mu=1 abd unit A', f"1:30: {EXPONENT % '1e-3'}"),
            ('model "m" component A lambda=1 mu=2.5E+2 abd unit A', f"1:35: {EXPONENT % '2.5E+2'}"),
            ('model "m" component a lambda=1 mu=1 abd unit a.b', "1:47: unexpected character '.'"),
            ('model "m" component A lambda=1.5.3 mu=1 abd unit A', "1:33: unexpected character '.'"),
            ('model "m" component A lambda=1/2/3 mu=1 abd unit A', "1:33: unexpected character '/'"),
            ('model "m" # a "quoted" comment\ncomponent A lambda=1 mu=1 abd unit B', "2:36: unknown component reference 'B'"),
            ('model "m" component A lambda=-1 mu=1 abd unit A', "1:30: unexpected character '-'"),
            ('model "m" component \u00e9 lambda=1 mu=1 abd unit \u00e9', "1:21: unexpected character '\u00e9'"),
            ('model "m" component A lambda=1 mu=1 abd unit A "', "1:48: unterminated string"),
            ('model "m\n" component A lambda=1 mu=1 abd unit A', "1:7: unterminated string"),
        ],
        ids=["exponent", "negative-exponent", "signed-exponent", "dotted-name", "two-points", "two-slashes",
             "comment", "minus", "non-ascii", "unterminated", "newline-in-string"],
    )
    def test_fallbacks_read_by_the_regex(self, text, outcome):
        assert _split_tokens(text) is None
        assert _Parser(text).tokens == _TOKEN.findall(text)
        assert lexed(ak.parse_model, text) == outcome

    def test_keyword_glued_to_a_number_still_parses(self):
        # no exponent follows the 2, so 'abd' is a token of its own, as before
        model = ak.parse_model('model "m" component A lambda=1 mu=2abd unit A')
        assert model.components["A"].rates == ak.RatePair(1, 2)
        assert model.body == ak.Unit("A")


RATE_LITERALS = ["1", "2", "1/2", "0.5", "07/010", "3", "0"]


@st.composite
def declaration_runs(draw):
    """A run of 1-40 declarations with up to three faults in it, then a body, joined by whitespace.

    Gives the text, its token texts after the model name, and the
    line:column of each of those tokens and of the end.
    """
    n = draw(st.integers(1, 40))
    rates = st.sampled_from(RATE_LITERALS)
    pairs = draw(st.lists(st.tuples(rates, rates), min_size=1, max_size=4))  # declared in turn
    decls = [["component", f"c{i}", "lambda", "=", pairs[i % len(pairs)][0], "mu", "=", pairs[i % len(pairs)][1]]
             for i in range(n)]
    values = {  # what each fault but a truncation writes
        "duplicate": st.integers(0, n - 1).map("c{}".format),
        "zero-rate": st.sampled_from(["0", "0/5", "0.0"]),
        "keyword": st.sampled_from(["component", "lambda", "mu", "=", "abd", "{", "x"]),
        "literal": st.sampled_from(["1/0", "1e3"]),
        "non-ascii": st.sampled_from(["\u00e9", "\u00fc"]),
    }
    for fault, decl in draw(st.lists(st.tuples(st.sampled_from([*values, "truncated"]), st.sampled_from(decls)), max_size=3)):
        if fault in ("duplicate", "non-ascii"):
            place = 1
        else:
            place = draw(st.sampled_from([4, 7]) if fault in ("zero-rate", "literal") else st.integers(1, 7))
        if fault == "truncated":
            del decl[place:]
        elif place < len(decl):
            decl[place] = draw(values[fault])
    tokens = [tok for decl in decls for tok in decl] + ["abd", "unit", "c0"]
    spaces = draw(st.lists(st.sampled_from([" ", "\n", "\t", "  \n "]), min_size=1, max_size=5))  # taken in turn
    text, where = 'model "m"\n', []
    for i, tok in enumerate(tokens + [""]):
        text += spaces[i % len(spaces)]
        before = text.split("\n")
        where.append(f"{len(before)}:{len(before[-1]) + 1}")
        text += tok
    return text, tokens, where


class TestDeclarations:
    """One routine reads a run of declarations by strided slices, clean or
    faulty, and reports its faults as the token-by-token reference does."""

    def declarations(self, text):
        parser = _Parser(text)
        parser.pos = 2  # past 'model' and the name
        return parser.declarations(), parser.pos

    def test_clean_run_shares_one_pair_per_literal_pair(self):
        text = "\n".join(series_lines()) + "\n"
        rates, pos = self.declarations(text)
        assert pos == 2 + 8 * 3000
        assert rates == {cid: comp.rates for cid, comp in ak.parse_model(text).components.items()}
        assert list(rates) == [f"c{i}" for i in range(3000)]
        assert rates["c0"] is rates["c15"] is rates["c2985"]
        assert rates["c0"] == ak.RatePair(Fraction(1, 100), Fraction(1))
        assert len(set(map(id, rates.values()))) == 15

    def test_each_literal_read_once(self):
        # 1/2 is in two different pairs, and 3 is both rates of one pair
        text = 'model "m" component a lambda=1/2 mu=3 component b lambda=1 mu=1/2 component c lambda=3 mu=3 abd unit a'
        with mock.patch.object(modelfile, "_number", wraps=modelfile._number) as number:
            rates, _ = self.declarations(text)
        assert sorted(call.args[0] for call in number.call_args_list) == ["1", "1/2", "3"]
        assert rates == {"a": ak.RatePair(Fraction(1, 2), 3), "b": ak.RatePair(1, Fraction(1, 2)), "c": ak.RatePair(3, 3)}

    @pytest.mark.parametrize(
        "index, line, message",
        [
            (3000, "component c0 lambda=1/100 mu=5",
             "3001:11: duplicate component id 'c0'\n3002:34897: unknown component reference 'c2999'"),
            (1500, "component c1499 lambda=0 mu=5", "1501:24: nonpositive failure rate at c1499"),
            (7, "component c6 mu=2 lambda=1/100", "8:14: expected 'lambda', found 'mu'"),
            (7, "component c6 lambda=" + "9" * 4301 + " mu=2", "8:21: number literal too long to read (4301 characters)"),
            # an unused extra declaration, so no other diagnostic asks for the lexical fault
            (7, "component c6 lambda=1/100 mu=2 component \u00e9 lambda=1/100 mu=2", "8:42: unexpected character '\u00e9'"),
        ],
        ids=["duplicate-last", "nonpositive-1500", "mu-before-lambda", "long-rate", "non-ascii-id"],
    )
    def test_fault_reported_at_its_place(self, index, line, message):
        lines = series_lines()
        lines[index] = line
        text = "\n".join(lines) + "\n"
        assert lexed(ak.parse_model, text) == message

    @pytest.mark.parametrize("name", ["component", "lambda"])
    def test_keyword_as_component_id(self, name):
        # a keyword is an identifier, so c6 is left undeclared
        lines = series_lines()
        lines[7] = f"component {name} lambda=1/100 mu=2"
        text = "\n".join(lines) + "\n"
        rates, _ = self.declarations(text)
        assert rates[name] is rates["c21"]  # c6 declared the same literals
        assert lexed(ak.parse_model, text) == "3002:73: unknown component reference 'c6'"

    @settings(max_examples=300, deadline=None)
    @given(declaration_runs())
    def test_equals_token_by_token_reference(self, run):
        text, tokens, where = run
        parser = _Parser(text)
        assert parser.tokens[: parser.tokens.index("") + 1] == ["model", '"m"', *tokens, ""]
        parser.pos = 2
        components, diagnostics, end = reference_declarations(tokens)
        expected = [f"{where[index]}: {message}" for index, message in diagnostics]
        if components is None:
            with pytest.raises(ak.ModelFileError) as err:
                parser.declarations()
            assert str(err.value).splitlines() == expected
            return
        rates = parser.declarations()
        assert [str(d) for d in parser.diagnostics] == expected
        assert parser.pos == 2 + end
        if not diagnostics:  # with a diagnostic the model is never built
            assert list(rates) == list(components)
            first: dict = {}
            for cid, (lam, mu) in components.items():
                assert rates[cid] == ak.RatePair(Fraction(lam), Fraction(mu))
                assert rates[cid] is rates[first.setdefault((lam, mu), cid)]
            assert len(set(map(id, rates.values()))) == len(first)


# Tokens a mutation inserts or writes over another: every keyword and symbol
# of the grammar, identifiers, numbers and two lexical faults.
MUTATION_TOKENS = [
    *"model component lambda mu abd ft unit series parallel basic and or nor nand xor not neg pos".split(),
    *"{};=", "c1", "c9", "x", "1", "1/2", "0", "1/0", '"m"', "%",
]


def mutated_model(seed: int) -> str:
    """A random model's serialization, of any kind, with up to three token mutations.

    A mutation deletes, inserts, replaces or swaps two neighbouring
    tokens, or truncates the text at a token.  It acts anywhere, or in the
    body, or at a brace or ';', a third of the time each.  The tokens are
    joined by whitespace.
    """
    rng = random.Random(seed)
    model = random_model(rng, rng.choice(["abd", "coherent-ft", "ft"]))
    found = _TOKEN.findall(ak.serialize_model(model))
    tokens = found[: found.index("")]
    body = 2 + 8 * len(model.components)  # the index of 'abd' or 'ft'
    for _ in range(rng.randint(0, 3)):
        structure = [i for i, tok in enumerate(tokens) if tok in ("{", "}", ";")]
        at = rng.choice(rng.choice([range(len(tokens) + 1), range(min(body, len(tokens)), len(tokens) + 1), structure or [0]]))
        mutation = rng.choice(["delete", "insert", "replace", "swap", "truncate"])
        if mutation == "insert":
            tokens.insert(at, rng.choice(MUTATION_TOKENS))
        elif mutation == "truncate":
            del tokens[at:]
        elif mutation == "delete" and at < len(tokens):
            del tokens[at]
        elif mutation == "replace" and at < len(tokens):
            tokens[at] = rng.choice(MUTATION_TOKENS)
        elif mutation == "swap" and at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    return rng.choice([" ", "\n", "\n  "]).join(tokens) + "\n"


class TestBodyLoop:
    """The body is read by one loop over a stack of open constructs: the
    outcome of the recursive descent it replaced, and texts of any depth."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_equals_recursive_reference(self, seed):
        # the reference builds its body eagerly; ours is built from the program when == reads it
        text = mutated_model(seed)
        ours, reference = parse_outcome(_Parser, text), parse_outcome(ReferenceParser, text)
        assert ours[0] == reference[0]
        if ours[0] == "model":
            assert "body" not in vars(ours[1]) and "body" in vars(reference[1])
            assert ours[1].program == reference[1].program
        assert ours == reference

    @pytest.mark.parametrize("kind", ["abd", "coherent-ft", "ft"])
    def test_nested_256_round_trips(self, kind):
        text = nested_model_text(kind, 256)
        assert brace_depth(text) == 256
        model = ak.parse_model(text)
        again = ak.parse_model(ak.serialize_model(model))
        assert again == model and hash(again.body) == hash(model.body) and repr(again) == repr(model)



class TestLazyBody:
    """The parse emits the program; a parsed model builds its body from it on
    first read, and then is what the eager model built from that body is."""

    TEXT = {
        "abd": 'model "m" component a lambda=1 mu=2 component b lambda=1/2 mu=3 '
               "abd series { unit a; { parallel { unit b; unit a } } }",
        "ft": 'model "m" component a lambda=1 mu=2 component b lambda=1/2 mu=3 component c lambda=1 mu=1 '
              "ft or { nand { neg { basic a; not { basic b } }; pos { not { basic c }; basic a } }; "
              "xor { basic b; { nor { basic c } } }; and { basic a; basic c } }",
    }

    @staticmethod
    def pair(kind):
        parsed = ak.parse_model(TestLazyBody.TEXT[kind])
        eager = ak.SystemModel(parsed.name, parsed.components, ReferenceParser(TestLazyBody.TEXT[kind]).parse_model().body)
        return parsed, eager

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_two_producers_of_a_program_agree(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, rng.choice(["abd", "coherent-ft", "ft"]))
        parsed = ak.parse_model(ak.serialize_model(model))
        assert "body" not in vars(parsed)
        assert parsed.program == model_module.compile_structure(parsed.body)
        assert parsed == model and parsed.is_fault_tree == model.is_fault_tree

    @pytest.mark.parametrize("kind", ["abd", "ft"])
    def test_is_fault_tree_from_the_keyword(self, kind):
        parsed, eager = self.pair(kind)
        assert parsed.is_fault_tree is eager.is_fault_tree is (kind == "ft")
        assert "body" not in vars(parsed)

    @pytest.mark.parametrize("kind", ["abd", "ft"])
    @pytest.mark.parametrize(
        "read",
        [
            repr,
            ak.serialize_model,
            lambda m: m.body,
            lambda m: dataclasses.asdict(m),
            lambda m: dataclasses.replace(m, name="other"),
            lambda m: copy.copy(m).body,
            lambda m: copy.deepcopy(m).body,
            lambda m: pickle.loads(pickle.dumps(m)).body,
            lambda m: pickle.loads(pickle.dumps(m)),
        ],
        ids=["repr", "serialize", "body", "asdict", "replace", "copy", "deepcopy", "pickle-body", "pickle"],
    )
    def test_reads_match_the_eager_model(self, kind, read):
        parsed, eager = self.pair(kind)
        assert "body" not in vars(parsed)
        assert read(parsed) == read(eager)
        assert parsed == eager and repr(parsed) == repr(eager)

    @pytest.mark.parametrize("kind", ["abd", "ft"])
    def test_body_built_once_and_kept(self, kind):
        parsed, eager = self.pair(kind)
        with mock.patch.object(model_module, "_structure", wraps=model_module._structure) as build:
            assert parsed == eager and parsed.body is parsed.body
            copied = copy.copy(parsed)
        assert build.call_count == 1
        assert copied.body is parsed.body

    def test_unbuilt_copies_build_their_own(self):
        parsed, eager = self.pair("ft")
        for other in (copy.copy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert "body" not in vars(other) and other.program == parsed.program
            assert other == eager and other.is_fault_tree

    def test_unhashable_and_no_other_attribute(self):
        parsed, _ = self.pair("abd")
        with pytest.raises(TypeError, match="^unhashable type: 'SystemModel'$"):
            hash(parsed)
        with pytest.raises(AttributeError, match="^'SystemModel' object has no attribute 'bodies'$"):
            parsed.bodies
        assert not hasattr(parsed, "__setstate__") and "body" not in vars(parsed)


class TestLazyComponents:
    """The parse gives each id its shared RatePair, in one rate table; a parsed
    model builds its components from that table on first read, and then is
    what the eager model built from those components is."""

    @staticmethod
    def pair(kind):
        text = TestLazyBody.TEXT[kind]
        return ak.parse_model(text), ReferenceParser(text).parse_model()

    @staticmethod
    def unbuilt(model):
        return "components" not in vars(model) and "body" not in vars(model)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_table_then_components_once_in_order(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, rng.choice(["abd", "coherent-ft", "ft"]))
        parsed = ak.parse_model(ak.serialize_model(model))
        assert self.unbuilt(parsed)
        assert parsed._rates == {cid: comp.rates for cid, comp in model.components.items()}
        assert list(parsed._rates) == list(model.components)
        with mock.patch.object(model_module, "ComponentDef", wraps=model_module.ComponentDef) as build:
            components = parsed.components
            assert parsed.components is components and build.call_count == len(model.components)
        assert components == model.components and list(components) == list(model.components)
        assert all(components[cid].rates is rates for cid, rates in parsed._rates.items())
        literals: dict = {}  # one RatePair object per literal pair
        for cid, comp in model.components.items():
            literals.setdefault((str(comp.rates.failure_rate), str(comp.rates.repair_rate)), set()).add(id(components[cid].rates))
        assert all(len(ids) == 1 for ids in literals.values())
        assert len(set(map(id, parsed._rates.values()))) == len(literals)

    @pytest.mark.parametrize("kind", ["abd", "ft"])
    @pytest.mark.parametrize(
        "read",
        [
            lambda m: m,
            repr,
            ak.serialize_model,
            lambda m: dataclasses.replace(m, name="other"),
            lambda m: dataclasses.asdict(m),
            lambda m: copy.copy(m).components,
            lambda m: copy.deepcopy(m).components,
            lambda m: pickle.loads(pickle.dumps(m)).components,
            lambda m: pickle.loads(pickle.dumps(m)),
        ],
        ids=["eq", "repr", "serialize", "replace", "asdict", "copy", "deepcopy", "pickle-components", "pickle"],
    )
    def test_reads_match_the_eager_model(self, kind, read):
        parsed, eager = self.pair(kind)
        assert self.unbuilt(parsed)
        assert read(parsed) == read(eager)
        assert parsed == eager and repr(parsed) == repr(eager)

    def test_engines_read_the_table_alone(self):
        parsed, eager = self.pair("ft")
        assert ak.evaluate_steady(parsed) == ak.evaluate_steady(eager)
        assert ak.evaluate_point(parsed, 0.5) == ak.evaluate_point(eager, 0.5)
        cfg = ak.SimConfig(trials=20, horizon=5.0, seed=3)
        assert ak.mc_steady_availability(parsed, cfg) == ak.mc_steady_availability(eager, cfg)
        assert ak.mc_point_availability(parsed, 0.5, cfg) == ak.mc_point_availability(eager, 0.5, cfg)
        assert "components" not in vars(parsed)

    def test_unbuilt_copies_build_their_own(self):
        parsed, eager = self.pair("abd")
        for other in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert self.unbuilt(other) and other._rates == parsed._rates
            assert other.components == eager.components and other.components is not parsed.components
        assert copy.copy(parsed).components is parsed.components  # a copy made after the build shares it

    def test_no_other_attribute(self):
        parsed, _ = self.pair("abd")
        for name in ("component", "rates", "_components"):
            with pytest.raises(AttributeError, match=f"^'SystemModel' object has no attribute '{name}'$"):
                getattr(parsed, name)
        assert self.unbuilt(parsed)


class TestParserIsTheValidityCheck:
    """parse_model hands back an empty validity record and never walks the
    model: the parser reports what validate would find in model text, and the
    grammar rules out the rest."""

    KINDS = ["abd", "coherent-ft", "ft"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_parsed_valid_text_walks_clean(self, seed):
        rng = random.Random(seed)
        text = ak.serialize_model(random_model(rng, rng.choice(self.KINDS)))
        with mock.patch.object(model_module, "_node_children", wraps=model_module._node_children) as walk:
            parsed = ak.parse_model(text)
            assert ak.validate(parsed) == []
        assert walk.call_count == 0
        # a model built through the API from the same parts is walked afresh
        assert ak.validate(ak.SystemModel(parsed.name, parsed.components, parsed.body)) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_parser_findings_equal_validate(self, seed):
        # zero rates, and dangling references from dropped declarations
        rng = random.Random(seed)
        valid = random_model(rng, rng.choice(self.KINDS))
        head, *lines = ak.serialize_model(valid).splitlines()
        structure = lines[len(valid.components):]  # after one line per declaration
        components, kept = {}, []
        for cid, comp in valid.components.items():
            if rng.random() < 0.2:
                continue
            lam, mu = comp.rates.failure_rate, comp.rates.repair_rate
            lam, mu = (0 if rng.random() < 0.3 else lam), (0 if rng.random() < 0.3 else mu)
            components[cid] = ak.ComponentDef(cid, ak.RatePair(lam, mu))
            kept.append(f"component {cid} lambda={lam} mu={mu}")
        text = "\n".join([head, *kept, *structure]) + "\n"
        try:
            ak.parse_model(text)
            found = []
        except ak.ModelFileError as err:
            found = [d.message for d in err.diagnostics]
        walked = ak.validate(ak.SystemModel(valid.name, components, valid.body))
        assert found == [d.message for d in walked]


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
