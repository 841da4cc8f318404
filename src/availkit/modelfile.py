"""Textual model format (.avm): parser and canonical serializer.

Grammar (whitespace insignificant, '#' comments run to end of line):

    model      := 'model' STRING component* body
    component  := 'component' IDENT 'lambda' '=' NUMBER 'mu' '=' NUMBER
    body       := 'abd' block | 'ft' gate
    block      := 'unit' IDENT
                | 'series'   '{' block (';' block)* '}'
                | 'parallel' '{' block (';' block)* '}'
                | '{' block '}'
    gate       := 'basic' IDENT
                | ('and'|'or'|'nor') '{' gate (';' gate)* '}'
                | 'nand' '{' 'neg' '{' gate (';' gate)* '}' ';'
                           'pos' '{' gate (';' gate)* '}' '}'
                | 'xor' '{' gate ';' gate '}'
                | 'not' '{' gate '}'
                | '{' gate '}'
    IDENT      := [A-Za-z_][A-Za-z0-9_]*
    NUMBER     := [0-9]+ | [0-9]+ '.' [0-9]+ | [0-9]+ '/' [0-9]+
    STRING     := '"' (any character but '"' and newline)* '"'

Identifiers and numbers are ASCII: any other letter or digit outside a
comment or string is an unexpected character.  Whitespace is whatever
str.isspace accepts, but only a line feed starts a new line for the
line:column of a diagnostic.  Numbers are exact: decimals are decimal
fractions (0.1 is 1/10, never a binary float) and 'p/q' is a rational
literal.  Braces nest at most NESTING_LIMIT deep.  The serializer emits
the canonical form (components in declaration order, two-space
indentation, one construct per line, rates as exact rationals); parsing
it back gives a structurally equal model, and serialization is idempotent.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .model import (
    And,
    Basic,
    BlockExpr,
    ComponentDef,
    GateExpr,
    Nand,
    Nor,
    Not,
    Or,
    Parallel,
    RatePair,
    Series,
    SystemModel,
    Unit,
    Xor,
    validate,
)

__all__ = ["SourceSpan", "ParseDiagnostic", "ModelFileError", "parse_model", "serialize_model"]

# brace levels a model text may open; the recursive-descent parser takes
# about two stack frames per level, so this uses about half of Python's
# default recursion limit of 1000 and leaves the rest to callers, such as the
# dataclass-generated == and repr of the nodes, which recurse too
NESTING_LIMIT = 256


@dataclass(frozen=True)
class SourceSpan:
    """1-based line/column plus byte offset of a token in the input."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ModelFileError(Exception):
    """Parse or resolution failure; carries the full diagnostic list."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


# One match per token: the whitespace and comments before it, then the
# token, whose kind is the name of the group that matched.  The greedy
# prefix stops at the end of the text or at a character that is not
# whitespace, and there some alternative always matches ('other' takes any
# character but a newline, which \s has already taken), so a match never
# backtracks into the prefix.
_TOKEN = re.compile(
    r"""
    \s* (?: \#[^\n]* \s* )*
    (?:
        (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
      | (?P<sym> [{};=] )
      | (?P<number> [0-9]+ (?: [./][0-9]+ )? )
      | (?P<string> "[^"\n]*" )
      | (?P<unterminated> " )
      | (?P<eof> \Z )
      | (?P<other> . )
    )
    """,
    re.VERBOSE,
)


class _Positions:
    """Turns offsets in one text into 1-based line:column spans.

    Tokens carry offsets only; the line-start table is built on the first
    diagnostic, so a text that parses cleanly never pays for it.
    """

    def __init__(self, text: str):
        self.text = text
        self._line_starts: Optional[list[int]] = None

    def span(self, offset: int) -> SourceSpan:
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        line = bisect_right(self._line_starts, offset)
        return SourceSpan(line=line, column=offset - self._line_starts[line - 1] + 1, offset=offset)

    def error(self, offset: int, message: str) -> ModelFileError:
        return ModelFileError([ParseDiagnostic(message, self.span(offset))])


def _lex(text: str) -> list[tuple]:
    """Tokens as (kind, text, offset, value) tuples, ending with 'eof'.

    kind is 'ident', 'number', 'string', 'sym' or 'eof'; value is a
    number's Fraction or a string's contents, else None.
    """
    tokens: list[tuple] = []
    append = tokens.append
    match = _TOKEN.match
    values: dict[str, Fraction] = {}  # rate literals repeat; read each once
    pos = depth = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        tok = m[kind]
        start = pos - len(tok)
        if kind == "ident":
            append((kind, tok, start, None))
        elif kind == "sym":
            if tok == "{":
                depth += 1
                if depth > NESTING_LIMIT:
                    raise _Positions(text).error(start, f"nesting deeper than {NESTING_LIMIT} levels")
            elif tok == "}":
                depth -= 1
            append((kind, tok, start, None))
        elif kind == "number":
            value = values.get(tok)
            if value is None:
                try:
                    value = values[tok] = Fraction(tok)
                except ZeroDivisionError:
                    raise _Positions(text).error(start, f"zero denominator in rational literal {tok!r}") from None
                except ValueError:  # past Python's int-string digit limit
                    raise _Positions(text).error(start, f"number literal too long to read ({len(tok)} characters)") from None
            append((kind, tok, start, value))
        elif kind == "string":
            append((kind, tok, start, tok[1:-1]))
        elif kind == "eof":
            append((kind, tok, start, None))
            return tokens
        elif kind == "unterminated":
            raise _Positions(text).error(start, "unterminated string")
        else:
            raise _Positions(text).error(start, f"unexpected character {tok!r}")


_BLOCK_KEYWORDS = {"unit", "series", "parallel"}
_GATE_KEYWORDS = {"basic", "and", "or", "nor", "nand", "xor", "not"}
_NARY_GATES = {"and": And, "or": Or, "nor": Nor}


class _Parser:
    """Recursive descent over the token list.

    A token's text alone tells keywords and symbols apart from every
    other token, so matching one compares texts only.
    """

    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.positions = _Positions(text)
        self.diagnostics: list[ParseDiagnostic] = []
        self.leaf_refs: list[tuple[str, int]] = []  # (identifier, offset)

    # -- token plumbing --------------------------------------------------

    def note(self, offset: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(message, self.positions.span(offset)))

    def fail(self, tok: tuple, message: str) -> ModelFileError:
        return ModelFileError(self.diagnostics + [ParseDiagnostic(message, self.positions.span(tok[2]))])

    def unexpected(self, tok: tuple, what: str) -> ModelFileError:
        return self.fail(tok, f"expected {what}, found {tok[1]!r}" if tok[1] else f"expected {what}")

    def at(self, word: str) -> bool:
        return self.tokens[self.pos][1] == word

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, word: str) -> None:
        """Consume the keyword or symbol word."""
        tok = self.tokens[self.pos]
        if tok[1] != word:
            raise self.unexpected(tok, f"'{word}'")
        self.pos += 1

    def take(self, kind: str, what: str) -> tuple:
        """Consume and return a token of kind ('ident' or 'number')."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.unexpected(tok, what)
        self.pos += 1
        return tok

    # -- grammar ----------------------------------------------------------

    def parse_model(self) -> SystemModel:
        self.expect("model")
        name_tok = self.advance()
        if name_tok[0] != "string":
            raise self.fail(name_tok, "expected model name string")

        components: dict[str, ComponentDef] = {}
        while self.at("component"):
            self.pos += 1
            _, cid, id_at, _ = self.take("ident", "component identifier")
            self.expect("lambda")
            self.expect("=")
            _, _, lam_at, lam = self.take("number", "failure rate")
            self.expect("mu")
            self.expect("=")
            _, _, mu_at, mu = self.take("number", "repair rate")
            if cid in components:
                self.note(id_at, f"duplicate component id {cid!r}")
                continue
            if lam <= 0:
                self.note(lam_at, f"nonpositive failure rate at {cid}")
            if mu <= 0:
                self.note(mu_at, f"nonpositive repair rate at {cid}")
            components[cid] = ComponentDef(cid, RatePair(lam, mu))

        kind_tok = self.advance()
        if kind_tok[1] == "abd":
            body: Union[BlockExpr, GateExpr] = self.parse_block()
        elif kind_tok[1] == "ft":
            body = self.parse_gate()
        else:
            raise self.fail(kind_tok, "expected 'abd' or 'ft' body")

        trailing = self.tokens[self.pos]
        if trailing[0] != "eof":
            raise self.fail(trailing, f"unexpected trailing input {trailing[1]!r}")

        for leaf, offset in self.leaf_refs:
            if leaf not in components:
                self.note(offset, f"unknown component reference {leaf!r}")
        if self.diagnostics:
            raise ModelFileError(self.diagnostics)
        return SystemModel(name=name_tok[3], components=components, body=body)

    def parse_children(self, parse_item) -> tuple:
        self.expect("{")
        items = [parse_item()]
        while self.at(";"):
            self.pos += 1
            items.append(parse_item())
        self.expect("}")
        return tuple(items)

    def leaf(self, what: str) -> str:
        _, ident, offset, _ = self.take("ident", what)
        self.leaf_refs.append((ident, offset))
        return ident

    def parse_block(self) -> BlockExpr:
        tok = self.advance()
        word = tok[1]
        if word == "{":
            inner = self.parse_block()
            self.expect("}")
            return inner
        if word not in _BLOCK_KEYWORDS:
            raise self.fail(tok, f"expected a block ('unit', 'series' or 'parallel'), found {word!r}")
        if word == "unit":
            return Unit(self.leaf("component identifier"))
        children = self.parse_children(self.parse_block)
        return Series(children) if word == "series" else Parallel(children)

    def parse_gate(self) -> GateExpr:
        tok = self.advance()
        word = tok[1]
        if word == "{":
            inner = self.parse_gate()
            self.expect("}")
            return inner
        if word not in _GATE_KEYWORDS:
            raise self.fail(tok, f"expected a gate, found {word!r}")
        if word == "basic":
            return Basic(self.leaf("event identifier"))
        if word in _NARY_GATES:
            return _NARY_GATES[word](self.parse_children(self.parse_gate))
        if word == "nand":
            self.expect("{")
            self.expect("neg")
            negated = self.parse_children(self.parse_gate)
            self.expect(";")
            self.expect("pos")
            plain = self.parse_children(self.parse_gate)
            self.expect("}")
            return Nand(negated, plain)
        if word == "xor":
            self.expect("{")
            left = self.parse_gate()
            self.expect(";")
            right = self.parse_gate()
            closing = self.advance()
            if closing[1] == ";":
                raise self.fail(closing, "xor takes exactly 2 operands")
            if closing[1] != "}":
                raise self.fail(closing, f"expected '}}', found {closing[1]!r}")
            return Xor(left, right)
        # not
        self.expect("{")
        child = self.parse_gate()
        self.expect("}")
        return Not(child)


def parse_model(text: str) -> SystemModel:
    """Parse model text; raises ModelFileError with all diagnostics on failure."""
    model = _Parser(text).parse_model()
    leftover = validate(model)
    if leftover:  # everything should have been caught with a proper span
        raise ModelFileError(
            [ParseDiagnostic(str(d), SourceSpan(1, 1, 0)) for d in leftover]
        )
    return model


# --- canonical serialization --------------------------------------------------


_GROUP_KEYWORDS = {Series: "series", Parallel: "parallel", And: "and", Or: "or", Nor: "nor"}


def _body_lines(body: Union[BlockExpr, GateExpr]) -> list[str]:
    """The body's canonical lines, indented from one level.

    A group prints its keyword and '{', then its children one level deeper,
    each but the last ending in ';', then '}'; a nand's groups are 'neg' and
    'pos'.  Walks with an explicit stack of (item, depth, end) entries, so any
    nesting depth works: an item is a node, a (keyword, children) group or a
    closing '}', and end is what its last line ends with.
    """
    lines: list[str] = []
    stack: list[tuple] = [(body, 1, "")]
    while stack:
        item, depth, end = stack.pop()
        pad = "  " * depth
        if isinstance(item, str):
            lines.append(f"{pad}{item}{end}")
            continue
        if isinstance(item, Unit):
            lines.append(f"{pad}unit {item.component}{end}")
            continue
        if isinstance(item, Basic):
            lines.append(f"{pad}basic {item.event}{end}")
            continue
        if isinstance(item, tuple):
            keyword, children = item
        elif isinstance(item, Nand):
            keyword, children = "nand", (("neg", item.negated), ("pos", item.plain))
        elif isinstance(item, Xor):
            keyword, children = "xor", (item.left, item.right)
        elif isinstance(item, Not):
            keyword, children = "not", (item.child,)
        else:
            keyword, children = _GROUP_KEYWORDS[type(item)], item.children
        lines.append(f"{pad}{keyword} {{")
        stack.append(("}", depth, end))
        stack.extend((child, depth + 1, ";" if i else "") for i, child in enumerate(reversed(children)))
    return lines


def serialize_model(model: SystemModel) -> str:
    """Canonical text form; parse(serialize(m)) is structurally equal to m."""
    diags = validate(model)
    if diags:
        raise ValueError("cannot serialize invalid model: " + "; ".join(str(d) for d in diags))
    if '"' in model.name or "\n" in model.name:
        raise ValueError(f"model name not serializable: {model.name!r}")
    lines = [f'model "{model.name}"']
    for comp in model.components.values():
        lines.append(
            f"component {comp.id} "
            f"lambda={comp.rates.failure_rate} "
            f"mu={comp.rates.repair_rate}"
        )
    lines.append("ft" if model.is_fault_tree else "abd")
    lines.extend(_body_lines(model.body))
    return "\n".join(lines) + "\n"
