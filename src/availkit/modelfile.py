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
    NUMBER     := digits | digits '.' digits | digits '/' digits

Numbers are exact: decimals are decimal fractions (0.1 is 1/10, never a
binary float) and 'p/q' is a rational literal.  Braces nest at most
NESTING_LIMIT deep.  The serializer emits the canonical form (components
in declaration order, two-space indentation, one construct per line,
rates as exact rationals); parsing it back gives a structurally equal
model, and serialization is idempotent.
"""

from __future__ import annotations

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

# brace levels a model text may open; the parser and the deepest walk over
# the model take about two stack frames per level, so this uses about half
# of Python's default recursion limit of 1000 and leaves the rest to callers
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


_SYMBOLS = "{};="


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'number' | 'string' | 'sym' | 'eof'
    text: str
    span: SourceSpan
    value: Optional[Union[Fraction, str]] = None


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, line_start = 0, 1, 0
    n = len(text)
    depth = 0

    def span_at(pos: int) -> SourceSpan:
        return SourceSpan(line=line, column=pos - line_start + 1, offset=pos)

    def fail(pos: int, message: str) -> ModelFileError:
        return ModelFileError([ParseDiagnostic(message, span_at(pos))])

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            end = i + 1
            while end < n and text[end] not in '"\n':
                end += 1
            if end >= n or text[end] != '"':
                raise fail(i, "unterminated string")
            tokens.append(_Token("string", text[i : end + 1], span_at(i), value=text[i + 1 : end]))
            i = end + 1
            continue
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] in "./" and i + 1 < n and text[i + 1].isdigit():
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            literal = text[start:i]
            try:
                value = Fraction(literal)
            except ZeroDivisionError:
                raise fail(start, f"zero denominator in rational literal {literal!r}") from None
            except ValueError:  # past Python's int-string digit limit
                raise fail(start, f"number literal too long to read ({len(literal)} characters)") from None
            tokens.append(_Token("number", literal, span_at(start), value=value))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], span_at(start)))
            continue
        if c in _SYMBOLS:
            depth += (c == "{") - (c == "}")
            if depth > NESTING_LIMIT:
                raise fail(i, f"nesting deeper than {NESTING_LIMIT} levels")
            tokens.append(_Token("sym", c, span_at(i)))
            i += 1
            continue
        raise fail(i, f"unexpected character {c!r}")

    tokens.append(_Token("eof", "", SourceSpan(line=line, column=n - line_start + 1, offset=n)))
    return tokens


_BLOCK_KEYWORDS = {"unit", "series", "parallel"}
_GATE_KEYWORDS = {"basic", "and", "or", "nor", "nand", "xor", "not"}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[ParseDiagnostic] = []
        self.leaf_refs: list[tuple[str, SourceSpan]] = []

    # -- token plumbing --------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str) -> ModelFileError:
        return ModelFileError(self.diagnostics + [ParseDiagnostic(message, tok.span)])

    def expect_word(self, word: str) -> _Token:
        tok = self.advance()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(tok, f"expected '{word}', found {tok.text!r}" if tok.text else f"expected '{word}'")
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.advance()
        if tok.kind != "sym" or tok.text != sym:
            raise self.fail(tok, f"expected '{sym}', found {tok.text!r}" if tok.text else f"expected '{sym}'")
        return tok

    def expect_ident(self, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != "ident":
            raise self.fail(tok, f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}")
        return tok

    def expect_number(self, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != "number":
            raise self.fail(tok, f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}")
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text in words

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    # -- grammar ----------------------------------------------------------

    def parse_model(self) -> SystemModel:
        self.expect_word("model")
        name_tok = self.advance()
        if name_tok.kind != "string":
            raise self.fail(name_tok, "expected model name string")

        components: dict[str, ComponentDef] = {}
        while self.at_word("component"):
            self.advance()
            id_tok = self.expect_ident("component identifier")
            self.expect_word("lambda")
            self.expect_sym("=")
            lam_tok = self.expect_number("failure rate")
            self.expect_word("mu")
            self.expect_sym("=")
            mu_tok = self.expect_number("repair rate")
            cid = id_tok.text
            if cid in components:
                self.diagnostics.append(
                    ParseDiagnostic(f"duplicate component id {cid!r}", id_tok.span)
                )
                continue
            if lam_tok.value <= 0:
                self.diagnostics.append(
                    ParseDiagnostic(f"nonpositive failure rate at {cid}", lam_tok.span)
                )
            if mu_tok.value <= 0:
                self.diagnostics.append(
                    ParseDiagnostic(f"nonpositive repair rate at {cid}", mu_tok.span)
                )
            components[cid] = ComponentDef(cid, RatePair(lam_tok.value, mu_tok.value))

        kind_tok = self.advance()
        if kind_tok.kind == "ident" and kind_tok.text == "abd":
            body: Union[BlockExpr, GateExpr] = self.parse_block()
        elif kind_tok.kind == "ident" and kind_tok.text == "ft":
            body = self.parse_gate()
        else:
            raise self.fail(kind_tok, "expected 'abd' or 'ft' body")

        trailing = self.peek()
        if trailing.kind != "eof":
            raise self.fail(trailing, f"unexpected trailing input {trailing.text!r}")

        for leaf, span in self.leaf_refs:
            if leaf not in components:
                self.diagnostics.append(
                    ParseDiagnostic(f"unknown component reference {leaf!r}", span)
                )
        if self.diagnostics:
            raise ModelFileError(self.diagnostics)
        return SystemModel(name=name_tok.value, components=components, body=body)

    def parse_children(self, parse_item) -> list:
        self.expect_sym("{")
        items = [parse_item()]
        while self.at_sym(";"):
            self.advance()
            items.append(parse_item())
        self.expect_sym("}")
        return items

    def parse_block(self) -> BlockExpr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "{":
            self.advance()
            inner = self.parse_block()
            self.expect_sym("}")
            return inner
        if tok.kind != "ident" or tok.text not in _BLOCK_KEYWORDS:
            raise self.fail(tok, f"expected a block ('unit', 'series' or 'parallel'), found {tok.text!r}")
        self.advance()
        if tok.text == "unit":
            ident = self.expect_ident("component identifier")
            self.leaf_refs.append((ident.text, ident.span))
            return Unit(ident.text)
        children = tuple(self.parse_children(self.parse_block))
        return Series(children) if tok.text == "series" else Parallel(children)

    def parse_gate(self) -> GateExpr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "{":
            self.advance()
            inner = self.parse_gate()
            self.expect_sym("}")
            return inner
        if tok.kind != "ident" or tok.text not in _GATE_KEYWORDS:
            raise self.fail(tok, f"expected a gate, found {tok.text!r}")
        self.advance()
        if tok.text == "basic":
            ident = self.expect_ident("event identifier")
            self.leaf_refs.append((ident.text, ident.span))
            return Basic(ident.text)
        if tok.text in ("and", "or", "nor"):
            children = tuple(self.parse_children(self.parse_gate))
            return {"and": And, "or": Or, "nor": Nor}[tok.text](children)
        if tok.text == "nand":
            self.expect_sym("{")
            self.expect_word("neg")
            negated = tuple(self.parse_children(self.parse_gate))
            self.expect_sym(";")
            self.expect_word("pos")
            plain = tuple(self.parse_children(self.parse_gate))
            self.expect_sym("}")
            return Nand(negated, plain)
        if tok.text == "xor":
            self.expect_sym("{")
            left = self.parse_gate()
            self.expect_sym(";")
            right = self.parse_gate()
            closing = self.advance()
            if closing.kind == "sym" and closing.text == ";":
                raise self.fail(closing, "xor takes exactly 2 operands")
            if closing.kind != "sym" or closing.text != "}":
                raise self.fail(closing, f"expected '}}', found {closing.text!r}")
            return Xor(left, right)
        # not
        self.expect_sym("{")
        child = self.parse_gate()
        self.expect_sym("}")
        return Not(child)


def parse_model(text: str) -> SystemModel:
    """Parse model text; raises ModelFileError with all diagnostics on failure."""
    parser = _Parser(_lex(text))
    model = parser.parse_model()
    leftover = validate(model)
    if leftover:  # everything should have been caught with a proper span
        raise ModelFileError(
            [ParseDiagnostic(str(d), SourceSpan(1, 1, 0)) for d in leftover]
        )
    return model


# --- canonical serialization --------------------------------------------------


def _block_lines(expr: BlockExpr, depth: int) -> list[str]:
    pad = "  " * depth
    if isinstance(expr, Unit):
        return [f"{pad}unit {expr.component}"]
    keyword = "series" if isinstance(expr, Series) else "parallel"
    return _group_lines(keyword, [_block_lines(c, depth + 1) for c in expr.children], depth)


def _gate_lines(expr: GateExpr, depth: int) -> list[str]:
    pad = "  " * depth
    if isinstance(expr, Basic):
        return [f"{pad}basic {expr.event}"]
    if isinstance(expr, (And, Or, Nor)):
        keyword = {And: "and", Or: "or", Nor: "nor"}[type(expr)]
        return _group_lines(keyword, [_gate_lines(c, depth + 1) for c in expr.children], depth)
    if isinstance(expr, Nand):
        neg = _group_lines("neg", [_gate_lines(c, depth + 2) for c in expr.negated], depth + 1)
        pos = _group_lines("pos", [_gate_lines(c, depth + 2) for c in expr.plain], depth + 1)
        neg[-1] += ";"
        return [f"{pad}nand {{"] + neg + pos + [f"{pad}}}"]
    if isinstance(expr, Xor):
        parts = [_gate_lines(expr.left, depth + 1), _gate_lines(expr.right, depth + 1)]
        return _group_lines("xor", parts, depth)
    return _group_lines("not", [_gate_lines(expr.child, depth + 1)], depth)


def _group_lines(keyword: str, children: list[list[str]], depth: int) -> list[str]:
    pad = "  " * depth
    lines = [f"{pad}{keyword} {{"]
    for i, child in enumerate(children):
        if i + 1 < len(children):
            child = child[:-1] + [child[-1] + ";"]
        lines.extend(child)
    lines.append(f"{pad}}}")
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
    if model.is_fault_tree:
        lines.append("ft")
        lines.extend(_gate_lines(model.body, 1))
    else:
        lines.append("abd")
        lines.extend(_block_lines(model.body, 1))
    return "\n".join(lines) + "\n"
