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
                  (a literal with an exponent, such as '1e3' or '2.5E+2',
                  is one token, refused with its own diagnostic)
    STRING     := '"' (any character but '"' and newline)* '"'

Identifiers and numbers are ASCII: any other letter or digit outside a
comment or string is an unexpected character.  Whitespace is whatever
str.isspace accepts, but only a line feed starts a new line for the
line:column of a diagnostic.  Numbers are exact: decimals are decimal
fractions (0.1 is 1/10, never a binary float) and 'p/q' is a rational
literal.  Braces nest to any depth.  The parser reports
every semantic fault with its line:column and the grammar rules out the
rest of what validate checks, so a parsed model is valid by construction
and is never walked again.

A parse walks one list of token texts by index; no token carries an
offset.  The list comes from str.split when every whitespace-separated
chunk of the text, with spaces put around '{};=' and strings taken whole,
is one token; otherwise (a comment, an unterminated string, a number such
as '1e3', an unexpected character) one findall of the token regex gives
it.  Only a diagnostic works out offsets, from a finditer of that regex,
and scans the texts for the first lexical fault, which it reports before
any other, as lexing the whole text first would.  Component declarations
are read by strided slices of the list, which also find their faults,
into one rate table: each id's RatePair, shared by the ids declared with
the same two literals.  The body is read straight into its post-order
program (model.Program).  The parsed model holds the program and the
table, which are all the engines read; its structure nodes are built
from the program only when something reads model.body, and its
ComponentDefs from the table only when something reads model.components.

The serializer emits the canonical form
(components in declaration order, two-space indentation, one construct
per line, rates as exact rationals); parsing it back gives a structurally
equal model, and serialization is idempotent.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import NamedTuple, Optional

from .model import (
    AND,
    LEAF,
    NOR,
    NOT,
    OR,
    XOR,
    And,
    Basic,
    Expr,
    Nand,
    Nor,
    Not,
    Or,
    Parallel,
    Program,
    RatePair,
    Series,
    SystemModel,
    Unit,
    Xor,
    validate,
)

__all__ = ["SourceSpan", "ParseDiagnostic", "ModelFileError", "parse_model", "serialize_model"]

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
# token, the one group.  A token's kind follows from its first character:
# a letter or '_' starts an identifier, a digit a number, '"' a string (a
# lone '"' is an unterminated one), and the empty token is the end of the
# text; any other character is a token of its own, a symbol if it is one
# of '{};=' and else an unexpected character.  The greedy prefix stops at
# the end of the text or at a character that is not whitespace, and there
# some alternative always matches ('.' takes any character but a newline,
# which \s has already taken), so a match never backtracks into the prefix.
_TOKEN = re.compile(
    r"""
    \s* (?: \#[^\n]* \s* )*
    (
        [A-Za-z_][A-Za-z0-9_]*
      | [0-9]+ (?: [./][0-9]+ )? (?: [eE][+-]?[0-9]+ )?
      | "[^"\n]*"
      | \Z
      | .
    )
    """,
    re.VERBOSE,
)

# A whole token that is not a string: what a chunk of the split route must be.
_WHOLE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:[./][0-9]+)?|[{};=]")


def _split_tokens(text: str) -> Optional[list[str]]:
    """The token texts of _TOKEN.findall up to its first '' (the end), read by str.split, or None.

    Split on '"', each odd piece is one string.  In each even piece,
    spaces around '{};=' make every token a chunk of str.split(), which
    splits on the characters str.isspace accepts, the regex's \\s.  When
    each distinct chunk is one whole token (_WHOLE) the list is the
    findall's.  Otherwise, or when a quote is unterminated or a string
    holds a newline, None, for the regex to read: a chunk such as '#',
    '1e3', '1.5.3', 'a.b', '-' or a non-ASCII letter is several tokens, or
    the start of a comment, or a lexical fault.
    """
    pieces = text.split('"')
    if not len(pieces) & 1:
        return None
    tokens: list[str] = []
    for index, piece in enumerate(pieces):
        if index & 1:
            if "\n" in piece:
                return None
            tokens.append(f'"{piece}"')
            continue
        chunks = piece.replace("{", " { ").replace("}", " } ").replace(";", " ; ").replace("=", " = ").split()
        if not all(map(_WHOLE.fullmatch, set(chunks))):
            return None
        tokens += chunks
    tokens.append("")
    return tokens


_IDENT_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)
_SYMBOLS = frozenset("{};=")


_QUOTED = 32  # the most characters of a token that a diagnostic quotes


def _quoted(tok: str) -> str:
    """A token as a diagnostic names it: its repr, or for a long token the repr of its start and its length."""
    return repr(tok) if len(tok) <= _QUOTED else f"{tok[:_QUOTED]!r}... ({len(tok)} characters)"


def _number(tok: str) -> Fraction:
    """A number token's exact value; a ValueError gives the diagnostic if it has none.

    Fraction reads '1e3' as 1000, but an exponent is not part of NUMBER:
    a token with one is refused before Fraction sees it.
    """
    if "e" in tok or "E" in tok:
        raise ValueError(f"exponent in number literal {_quoted(tok)}; numbers are integers, decimals or p/q")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {_quoted(tok)}") from None
    except ValueError:  # past Python's int-string digit limit
        raise ValueError(f"number literal too long to read ({len(tok)} characters)") from None


def _lexical_fault(tokens: list[str]) -> Optional[tuple[int, str]]:
    """The index and message of the first lexical fault in the token texts, or None.

    A fault is an unexpected character, a lone '"' (an unterminated
    string) or a number _number cannot read.
    """
    numbers: set[str] = set()  # rate literals repeat; read each once
    for index, tok in enumerate(tokens):
        first = tok[:1]
        if first in _IDENT_START:
            continue
        if first in _DIGITS:
            if tok not in numbers:
                numbers.add(tok)
                try:
                    _number(tok)
                except ValueError as exc:
                    return index, str(exc)
        elif not tok:
            return None
        elif tok == '"':
            return index, "unterminated string"
        elif first != '"' and tok not in _SYMBOLS:
            return index, f"unexpected character {_quoted(tok)}"
    return None


# The seven tokens of a component declaration after 'component', in order:
# the keyword or symbol each must be, or the characters its first character
# must be one of, and what a diagnostic calls it.
_DECLARATION = (
    (_IDENT_START, "component identifier"),
    ("lambda", "'lambda'"),
    ("=", "'='"),
    (_DIGITS, "failure rate"),
    ("mu", "'mu'"),
    ("=", "'='"),
    (_DIGITS, "repair rate"),
)


class _Grammar(NamedTuple):
    """The constructs of one body kind, by the token that starts each, and the texts of its diagnostics."""

    ops: dict  # keyword or '{' -> the opcode of the step it compiles to, or _NAND or _BRACE
    identifier: str  # what the identifier after the leaf keyword names
    expected: str  # what a construct may start with


# What body reads past model's opcodes: a nand (an AND over its groups'
# operands), a bare '{', a nand's 'pos' and 'neg' groups, and the body as a
# whole; from _NEG on, completing an item does more than count it.
_NAND, _BRACE, _POS, _NEG, _BODY = range(NOT + 1, NOT + 6)

_BODIES = {
    "abd": _Grammar({"unit": LEAF, "series": AND, "parallel": OR, "{": _BRACE}, "component identifier",
                    "a block ('unit', 'series' or 'parallel')"),
    "ft": _Grammar({"basic": LEAF, "and": AND, "or": OR, "nor": NOR, "nand": _NAND, "xor": XOR, "not": NOT,
                    "{": _BRACE}, "event identifier", "a gate"),
}


# The items a construct takes, when that is a fixed number: a bare '{' and
# not take 1, and xor 2.  A group takes 1 or more, and so do a nand's 'neg'
# and 'pos' groups, its items.
_ARITY = {_BRACE: 1, NOT: 1, XOR: 2}


class _Parser:
    """A reader of the token texts of one text, by index.

    The texts come from _split_tokens, or from one findall where it gives
    None, so the loop over the text runs in C either way.  A token's text
    alone tells keywords and symbols apart from every other token, and its
    first character gives its kind, so matching one compares texts only.
    One routine, declarations, reads a run of component declarations, and
    one loop, body, either body kind from its _Grammar table into the
    steps of its program, with an explicit stack of open constructs, so
    braces nest to any depth.  parse_model makes the model from the rate
    table of declarations, the program and body's record of its nands
    (SystemModel._from_program), and builds no structure node and no
    ComponentDef.  The parser reads the rate literals it takes, so a text
    it accepts has no lexical fault.

    The first diagnostic gives every token its offset, from a finditer
    whose matches are the findall's, and so the split's, and reports the
    text's first lexical fault (_lexical_fault) instead, if it has one, as
    lexing the whole text first would.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = _split_tokens(text) or _TOKEN.findall(text)  # ends with '' (the end)
        self.pos = 0
        self.offsets: Optional[list[int]] = None  # by token index, from the first diagnostic on
        self.line_starts: list[int] = []  # offset of each line's first character, likewise
        self.diagnostics: list[ParseDiagnostic] = []
        self.leaf_refs: list[int] = []  # token index of each leaf's identifier

    # -- token plumbing --------------------------------------------------

    def span(self, index: int) -> SourceSpan:
        """Where the token at index starts; the first call raises the text's first lexical fault."""
        if self.offsets is None:
            self.offsets = [m.start(1) for m in _TOKEN.finditer(self.text)]
            self.line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
            fault = _lexical_fault(self.tokens)
            if fault is not None:
                at, message = fault
                raise ModelFileError([ParseDiagnostic(message, self.span(at))])
        offset = self.offsets[index]
        line = bisect_right(self.line_starts, offset)
        return SourceSpan(line=line, column=offset - self.line_starts[line - 1] + 1, offset=offset)

    def note(self, index: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(message, self.span(index)))

    def fail(self, index: int, message: str) -> ModelFileError:
        return ModelFileError(self.diagnostics + [ParseDiagnostic(message, self.span(index))])

    def unexpected(self, index: int, what: str) -> ModelFileError:
        tok = self.tokens[index]
        return self.fail(index, f"expected {what}, found {_quoted(tok)}" if tok else f"expected {what}")

    def advance(self) -> int:
        """The index of the current token, which is consumed unless it is the end."""
        index = self.pos
        if self.tokens[index]:
            self.pos += 1
        return index

    def expect(self, pos: int, *words: str) -> int:
        """The index past the keywords and symbols words, which must stand from pos on."""
        for word in words:
            if self.tokens[pos] != word:
                raise self.unexpected(pos, f"'{word}'")
            pos += 1
        return pos

    # -- grammar ----------------------------------------------------------

    def parse_model(self) -> SystemModel:
        tokens = self.tokens
        self.pos = self.expect(0, "model")
        at = self.advance()
        name = tokens[at]
        if name[:1] != '"' or len(name) < 2:
            raise self.fail(at, "expected model name string")

        rates = self.declarations()

        at = self.advance()
        keyword = tokens[at]
        if keyword not in _BODIES:
            raise self.fail(at, "expected 'abd' or 'ft' body")
        steps, nands = self.body(_BODIES[keyword])

        if tokens[self.pos]:
            raise self.fail(self.pos, f"unexpected trailing input {_quoted(tokens[self.pos])}")

        leaves = tuple(map(tokens.__getitem__, self.leaf_refs))
        events = dict.fromkeys(leaves)
        if not rates.keys() >= events.keys():
            for index in self.leaf_refs:
                if tokens[index] not in rates:
                    self.note(index, f"unknown component reference {_quoted(tokens[index])}")
        if self.diagnostics:
            raise ModelFileError(self.diagnostics)
        return SystemModel._from_program(name[1:-1], rates, Program(tuple(steps), leaves, tuple(events)),
                                         keyword == "ft", nands)

    def declarations(self) -> dict[str, RatePair]:
        """Each id's shared RatePair, in declaration order, of the run of declarations at pos; pos moves past it.

        The run is read by strided slices: a declaration is 'component' and
        the seven tokens of _DECLARATION, so each of its places is one slice
        of the run, and a clean run takes a few slice comparisons.  A faulty
        run is cut at its first declaration out of shape, found with
        _DECLARATION.  Each distinct rate literal before the cut is read
        once, and each distinct pair of them makes one RatePair, which every
        id declared with that pair shares; no ComponentDef is built.  Then,
        in declaration order, a duplicate id is noted alone and any other
        declaration's nonpositive lambda, then mu; last, the cut declaration
        raises at its first token out of place.
        """
        tokens, at = self.tokens, self.pos
        n = len(list(takewhile("component".__eq__, tokens[at::8])))
        end = at + 8 * n
        ids = tokens[at + 1 : end : 8]
        literals = list(zip(tokens[at + 4 : end : 8], tokens[at + 7 : end : 8]))
        pairs = set(literals)
        equals = ["="] * n
        misplaced = None  # index of the cut declaration's first token out of place
        if not (tokens[at + 2 : end : 8] == ["lambda"] * n and tokens[at + 3 : end : 8] == equals
                and tokens[at + 5 : end : 8] == ["mu"] * n and tokens[at + 6 : end : 8] == equals
                and all(map(str.isidentifier, ids)) and all(map(str.isascii, ids))
                and all(lam[:1] in _DIGITS and mu[:1] in _DIGITS for lam, mu in pairs)):
            misplaced = next(i for start in range(at, end, 8) for i, (want, _) in enumerate(_DECLARATION, start + 1)
                             if not (tokens[i][:1] in want if isinstance(want, frozenset) else tokens[i] == want))
            end = misplaced - (misplaced - at) % 8
            del ids[(end - at) // 8 :], literals[(end - at) // 8 :]
            pairs = set(literals)
        values: dict[str, Fraction] = {}
        for tok in {tok for pair in pairs for tok in pair}:
            try:
                values[tok] = _number(tok)
            except ValueError as exc:  # a lexical fault, so the first diagnostic reports it or one before it
                raise self.fail(tokens.index(tok, at), str(exc)) from None
        shared = {(lam, mu): RatePair(values[lam], values[mu]) for lam, mu in pairs}
        self.pos = end
        if len(set(ids)) < len(ids) or not all(r.failure_rate > 0 and r.repair_rate > 0 for r in shared.values()):
            seen: set[str] = set()
            for start, cid, pair in zip(range(at, end, 8), ids, literals):
                if cid in seen:
                    self.note(start + 1, f"duplicate component id {_quoted(cid)}")
                    continue
                seen.add(cid)
                if not shared[pair].failure_rate > 0:
                    self.note(start + 4, f"nonpositive failure rate at {cid}")
                if not shared[pair].repair_rate > 0:
                    self.note(start + 7, f"nonpositive repair rate at {cid}")
        if misplaced is not None:
            raise self.unexpected(misplaced, _DECLARATION[(misplaced - at) % 8 - 1][1])
        return dict(zip(ids, map(shared.__getitem__, literals)))  # with a note, never used

    def body(self, grammar: _Grammar) -> tuple[list, dict[int, int]]:
        """The post-order steps of the body at pos, of the kind grammar reads, and its nands; pos moves past it.

        The steps are those compile_structure gives for the body the text
        spells out, and nands maps the index of each AND step that is a
        nand to how many of its operands are negated (model._structure's
        record).  One loop with an explicit stack: the innermost open
        construct is (kind, count, arity), an opcode or one of _NAND to
        _BODY, its items so far and _ARITY's number for it, and saved holds
        those of the constructs around it.  The loop reads an item by
        opening constructs down to a leaf, whose step it emits, then
        completes the innermost construct's item: while the construct may
        take more, a ';' starts its next item, and a '}' closes it, emits
        its step and completes an item of the construct around it.  Items
        complete in post-order.  A nand is its 'neg' group, then its 'pos'
        group: a NOT follows each 'neg' item, and the AND step follows the
        'pos' group.
        """
        tokens, ops, leaf_refs = self.tokens, grammar.ops, self.leaf_refs
        steps: list[tuple[int, object]] = []
        emit = steps.append
        nands: dict[int, int] = {}
        saved: list[tuple] = []  # (kind, count, arity) of each open construct around the innermost
        negated: list[int] = []  # the item count of each open nand's 'neg' group
        kind, count, arity = _BODY, 0, 1
        pos = self.pos
        while True:
            op = ops.get(tokens[pos])
            if op != LEAF:
                if op is None:
                    raise self.fail(pos, f"expected {grammar.expected}, found {_quoted(tokens[pos])}")
                saved.append((kind, count, arity))
                count = 0
                if op == _BRACE:
                    kind, arity = op, 1
                    pos += 1
                elif op == _NAND:
                    pos = self.expect(pos + 1, "{", "neg", "{")
                    kind, arity = _NEG, None
                else:
                    pos = self.expect(pos + 1, "{")
                    kind, arity = op, _ARITY.get(op)
                continue
            pos += 1
            if tokens[pos][:1] not in _IDENT_START:
                raise self.unexpected(pos, grammar.identifier)
            leaf_refs.append(pos)
            emit((LEAF, tokens[pos]))
            pos += 1
            while True:  # an item completes the innermost open construct
                count += 1
                if kind >= _NEG:
                    if kind == _BODY:
                        self.pos = pos
                        return steps, nands
                    emit((NOT, 1))
                word = tokens[pos]
                if arity is None or count < arity:
                    if word == ";":
                        pos += 1
                        break
                    if arity is not None:
                        raise self.unexpected(pos, "';'")
                elif kind == XOR and word != "}":
                    raise self.fail(pos, "xor takes exactly 2 operands" if word == ";" else f"expected '}}', found {_quoted(word)}")
                if word != "}":
                    raise self.unexpected(pos, "'}'")
                pos += 1
                if kind < _NAND:
                    emit((kind, count))
                elif kind == _NEG:
                    pos = self.expect(pos, ";", "pos", "{")
                    negated.append(count)
                    kind, count = _POS, 0
                    break
                elif kind == _POS:
                    pos = self.expect(pos, "}")
                    negated_count = negated.pop()
                    nands[len(steps)] = negated_count
                    emit((AND, negated_count + count))
                kind, count, arity = saved.pop()


def parse_model(text: str) -> SystemModel:
    """Parse model text; raises ModelFileError with all diagnostics on failure.

    The model holds the program its body compiles to, its rate table and
    no findings: it is valid by construction.  Its body and its components
    are built on first read.
    """
    return _Parser(text).parse_model()


# --- canonical serialization --------------------------------------------------


_KEYWORDS = {Unit: "unit", Series: "series", Parallel: "parallel",
             Basic: "basic", And: "and", Or: "or", Nor: "nor", Nand: "nand", Xor: "xor", Not: "not"}


def _body_lines(body: Expr) -> list[str]:
    """The body's canonical lines, indented from one level.

    A group prints its keyword and '{', then its children one level deeper,
    each but the last ending in ';', then '}'; a nand's groups are 'neg' and
    'pos'.  Walks with an explicit stack of (item, depth, end) entries, so any
    depth works: an item is a node, a (keyword, children) group or a line
    ('}' or a leaf's), and end is what its last line ends with.
    """
    lines: list[str] = []
    stack: list[tuple] = [(body, 1, "")]
    while stack:
        item, depth, end = stack.pop()
        pad = "  " * depth
        if isinstance(item, Unit):
            item = f"{_KEYWORDS[Unit]} {item.component}"
        elif isinstance(item, Basic):
            item = f"{_KEYWORDS[Basic]} {item.event}"
        if isinstance(item, str):
            lines.append(f"{pad}{item}{end}")
            continue
        if isinstance(item, tuple):
            keyword, children = item
        elif isinstance(item, Nand):
            keyword, children = _KEYWORDS[Nand], (("neg", item.negated), ("pos", item.plain))
        elif isinstance(item, Xor):
            keyword, children = _KEYWORDS[Xor], (item.left, item.right)
        elif isinstance(item, Not):
            keyword, children = _KEYWORDS[Not], (item.child,)
        else:
            keyword, children = _KEYWORDS[type(item)], item.children
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
    for cid, rates in model._rates.items():
        lines.append(f"component {cid} lambda={rates.failure_rate} mu={rates.repair_rate}")
    lines.append("ft" if model.is_fault_tree else "abd")
    lines.extend(_body_lines(model.body))
    return "\n".join(lines) + "\n"
