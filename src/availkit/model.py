"""Component model and the two system structure algebras.

A repairable component is a pair of exponential rates (failure, repair).
Systems are described either as availability block diagrams (series /
parallel nesting of units) or as unavailability fault trees (gates over
basic failure events).  All types here are immutable after construction
and safe to share between threads.

Rates are kept as exact rationals.  Numeric literals are interpreted with
decimal semantics: a rate written 0.1 means exactly 1/10, never the
nearest binary float.  This is what makes purely steady-state results
exact (see the analytic module).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Union

__all__ = [
    "RatePair",
    "ComponentDef",
    "Unit",
    "Series",
    "Parallel",
    "BlockExpr",
    "Basic",
    "And",
    "Or",
    "Nor",
    "Nand",
    "Xor",
    "Not",
    "GateExpr",
    "SystemModel",
    "Diagnostic",
    "validate",
    "basic_events",
    "iter_leaves",
]

IDENT_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Exact rational in the normal case; a bare float survives conversion only
# for non-finite junk so validate() can report it instead of crashing.
Rate = Union[Fraction, float]


def _as_rate(value: object) -> Rate:
    """Interpret a numeric input as an exact rational rate.

    Floats go through their shortest decimal repr, so 0.1 becomes 1/10.
    Non-finite floats are kept as-is for validate() to flag.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return Fraction(Decimal(repr(value)))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rate")


@dataclass(frozen=True)
class RatePair:
    """Failure and repair rates of one repairable component, per unit time.

    Both rates must be strictly positive and finite for the analysis
    operations to be meaningful; violations are reported by validate()
    rather than rejected at construction time.  A pair is frozen, so
    components may share one: the parser gives every component declared
    with the same two rate literals the same pair.
    """

    failure_rate: Rate
    repair_rate: Rate

    def __post_init__(self) -> None:
        object.__setattr__(self, "failure_rate", _as_rate(self.failure_rate))
        object.__setattr__(self, "repair_rate", _as_rate(self.repair_rate))

    @property
    def mttf(self) -> Fraction:
        """Mean time to failure, 1/failure_rate."""
        return 1 / self.failure_rate

    @property
    def mttr(self) -> Fraction:
        """Mean time to repair, 1/repair_rate."""
        return 1 / self.repair_rate

    def problems(self) -> list[str]:
        out = []
        for label, value in (("failure", self.failure_rate), ("repair", self.repair_rate)):
            if not isinstance(value, Fraction):
                out.append(f"non-finite {label} rate")
            elif value <= 0:
                out.append(f"nonpositive {label} rate")
        return out


@dataclass(frozen=True)
class ComponentDef:
    """A named component: an identifier bound to its rate pair."""

    id: str
    rates: RatePair


# --- structure nodes ---------------------------------------------------------


class _Node:
    """The structure nodes' ==, hash and repr, each walking with an explicit stack, so any depth works.

    Each node is a frozen dataclass declared with eq=False and repr=False,
    and these keep the meaning of the generated methods: two nodes are
    equal when they are of the same class and their fields are equal, a
    tuple field compared item by item; equal nodes hash alike; and repr
    prints ClassName(field=value, ...).  == compares, and hash hashes, the
    pre-order streams of _stream, which determine the nodes.
    """

    def _values(self) -> list:
        return [getattr(self, name) for name in self.__dataclass_fields__]

    def _stream(self) -> list:
        """The node in pre-order: a node as _MARK and its class, a tuple as _MARK and its length, any other value as itself."""
        stream: list = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, _Node):
                stream += (_MARK, item.__class__)
                stack.extend(reversed(item._values()))
            elif isinstance(item, tuple):
                stream += (_MARK, len(item))
                stack.extend(reversed(item))
            else:
                stream.append(item)
        return stream

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._stream() == other._stream()

    def __hash__(self) -> int:
        return hash(tuple(self._stream()))

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list[tuple] = [("", self)]  # (text to copy out, then the value to print, or _TEXT for none)
        while stack:
            text, item = stack.pop()
            parts.append(text)
            if item is _TEXT:
                continue
            if isinstance(item, _Node):
                parts.append(f"{item.__class__.__qualname__}(")
                stack.append((")", _TEXT))
                fields = zip(item.__dataclass_fields__, item._values())
                stack.extend(reversed([(f"{', ' if i else ''}{name}=", value) for i, (name, value) in enumerate(fields)]))
            elif type(item) is tuple:
                parts.append("(")
                stack.append((",)" if len(item) == 1 else ")", _TEXT))
                stack.extend(reversed([(", " if i else "", value) for i, value in enumerate(item)]))
            else:
                parts.append(repr(item))
        return "".join(parts)


_MARK = object()  # starts a node or a tuple in _Node._stream
_TEXT = object()  # marks an entry of _Node.__repr__'s stack that is text only


# --- availability block diagrams -------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Unit(_Node):
    """Leaf block: one component's availability."""

    component: str


@dataclass(frozen=True, eq=False, repr=False)
class _Group(_Node):
    """Series, Parallel, And, Or and Nor over their children: _Node's == checks the class and repr names it."""

    children: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


class Series(_Group):
    """Available iff every child is available."""


class Parallel(_Group):
    """Available iff at least one child is available."""


BlockExpr = Union[Unit, Series, Parallel]


# --- unavailability fault trees ---------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Basic(_Node):
    """Leaf gate: one component's unavailability event."""

    event: str


class And(_Group):
    """Occurs iff every input occurs."""


class Or(_Group):
    """Occurs iff at least one input occurs."""


class Nor(_Group):
    """Occurs iff no input occurs."""


@dataclass(frozen=True, eq=False, repr=False)
class Nand(_Node):
    """Occurs when none of the negated inputs occur and all plain inputs do."""

    negated: tuple["GateExpr", ...]
    plain: tuple["GateExpr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "negated", tuple(self.negated))
        object.__setattr__(self, "plain", tuple(self.plain))


@dataclass(frozen=True, eq=False, repr=False)
class Xor(_Node):
    """Occurs when exactly one of its two inputs occurs."""

    left: "GateExpr"
    right: "GateExpr"


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    child: "GateExpr"


GateExpr = Union[Basic, And, Or, Nor, Nand, Xor, Not]

Expr = Union[BlockExpr, GateExpr]

_BLOCK_NODES = (Unit, Series, Parallel)
_GATE_NODES = (Basic, And, Or, Nor, Nand, Xor, Not)


def _node_children(expr: Expr) -> list[tuple[str, Expr]]:
    """Children of a node with the path segment that reaches each one."""
    if isinstance(expr, _Group):
        return [(f".children[{i}]", c) for i, c in enumerate(expr.children)]
    if isinstance(expr, Nand):
        pairs = [(f".negated[{i}]", c) for i, c in enumerate(expr.negated)]
        pairs += [(f".plain[{i}]", c) for i, c in enumerate(expr.plain)]
        return pairs
    if isinstance(expr, Xor):
        return [(".left", expr.left), (".right", expr.right)]
    if isinstance(expr, Not):
        return [(".child", expr.child)]
    return []


def _path(root: str, link: tuple | None) -> str:
    """The path that link spells from root; link is (path segment, parent's link), None at the root.

    A depth-first walk extends a link in constant time per child and
    spells one out only for a finding.
    """
    segments = []
    while link is not None:
        segment, link = link
        segments.append(segment)
    return root + "".join(reversed(segments))


def iter_leaves(expr: Expr) -> Iterator[str]:
    """Component ids at the leaves, in document order (with repeats): compile_structure's leaves."""
    return iter(compile_structure(expr).leaves)


# Opcodes of a compiled structure program (see compile_structure).
LEAF, AND, OR, NOR, XOR, NOT = range(6)


@dataclass(frozen=True)
class Program:
    """A structure flattened into post-order steps, for evaluators with an operand stack.

    Each step is (LEAF, component id) or (opcode, k) over the k operands on
    top of the stack: AND, OR and NOR over their children, XOR over two and
    NOT over one.  Series compiles to AND and Parallel to OR, so every
    evaluator reads a block diagram in its own polarity.  Nand is derived:
    it compiles to an AND over its inputs, with a NOT after each negated one.
    """

    steps: tuple[tuple[int, object], ...]
    leaves: tuple[str, ...]  # leaf component ids in document order, with repeats
    events: tuple[str, ...]  # the distinct ones, in document order

    @property
    def distinct(self) -> bool:
        """True iff no component id appears at more than one leaf."""
        return len(self.events) == len(self.leaves)


_OPCODES = {Series: AND, And: AND, Parallel: OR, Or: OR, Nor: NOR}


def compile_structure(expr: Expr) -> Program:
    """Flatten expr into its post-order Program.

    Visits each node before its children, last child first, then reverses
    that order into post-order with the children in document order.  The
    walk uses an explicit stack, so any nesting depth works.  Raises
    TypeError on an object that is no structure node.
    """
    steps: list[tuple[int, object]] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Basic):
            steps.append((LEAF, node.event))
            continue
        if isinstance(node, Unit):
            steps.append((LEAF, node.component))
            continue
        op = _OPCODES.get(type(node))
        if op is not None:
            children = node.children
            steps.append((op, len(children)))
        elif isinstance(node, Nand):
            children = tuple(map(Not, node.negated)) + node.plain
            steps.append((AND, len(children)))
        elif isinstance(node, Xor):
            children = (node.left, node.right)
            steps.append((XOR, 2))
        elif isinstance(node, Not):
            children = (node.child,)
            steps.append((NOT, 1))
        else:
            raise TypeError(f"not a structure node: {node!r}")
        stack.extend(children)
    steps.reverse()
    leaves = tuple(arg for op, arg in steps if op == LEAF)
    return Program(tuple(steps), leaves, tuple(dict.fromkeys(leaves)))


def _structure(program: Program, fault_tree: bool, nands: Mapping[int, int]) -> Expr:
    """The body that compile_structure flattens into program: its inverse, for a parsed model.

    fault_tree picks the node classes (AND is And or Series, OR is Or or
    Parallel, a leaf Basic or Unit), and nands maps the index of each AND
    step that was a Nand to how many of its operands are negated: its
    first ones, each compiled with a NOT after it, which the Nand drops
    again.  One pass over the steps with an operand stack, so any depth
    works.
    """
    leaf, groups = (Basic, {AND: And, OR: Or, NOR: Nor}) if fault_tree else (Unit, {AND: Series, OR: Parallel})
    stack: list = []
    for index, (op, arg) in enumerate(program.steps):
        if op == LEAF:
            stack.append(leaf(arg))
        elif op == NOT:
            stack[-1] = Not(stack[-1])
        elif op == XOR:
            right = stack.pop()
            stack[-1] = Xor(stack[-1], right)
        else:
            items = stack[-arg:]
            del stack[-arg:]
            negated = nands.get(index)
            if negated is None:
                stack.append(groups[op](items))
            else:
                stack.append(Nand(tuple(item.child for item in items[:negated]), items[negated:]))
    return stack[0]


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, locating the offending node by path."""

    message: str
    path: str = ""

    def __str__(self) -> str:
        return f"{self.path}: {self.message}" if self.path else self.message


@dataclass(frozen=True)
class SystemModel:
    """A named set of components plus one structure over them.

    The body is either a block diagram (instantaneous/steady availability
    semantics) or a fault tree (unavailability semantics).  The component
    map preserves declaration order, which fixes the order of basic_events.
    The compiled program, the validation findings (none for a parsed
    model, which is never walked), the rate table _rates (each component
    id's RatePair, in declaration order: all the engines read of the
    components), the analytic decision diagram and the oracle's truth
    table are computed once and cached.  So a model's components are read
    once, as its findings and program are: neither the components map nor
    the body may be mutated after construction, and a change made after
    the model's first use goes unseen by _rates and validate.  Models
    compare with == but are unhashable, as the component map is a dict.

    A parsed model (_from_program) starts from its program and its rate
    table instead: the parser emits the steps as it reads and gives each
    id its shared RatePair, and the engines read nothing else.  Its body
    and its components are built from them on first read (__getattr__),
    as by cutsets, ==, repr or dataclasses.replace, and kept; they equal
    the body and the components the text spells out.  A copy or pickle
    made before that carries the program and the table, and builds its
    own.
    """

    name: str
    components: Mapping[str, ComponentDef]
    body: Expr

    __hash__ = None  # declared, so the dataclass keeps it and makes no hash of the components dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", dict(self.components))

    @classmethod
    def _from_program(cls, name: str, rates: dict, program: Program, fault_tree: bool,
                      nands: Mapping[int, int]) -> SystemModel:
        """A model whose body and components are not built yet: rates (id -> RatePair), program,
        is_fault_tree and no findings are stored as the cached properties would store them, and
        nands is _structure's record of the Nands."""
        model = object.__new__(cls)
        model.__dict__.update(name=name, _rates=rates, program=program, is_fault_tree=fault_tree,
                              _diagnostics=(), _nands=nands)
        return model

    def __getattr__(self, name: str):
        """Only for an attribute not in the __dict__: a parsed model's body, built once from its
        program, or its components, built once from its rate table."""
        state = self.__dict__
        if "_nands" in state:  # parsed
            if name == "body":
                body = state["body"] = _structure(self.program, self.is_fault_tree, state["_nands"])
                return body
            if name == "components":
                components = state["components"] = {cid: ComponentDef(cid, rates) for cid, rates in self._rates.items()}
                return components
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}", name=name, obj=self)

    @cached_property
    def is_fault_tree(self) -> bool:
        """True for a fault tree body, False for a block diagram; a parsed model's comes from its body keyword."""
        return isinstance(self.body, _GATE_NODES)

    @cached_property
    def program(self) -> Program:
        """The body compiled once; cached_property stores it in the instance
        __dict__, which the frozen dataclass allows and eq/repr ignore."""
        return compile_structure(self.body)

    @cached_property
    def _rates(self) -> dict[str, RatePair]:
        """Each component id's RatePair, in declaration order: what the engines read of the components.
        Cached like program; a parsed model stores the parser's table."""
        return {cid: comp.rates for cid, comp in self.components.items()}

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        """validate's findings from one walk, cached like program; a parsed model stores () unwalked."""
        diags: list[Diagnostic] = []

        for cid, comp in self.components.items():
            path = f"components[{cid}]"
            if not IDENT_PATTERN.match(cid or ""):
                diags.append(Diagnostic(f"invalid component identifier {cid!r}", path))
            if comp.id != cid:
                diags.append(Diagnostic(f"component keyed {cid!r} declares id {comp.id!r}", path))
            for problem in comp.rates.problems():
                diags.append(Diagnostic(f"{problem} at {cid}", path))

        def note(message: str, link: tuple | None) -> None:
            diags.append(Diagnostic(message, _path("body", link)))

        want_gate = self.is_fault_tree
        # explicit, so any nesting depth works; a link (see _path) is spelled
        # out only for a finding, so the walk is linear in depth
        stack: list[tuple[Expr, tuple | None]] = [(self.body, None)]
        while stack:
            expr, link = stack.pop()
            is_gate = isinstance(expr, _GATE_NODES)
            is_block = isinstance(expr, _BLOCK_NODES)
            if not (is_gate or is_block):
                note(f"unexpected node {type(expr).__name__}", link)
                continue
            if is_gate != want_gate:
                kind = "gate" if is_gate else "block"
                note(f"{kind} node {type(expr).__name__} in the wrong structure kind", link)
                continue

            if isinstance(expr, (Unit, Basic)):
                leaf = expr.component if isinstance(expr, Unit) else expr.event
                if leaf not in self.components:
                    note(f"unknown component reference {leaf!r}", link)
                continue

            if isinstance(expr, _Group) and not expr.children:
                note(f"{type(expr).__name__} node has no children", link)
            if isinstance(expr, Nand):
                if not expr.negated:
                    note("Nand node has an empty negated group", link)
                if not expr.plain:
                    note("Nand node has an empty plain group", link)
            for segment, child in reversed(_node_children(expr)):
                stack.append((child, (segment, link)))
        return tuple(diags)

    @property
    def leaves_distinct(self) -> bool:
        """True iff no component id appears at more than one leaf.

        Two leaves naming the same component denote the same physical
        unit, hence the same (dependent) event.  Independent twins of one
        design must be declared as separate components sharing a RatePair.
        """
        return self.program.distinct


def validate(model: SystemModel) -> list[Diagnostic]:
    """Check every structural invariant; empty result means the model is valid.

    One diagnostic is produced per violation: bad identifiers, nonpositive
    or non-finite rates, empty gate/block argument lists, dangling leaf
    references, and gate nodes mixed into block bodies (or vice versa).
    An API-built model is walked once, a parsed one never; each call returns a new list.
    """
    return list(model._diagnostics)


def _require_valid(model: SystemModel) -> None:
    """Raise ValueError naming every finding of validate, if there is one."""
    if model._diagnostics:
        raise ValueError("invalid model: " + "; ".join(str(d) for d in model._diagnostics))


def basic_events(model: SystemModel) -> list[str]:
    """Distinct leaf component ids in document order.

    Deterministic and stable across serialize/parse round trips, so it is
    also the component indexing used by the simulation oracle.
    """
    return list(model.program.events)
