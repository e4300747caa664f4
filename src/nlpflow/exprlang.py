"""Scalar expression language with exact forward-mode derivatives.

Expressions are polynomial-style formulas over named variables:
literals, identifiers, ``+ - * /``, unary minus, integer powers via
``^`` and parentheses.

Every :class:`Expr` is lowered once, when it is built, to a flat
:class:`Tape`: a straight-line list of operations over numbered slots
(Griewank & Walther, *Evaluating Derivatives*, ch. 3), with one output
slot.  A :class:`Stack` lowers several expressions over the same
variables to one tape with an output slot each.  The lowering is
value-numbered, the common-subexpression step of tape-based AD: each
distinct constant (by its bits) and each distinct operation on the same
operand slots is written once, whether the repeat is a subtree shared by
identity, such as the elimination map that ``substitute`` splices into
every occurrence of an eliminated variable, or an equal one, such as the
``x1^2`` that an objective and each constraint spell out for themselves.
On first use a tape is compiled to straight-line Python kernels, one
statement per operation, which give every output's value and, in each
tangent lane, its directional derivative along the lane's seed.  Kernels
are cached by the tape's structure, not its constants, so re-parsing a
problem compiles nothing.

One runner, ``_run``, runs every kernel, over a block of points, on
Python floats whatever each point's container (an ndarray is converted
with ``tolist``, any other sequence with ``float`` per entry), so every
result is a Python float; it raises EvalError for an overflow, for a
value or tangent that is not finite, and for a ``^0`` whose base is not
finite, at the first point where a loop of one-point runs would.
``evaluate_stack`` runs the value kernel at one point, and
``evaluate_block`` at each point of a block, in one runner call;
``evaluate`` is its one-output case, so a stack gives each expression
the bits it gets alone.  ``jvp_block`` runs the one-lane kernel, seeded
with the direction, at each point of a block; its one-point, one-output
case is the directional derivative of one expression.  ``grad`` runs the
kernel with a lane per variable, seeded with the unit vectors, which
computes the value once for all of them.

Grammar (EBNF)::

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = "-" unary | power ;
    power    = atom { "^" integer } ;
    atom     = number | identifier | "(" expr ")" ;

``^`` binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.
Exponents must be non-negative integer literals.  Parentheses and unary
minus may nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

# Deepest nesting of parentheses and unary minus that ``parse`` accepts.
# Each level costs the recursive-descent parser up to five stack frames.
MAX_NESTING = 100


class ExprError(ValueError):
    """Base class for expression language errors."""


class ParseError(ExprError):
    """Syntax error, carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    """An identifier does not name a declared variable."""


class EvalError(ExprError):
    """Evaluation produced a non-finite value (e.g. division by zero)."""


# ---------------------------------------------------------------------------
# AST nodes.  Frozen: trees are immutable after parsing.

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


class _Operation:
    """Value equality, hashing and ``repr`` for the operation nodes.

    They walk the tree without recursion, so they work at any depth.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        table = {}
        return _number_subtrees(self, table) == _number_subtrees(other, table)

    def __hash__(self):
        table = {}
        _number_subtrees(self, table)
        return hash(tuple(table))

    def __repr__(self):
        return f"{type(self).__name__}({_format(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Operation):
    arg: object


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Operation):
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Operation):
    base: object
    exponent: int  # >= 0


# ---------------------------------------------------------------------------
# Tape.  Slots 0..n-1 hold the variables, the next len(consts) slots the
# constants, and operation i writes slot n + len(consts) + i.

_ADD, _SUB, _MUL, _DIV, _NEG, _POW = range(6)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}
_SYMBOL = {code: op for op, code in _BINARY.items()}


@dataclass(frozen=True)
class Tape:
    """Straight-line code for one or several expressions over ``n`` variables.

    Each operation is ``(code, a, b)``: ``a`` and ``b`` are operand slots,
    except that ``b`` is the integer exponent of a power and unused by a
    negation.  ``outs`` holds one output slot per expression.  The tape
    runs as compiled kernels, built on first use: one for the values, one
    for the values and a tangent, and one for the values and a tangent
    per variable, which gives the gradient in one run.
    """

    consts: tuple  # floats
    ops: tuple
    outs: tuple
    n: int

    @functools.cached_property
    def value_kernel(self):
        return _compile(self.ops, len(self.consts), self.outs, self.n, 0)

    @functools.cached_property
    def tangent_kernel(self):
        return _compile(self.ops, len(self.consts), self.outs, self.n, 1)

    @functools.cached_property
    def gradient_kernel(self):
        return _compile(self.ops, len(self.consts), self.outs, self.n, self.n)


def _post_order(root, leaf, combine, done=None):
    """Fold the tree at ``root`` bottom-up without recursion.

    ``leaf(node)`` gives the result for a Num or Var, ``combine(node,
    kids)`` the result for an operation from its children's results.
    Operations are visited left operand first.  Results are memoised by
    node identity in ``done``, so a shared subtree is folded once; pass
    one ``done`` to several folds to share it across trees.
    """
    done = {} if done is None else done
    stack = [(root, False)]
    push, pop = stack.append, stack.pop
    while stack:
        node, expanded = pop()
        key = id(node)
        if key in done:
            continue
        cls = node.__class__
        if cls is BinOp:
            kids = (node.left, node.right)
        elif cls is Neg:
            kids = (node.arg,)
        elif cls is Pow:
            kids = (node.base,)
        else:
            done[key] = leaf(node)
            continue
        if expanded:
            done[key] = combine(node, [done[id(kid)] for kid in kids])
        else:
            push((node, True))
            for kid in reversed(kids):
                if id(kid) not in done:
                    push((kid, False))
    return done[id(root)]


def _lower(roots, n):
    """Lower the trees at ``roots``, over ``n`` variables, to one Tape,
    left operand first, with one output slot per root.

    The lowering is value-numbered: each distinct constant, keyed by its
    bits (so 0.0 and -0.0 keep separate slots), and each distinct
    operation ``(code, operand slots, exponent)`` is written once, where
    it first occurs, and every later occurrence reads that slot.  A
    repeated operation would be the same IEEE operation on the same
    operands, so each value, tangent and error is the one the repeat
    would give, and the first operation that fails is still the first
    one in tape order.  A subtree shared by identity is looked up once.
    """
    # consts and ops map each key to its index, in order of first occurrence.
    consts, ops, done = {}, {}, {}

    def leaf(node):
        if isinstance(node, Var):
            return ("var", node.index)
        return ("const", consts.setdefault(struct.pack("<d", node.value), len(consts)))

    def combine(node, kids):
        if isinstance(node, BinOp):
            op = (_BINARY[node.op], kids[0], kids[1])
        elif isinstance(node, Neg):
            op = (_NEG, kids[0], 0)
        else:
            op = (_POW, kids[0], node.exponent)
        return ("op", ops.setdefault(op, len(ops)))

    outs = [_post_order(root, leaf, combine, done) for root in roots]
    base = {"var": 0, "const": n, "op": n + len(consts)}

    def slot(r):
        return base[r[0]] + r[1]

    tape_ops = tuple((code, slot(a), b if code in (_NEG, _POW) else slot(b))
                     for code, a, b in ops)
    return Tape(tuple(struct.unpack("<d", bits)[0] for bits in consts), tape_ops,
                tuple(slot(r) for r in outs), n)


def _number_subtrees(root, table):
    """Number each distinct subtree of ``root`` in ``table``, bottom-up.

    Subtrees equal as node dataclasses get the same number, so two trees
    numbered in one table are equal exactly when their roots are.  The
    keys of ``table``, in order, describe the tree whatever it shares.
    """

    def number(key):
        return table.setdefault(key, len(table))

    def leaf(node):
        if isinstance(node, Var):
            return number((Var, node.index, node.name))
        return number((Num, node.value))

    def combine(node, kids):
        if isinstance(node, BinOp):
            return number((BinOp, node.op, *kids))
        if isinstance(node, Pow):
            return number((Pow, node.exponent, *kids))
        return number((Neg, *kids))

    return _post_order(root, leaf, combine)


@dataclass(frozen=True, eq=False, repr=False)
class Expr:
    """A parsed expression together with its variable namespace.

    Equality, hashing and ``repr`` walk the tree without recursion, so
    they work on trees of any depth.
    """

    root: object
    variables: tuple
    tape: Tape = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tape", _lower((self.root,), len(self.variables)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        table = {}
        return (self.variables == other.variables
                and _number_subtrees(self.root, table)
                == _number_subtrees(other.root, table))

    def __hash__(self):
        table = {}
        _number_subtrees(self.root, table)
        return hash((self.variables, tuple(table)))

    def __repr__(self):
        return f"Expr({to_string(self)!r}, variables={self.variables!r})"


@dataclass(frozen=True, eq=False)
class Stack:
    """Several expressions over one namespace, lowered to one stacked tape.

    Compared by identity: a stack is a compiled form, built once and kept
    by its owner.
    """

    exprs: tuple
    variables: tuple
    tape: Tape = field(init=False, repr=False)

    def __post_init__(self):
        if any(e.variables != self.variables for e in self.exprs):
            raise ExprError(f"every stacked expression must be over {self.variables}")
        roots = tuple(e.root for e in self.exprs)
        object.__setattr__(self, "tape", _lower(roots, len(self.variables)))


# ---------------------------------------------------------------------------
# Parsing.

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, var_index):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, offset):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.nest(self.take()[2])
            node = Neg(self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[1] == "^":
            self.take()
            kind, text, off = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a non-negative integer literal", off)
            value = float(text)
            if not isfinite(value):
                raise ParseError(f"exponent {text} is out of range", off)
            if value != int(value):
                raise ParseError(f"non-integer exponent {text}", off)
            self.take()
            node = Pow(node, int(value))
        return node

    def atom(self):
        kind, text, off = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text not in self.var_index:
                raise UnknownVariableError(f"unknown identifier {text!r}", off)
            return Var(self.var_index[text], text)
        if text == "(":
            self.nest(off)
            node = self.expr()
            self.depth -= 1
            kind, text, off = self.take()
            if text != ")":
                raise ParseError("expected ')'", off)
            return node
        raise ParseError(f"unexpected token {text!r}", off)


def parse(text, variables):
    """Parse ``text`` over the ordered variable name list ``variables``."""
    variables = tuple(variables)
    if not text.strip():
        raise ParseError("empty expression", 0)
    if len(set(variables)) != len(variables):
        raise ExprError("variable names must be distinct")
    var_index = {name: i for i, name in enumerate(variables)}
    parser = _Parser(_tokenize(text), var_index)
    root = parser.expr()
    kind, tok, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", off)
    return Expr(root, variables)


# ---------------------------------------------------------------------------
# Compiled kernels and the one runner.

# Cached by tape structure: every CLI run re-parses its problem file, so a
# process that runs many of them would otherwise compile the same kernels
# again each time.  The bound is the number of distinct structures kept.
@functools.lru_cache(maxsize=256)
def _compile(ops, nconst, outs, n, lanes):
    """Compile tape operations to one straight-line Python function.

    The function is ``kernel(x, d, c)``: ``x`` holds the ``n`` variables,
    ``d`` holds ``lanes`` seed vectors and ``c`` the ``nconst``
    constants, which are passed in rather than written into the source
    (``1e400`` has no literal).  It returns ``(values, tangents)``: the
    value of each slot of ``outs``, and in one flat tuple, lane by lane,
    the tangent of each slot seeded with that lane's vector.  Tangents
    follow the dual-number rules: (a*b)' = a*b' + a'*b,
    (a/b)' = (a' - q*b')/b with q = a/b, (a^k)' = k*a^(k-1)*a', and
    a^0 = (1, 0), which raises EvalError if a is not finite, so that an
    overflow cannot hide behind it.  Each statement is one operation, in
    tape order, so the kernel does the same arithmetic whatever the
    constants are, and each lane does the arithmetic of a one-lane kernel
    with its seed.
    """
    lines = []

    def unpack(first, count, prefix, source):
        if count:
            names = "".join(f"{prefix}{i}, " for i in range(first, first + count))
            lines.append(f"{names}= {source}")

    unpack(0, n, "v", "x")
    unpack(n, nconst, "v", "c")
    tangents = [f"t{lane}_" for lane in range(lanes)]  # name prefix of each lane
    for lane, t in enumerate(tangents):
        unpack(0, n, t, f"d[{lane}]")
        lines.extend(f"{t}{i} = 0.0" for i in range(n, n + nconst))
    for s, (code, a, b) in enumerate(ops, start=n + nconst):
        if code == _POW and b == 0:
            lines += [f"if not isfinite(v{a}): raise EvalError('non-finite base of ^0')",
                      f"v{s} = 1.0", *(f"{t}{s} = 0.0" for t in tangents)]
            continue
        if code == _DIV:
            lines.append(f"if v{b} == 0.0: raise EvalError('division by zero')")
        lines.append(f"v{s} = " + (f"-v{a}" if code == _NEG else
                                   f"v{a} ** {b}" if code == _POW else
                                   f"v{a} {_SYMBOL[code]} v{b}"))
        for t in tangents:
            if code == _MUL:
                lines.append(f"{t}{s} = v{a} * {t}{b} + {t}{a} * v{b}")
            elif code == _DIV:
                lines.append(f"{t}{s} = ({t}{a} - v{s} * {t}{b}) / v{b}")
            elif code == _NEG:
                lines.append(f"{t}{s} = -{t}{a}")
            elif code == _POW:
                lines.append(f"{t}{s} = {b} * v{a} ** {b - 1} * {t}{a}")
            else:
                lines.append(f"{t}{s} = {t}{a} {_SYMBOL[code]} {t}{b}")

    def row(prefixes):
        return "(" + "".join(f"{p}{i}, " for p in prefixes for i in outs) + ")"

    lines.append(f"return {row(['v'])}, {row(tangents)}")
    source = "def kernel(x, d, c):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"EvalError": EvalError, "isfinite": isfinite}
    exec(compile(source, "<tape kernel>", "exec"), namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=32)
def _unit_vectors(n):
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def _point(e, x):
    """``x`` as a list of Python floats, so no kernel runs on NumPy scalars
    or ints: an ndarray by ``tolist``, much cheaper than ``float`` per
    entry, and any other sequence by ``float`` per entry."""
    if len(x) != len(e.variables):
        raise ExprError(f"expected {len(e.variables)} coordinates, got {len(x)}")
    if isinstance(x, np.ndarray):
        return x.astype(float, copy=False).tolist()
    return [*map(float, x)]


def _run(e, kernel, points, seeds=()):
    """``(values, tangents)`` at each of ``points`` from runs of ``kernel``,
    a kernel of the tape of ``e`` (an Expr or a Stack), with the tangent
    ``seeds``.

    Every public runner is a case of this one, the one-point runners with
    a block of one point: an overflow, or a value or tangent that is not
    finite, raises EvalError.  The points run in order and each is checked
    before the next one runs, so a block raises the error that a loop of
    one-point runs raises, at the same first failing point.
    """
    consts = e.tape.consts
    rows = []
    for x in points:
        try:
            values, tangents = kernel(_point(e, x), seeds, consts)
        except OverflowError as exc:
            raise EvalError(f"overflow: {exc.args[-1]}") from exc
        for value in values + tangents:
            if not isfinite(value):
                raise EvalError("non-finite value in derivative sweep" if seeds else
                                f"non-finite value {value!r}")
        rows.append((values, tangents))
    return rows


def evaluate(e, x):
    """The value of the expression at the point ``x`` (a sequence of
    floats), as a Python float."""
    [(values, _)] = _run(e, e.tape.value_kernel, (x,))
    return values[0]


def evaluate_stack(s, x):
    """Every expression of the Stack ``s`` at ``x``, from one kernel run.

    A tuple equal, bit for bit, to ``evaluate`` of each expression at
    ``x``; it raises EvalError if any of them would.
    """
    [(values, _)] = _run(s, s.tape.value_kernel, (x,))
    return values


def evaluate_block(s, points):
    """``evaluate_stack`` of the Stack ``s`` at each of ``points``, from one
    runner call; it raises the first error that the loop of
    ``evaluate_stack`` calls would."""
    return [values for values, _ in _run(s, s.tape.value_kernel, points)]


def grad(e, x):
    """Gradient at ``x``: one run of the kernel with a tangent lane per
    unit vector."""
    [(_, tangents)] = _run(e, e.tape.gradient_kernel, (x,),
                           _unit_vectors(len(e.variables)))
    return list(tangents)


def jvp_block(s, points, u):
    """Directional derivatives along ``u`` of every expression of the Stack
    ``s`` (or of one Expr) at each of ``points``, from one runner call with
    ``u`` converted once: each row has the bits of each expression's run
    alone, and it raises the first EvalError that one point at a time would."""
    return [tangents for _, tangents
            in _run(s, s.tape.tangent_kernel, points, (_point(s, u),))]


# ---------------------------------------------------------------------------
# Printing and substitution.

def to_string(e):
    """Canonical fully parenthesized printout; re-parses to the same tree
    unless it nests deeper than MAX_NESTING."""
    return _format(e.root)


def _format(root):
    def leaf(node):
        return repr(node.value) if isinstance(node, Num) else node.name

    def combine(node, kids):
        if isinstance(node, Neg):
            return f"(-{kids[0]})"
        if isinstance(node, Pow):
            return f"({kids[0]}^{node.exponent})"
        return f"({kids[0]} {node.op} {kids[1]})"

    return _post_order(root, leaf, combine)


def substitute(e, replacements, variables):
    """Replace variables of ``e`` by sub-expressions over a new namespace.

    ``replacements`` maps a variable index of ``e`` to the root node of an
    expression already parsed over ``variables``; unmapped variables must
    exist (same name, any index) in the new namespace.  Every occurrence
    shares the one replacement node, so the result's tape computes each
    replacement once.
    """
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}

    def leaf(node):
        if isinstance(node, Var):
            if node.index in replacements:
                return replacements[node.index]
            return Var(index[node.name], node.name)
        return node

    def combine(node, kids):
        if isinstance(node, Neg):
            return Neg(kids[0])
        if isinstance(node, Pow):
            return Pow(kids[0], node.exponent)
        return BinOp(node.op, kids[0], kids[1])

    return Expr(_post_order(e.root, leaf, combine), variables)
