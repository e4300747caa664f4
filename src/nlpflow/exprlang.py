"""Scalar expression language with exact forward-mode derivatives.

Expressions are polynomial-style formulas over named variables:
literals, identifiers, ``+ - * /``, unary minus, integer powers via
``^`` and parentheses.

Every :class:`Expr` is lowered once, when it is built, to a flat
:class:`Tape`: a straight-line list of operations over numbered slots
(Griewank & Walther, *Evaluating Derivatives*, ch. 3).  Subtrees shared
by identity, such as the elimination map that ``substitute`` splices into
every occurrence of an eliminated variable, are lowered once.  Two loops
run over the tape: one for values only (``evaluate``) and one carrying a
value and one tangent, a directional derivative.  ``jvp`` runs the
tangent loop once, seeded with the direction; ``grad`` runs it once per
variable, seeded with each unit vector.

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

import math
import re
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int  # >= 0


# ---------------------------------------------------------------------------
# Tape.  Slots 0..n-1 hold the variables, the next len(consts) slots the
# constants, and operation i writes slot n + len(consts) + i.

_ADD, _SUB, _MUL, _DIV, _NEG, _POW = range(6)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}


@dataclass(frozen=True)
class Tape:
    """Straight-line code for one expression.

    Each operation is ``(code, a, b)``: ``a`` and ``b`` are operand slots,
    except that ``b`` is the integer exponent of a power and unused by a
    negation.
    """

    consts: tuple  # floats
    ops: tuple
    out: int  # slot holding the result


def _lower(root, n):
    """Lower the tree at ``root`` to a Tape, left operand first.

    Iterative post-order walk, memoised by node identity.
    """
    consts, ops = [], []
    ref = {}  # id(node) -> ("var" | "const" | "op", index)
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in ref:
            stack.pop()
            continue
        if isinstance(node, Var):
            ref[id(node)] = ("var", node.index)
        elif isinstance(node, Num):
            ref[id(node)] = ("const", len(consts))
            consts.append(float(node.value))
        else:
            if isinstance(node, BinOp):
                kids = (node.left, node.right)
            else:
                kids = (node.arg,) if isinstance(node, Neg) else (node.base,)
            pending = [k for k in kids if id(k) not in ref]
            if pending:
                stack.extend(reversed(pending))
                continue
            if isinstance(node, BinOp):
                ops.append((_BINARY[node.op], ref[id(node.left)], ref[id(node.right)]))
            elif isinstance(node, Neg):
                ops.append((_NEG, ref[id(node.arg)], 0))
            else:
                ops.append((_POW, ref[id(node.base)], node.exponent))
            ref[id(node)] = ("op", len(ops) - 1)
        stack.pop()

    base = {"var": 0, "const": n, "op": n + len(consts)}

    def slot(r):
        return base[r[0]] + r[1]

    tape_ops = tuple((code, slot(a), b if code in (_NEG, _POW) else slot(b))
                     for code, a, b in ops)
    return Tape(tuple(consts), tape_ops, slot(ref[id(root)]))


@dataclass(frozen=True)
class Expr:
    """A parsed expression together with its variable namespace."""

    root: object
    variables: tuple
    tape: Tape = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tape", _lower(self.root, len(self.variables)))


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
            if not math.isfinite(value):
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
# The two tape loops.

def _values(tape, v):
    """Run the tape on slot list ``v`` (variables then constants)."""
    for code, a, b in tape.ops:
        if code == _MUL:
            v.append(v[a] * v[b])
        elif code == _ADD:
            v.append(v[a] + v[b])
        elif code == _SUB:
            v.append(v[a] - v[b])
        elif code == _POW:
            v.append(v[a] ** b)
        elif code == _NEG:
            v.append(-v[a])
        else:
            den = v[b]
            if den == 0.0:
                raise EvalError("division by zero")
            v.append(v[a] / den)
    return v[tape.out]


def _tangent(tape, v, d):
    """Run the tape on values ``v`` and tangents ``d``; return both results.

    The rules are the dual-number ones: (a*b)' = a*b' + a'*b,
    (a/b)' = (a' - q*b')/b with q = a/b, (a^k)' = k*a^(k-1)*a', and
    a^0 = (1, 0).
    """
    for code, a, b in tape.ops:
        if code == _MUL:
            va, vb = v[a], v[b]
            v.append(va * vb)
            d.append(va * d[b] + d[a] * vb)
        elif code == _ADD:
            v.append(v[a] + v[b])
            d.append(d[a] + d[b])
        elif code == _SUB:
            v.append(v[a] - v[b])
            d.append(d[a] - d[b])
        elif code == _POW:
            if b == 0:
                v.append(1.0)
                d.append(0.0)
            else:
                va = v[a]
                v.append(va ** b)
                d.append(b * va ** (b - 1) * d[a])
        elif code == _NEG:
            v.append(-v[a])
            d.append(-d[a])
        else:
            vb = v[b]
            if vb == 0.0:
                raise EvalError("division by zero")
            q = v[a] / vb
            v.append(q)
            d.append((d[a] - q * d[b]) / vb)
    return v[tape.out], d[tape.out]


def _check_length(e, x):
    if len(x) != len(e.variables):
        raise ExprError(f"expected {len(e.variables)} coordinates, got {len(x)}")


def evaluate(e, x):
    """Evaluate the expression at the point ``x`` (indexable of floats)."""
    _check_length(e, x)
    try:
        value = _values(e.tape, [*x, *e.tape.consts])
    except OverflowError as exc:
        raise EvalError(f"overflow: {exc.args[-1]}") from exc
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value!r}")
    return value


def _sweep(tape, v, d):
    """One tangent sweep, checked: the tangent of the result."""
    try:
        val, dot = _tangent(tape, v, d)
    except OverflowError as exc:
        raise EvalError(f"overflow: {exc.args[-1]}") from exc
    if not (math.isfinite(val) and math.isfinite(dot)):
        raise EvalError("non-finite value in derivative sweep")
    return dot


def grad(e, x):
    """Gradient at ``x``: one tangent sweep per unit vector."""
    _check_length(e, x)
    tape = e.tape
    v = [*map(float, x), *tape.consts]
    out = []
    for i in range(len(x)):
        d = [0.0] * len(v)
        d[i] = 1.0
        out.append(_sweep(tape, v[:], d))
    return out


def jvp(e, x, u):
    """Directional derivative of the expression at ``x`` along ``u``.

    One tangent sweep seeded with ``u``; equal to ``grad(e, x) @ u`` up to
    rounding, at about the cost of one of grad's sweeps.
    """
    _check_length(e, x)
    _check_length(e, u)
    tape = e.tape
    return _sweep(tape, [*map(float, x), *tape.consts],
                  [*map(float, u), *[0.0] * len(tape.consts)])


# ---------------------------------------------------------------------------
# Printing and substitution.

def to_string(e):
    """Canonical fully parenthesized printout; re-parses to the same tree."""
    return _print_node(e.root)


def _print_node(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_print_node(node.arg)})"
    if isinstance(node, Pow):
        return f"({_print_node(node.base)}^{node.exponent})"
    return f"({_print_node(node.left)} {node.op} {_print_node(node.right)})"


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

    def walk(node):
        if isinstance(node, Var):
            if node.index in replacements:
                return replacements[node.index]
            return Var(index[node.name], node.name)
        if isinstance(node, Neg):
            return Neg(walk(node.arg))
        if isinstance(node, Pow):
            return Pow(walk(node.base), node.exponent)
        if isinstance(node, BinOp):
            return BinOp(node.op, walk(node.left), walk(node.right))
        return node

    return Expr(walk(e.root), variables)
