"""Scalar expression language with exact forward-mode derivatives.

Expressions are polynomial-style formulas over named variables:
literals, identifiers, ``+ - * /``, unary minus, integer powers via
``^`` and parentheses.

Every :class:`Expr` is lowered once, when a kernel first runs it, to a
flat :class:`Tape`: a straight-line list of operations over numbered
slots (Griewank & Walther, *Evaluating Derivatives*, ch. 3), with one
output slot.  A :class:`Stack` lowers several expressions over the same
variables to one tape with an output slot each, on first use too, from
their trees: an expression that only ever runs in stacks, as most of a
problem's do, is never lowered alone.  Each runner reads the tape once
per run, as a plain instance attribute after the first.  The lowering is
value-numbered, the common-subexpression step of tape-based AD: each
distinct constant (by its bits) and each distinct operation on the same
operand slots is written once, whether the repeat is a subtree shared by
identity, such as the elimination map that ``substitute`` splices into
every occurrence of an eliminated variable, or an equal one, such as the
``x1^2`` that an objective and each constraint spell out for themselves.
On first use a tape is compiled to straight-line Python kernels, one
statement per operation, which give every output's value and, in each
tangent lane, its directional derivative along the lane's seed.  A power
``a^k`` is the binary-method multiplication chain (Knuth, TAOCP vol. 2,
4.6.3), one statement per multiplication, and so is the ``a^(k-1)`` of
its tangent: its bits depend on no libm.  The ray kernel is univariate
Taylor mode (Griewank & Walther, ch. 13), in which c_1 is the tangent:
it is the kernel with one lane, seeded with a direction u, and after
each operation's value and tangent it writes c_2..c_RAY_DEGREE along
the ray x + t*u, one statement per coefficient up to the slot's degree.
One writer, ``_compile``, writes every kernel, and caches it by the
tape's structure, not its constants, so a tape lowered again, from an
edited problem or a stack of the same structure, compiles nothing.

Each kernel's source is compiled once and defined for two runners.
``_run`` runs it at one point on Python floats, whatever the point's
container (an ndarray is converted with ``tolist``, any other sequence
with ``float`` per entry), so every result is a Python float; it raises
EvalError for a zero divisor, for a power that overflows from a finite
base, for a ``^0`` whose base is not finite and for a value that is not
finite, and in a gradient for a tangent that is not finite; the ray
kernel's coefficients above c_0 come back as they are.  ``_columns`` runs it once
on NumPy columns, one array per slot, for a block of at least
``COLUMNS_FROM`` points: the same IEEE operations, so each point gets the
same bits.  A column run cannot
raise at a point, so it gives up on the whole block, which then runs by
rows, at a non-finite input, constant or seed, at any floating-point
exception but underflow, and at a failed check.

``evaluate_stack`` runs the value kernel at one point; ``evaluate`` is
its one-output case, so a stack gives each expression the bits it gets
alone.  ``grad`` runs the kernel with a lane per variable, seeded with
the unit vectors, which computes the value once for all of them.
``ray_polynomials`` runs the ray kernel: the solver's one run per iterate
along the Euler ray.  ``evaluate_columns`` and ``gradient_columns`` are
the column runs of the value and the gradient kernel, as arrays, for the
callers with wide blocks (the sampler, ``reduce``'s check and the field's
inputs), which run the block by rows themselves where the column run
gives up.  No caller runs the ray kernel on a block.

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
from collections import namedtuple
from dataclasses import dataclass
from math import isfinite, isinf

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
    runs as kernels that ``_compile`` writes on first use: the value kernel;
    the gradient kernel, with a tangent lane per variable, which gives the
    gradient in one run; and the ray kernel, with one lane and the Taylor
    coefficients c_0..c_RAY_DEGREE of each output along a ray.  Each is a
    ``_Kernel``: its row and its column function.
    """

    consts: tuple  # floats
    ops: tuple
    outs: tuple
    n: int

    @functools.cached_property
    def value_kernel(self):
        return _compile(self.ops, len(self.consts), self.outs, self.n, 0)

    @functools.cached_property
    def gradient_kernel(self):
        return _compile(self.ops, len(self.consts), self.outs, self.n, self.n)

    @functools.cached_property
    def ray_kernel(self):
        return _compile(self.ops, len(self.consts), self.outs, self.n, 1, RAY_DEGREE)


def _post_order(root, leaf, combine, done=None):
    """Fold the tree at ``root`` bottom-up without recursion.

    ``leaf(node)`` gives the result for a Num or Var, ``combine(node,
    kids)`` the result for an operation from its children's results.
    Operations are visited left operand first.  Results are memoised by
    node identity in ``done``, so a shared subtree is folded once; pass
    one ``done`` to several folds to share it across trees.

    The work stack holds nodes only.  An operation whose children are not
    all folded goes back on it under the ones still to fold, the left one
    on top, and is combined when it comes off again.
    """
    done = {} if done is None else done
    get = done.get
    stack = [root]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        key = id(node)
        if key in done:
            continue
        cls = node.__class__
        if cls is BinOp:
            left, right = node.left, node.right
            a = get(id(left), _PENDING)
            b = get(id(right), _PENDING)
            if a is _PENDING or b is _PENDING:
                push(node)
                if b is _PENDING:
                    push(right)
                if a is _PENDING:
                    push(left)
                continue
            done[key] = combine(node, (a, b))
        elif cls is Neg or cls is Pow:
            kid = node.arg if cls is Neg else node.base
            a = get(id(kid), _PENDING)
            if a is _PENDING:
                push(node)
                push(kid)
                continue
            done[key] = combine(node, (a,))
        else:
            done[key] = leaf(node)
    return done[id(root)]


# A child of ``_post_order`` whose result is not in ``done`` yet: a result
# may be any object, None included.
_PENDING = object()


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
    # An operand is numbered while the constants are still being counted:
    # variable i is i, constant j is ~j (negative) and operation i is n + i.
    consts, ops, done = {}, {}, {}

    def leaf(node):
        if node.__class__ is Var:
            return node.index
        return ~consts.setdefault(struct.pack("<d", node.value), len(consts))

    def combine(node, kids):
        cls = node.__class__
        if cls is BinOp:
            op = (_BINARY[node.op], *kids)
        elif cls is Neg:
            op = (_NEG, kids[0], 0)
        else:
            op = (_POW, kids[0], node.exponent)
        return n + ops.setdefault(op, len(ops))

    outs = [_post_order(root, leaf, combine, done) for root in roots]

    def slot(r):
        if r < 0:
            return n + ~r
        return r + len(consts) if r >= n else r

    tape_ops = tuple((code, slot(a), b if code in (_NEG, _POW) else slot(b))
                     for code, a, b in ops)
    return Tape(tuple(struct.unpack("<d", bits)[0] for bits in consts), tape_ops,
                tuple(map(slot, outs)), n)


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

    Its ``tape`` is lowered from the tree when a kernel first runs the
    expression, not when it is built.  Equality, hashing and ``repr``
    walk the tree without recursion, so they work on trees of any depth.
    """

    root: object
    variables: tuple

    @functools.cached_property
    def tape(self):
        """The tree lowered to a Tape, on first use; a plain instance
        attribute from then on."""
        return _lower((self.root,), len(self.variables))

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
    """Several expressions over one namespace, lowered to one stacked tape
    on first use.

    Compared by identity: a stack is a compiled form, built once and kept
    by its owner.
    """

    exprs: tuple
    variables: tuple

    def __post_init__(self):
        if any(e.variables != self.variables for e in self.exprs):
            raise ExprError(f"every stacked expression must be over {self.variables}")

    @functools.cached_property
    def tape(self):
        """Every member's tree lowered to one Tape, on first use; the
        members' own tapes are neither read nor built."""
        return _lower(tuple(e.root for e in self.exprs), len(self.variables))


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
        if kind == "end":
            raise ParseError("unexpected end of expression", off)
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
# Compiled kernels and their two runners.

# Blocks of at least this many points run on NumPy columns, smaller ones
# point by point on Python floats: the expression kernels here and the
# field kernel in ``nlpflow.field``.  The runners give the same bits, so
# this moves only time.  Measured on p41 and p42, reduced and full (2-core
# x86-64 host, in-process ``timeit``), a column run costs about the same
# whatever the block's size, and the runners cross at: 20 to 37 points for
# the constraint stacks' value kernels (0.9 to 1.1 us a point by rows, 18
# to 35 us a column run), 26 to 48 for the field stacks' gradient kernels
# (2.4 to 5.6 us a point, 58 to 216 us a run), and 6 to 15 rows for a
# field block's inputs, which take 10 to 15 us a row by rows; the field
# kernel itself crosses between 20 and 30 rows (a row 10 to 20 us, a
# column run 200 to 700 us).  At 93 rows, criterion 7's portrait, the
# field kernel's columns take a third of its rows' time.
COLUMNS_FROM = 24

# The error of a power that overflows from a finite base: the text of
# Python's ``**`` on floats.
_OVERFLOW = "overflow: Numerical result out of range"


class _Chain:
    """The powers of one base by the binary method (Knuth, TAOCP vol. 2,
    4.6.3): squares, and the products of the squares that an exponent's
    bits select, low bits first, one statement per multiplication.

    A product is written once, under its exponent: two chains that reach
    an exponent reach it by the same multiplications, so ``a^k`` and the
    tangent's ``a^(k-1)`` share what they have in common.  ``multiply(name,
    a, b)`` writes one product under ``name`` and returns what stands for
    it: by default the one statement ``name = a * b``; the ray kernel's
    chains multiply truncated series instead (``_Series.product``), whose
    c_0 are the value chain's products, by name.
    """

    def __init__(self, lines, base, prefix, multiply=None):
        self.lines, self.prefix, self.names = lines, prefix, {1: base}
        self.multiply = multiply or self._times

    def _times(self, name, a, b):
        self.lines.append(f"{name} = {a} * {b}")
        return name

    def product(self, i, j):
        if i + j not in self.names:
            self.names[i + j] = self.multiply(f"{self.prefix}{i + j}", self.names[i],
                                              self.names[j])
        return i + j

    def __call__(self, k):
        """The name of the base to the power k >= 1."""
        result, square = None, 1
        while k:
            if k & 1:
                result = square if result is None else self.product(result, square)
            k >>= 1
            if k:
                square = self.product(square, square)
        return self.names[result]


# Cached by tape structure, not by tape: ``io.load_problem`` keeps the
# tapes of a text it has loaded, but an edited file is parsed again, and
# distinct stacks of equal structure lower to distinct tapes; each gets the
# kernels already compiled for its structure.  The bound is the number of
# distinct structures kept.
@functools.lru_cache(maxsize=256)
def _compile(ops, nconst, outs, n, lanes, degree=0):
    """Compile tape operations to straight-line Python, once, and define it
    for both runners: a ``_Kernel`` of the row and the column function.
    Every kernel of a tape is one of its cases: the value kernel has no
    tangent lane, the gradient kernel a lane per variable and the ray
    kernel one lane and a ``degree``.

    Each function is ``kernel(x, d, c)``: ``x`` holds the ``n`` variables,
    ``d`` holds ``lanes`` seed vectors and ``c`` the ``nconst`` constants,
    which are passed in rather than written into the source (``1e400`` has
    no literal).  It returns ``(values, tangents)``: the value of each slot
    of ``outs``, and in one flat tuple, lane by lane, the tangent of each
    slot seeded with that lane's vector.  Tangents follow the dual-number
    rules: (a*b)' = a*b' + a'*b, (a/b)' = (a' - q*b')/b with q = a/b,
    (a^k)' = k*a^(k-1)*a', and a^0 = (1, 0).

    With a ``degree`` D >= 1 and one lane, seeded with a direction u, the
    value and the tangent of each slot are c_0 and c_1 of its Taylor series
    along x + t*u (Griewank & Walther, ch. 13), and ``_Series`` writes
    c_2..c_D after each operation.  The second tuple then holds c_1..c_D of
    each output in turn: its tangent, whatever its degree, then c_2..c_D,
    an exact 0.0 above its degree.

    A power ``a^k`` is the binary-method chain of ``_Chain``, and so is the
    tangent's ``a^(k-1)``: the same multiplications on Python floats and on
    NumPy arrays, where ``**`` would call libm's ``pow`` on floats and
    multiply on arrays, with other bits.  A chain that gives an infinity
    from a finite base raises the EvalError of an overflow, and ``a^0``
    raises one if a is not finite, so that an overflow cannot hide behind
    it.  A zero divisor raises ZeroDivisionError on Python floats.  Each
    statement is one operation, in tape order, so the kernel does the same
    arithmetic whatever the constants are, and each lane does the
    arithmetic of a one-lane kernel with its seed.
    """
    lines = _unpack(0, n, "v", "x") + _unpack(n, nconst, "v", "c")
    tangents = [f"t{lane}_" for lane in range(lanes)]  # name prefix of each lane
    for lane, t in enumerate(tangents):
        lines += _unpack(0, n, t, f"d[{lane}]")
        lines.extend(f"{t}{i} = 0.0" for i in range(n, n + nconst))
    series = _Series(lines, n, nconst, degree) if degree else None
    for s, (code, a, b) in enumerate(ops, start=n + nconst):
        if code == _POW and b == 0:
            lines += [f"if not isfinite(v{a}): raise EvalError('non-finite base of ^0')",
                      f"v{s} = one"]
            lines.extend(f"{t}{s} = 0.0" for t in tangents)
        elif code == _POW:
            chain = _Chain(lines, f"v{a}", f"p{s}_")
            lines.append(f"v{s} = {chain(b)}")
            if b > 1:
                lines.append(f"if isinf(v{s}) and isfinite(v{a}): raise EvalError({_OVERFLOW!r})")
            slope = f"{float(b)!r} * {chain(b - 1)} * " if b > 1 and tangents else ""
            lines.extend(f"{t}{s} = {slope}{t}{a}" for t in tangents)
        else:
            lines.append(f"v{s} = " + (f"-v{a}" if code == _NEG else
                                       f"v{a} {_SYMBOL[code]} v{b}"))
            for t in tangents:
                if code == _MUL:
                    lines.append(f"{t}{s} = v{a} * {t}{b} + {t}{a} * v{b}")
                elif code == _DIV:
                    lines.append(f"{t}{s} = ({t}{a} - v{s} * {t}{b}) / v{b}")
                elif code == _NEG:
                    lines.append(f"{t}{s} = -{t}{a}")
                else:
                    lines.append(f"{t}{s} = {t}{a} {_SYMBOL[code]} {t}{b}")
        if series:
            series.write(s, code, a, b)
    derivatives = series.coefficients(outs) if series else [f"{t}{i}" for t in tangents
                                                            for i in outs]
    lines.append(f"return {_row(f'v{i}' for i in outs)}, {_row(derivatives)}")
    source = "def kernel(x, d, c):\n" + "".join(f"    {line}\n" for line in lines)
    code = compile(source, "<tape kernel>", "exec")
    return _Kernel(_define(code, _ROW_HELPERS), _define(code, _COLUMN_HELPERS))


def _unpack(first, count, prefix, source):
    """The statement that unpacks ``source`` into ``count`` names from ``first`` on."""
    if not count:
        return []
    return ["".join(f"{prefix}{i}, " for i in range(first, first + count)) + f"= {source}"]


def _row(names):
    return "(" + "".join(f"{name}, " for name in names) + ")"


# The highest Taylor coefficient that a ray kernel computes: the series of a
# tape of higher degree, or with a variable divisor, is truncated there.
RAY_DEGREE = 4


class _Series:
    """Writes the ray kernel's Taylor coefficients c_2..c_D of each slot
    along the ray x + t*u (Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., ch. 13), one statement per coefficient of an operation, after the
    statements of ``_compile`` that write the slot's value ``v{s}`` and
    tangent ``t0_{s}``: they are its c_0 and c_1, read here by name.

    It is the only code that knows degrees.  A slot's series is the list of
    the names of its coefficients up to its polynomial degree, capped at D:
    a variable has degree 1 and a constant 0, a sum the larger degree of
    its operands, a product their sum and ``a^k`` k times a's.  A divisor
    of degree 0 divides each coefficient; a variable divisor makes the
    quotient a series division truncated at D.
    A coefficient above a slot's degree is an exact zero, which is never
    written, and a sum's coefficient that one operand alone has is that
    operand's, by name.  A product is a Cauchy product, and ``a^k`` the
    ``_Chain`` of Cauchy products whose c_0 are the value chain's products;
    each of them but the last, whose c_1 is the tangent, gets its c_1 here.
    """

    def __init__(self, lines, n, nconst, D):
        self.lines, self.D = lines, D
        self.series = [[f"v{i}", f"t0_{i}"] for i in range(n)]
        self.series += ([f"v{i}"] for i in range(n, n + nconst))

    def _write(self, name, k, expression):
        """Write coefficient k >= 1 of the series ``name``; returns its name."""
        self.lines.append(f"{name}_{k} = {expression}")
        return f"{name}_{k}"

    def product(self, name, a, b, c1=None):
        """The Cauchy product of the series ``a`` and ``b``, truncated at D:
        its c_0 is ``name``, and its c_1 ``c1`` if given, both written by
        ``_compile``; the other coefficients are written here."""
        def coefficient(k):
            return " + ".join(f"{a[i]} * {b[k - i]}"
                              for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))))

        return [name, *(c1 if k == 1 and c1 else self._write(name, k, coefficient(k))
                        for k in range(1, min(len(a) + len(b) - 1, self.D + 1)))]

    def write(self, s, code, a, b):
        """Write c_2..c_D of slot ``s``, the operation ``(code, a, b)``, and
        keep its series."""
        A, name, tangent = self.series[a], f"v{s}", f"t0_{s}"
        B = self.series[b] if code not in (_NEG, _POW) else None
        head = [name, tangent]  # c_0 and c_1
        if code == _POW:
            def multiply(p, x, y):
                return self.product(p, x, y, tangent if p == f"p{s}_{b}" else None)

            power = _Chain(self.lines, A, f"p{s}_", multiply)(b) if b else head[:1]
            out = head[:len(power)] + power[2:]
        elif code == _NEG:
            out = head[:len(A)] + [self._write(name, k, f"-{A[k]}") for k in range(2, len(A))]
        elif code == _MUL:
            out = self.product(name, A, B, tangent)
        elif code == _DIV and len(B) == 1:
            out = head[:len(A)] + [self._write(name, k, f"{A[k]} / {B[0]}")
                                   for k in range(2, len(A))]
        elif code == _DIV:
            # q_k = (a_k - q_(k-1) b_1 - ... - q_0 b_k) / b_0, truncated at D.
            out = head
            for k in range(2, self.D + 1):
                terms = "".join(f" - {out[k - j]} * {B[j]}" for j in range(1, min(k + 1, len(B))))
                out.append(self._write(name, k, f"({A[k] if k < len(A) else ''}{terms}) / {B[0]}"))
        else:
            symbol = _SYMBOL[code]
            out = head[:max(len(A), len(B))] + [
                self._write(name, k, f"{A[k]} {symbol} {B[k]}") if k < len(B) else A[k]
                for k in range(2, len(A))]
            # The coefficients that b alone has: b's own, negated for a difference.
            out += [B[k] if code == _ADD else self._write(name, k, f"-{B[k]}")
                    for k in range(max(2, len(A)), len(B))]
        self.series.append(out)

    def coefficients(self, outs):
        """The names of c_1..c_D of each of ``outs`` in turn: its tangent
        ``t0_{s}`` at every degree, 0 included, then c_2..c_D, 0.0 above its
        degree."""
        return [c for s in outs
                for c in [f"t0_{s}", *(self.series[s] + ["0.0"] * self.D)[2:self.D + 1]]]


# The kernels' helpers, for Python floats and for NumPy columns: ``isinf``
# holds if any entry is infinite, ``isfinite`` if every entry is finite,
# and ``one`` is a^0.  On columns it is a NumPy float, as the constants and
# the seeds are there, so that every value of a column run is NumPy's and
# each operation on values runs under NumPy's floating-point checks.
_ROW_HELPERS = {"isinf": isinf, "isfinite": isfinite, "one": 1.0}
_COLUMN_HELPERS = {"isinf": lambda v: bool(np.isinf(v).any()),
                   "isfinite": lambda v: bool(np.isfinite(v).all()), "one": np.float64(1.0)}
_Kernel = namedtuple("_Kernel", "rows columns")


def _define(code, helpers):
    namespace = {"EvalError": EvalError, **helpers}
    exec(code, namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=32)
def _unit_vectors(n):
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def _point(n, x):
    """``x``, a point or a direction of ``n`` coordinates, as a list of
    Python floats, so no kernel runs on NumPy scalars or ints: an ndarray by
    ``tolist``, much cheaper than ``float`` per entry, and any other
    sequence by ``float`` per entry.  An entry too large for a float (the
    int ``10**400``) is an overflow, the only one: on floats ``+ - * /``
    give an infinity, and a power is a chain of products."""
    if len(x) != n:
        raise ExprError(f"expected {n} coordinates, got {len(x)}")
    try:
        if isinstance(x, np.ndarray):
            return x.astype(float, copy=False).tolist()
        return [*map(float, x)]
    except OverflowError as exc:
        raise EvalError(f"overflow: {exc.args[-1]}") from exc


def _run(tape, kernel, x, seeds=(), sweep=False):
    """``(values, tangents)`` at the point ``x`` from a row run of
    ``kernel``, a kernel of ``tape``, with the tangent ``seeds``.

    Every public runner is a case of this one or falls back to it: a
    coordinate too large for a float, a zero divisor, or a value that is
    not finite, raises EvalError.  With ``sweep`` (a derivative sweep), so
    does a tangent that is not finite, and a value or tangent that is not
    finite raises the sweep's error; without, the tangents are returned as
    they are.
    """
    try:
        values, tangents = kernel.rows(_point(tape.n, x), seeds, tape.consts)
    except ZeroDivisionError:
        raise EvalError("division by zero") from None
    for value in values + tangents if sweep else values:
        if not isfinite(value):
            raise EvalError("non-finite value in derivative sweep" if sweep else
                            f"non-finite value {value!r}")
    return values, tangents


def _columns(s, points, seeds=()):
    """The outputs of the value kernel of the Stack ``s``, or with tangent
    ``seeds`` of its gradient kernel, at each of ``points``, from one run on
    NumPy columns: an array of one row per value, then per tangent, lane by
    lane, with a column per point.  Or None, where the block runs row by
    row: below COLUMNS_FROM points, before the tape is read or lowered, or
    where the column run cannot vouch for every point.

    The run makes the row runs' IEEE operations on one array per slot, so
    a point gets the bits that a row run gives it.  The rows raise an
    error at a point; a column run cannot, so it gives up on the block
    instead: at a point, a constant or a seed entry that is not finite, at
    any floating-point exception (an overflow, a zero divisor, an invalid
    operation; not an underflow) and at any check of the kernel that
    fails.  From finite operands only such an exception gives a value that
    is not finite, so a run that ends has no bad divisor, no non-finite
    ``^0`` base and no non-finite output; the outputs are checked anyway.
    """
    N = len(points)
    if N < COLUMNS_FROM:
        return None
    tape = s.tape
    kernel = tape.gradient_kernel if seeds else tape.value_kernel
    try:
        X = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        return None
    consts = np.array(tape.consts, dtype=float)
    seeds = np.array(seeds, dtype=float)
    if (X.shape != (N, tape.n) or not np.isfinite(X).all()
            or not np.isfinite(consts).all() or not np.isfinite(seeds).all()):
        return None
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        try:
            values, tangents = kernel.columns(np.ascontiguousarray(X.T), tuple(map(tuple, seeds)),
                                              tuple(consts))
        except (ArithmeticError, EvalError):
            return None
    out = np.empty((len(values) + len(tangents), N))
    for i, column in enumerate(values + tangents):
        out[i] = column
    return out if np.isfinite(out).all() else None


def evaluate(e, x):
    """The value of the expression at the point ``x`` (a sequence of
    floats), as a Python float."""
    tape = e.tape
    values, _ = _run(tape, tape.value_kernel, x)
    return values[0]


def evaluate_stack(s, x):
    """Every expression of the Stack ``s`` at ``x``, from one kernel run.

    A tuple equal, bit for bit, to ``evaluate`` of each expression at
    ``x``; it raises EvalError if any of them would.
    """
    tape = s.tape
    values, _ = _run(tape, tape.value_kernel, x)
    return values


def evaluate_columns(s, points):
    """``evaluate_stack`` of the Stack ``s`` at each point of the (N, n) block
    ``points`` as an (N, outputs) array, from one column run; or None where the block
    runs row by row (see ``_columns``), which is where it may raise."""
    out = _columns(s, points)
    return None if out is None else out.T


def gradient_columns(s, points):
    """Every value and gradient of the Stack ``s`` at the (N, n) block
    ``points``, from one column run of its gradient kernel: arrays of shape
    (N, outputs) and (N, outputs, n), with the bits of ``evaluate_stack``
    and of ``grad`` of each expression at each point; or None where the
    block runs row by row (see ``_columns``)."""
    n = len(s.variables)
    out = _columns(s, points, _unit_vectors(n))
    if out is None:
        return None
    width = len(s.exprs)
    return out[:width].T, out[width:].reshape(n, width, len(points)).transpose(2, 1, 0)


def grad(e, x):
    """Gradient at ``x``: one run of the kernel with a tangent lane per
    unit vector."""
    tape = e.tape
    _, tangents = _run(tape, tape.gradient_kernel, x, _unit_vectors(tape.n), sweep=True)
    return list(tangents)


def ray_polynomials(s, x, u):
    """The Taylor coefficients (c_0, ..., c_D), D = RAY_DEGREE, of
    t -> e(x + t*u) for every expression e of the Stack ``s`` (or of one
    Expr), from one run of the ray kernel (``_Series``): each expression
    restricted to the ray is sum c_i t^i, exactly for a polynomial of
    degree at most RAY_DEGREE, where a coefficient above its degree is an
    exact 0.0, and truncated at D otherwise.

    c_0 has the bits of ``evaluate_stack`` at ``x``, and it raises the
    errors that ``evaluate_stack`` raises there, with their messages.  c_1
    is the tangent that a gradient lane seeded with u computes, so along
    the unit vector e_i it has the bits of ``grad``'s entry i, alone and in
    any stack.  A coefficient c_1..c_D that is not finite (it overflows
    where the value does not) is returned as it is, for the caller to judge.
    """
    tape = s.tape
    values, coefficients = _run(tape, tape.ray_kernel, x, (_point(tape.n, u),))
    D = RAY_DEGREE
    return [(c0, *coefficients[i * D:(i + 1) * D]) for i, c0 in enumerate(values)]


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
