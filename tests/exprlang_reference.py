"""Reference tree-walking interpreters for the expression language.

These are the recursive evaluators that ``nlpflow.exprlang`` used before
it lowered expressions to a tape.  They are kept for tests only: the
compiled kernels must reproduce their values and gradients bit for bit,
and the ray kernel's first coefficient must be the directional derivative
of ``jvp``.  Only overflow is
reported differently: these raise ``OverflowError`` where the tape raises
``EvalError``.  Like the tape, they raise ``EvalError`` for a ``^0`` whose
base is not finite, and take a power ``b^k`` as a multiplication chain,
with the tangent's ``b^(k-1)`` a chain too.

``post_order`` and ``lower`` are the tree walk and the lowering that
``nlpflow.exprlang`` used before its walk kept nodes alone on its work
stack: the lowering must give the same tapes, and the walk must call
``leaf`` and ``combine`` in the same order.
"""

import math
import struct

from nlpflow.exprlang import (_BINARY, _NEG, _POW, BinOp, EvalError, ExprError, Neg, Num,
                              Pow, Tape, Var)


def post_order(root, leaf, combine, done=None):
    """Fold the tree at ``root`` bottom-up without recursion, left operand
    first, memoised by node identity in ``done``; the work stack holds a
    ``(node, expanded)`` pair per visit."""
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


def lower(roots, n):
    """The value-numbered Tape of the trees at ``roots`` over ``n``
    variables, one output slot per root, by ``post_order``."""
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

    outs = [post_order(root, leaf, combine, done) for root in roots]
    base = {"var": 0, "const": n, "op": n + len(consts)}

    def slot(r):
        return base[r[0]] + r[1]

    tape_ops = tuple((code, slot(a), b if code in (_NEG, _POW) else slot(b))
                     for code, a, b in ops)
    return Tape(tuple(struct.unpack("<d", bits)[0] for bits in consts), tape_ops,
                tuple(slot(r) for r in outs), n)


class _Dual:
    """Dual number a + b*eps for one directional derivative."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __add__(self, other):
        return _Dual(self.val + other.val, self.dot + other.dot)

    def __sub__(self, other):
        return _Dual(self.val - other.val, self.dot - other.dot)

    def __mul__(self, other):
        return _Dual(self.val * other.val,
                     self.val * other.dot + self.dot * other.val)

    def __truediv__(self, other):
        if other.val == 0.0:
            raise EvalError("division by zero")
        q = self.val / other.val
        return _Dual(q, (self.dot - q * other.dot) / other.val)

    def __neg__(self):
        return _Dual(-self.val, -self.dot)

    def powi(self, k):
        # k is a non-negative integer; derivative k * b^(k-1) * b'.
        if k == 0:
            _check_zeroth_power_base(self.val)
            return _Dual(1.0, 0.0)
        v = _power(self.val, k)
        return _Dual(v, k * _chain(self.val, k - 1) * self.dot if k > 1 else self.dot)


def _chain(base, k):
    """base^k, k >= 1, by the binary method (Knuth, TAOCP vol. 2, 4.6.3):
    the squares of base, and the products of the squares that k's bits
    select, multiplied in from the low bits up."""
    result, square = None, base
    while k:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if k:
            square = square * square
    return result


def _power(base, k):
    """The chain base^k; an infinity from a finite base is an overflow,
    as Python's ``**`` reports one."""
    value = _chain(base, k)
    if math.isinf(value) and math.isfinite(base):
        raise OverflowError(34, "Numerical result out of range")
    return value


def _check_zeroth_power_base(value):
    # b^0 is 1 only for a finite b, so an overflow cannot hide behind it.
    if not math.isfinite(value):
        raise EvalError("non-finite base of ^0")


def _eval_node(node, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, x)
    if isinstance(node, Pow):
        base = _eval_node(node.base, x)
        if node.exponent == 0:
            _check_zeroth_power_base(base)
            return 1.0
        return _power(base, node.exponent)
    left = _eval_node(node.left, x)
    right = _eval_node(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise EvalError("division by zero")
    return left / right


def _eval_dual(node, duals):
    if isinstance(node, Num):
        return _Dual(node.value, 0.0)
    if isinstance(node, Var):
        return duals[node.index]
    if isinstance(node, Neg):
        return -_eval_dual(node.arg, duals)
    if isinstance(node, Pow):
        return _eval_dual(node.base, duals).powi(node.exponent)
    left = _eval_dual(node.left, duals)
    right = _eval_dual(node.right, duals)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return left / right


def evaluate(e, x):
    """The value at ``x`` by one recursive walk of ``e``'s tree."""
    if len(x) != len(e.variables):
        raise ExprError(f"expected {len(e.variables)} coordinates, got {len(x)}")
    value = _eval_node(e.root, x)
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value!r}")
    return value


def grad(e, x):
    """The gradient at ``x`` by one dual-number tree walk per variable."""
    n = len(e.variables)
    if len(x) != n:
        raise ExprError(f"expected {n} coordinates, got {len(x)}")
    out = [0.0] * n
    for i in range(n):
        duals = [_Dual(float(x[j]), 1.0 if j == i else 0.0) for j in range(n)]
        d = _eval_dual(e.root, duals)
        if not (math.isfinite(d.val) and math.isfinite(d.dot)):
            raise EvalError("non-finite value in derivative sweep")
        out[i] = d.dot
    return out


def jvp(e, x, u):
    """The derivative at ``x`` along ``u`` by one dual-number tree walk."""
    n = len(e.variables)
    if len(x) != n or len(u) != n:
        raise ExprError(f"expected {n} coordinates")
    d = _eval_dual(e.root, [_Dual(float(x[j]), float(u[j])) for j in range(n)])
    if not (math.isfinite(d.val) and math.isfinite(d.dot)):
        raise EvalError("non-finite value in derivative sweep")
    return d.dot
