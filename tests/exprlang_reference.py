"""Reference tree-walking interpreters for the expression language.

These are the recursive evaluators that ``nlpflow.exprlang`` used before
it lowered expressions to a tape.  They are kept for tests only: the
compiled kernels must reproduce their values, gradients and directional
derivatives bit for bit.  Only overflow is
reported differently: these raise ``OverflowError`` where the tape raises
``EvalError``.  Like the tape, they raise ``EvalError`` for a ``^0`` whose
base is not finite.
"""

import math

from nlpflow.exprlang import EvalError, ExprError, Neg, Num, Pow, Var


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
        v = self.val ** k
        return _Dual(v, k * self.val ** (k - 1) * self.dot)


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
        return base ** node.exponent
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
