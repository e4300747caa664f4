"""The lowering and its tree walk against the reference in ``exprlang_reference``.

Every tape must equal the one the earlier walk and lowering give, with
the same constant bits, and the walk must call ``leaf`` and ``combine``
in the same order.  Tapes are lowered when a kernel first runs them, so
an expression that only runs inside a stack is never lowered on its own.
"""

import contextlib
import io
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exprlang_reference as ref
import nlpflow.io
from nlpflow import cli, exprlang
from nlpflow.exprlang import BinOp, Expr, Neg, Num, Pow, Stack, Var, parse, substitute
from nlpflow.field import FieldParams
from nlpflow.io import load_problem
from nlpflow.solver import SolveConfig, solve

NAMES = ("x1", "x2", "x3")
PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def _same_tape(got, roots, n):
    """``got`` equals the reference lowering of ``roots``, constant bits too."""
    want = ref.lower(tuple(roots), n)
    assert got == want
    assert [struct.pack("<d", c) for c in got.consts] == [struct.pack("<d", c)
                                                          for c in want.consts]


def _problem_members(full, red):
    """Every Expr and Stack of a problem's full and reduced forms."""
    exprs = [full.objective, *full.equalities, *full.inequalities]
    stacks = [full.constraint_stack, full.field_stack]
    if red is not None:
        exprs += [red.objective, *red.inequalities, *red.phi, *red.elimination_stack.exprs]
        stacks += [red.constraint_stack, red.field_stack, red.phi_stack,
                   red.elimination_stack]
    return exprs, stacks


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_problem_tapes_match_reference(name, request):
    exprs, stacks = _problem_members(*request.getfixturevalue(name))
    for e in exprs:
        _same_tape(e.tape, [e.root], len(e.variables))
    for s in stacks:
        _same_tape(s.tape, [e.root for e in s.exprs], len(s.variables))


# Leaves built afresh for every draw, so sharing comes only from the
# combinators below: equal constants are distinct objects, and 0.0 and
# -0.0 are equal but differ in their bits.
_LEAF = st.one_of(
    st.sampled_from(range(3)).map(lambda i: Var(i, NAMES[i])),
    st.builds(Num, st.sampled_from([0.0, -0.0, 2.0, 0.5, 1e300])))


def _extend(inner):
    return st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
        st.builds(Pow, inner, st.integers(0, 3)),
        st.builds(Neg, inner),
        # The same subtree on both sides, by identity.
        st.builds(lambda op, t: BinOp(op, t, t), st.sampled_from("+-*/"), inner))


_TREES = st.recursive(_LEAF, _extend, max_leaves=10)


def _shared_roots(a, b, op):
    """Roots that share ``a`` and ``b`` by identity, within and across trees."""
    both = BinOp(op, a, b)
    return [both, BinOp("+", both, Pow(a, 2)), Neg(BinOp(op, b, both)), a, b]


def _calls(walk, roots):
    """The leaf and combine calls of ``walk`` over ``roots`` with one
    ``done``, in order, each with the results it was given."""
    log, done = [], {}

    def leaf(node):
        log.append(("leaf", id(node)))
        return len(log)

    def combine(node, kids):
        log.append(("combine", id(node), tuple(kids)))
        return len(log)

    results = [walk(root, leaf, combine, done) for root in roots]
    return log, results


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES, st.sampled_from("+-*/"))
def test_random_shared_trees_lower_and_walk_as_reference(a, b, op):
    roots = _shared_roots(a, b, op)
    for root in roots:
        _same_tape(Expr(root, NAMES).tape, [root], len(NAMES))
    _same_tape(Stack(tuple(Expr(root, NAMES) for root in roots), NAMES).tape, roots, len(NAMES))
    assert _calls(exprlang._post_order, roots) == _calls(ref.post_order, roots)


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_problem_walks_match_reference(name, request):
    exprs, stacks = _problem_members(*request.getfixturevalue(name))
    for roots in [[e.root] for e in exprs] + [[e.root for e in s.exprs] for s in stacks]:
        assert _calls(exprlang._post_order, roots) == _calls(ref.post_order, roots)


def test_a_walk_result_may_be_none():
    x1 = Var(0, "x1")
    root = BinOp("+", x1, Neg(x1))
    kids = []
    exprlang._post_order(root, lambda node: None, lambda node, k: kids.append(tuple(k)))
    assert kids == [(None,), (None, None)]


def test_long_left_deep_sum_lowers_without_recursion():
    terms = 10_000
    e = parse(" + ".join(f"{i}*x1" for i in range(1, terms + 1)), NAMES)
    tape = e.tape
    # One product per term (constant 1 among them) and one sum per "+".
    assert (len(tape.consts), len(tape.ops)) == (terms, 2 * terms - 1)
    _same_tape(tape, [e.root], len(NAMES))
    # The other folds walk it too: printing, substitution, equality, hashing.
    assert exprlang.to_string(e).count("(") == 2 * terms - 1
    copy = substitute(e, {}, NAMES)
    assert copy == e and hash(copy) == hash(e)


def _holds_tape(obj):
    return "tape" in vars(obj)


def test_a_reduced_solve_lowers_no_full_space_expression():
    nlpflow.io._parse_problem.cache_clear()  # objects no earlier test ran
    full, red = load_problem(PROBLEMS / "p42.nlp")
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    report = solve(red, params, SolveConfig(max_iter=5), [-0.9, -1.0, 2.0])
    assert report.records
    assert not any(map(_holds_tape, (full.objective, *full.equalities, *full.inequalities)))
    # The equality composed with the map runs only in the elimination stack.
    stack = red.elimination_stack
    assert _holds_tape(stack)
    assert not any(map(_holds_tape, stack.exprs[len(red.phi):]))


def test_check_lowers_only_its_stacks(monkeypatch):
    # From COLUMNS_FROM points the field's inputs come from one column run
    # of the field stack; narrower blocks run each expression by rows.  A
    # cold check: the problem text is parsed again, as in a fresh process.
    nlpflow.io._parse_problem.cache_clear()
    samples = 2 * exprlang.COLUMNS_FROM
    lowered = []
    lower = exprlang._lower

    def counted(roots, n):
        lowered.append(len(roots))
        return lower(roots, n)

    def single(self):
        raise AssertionError(f"check lowered {self!r} on its own")

    monkeypatch.setattr(exprlang, "_lower", counted)
    monkeypatch.setattr(Expr, "tape", property(single))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--problem", str(PROBLEMS / "p42.nlp"),
                         "--samples", str(samples), "--seed", "1"])
    assert code == 0
    # The elimination, constraint, field and map stacks of the reduced
    # problem, and the full problem's field stack.
    assert sorted(lowered) == [1, 2, 2, 3, 4]
