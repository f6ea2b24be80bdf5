"""Row evaluation against the per-point oracles of tests/oracles.py.

ConvexExpr.values, eval_with_subgradient and ParamMap.rows must equal
expr_point_oracle and param_map_oracle row by row: bit for bit when the
coefficients are integers and the points dyadic (every product and sum of
an affine piece is then exact, and the rest is the same operations in the
same order), and within ROUNDOFF_TOL relative otherwise, where numpy and
Python may round a power or a norm differently.  An overflow must raise
the oracle's OutOfRange for the first failing row; trees with the
coefficient 1e200 are drawn for their overflows, and only their errors are
compared (their products are inexact and may cancel).  Every affine form
is one fold per row (exprs.affine_rows), so a batch must equal, bit for
bit, the same rows evaluated in any split into smaller batches.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import exprs
from meanrisk.errors import OutOfRange
from meanrisk.recourse import ParamMap

from oracles import expr_point_oracle, expr_value_oracle, param_map_oracle

ROUNDOFF_TOL = 1e-12
DIM = 3


def coefficient(exact):
    if exact:
        return st.integers(-3, 3).map(float)
    return st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def affine_trees(exact, huge=False):
    """const, var, affine and their sums and nonnegative scalings; with huge
    an affine piece may carry the coefficient 1e200, so powers overflow."""
    coef = coefficient(exact)
    big = coef | st.just(1e200) if huge else coef
    leaves = st.one_of(
        coef.map(exprs.const),
        st.integers(0, DIM - 1).map(exprs.var),
        st.builds(exprs.affine, st.lists(big, min_size=0, max_size=DIM), coef),
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda c: exprs.vsum(*c)),
        st.builds(exprs.scale, coef.map(abs), kids),
    ), max_leaves=4)


def convex_trees(exact, huge=False):
    """Trees of all nine node kinds: abs, even powers and norms of affine
    trees under sums, maxima (ties included) and nonnegative scalings."""
    aff = affine_trees(exact, huge)
    leaves = st.one_of(
        aff,
        aff.map(exprs.vabs),
        st.builds(exprs.even_power, aff, st.sampled_from([2, 4])),
        st.lists(aff, min_size=1, max_size=3).map(lambda c: exprs.norm(*c)),
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda c: exprs.vsum(*c)),
        st.lists(kids, min_size=1, max_size=3).map(lambda c: exprs.vmax(*c)),
        st.builds(exprs.scale, coefficient(exact).map(abs), kids),
    ), max_leaves=6)


def points(exact, k):
    """k rows of DIM coordinates, quarter-integers when exact (zeros and
    repeats included, so abs and norm meet 0 and max meets ties)."""
    if exact:
        coord = st.integers(-8, 8).map(lambda i: 0.25 * i)
    else:
        coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    row = st.lists(coord | st.just(0.0), min_size=DIM, max_size=DIM)
    return st.lists(row, min_size=k, max_size=k).map(lambda r: np.array(r, dtype=float))


@st.composite
def cases(draw):
    """(mode, trees, Y): mode "exact" (integer coefficients, quarter-integer
    points), "float", or "huge" (exact data plus the coefficient 1e200)."""
    mode = draw(st.sampled_from(["exact", "float", "huge"]))
    trees = draw(st.lists(convex_trees(mode != "float", mode == "huge"), min_size=1, max_size=3))
    Y = draw(points(mode != "float", draw(st.integers(1, 6))))
    return mode, trees, Y


def agree(got, want, mode):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if mode == "exact":
        return got.tobytes() == want.tobytes()
    return bool(np.all(np.abs(got - want) <= ROUNDOFF_TOL * np.maximum(1.0, np.abs(want))))


def first_error(call):
    """The OutOfRange message of call(), or None when it returns."""
    try:
        call()
    except OutOfRange as err:
        return str(err)
    return None


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_values_and_subgradients_equal_the_point_oracle(case):
    mode, trees, Y = case
    e = trees[0]
    want = first_error(lambda: [expr_value_oracle(e, y) for y in Y])
    assert first_error(lambda: e.values(Y)) == want
    if want is None and mode != "huge":
        assert agree(e.values(Y), [expr_value_oracle(e, y) for y in Y], mode)
    for y in Y:
        with np.errstate(over="ignore", invalid="ignore"):
            v, g = expr_point_oracle(e, y)
        if not np.all(np.isfinite(np.append(g, v))):
            with pytest.raises(OutOfRange):
                e.eval_with_subgradient(y)
            continue
        got_v, got_g = e.eval_with_subgradient(y)
        if mode != "huge":
            assert agree(got_v, v, mode) and agree(got_g, g, mode), (got_g, g)
            assert got_v == e.value(y)


@pytest.mark.parametrize("d", [3, 30])
def test_values_hold_no_subgradients(d):
    # 200,000 points: a (rows x d) subgradient array per node would make the
    # peak 22 vectors of values at d = 3 (the lattice scan's objective) and
    # grow with d; the values path holds at most six, and the bits of the
    # subgradient path
    v = exprs.vsum(exprs.even_power(exprs.affine([1.0, 0.5, -0.25], 0.3), 2),
                   exprs.scale(0.5, exprs.vabs(exprs.affine([1.0, 0.0, 0.0], -2.0))))
    n = exprs.vmax(exprs.norm(exprs.var(0), exprs.affine([1.0, 2.0], -1.0)),
                   exprs.vabs(exprs.var(2)), exprs.const(1.0))
    Y = np.random.default_rng(0).normal(size=(200_000, d))
    for e in (v, n):
        tracemalloc.start()
        try:
            got = e.values(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * got.nbytes
        assert got[:50].tobytes() == np.array([e.eval_with_subgradient(y)[0] for y in Y[:50]]).tobytes()


@settings(max_examples=100, deadline=None)
@given(case=cases(), per_row=st.booleans())
def test_expression_map_rows_equal_the_point_oracle(case, per_row):
    # w = (x, z) with one coordinate of x and DIM - 1 of z; X is one x for
    # every row or one row per row
    mode, trees, Y = case
    pm = ParamMap(out_dim=len(trees), expressions=tuple(trees))
    X = Y[:, :1] if per_row else Y[0, :1]
    xs = Y[:, :1] if per_row else np.repeat(Y[:1, :1], len(Y), axis=0)
    want = first_error(lambda: [param_map_oracle(pm, x, z) for x, z in zip(xs, Y[:, 1:])])
    assert first_error(lambda: pm.rows(X, Y[:, 1:])) == want
    if want is None and mode != "huge":
        got = pm.rows(X, Y[:, 1:])
        assert agree(got, [param_map_oracle(pm, x, z) for x, z in zip(xs, Y[:, 1:])], mode)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["exact", "float"]), data=st.data())
def test_affine_map_rows_equal_the_point_oracle(mode, data):
    out_dim = data.draw(st.integers(1, 3))
    coef = coefficient(mode == "exact")
    M = np.array(data.draw(st.lists(st.lists(coef, min_size=DIM, max_size=DIM),
                                    min_size=out_dim, max_size=out_dim)))
    c = np.array(data.draw(st.lists(coef, min_size=out_dim, max_size=out_dim)))
    pm = ParamMap(out_dim=out_dim, matrix=M, constant=c)
    Y = data.draw(points(mode == "exact", data.draw(st.integers(1, 6))))
    got = pm.rows(Y[:, :1], Y[:, 1:])
    # the map and the oracle make the same fold, so float data agree bit for bit too
    assert agree(got, [param_map_oracle(pm, y[:1], y[1:]) for y in Y], "exact")


@pytest.mark.parametrize("e, y", [
    # ties: max keeps the first of equal children, whose subgradients differ
    (exprs.vmax(exprs.var(0), exprs.var(1)), [1.0, 1.0, 0.0]),
    (exprs.vmax(exprs.affine([1.0, -1.0]), exprs.vabs(exprs.var(2))), [1.0, 0.0, -1.0]),
    # abs and norm at 0
    (exprs.vabs(exprs.affine([1.0, -1.0])), [0.5, 0.5, 0.0]),
    (exprs.norm(exprs.var(0), exprs.affine([0.0, 2.0], -1.0)), [0.0, 0.5, 3.0]),
    # a norm at 0 has subgradient 0 even where a child's overflows
    (exprs.norm(exprs.scale(1e200, exprs.affine([1e200]))), [0.0, 1.0, 1.0]),
    # a norm that is not a dyadic number, under a sum
    (exprs.vsum(exprs.norm(exprs.var(0), exprs.var(1)), exprs.even_power(exprs.var(2), 4)),
     [1.0, 1.0, 1.5]),
], ids=["max-tie", "max-tie-convex", "abs-at-0", "norm-at-0", "norm-at-0-overflow", "sqrt2"])
def test_edge_points_equal_the_point_oracle(e, y):
    y = np.array(y)
    with np.errstate(over="ignore", invalid="ignore"):
        v, g = expr_point_oracle(e, y)
    got = e.eval_with_subgradient(y)
    assert got[0] == v and got[1].tobytes() == g.tobytes()
    assert e.values(np.array([y, y])).tobytes() == np.array([v, v]).tobytes()


def test_first_overflowing_row_then_expression_is_named():
    # the second expression overflows at row 0 and the first only at row 1
    first = exprs.even_power(exprs.affine([0.0, 1e200]), 2)
    second = exprs.even_power(exprs.affine([1e200, 0.0]), 2)
    pm = ParamMap(out_dim=2, expressions=(first, second))
    with pytest.raises(OutOfRange) as err:
        pm.rows(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    assert str(err.value) == (
        "expression ['pow', ['affine', [1e+200, 0.0], 0.0], 2] at y = [1.0, 0.0] is inf: "
        "not finite")


def outcome(call, Y):
    """The bytes of call(Y), or the message of its OutOfRange."""
    try:
        return call(Y).tobytes()
    except OutOfRange as err:
        return str(err)


def split_outcome(call, Y, cuts):
    """outcome of call on the pieces of Y cut at cuts, in order: the first
    piece that raises gives its message, else the pieces' rows joined."""
    parts = []
    for piece in np.split(Y, cuts):
        try:
            parts.append(call(piece))
        except OutOfRange as err:
            return str(err)
    return np.concatenate(parts).tobytes()


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(["exact", "float", "huge"]), data=st.data())
def test_batches_equal_their_rows_in_any_split(mode, data):
    trees = tuple(data.draw(st.lists(convex_trees(mode != "float", mode == "huge"),
                                     min_size=1, max_size=3)))
    Y = data.draw(points(mode != "float", data.draw(st.integers(1, 40))))
    coef = coefficient(mode != "float")
    big = coef | st.just(1e200) if mode == "huge" else coef
    out_dim = data.draw(st.integers(1, 3))
    M = np.array(data.draw(st.lists(st.lists(big, min_size=DIM, max_size=DIM),
                                    min_size=out_dim, max_size=out_dim)))
    c = np.array(data.draw(st.lists(big, min_size=out_dim, max_size=out_dim)))
    affine_map = ParamMap(out_dim=out_dim, matrix=M, constant=c)
    tree_map = ParamMap(out_dim=len(trees), expressions=trees)
    calls = (
        trees[0].values,
        lambda W: exprs.table(trees, W),
        lambda W: affine_map.rows(W[:, :1], W[:, 1:]),
        lambda W: tree_map.rows(W[:, :1], W[:, 1:]),
    )
    cuts = sorted(data.draw(st.sets(st.integers(1, len(Y) - 1))) if len(Y) > 1 else ())
    for call in calls:
        with np.errstate(over="ignore", invalid="ignore"):  # an affine map may give inf
            whole = outcome(call, Y)
            assert split_outcome(call, Y, cuts) == whole
            assert split_outcome(call, Y, range(1, len(Y))) == whole


def test_cancelling_row_gives_the_same_error_alone_and_after_another_row():
    # 1e200 * (0.25 + 1.25 - 1.5) cancels to 0 in exact arithmetic; the fold
    # leaves a residue of about 1e184, whose square overflows, in any batch
    e = exprs.even_power(exprs.vsum(exprs.affine([1e200] * 3)), 2)
    y = [0.25, 1.25, -1.5]
    alone = first_error(lambda: e.values([y]))
    assert alone == ("expression ['pow', ['sum', ['affine', [1e+200, 1e+200, 1e+200], 0.0]], 2] "
                     "at y = [0.25, 1.25, -1.5] is inf: not finite")
    assert first_error(lambda: e.values([[0.0, 0.0, 0.0], y])) == alone
    assert first_error(lambda: expr_value_oracle(e, y)) == alone
