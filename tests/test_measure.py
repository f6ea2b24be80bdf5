import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import measure as ms
from meanrisk.errors import DimMismatch, EmptySupport, NegativeWeight, OutOfRange

from oracles import (
    cumulative_weights,
    line_measure,
    measure_sampler,
    merge_sorted_oracle,
    parse_atoms_oracle,
)


class TestCanonicalize:
    def test_merges_duplicates(self):
        m = ms.canonicalize([((0,), 0.5), ((0,), 0.25), ((1,), 0.25)])
        assert np.allclose(m.points.ravel(), [0, 1])
        assert np.allclose(m.weights, [0.75, 0.25])

    def test_renormalizes_single_atom(self):
        m = ms.canonicalize([((3,), 2.0)])
        assert m.weights[0] == 1.0

    def test_already_canonical_unchanged(self):
        m = ms.canonicalize([((1,), 0.2), ((2,), 0.2), ((3,), 0.6)])
        assert np.allclose(m.points.ravel(), [1, 2, 3])
        assert np.allclose(m.weights, [0.2, 0.2, 0.6])

    def test_empty_raises(self):
        with pytest.raises(EmptySupport):
            ms.canonicalize([])

    def test_negative_weight_raises(self):
        with pytest.raises(NegativeWeight):
            ms.canonicalize([((0,), -0.5), ((1,), 1.5)])

    def test_zero_total_raises(self):
        with pytest.raises(EmptySupport):
            ms.canonicalize([((0,), 0.0)])

    @pytest.mark.parametrize(
        "raw",
        [
            [((np.nan,), 1.0)],
            [((0.0, np.inf), 1.0)],
            [((0.0,), np.nan), ((1.0,), 1.0)],
            [((0.0,), np.inf), ((1.0,), 1.0)],
        ],
        ids=["nan-point", "inf-point", "nan-weight", "inf-weight"],
    )
    def test_non_finite_raises(self, raw):
        with pytest.raises(OutOfRange):
            ms.canonicalize(raw)
        points = np.array([p for p, _ in raw], dtype=float)
        weights = np.array([w for _, w in raw], dtype=float)
        with pytest.raises(OutOfRange):
            ms.DiscreteMeasure(dim=points.shape[1], points=points, weights=weights / len(raw))

    def test_mixed_dims_raise(self):
        with pytest.raises(DimMismatch):
            ms.canonicalize([((0,), 0.5), ((0, 1), 0.5)])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.integers(1, 12)
            raw = [(rng.integers(-2, 3, size=2), rng.uniform(0.01, 1)) for _ in range(k)]
            m1 = ms.canonicalize(raw)
            m2 = ms.canonicalize(list(zip(m1.points, m1.weights)))
            assert np.array_equal(m1.points, m2.points)
            assert np.array_equal(m1.weights, m2.weights)

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(11)
        raw = [(rng.uniform(-1, 1, size=2), rng.uniform(0.1, 1)) for _ in range(8)]
        m1 = ms.canonicalize(raw)
        for _ in range(10):
            perm = rng.permutation(len(raw))
            m2 = ms.canonicalize([raw[i] for i in perm])
            assert np.array_equal(m1.points, m2.points)
            assert np.array_equal(m1.weights, m2.weights)


POINT_FORMS = {
    "list": lambda p: [float(v) for v in p],
    "tuple": lambda p: tuple(float(v) for v in p),
    "array": lambda p: np.array(p),
    "bare": lambda p: float(p[0]),
    "numpy-scalar": lambda p: p[0],
}
WEIGHT_FORMS = (float, np.float64, lambda w: int(round(10 * w)) + 1)


class TestParseAtoms:
    """canonicalize reads its pairs as one point array and one weight array,
    with the result and the errors of the per-atom loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 3),
        k=st.integers(1, 12),
        form=st.sampled_from(sorted(POINT_FORMS)),
        weight_form=st.integers(0, len(WEIGHT_FORMS) - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_atom_loop(self, dim, k, form, weight_form, seed):
        if form in ("bare", "numpy-scalar"):
            dim = 1
        rng = np.random.default_rng(seed)
        # a few distinct values with sub-tolerance offsets, so atoms merge
        points = rng.integers(-2, 3, size=(k, dim)) + rng.integers(-3, 4, size=(k, dim)) * 4e-13
        weights = rng.uniform(0.01, 1, size=k)
        raw = [(POINT_FORMS[form](p), WEIGHT_FORMS[weight_form](w)) for p, w in zip(points, weights)]
        pts, wts = parse_atoms_oracle(raw)
        assert ms.canonicalize(raw).digest() == ms.canonicalize_arrays(pts, wts).digest()

    @pytest.mark.parametrize(
        "raw, error",
        [
            ([((0.0, 1.0), 0.5), ((2.0,), 0.5)], DimMismatch),
            ([([[0.0]], 1.0)], DimMismatch),
            ([((0.0,), 0.5), ([[1.0]], 0.5)], DimMismatch),
            ([((), 1.0)], DimMismatch),
            ([((0.0,), 0.5), ((), 0.5)], DimMismatch),
            ([((np.nan,), 0.5), ((1.0,), 0.5)], OutOfRange),
            ([((0.0,), np.nan), ((1.0,), 0.5)], OutOfRange),
            ([(("zero",), 1.0)], ValueError),
            ([((0.0,), 0.5), (("zero",), 0.5)], ValueError),
        ],
        ids=["ragged", "nested", "nested-and-flat", "empty", "empty-and-flat", "nan-point",
             "nan-weight", "text-point", "text-point-and-flat"],
    )
    def test_malformed_points_keep_their_error_type(self, raw, error):
        with pytest.raises(error):
            ms.canonicalize(raw)
        with pytest.raises(error):
            ms.canonicalize_arrays(*parse_atoms_oracle(raw))

    def test_bare_and_list_points_do_not_mix(self):
        raw = [(0.0, 0.5), ((1.0,), 0.5)]
        parse_atoms_oracle(raw)
        with pytest.raises(DimMismatch):
            ms.canonicalize(raw)


class TestCanonicalizeArrays:
    def test_matches_list_form_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 30))
            points = rng.integers(-2, 3, size=(k, 2)) + rng.integers(-3, 4, size=(k, 2)) * 4e-13
            weights = rng.uniform(0.01, 1, size=k)
            a = ms.canonicalize_arrays(points, weights)
            b = ms.canonicalize(list(zip(points, weights)))
            assert a.digest() == b.digest()

    @pytest.mark.parametrize(
        "points, weights",
        [
            (np.zeros(3), np.ones(3)),
            (np.zeros((3, 0)), np.ones(3)),
            (np.zeros((3, 2, 1)), np.ones(3)),
            (np.zeros((3, 2)), np.ones(2)),
            (np.zeros((3, 2)), np.ones((3, 1))),
        ],
        ids=["vector", "zero-dim", "three-axes", "short-weights", "weight-matrix"],
    )
    def test_malformed_shapes_are_dim_mismatch(self, points, weights):
        with pytest.raises(DimMismatch):
            ms.canonicalize_arrays(points, weights)

    def test_zero_coordinate_point_is_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ms.canonicalize([(np.zeros(0), 1.0)])

    def test_zero_coordinate_sampler_is_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ms.empirical(lambda rng, n: np.zeros((n, 0)), 4, seed=0)

    def test_empty_is_empty_support(self):
        with pytest.raises(EmptySupport):
            ms.canonicalize_arrays(np.zeros((0, 2)), np.zeros(0))


@st.composite
def sorted_near_tol_rows(draw):
    """Lexicographically sorted grid points in d = 1..3, each coordinate
    moved by a multiple of 4e-13 (so chains straddle POINT_TOL), with one
    or two weight columns."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    cols = draw(st.sampled_from([1, 2]))
    cell = st.tuples(st.integers(0, 2), st.integers(-4, 4))
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    points = np.array([[g + k * 4e-13 for g, k in row] for row in rows])
    flat = draw(st.lists(st.floats(0.0, 1.0), min_size=n * cols, max_size=n * cols))
    weights = np.array(flat).reshape(n, cols)
    if cols == 1:
        weights = weights[:, 0]
    order = np.lexsort(points.T[::-1])
    return points[order], weights[order]


class TestMergeSorted:
    @settings(max_examples=300, deadline=None)
    @given(rows=sorted_near_tol_rows())
    def test_byte_equal_to_row_loop(self, rows):
        points, weights = rows
        got = ms._merge_sorted(points, weights)
        want = merge_sorted_oracle(points, weights)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_anchor_rule_joins_across_a_consecutive_gap(self):
        # the third row is 1.5e-12 from the second but within 1e-12 of the first
        m = ms.canonicalize([((0, 0), 1.0), ((5e-13, 1e-12), 1.0), ((6e-13, -5e-13), 1.0)])
        assert len(m) == 1
        assert np.array_equal(m.points, [[0.0, 0.0]])

    def test_anchor_rule_splits_a_chain(self):
        # each step is 7e-13, but the third row is 1.4e-12 from the anchor
        m = ms.canonicalize([((0.0,), 1.0), ((7e-13,), 1.0), ((1.4e-12,), 1.0)])
        assert np.array_equal(m.points.ravel(), [0.0, 1.4e-12])
        assert np.array_equal(m.weights, np.array([2.0, 1.0]) / 3.0)

    def test_long_chain_and_large_groups(self):
        n = 5000
        chain = (np.arange(n) * 5e-13).reshape(-1, 1)
        blocks = np.repeat(np.arange(7.0), n // 7 + 1)[:n].reshape(-1, 1)
        rng = np.random.default_rng(19)
        for points in (chain, blocks):
            for weights in (rng.uniform(size=n), rng.uniform(size=(n, 2))):
                got = ms._merge_sorted(points, weights)
                want = merge_sorted_oracle(points, weights)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@st.composite
def raw_measures(draw):
    """Unsorted points in d = 1..3 with weights (zeros and negative zeros
    among them): all-distinct rows, near-ties on a grid moved by multiples
    of 4e-13, or a chain of steps below POINT_TOL that drifts from its
    anchor along one coordinate."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    mode = draw(st.sampled_from(["distinct", "near-ties", "chain"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if mode == "distinct":
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7)
    elif mode == "near-ties":
        points = rng.integers(0, 3, size=(n, d)) + rng.integers(-3, 4, size=(n, d)) * 4e-13
    else:
        points = np.repeat(rng.normal(size=(1, d)), n, axis=0)
        points[:, rng.integers(d)] += np.arange(n) * rng.uniform(2e-13, 1e-12)
        points = points[rng.permutation(n)]
    weights = draw(st.sampled_from([rng.uniform(0.0, 3.0, size=n), np.full(n, 1.0 / n)]))
    weights[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    weights[0] = 0.5
    return points, weights


def canonical_oracle(points, weights):
    """Points and weights of the canonical measure by the row-by-row oracles:
    a lexicographic sort, merge_sorted_oracle, and division by the total
    unless it is within 1e-12 of one."""
    order = np.lexsort(points.T[::-1])
    pts, wts = merge_sorted_oracle(points[order], weights[order])
    total = float(wts.sum())
    return pts, wts if abs(total - 1.0) <= 1e-12 else wts / total


class TestCanonicalForm:
    """canonicalize_arrays and from_dict give the oracles' measure bit for
    bit, whether or not any two rows merge."""

    @settings(max_examples=300, deadline=None)
    @given(raw=raw_measures())
    def test_byte_equal_to_the_oracles(self, raw):
        points, weights = raw
        doc = {"dim": points.shape[1], "atoms": [
            {"point": [float(v) for v in p], "weight": float(w)} for p, w in zip(points, weights)]}
        want = canonical_oracle(*parse_atoms_oracle([(a["point"], a["weight"]) for a in doc["atoms"]]))
        for m in (ms.canonicalize_arrays(points, weights), ms.DiscreteMeasure.from_dict(doc)):
            for g, w in zip((m.points, m.weights), want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()

    def test_distinct_rows_are_returned_as_given(self):
        points = np.array([[0.0, 5.0], [0.0, 5.0 + 2e-12], [1.0, -1.0]])
        weights = np.array([0.5, 0.25, 0.25])
        got = ms._merge_sorted(points, weights)
        assert got[0] is points and got[1] is weights


FAR = [[1e308], [1.5e308], [-1e308]]
# points, weights, and the error type and message of the entrywise checks (None
# for a valid measure); the first check to fail names the error
VALIDATION_CASES = {
    "nan-point": ([[np.nan], [1.0]], [0.5, 0.5], OutOfRange, "atom points and weights must be finite"),
    "inf-point": ([[0.0, np.inf]], [1.0], OutOfRange, "atom points and weights must be finite"),
    "opposite-inf-points": ([[np.inf], [-np.inf]], [0.5, 0.5], OutOfRange,
                            "atom points and weights must be finite"),
    "nan-weight": ([[0.0], [1.0]], [np.nan, 1.0], OutOfRange,
                   "atom points and weights must be finite"),
    "inf-weight": ([[0.0], [1.0]], [np.inf, 1.0], OutOfRange,
                   "atom points and weights must be finite"),
    "opposite-inf-weights": ([[0.0], [1.0]], [np.inf, -np.inf], OutOfRange,
                             "atom points and weights must be finite"),
    "nan-point-negative-weight": ([[np.nan], [1.0]], [-0.5, 1.5], OutOfRange,
                                  "atom points and weights must be finite"),
    "negative-weight": ([[0.0], [1.0]], [-0.5, 1.5], NegativeWeight, "negative atom weight"),
    "negative-weight-zero-total": ([[0.0], [1.0]], [-1.0, 1.0], NegativeWeight,
                                   "negative atom weight"),
    "zero-total": ([[0.0], [1.0]], [0.0, 0.0], EmptySupport, "total weight is zero"),
    "negative-zero-total": ([[0.0]], [-0.0], EmptySupport, "total weight is zero"),
    "no-atoms": (np.zeros((0, 1)), [], EmptySupport, "no atoms"),
    "overflowing-total": ([[0.0], [1.0]], [1e308, 1e308], OutOfRange,
                          "total weight is inf: not finite"),
    "overflowing-total-negative-weight": ([[0.0], [1.0], [2.0]], [1e308, 1e308, -1.0],
                                          NegativeWeight, "negative atom weight"),
    "far-points": (FAR, [0.25, 0.25, 0.5], None, None),
    "far-points-negative-sum": ([[-1e308], [-1.5e308]], [0.5, 0.5], None, None),
    "negative-zero-weights": ([[0.0], [1.0], [2.0]], [-0.0, 1.0, -0.0], None, None),
}


class TestCheckAtoms:
    """The three-reduction pass of _check_atoms lets through exactly the valid
    measures; every other measure gets the entrywise checks' error, without a
    numpy warning."""

    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    def test_error_type_and_message(self, case):
        points, weights, error, message = VALIDATION_CASES[case]
        points = np.array(points, dtype=float)
        weights = np.array(weights, dtype=float)
        builds = [lambda: ms._check_atoms(points, weights),
                  lambda: ms.canonicalize_arrays(points, weights)]
        if len(weights):
            builds.append(lambda: ms.DiscreteMeasure(dim=points.shape[1], points=points,
                                                     weights=weights))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for build in builds[:2] if error is None else builds:
                if error is None:
                    build()
                    continue
                with pytest.raises(error) as caught:
                    build()
                assert type(caught.value) is error and str(caught.value) == message

    def test_returns_the_total(self):
        weights = np.array([0.25, 0.5, 0.125])
        assert ms._check_atoms(np.zeros((3, 2)), weights) == float(weights.sum())

    def test_far_points_keep_their_bits(self):
        m = ms.canonicalize_arrays(np.array(FAR), np.array([0.25, 0.25, 0.5]))
        assert np.array_equal(m.points.ravel(), [-1e308, 1e308, 1.5e308])
        assert np.array_equal(m.weights, [0.5, 0.25, 0.25])


class TestQuantile:
    def test_left_continuity_at_jump(self):
        d = line_measure([0, 1], [0.5, 0.5])
        assert ms.quantile(d, 0.5) == 0.0

    def test_above_jump(self):
        d = line_measure([0, 1], [0.5, 0.5])
        assert ms.quantile(d, 0.6) == 1.0

    def test_quartiles(self):
        d = line_measure([1, 2, 3, 4], [0.25] * 4)
        # brute-force inf over a fine t-grid of {t : F(t) >= beta}
        grid = np.linspace(0, 5, 50001)
        cdf = lambda t: sum(w for v, w in zip(d.points[:, 0], d.weights) if v <= t)
        expected = min(t for t in grid if cdf(t) >= 0.8)
        assert ms.quantile(d, 0.8) == pytest.approx(expected, abs=1e-3)
        assert ms.quantile(d, 0.8) == 4.0

    def test_range_validation(self):
        d = line_measure([0], [1.0])
        for beta in (0.0, 1.0, -0.1, 1.1, np.nan, [0.5, np.nan]):
            with pytest.raises(OutOfRange):
                ms.quantile(d, beta)

    def test_monotone_and_left_continuous(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.integers(1, 10)
            d = line_measure(rng.normal(size=k), rng.uniform(0.1, 1, size=k))
            betas = np.sort(rng.uniform(0.01, 0.99, size=200))
            qs = ms.quantile(d, betas)
            assert np.all(np.diff(qs) >= 0)
            # at non-jump points, stepping back 1e-12 changes nothing
            cum = cumulative_weights(d)
            away = betas[np.min(np.abs(betas[:, None] - cum[None, :]), axis=1) > 1e-6]
            assert np.array_equal(ms.quantile(d, away - 1e-12), ms.quantile(d, away))


class TestLineMeasure:
    @pytest.mark.parametrize(
        "values,weights",
        [
            ([0.0, np.nan], [0.5, 0.5]),
            ([0.0, np.inf], [0.5, 0.5]),
            ([0.0, 1.0], [np.nan, 0.5]),
            ([0.0, 1.0], [np.inf, 0.5]),
        ],
        ids=["nan-value", "inf-value", "nan-weight", "inf-weight"],
    )
    def test_non_finite_raises(self, values, weights):
        with pytest.raises(OutOfRange):
            line_measure(values, weights)

    @pytest.mark.parametrize(
        "points, weights",
        [(np.zeros(3), np.ones(3)), ([[0.0], [1.0]], [1.0]), ([[0.0], [1.0]], np.ones((2, 1)))],
        ids=["value-vector", "short-weights", "weight-matrix"],
    )
    def test_malformed_shapes_are_dim_mismatch(self, points, weights):
        with pytest.raises(DimMismatch):
            ms.canonicalize_arrays(points, weights)

    def test_nan_image_raises_instead_of_nan_risk(self):
        with pytest.raises(OutOfRange):
            ms.canonicalize_arrays(np.array([[0.0], [np.nan]]), [0.5, 0.5])


class TestLineImages:
    """The image f(x, .)#nu of a column of values f(x, z_i) with nu's weights."""

    @staticmethod
    def image(nu, x, f):
        values = [[f(np.asarray(x, dtype=float), z)] for z in nu.points]
        return ms.canonicalize_arrays(values, nu.weights)

    def test_affine_image(self):
        nu = ms.canonicalize([((0,), 0.5), ((1,), 0.5)])
        pf = self.image(nu, [1.0], lambda x, z: x[0] + z[0])
        assert pf.dim == 1 and np.allclose(pf.points[:, 0], [1, 2])
        assert np.allclose(pf.weights, [0.5, 0.5])

    def test_images_merge(self):
        nu = ms.canonicalize([((0,), 0.5), ((2,), 0.5)])
        pf = self.image(nu, [1.0], lambda x, z: abs(x[0] - z[0]))
        assert np.allclose(pf.points[:, 0], [1.0])
        assert np.allclose(pf.weights, [1.0])

    def test_mass_preserved(self):
        rng = np.random.default_rng(5)
        nu = ms.canonicalize([(rng.normal(size=2), rng.uniform(0.1, 1)) for _ in range(7)])
        pf = self.image(nu, [0.3, 0.4], lambda x, z: float(np.dot(x, z)))
        assert pf.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fubini_consistency(self):
        # moment of the image equals the direct weighted sum of |f|^p
        rng = np.random.default_rng(9)
        nu = ms.canonicalize([(rng.normal(size=1), rng.uniform(0.1, 1)) for _ in range(9)])
        f = lambda x, z: x[0] * z[0] + np.sin(z[0])
        for p in (1.0, 2.0, 3.5):
            pf = self.image(nu, [1.7], f)
            direct = sum(
                w * abs(f(np.array([1.7]), z)) ** p for z, w in zip(nu.points, nu.weights)
            )
            assert ms.moment(pf, p) == pytest.approx(direct, abs=1e-10)


class TestMoments:
    def test_dirac_zero(self):
        assert ms.moment(ms.dirac([0.0]), 2.7) == 0.0

    def test_single_atom(self):
        assert ms.moment(ms.canonicalize([((3,), 1.0)]), 2) == pytest.approx(9.0)

    def test_hand_summed_r2(self):
        mu = ms.canonicalize([((3, 4), 0.5), ((0, 0), 0.5)])
        direct = 0.5 * np.hypot(3, 4) + 0.5 * 0.0
        assert ms.moment(mu, 1) == pytest.approx(direct)
        assert ms.moment(mu, 1) == pytest.approx(2.5)

    def test_tail_dirac(self):
        assert ms.tail_functional(ms.dirac([0.0]), 1, 0.0) == 0.0
        assert ms.tail_functional(ms.dirac([0.0]), 2, 5.0) == 0.0

    def test_tail_escape_family(self):
        for n in (2, 10, 100):
            mu = ms.canonicalize([((0,), 1 - 1 / n), ((n,), 1 / n)])
            assert ms.tail_functional(mu, 1, n / 2) == pytest.approx(1.0)

    def test_tail_nan_threshold_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="nonnegative"):
            ms.tail_functional(ms.dirac([1.0]), 1, np.nan)

    def test_tail_partial(self):
        mu = ms.canonicalize([((1,), 0.5), ((2,), 0.5)])
        assert ms.tail_functional(mu, 1, 1.5) == pytest.approx(1.0)

    def test_tail_monotone_and_vanishing(self):
        rng = np.random.default_rng(13)
        mu = ms.canonicalize([(rng.normal(size=2), rng.uniform(0.1, 1)) for _ in range(8)])
        q = 1.7
        grid = np.linspace(0, 10, 40)
        tails = [ms.tail_functional(mu, q, a) for a in grid]
        assert all(x >= y - 1e-14 for x, y in zip(tails, tails[1:]))
        beyond = float(np.max(mu.norms()) ** q)
        assert ms.tail_functional(mu, q, beyond + 1e-9) == 0.0


class TestMix:
    def test_endpoints(self):
        mu = ms.dirac([0.0])
        nu = ms.dirac([1.0])
        assert ms.mix(mu, nu, 0.0) is mu
        assert ms.mix(mu, nu, 1.0) is nu

    def test_quarter(self):
        m = ms.mix(ms.dirac([0.0]), ms.dirac([1.0]), 0.25)
        assert np.allclose(m.points.ravel(), [0, 1])
        assert np.allclose(m.weights, [0.75, 0.25])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ms.mix(ms.dirac([0.0]), ms.dirac([0.0, 1.0]), 0.5)

    def test_moment_linearity(self):
        rng = np.random.default_rng(17)
        mu = ms.canonicalize([(rng.normal(size=1), rng.uniform(0.1, 1)) for _ in range(5)])
        nu = ms.canonicalize([(rng.normal(size=1) + 3, rng.uniform(0.1, 1)) for _ in range(4)])
        for t in (0.1, 0.5, 0.9):
            for q in (1.0, 2.0):
                mixed = ms.mix(mu, nu, t)
                expect = (1 - t) * ms.moment(mu, q) + t * ms.moment(nu, q)
                assert ms.moment(mixed, q) == pytest.approx(expect, abs=1e-12)


class TestEmpirical:
    def test_constant_sampler_collapses(self):
        m = ms.empirical(lambda rng, n: np.zeros((n, 1)), 5, seed=0)
        assert len(m) == 1
        assert m.weights[0] == 1.0

    def test_determinism(self):
        sampler = ms.box_sampler([-1.0], [1.0])
        a = ms.empirical(sampler, 100, seed=42)
        b = ms.empirical(sampler, 100, seed=42)
        assert a.digest() == b.digest()
        c = ms.empirical(sampler, 100, seed=43)
        assert a.digest() != c.digest()

    def test_binomial_concentration(self):
        base = ms.canonicalize([((0,), 0.5), ((1,), 0.5)])
        m = ms.empirical(measure_sampler(base), 10_000, seed=7)
        w0 = m.weights[np.isclose(m.points.ravel(), 0.0)][0]
        # direct counting oracle on the same draws
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        draws = measure_sampler(base)(rng, 10_000)
        assert w0 == pytest.approx(np.mean(draws.ravel() == 0.0), abs=1e-12)
        assert abs(w0 - 0.5) < 0.02

    def test_n_validation(self):
        with pytest.raises(OutOfRange):
            ms.empirical(lambda rng, n: np.zeros((n, 1)), 0, seed=0)


class TestSerialization:
    def test_round_trip(self):
        mu = ms.canonicalize([((0.25, -1), 0.5), ((2, 3), 0.5)])
        again = ms.DiscreteMeasure.loads(mu.dumps())
        assert np.array_equal(mu.points, again.points)
        assert np.array_equal(mu.weights, again.weights)

    def test_declared_dim_checked(self):
        with pytest.raises(DimMismatch):
            ms.DiscreteMeasure.from_dict(
                {"dim": 2, "atoms": [{"point": [0.0], "weight": 1.0}]}
            )
