import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanrisk import cli, optim
from meanrisk import metrics as mt
from meanrisk.errors import ConstraintLimitExceeded, DimMismatch, InvalidSpec, OutOfRange
from meanrisk.measure import POINT_TOL, DiscreteMeasure, canonicalize, moment
from meanrisk.measure import tail_functional

from oracles import (
    adjacent_bl_lp_oracle,
    bl_line_oracle,
    dense_transport_oracle,
    fortet_mourier_oracle,
    kron_marginal_rows,
    pairwise_bl_oracle,
    cumulative_weights,
    sorted_matching_wq,
    wasserstein_transport_oracle,
    wasserstein_union1d_grid,
)


def random_measure(rng, dim, max_atoms=8, grid=None):
    """Random measure; with ``grid`` the points are multiples of it in
    [-3, 3], so two draws tend to share atoms."""
    n = int(rng.integers(1, max_atoms + 1))
    if grid is None:
        pts = rng.normal(scale=1.5, size=(n, dim))
    else:
        pts = rng.integers(-int(3 / grid), int(3 / grid) + 1, size=(n, dim)) * grid
    return canonicalize(list(zip(pts, rng.uniform(0.1, 1.0, n))))


def random_pairs(seed, dim, count=12, max_atoms=8):
    rng = np.random.default_rng(seed)
    for k in range(count):
        grid = 0.5 if k % 2 else None
        yield random_measure(rng, dim, max_atoms, grid), random_measure(rng, dim, max_atoms, grid)


class TestBoundedLipschitz:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_pairwise_lp(self, dim):
        for mu, nu in random_pairs(100 + dim, dim):
            assert mt.bounded_lipschitz(mu, nu) == pytest.approx(pairwise_bl_oracle(mu, nu), abs=1e-9)

    def test_matches_pairwise_lp_40_atoms(self):
        rng = np.random.default_rng(5)
        mu, nu = random_measure(rng, 1, 40), random_measure(rng, 1, 40)
        assert mt.bounded_lipschitz(mu, nu) == pytest.approx(pairwise_bl_oracle(mu, nu), abs=1e-9)

    def test_far_apart_diracs_cap_at_two(self):
        mu, nu = canonicalize([((0.0, 0.0), 1.0)]), canonicalize([((5.0, 0.0), 1.0)])
        assert mt.bounded_lipschitz(mu, nu) == pytest.approx(2.0, abs=1e-12)
        mu, nu = canonicalize([(0.0, 1.0)]), canonicalize([(0.3, 1.0)])
        assert mt.bounded_lipschitz(mu, nu) == pytest.approx(0.3, abs=1e-12)

    def test_one_dim_makes_no_lp(self, monkeypatch):
        calls = []
        for owner, name in ((optim, "solve_lp"), (scipy.optimize, "linprog")):
            real = getattr(owner, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        rng = np.random.default_rng(11)
        mu = canonicalize([(p, 1.0) for p in rng.normal(size=1000)])
        nu = canonicalize([(p, 1.0) for p in rng.normal(0.1, 1.0, size=1000)])
        value = mt.bounded_lipschitz(mu, nu)
        psi = mt.psi_metric(mu, nu, 2.0)
        assert calls == []
        monkeypatch.undo()
        pts, w1, w2 = mt._union_support(mu, nu)
        assert len(pts) == 2000
        assert value == pytest.approx(adjacent_bl_lp_oracle(pts[:, 0], w1 - w2), abs=1e-12)
        assert psi == value + abs(moment(mu, 2.0) - moment(nu, 2.0))
        assert 0.0 < value <= mt.wasserstein(mu, nu, 1.0) + 1e-12

    def test_psi_adds_moment_gap(self):
        for mu, nu in random_pairs(7, 1, count=4):
            expected = mt.bounded_lipschitz(mu, nu) + abs(moment(mu, 2.0) - moment(nu, 2.0))
            assert mt.psi_metric(mu, nu, 2.0) == expected

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            mt.bounded_lipschitz(canonicalize([(0.0, 1.0)]), canonicalize([((0.0, 0.0), 1.0)]))


def line_pairs(seed, count):
    """1-D pairs of small measures, cycling through six kinds: random,
    single atoms, identical measures, atoms within POINT_TOL of the other
    measure's (merged by canonicalization), atoms more than 2 apart, and
    equal weights whose sum is 1 only up to round-off."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = ["random", "single", "identical", "ties", "far", "round-off"][k % 6]
        n, n2 = (1, 1) if kind == "single" else (int(v) for v in rng.integers(1, 8, 2))
        scale = rng.choice([0.01, 0.5, 2.0])
        p1, p2 = rng.normal(scale=scale, size=n), rng.normal(scale=scale, size=n2)
        if kind == "ties":
            p2 = np.concatenate([p1 + rng.uniform(-0.4, 0.4, n) * POINT_TOL, p2])
        elif kind == "far":
            pts = np.cumsum(rng.uniform(2.1, 4.0, n + n2))
            p1, p2 = pts[:n], rng.permutation(pts)[:n2]
        w1, w2 = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, len(p2))
        if kind == "round-off":
            # sums 1 - 2.2e-16 and 1 - 1.1e-16, which canonicalize keeps
            p1, p2 = rng.normal(size=7), rng.normal(size=15)
            w1, w2 = np.full(7, 1 / 7), np.full(15, 1 / 15)
        elif kind == "identical":
            p2, w2 = p1[::-1], w1[::-1]
        yield kind, canonicalize(list(zip(p1, w1))), canonicalize(list(zip(p2, w2)))


class TestLineProgram:
    """The heap program of ``_bl_line`` against the fragment-list program it
    replaced, the adjacent-row LP and the dense pairwise LP, on 360 seeded
    1-D pairs."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for kind, mu, nu in line_pairs(2024, 360):
            pts, w1, w2 = mt._union_support(mu, nu)
            out.append((kind, mu, nu, pts[:, 0], w1 - w2))
        return out

    def test_matches_lp_oracles(self, cases):
        for kind, mu, nu, t, a in cases:
            bl = mt.bounded_lipschitz(mu, nu)
            assert bl == pytest.approx(adjacent_bl_lp_oracle(t, a), abs=1e-12), kind
            assert bl == pytest.approx(pairwise_bl_oracle(mu, nu), abs=1e-12), kind
            assert bl == pytest.approx(bl_line_oracle(t, a), rel=1e-12, abs=1e-15), kind

    def test_special_kinds(self, cases):
        kinds = {kind for kind, *_ in cases}
        assert kinds == {"random", "single", "identical", "ties", "far", "round-off"}
        for kind, mu, nu, t, a in cases:
            if kind == "identical":
                assert mt.bounded_lipschitz(mu, nu) == 0.0
            elif kind == "far":
                assert mt.bounded_lipschitz(mu, nu) == pytest.approx(np.abs(a).sum(), abs=1e-15)
            elif kind == "ties":
                assert len(t) < len(mu) + len(nu)
            elif kind == "round-off":
                assert mu.weights.sum() != 1.0 and nu.weights.sum() != 1.0
        # the last partial sum of mu - nu, A_m, is not 0 for some of them
        assert any(np.cumsum(a)[-1] != 0.0 for kind, *_, a in cases if kind == "round-off")

    def test_symmetric(self, cases):
        for kind, mu, nu, *_ in cases:
            assert abs(mt.bounded_lipschitz(mu, nu) - mt.bounded_lipschitz(nu, mu)) <= 1e-15, kind

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), n2=st.integers(1, 20),
           kind=st.sampled_from(["random", "zero weights", "equal gaps", "gaps above 2",
                                 "jitter"]))
    @example(seed=4, n=4000, n2=4000, kind="jitter")
    def test_matches_both_line_oracles_both_ways_round(self, seed, n, n2, kind):
        # 2-40 union atoms: some of zero weight, all on one grid (shared
        # atoms merge), every gap above 2, or a jitter pair: n equal-weight
        # atoms and each moved by up to 0.004, the near-cancelling case where
        # the fragment-list program piled up breakpoints
        rng = np.random.default_rng(seed)
        w1, w2 = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n2)
        if kind == "equal gaps":
            grid = np.arange(n + n2) * rng.choice([1e-3, 0.3, 1.0, 2.0])
            p1, p2 = grid[:n], rng.permutation(grid)[:n2]
        elif kind == "gaps above 2":
            grid = np.cumsum(rng.uniform(2.0, 5.0, n + n2))
            p1, p2 = grid[:n], rng.permutation(grid)[:n2]
        elif kind == "jitter":
            p1 = rng.normal(size=n)
            p2 = p1 + rng.uniform(-0.004, 0.004, n)
            w1 = w2 = np.ones(n)
        else:
            p1, p2 = rng.normal(size=n), rng.normal(size=n2)
        if kind == "zero weights":
            w1[rng.random(n) < 0.3] = 0.0
            w2[rng.random(n2) < 0.3] = 0.0
            w1[0] = w2[0] = 0.5
        mu, nu = DiscreteMeasure(p1[:, None], w1), DiscreteMeasure(p2[:, None], w2)
        bl = mt.bounded_lipschitz(mu, nu)
        assert mt.bounded_lipschitz(nu, mu) == pytest.approx(bl, rel=1e-12, abs=1e-15)
        pts, v1, v2 = mt._union_support(mu, nu)
        t, a = pts[:, 0], v1 - v2
        if not (np.any(a > 1e-15) and np.any(a < -1e-15)):
            assert bl == 0.0
            return
        assert bl == pytest.approx(bl_line_oracle(t, a), rel=1e-12, abs=1e-15)
        assert bl == pytest.approx(adjacent_bl_lp_oracle(t, a), rel=1e-12, abs=1e-13)


class TestFortetMourier:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_one_dim_closed_form_matches_floyd_warshall(self, q):
        for mu, nu in random_pairs(200 + int(10 * q), 1, count=10, max_atoms=10):
            expected = fortet_mourier_oracle(mu, nu, q)
            assert mt.fortet_mourier(mu, nu, q) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_two_dim_matches_oracle(self, q):
        for mu, nu in random_pairs(300, 2, count=6, max_atoms=6):
            expected = fortet_mourier_oracle(mu, nu, q)
            assert mt.fortet_mourier(mu, nu, q) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_order_one_is_w1_on_the_line(self):
        for mu, nu in random_pairs(400, 1, count=10, max_atoms=12):
            w1 = mt.wasserstein(mu, nu, 1.0)
            assert mt.fortet_mourier(mu, nu, 1.0) == pytest.approx(w1, rel=1e-12, abs=1e-14)

    def test_rejects_order_below_one(self):
        mu = canonicalize([(0.0, 1.0)])
        with pytest.raises(OutOfRange):
            mt.fortet_mourier(mu, mu, 0.5)


class TestWasserstein:
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_one_dim_matches_sorted_matching(self, q):
        rng = np.random.default_rng(int(q))
        for n in (1, 5, 17):
            x, y = rng.normal(size=n), rng.normal(1.0, 2.0, size=n)
            mu = canonicalize([(v, 1.0) for v in x])
            nu = canonicalize([(v, 1.0) for v in y])
            assert mt.wasserstein(mu, nu, q) == pytest.approx(sorted_matching_wq(x, y, q), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           scale=st.sampled_from([1e-11, 1.0, 1e300]), uniform=st.booleans())
    def test_a_measure_rebuilt_from_its_arrays_keeps_its_bits(self, seed, n, scale, uniform):
        # near-ties at 1e-11, spread atoms, and gaps that overflow near 1e308
        rng = np.random.default_rng(seed)
        weights = np.ones(n) if uniform else rng.uniform(0.1, 1.0, n)
        mu = canonicalize(list(zip(rng.normal(size=n) * scale, weights)))
        again = DiscreteMeasure(mu.points, mu.weights)
        assert again.points.tobytes() == mu.points.tobytes()
        assert again.weights.tobytes() == mu.weights.tobytes()
        assert mt.wasserstein(again, mu, 1.0) == 0.0

    def test_hand_built_unsorted_measure(self):
        # unsorted, with two atoms within POINT_TOL: the constructor merges
        # them as canonicalize does, and renormalizes the weights
        points, weights = np.array([[2.0], [0.0], [1.0], [5e-13]]), np.ones(4)
        mu = DiscreteMeasure(points, weights)
        assert np.array_equal(mu.points[:, 0], [0.0, 1.0, 2.0])
        assert np.array_equal(mu.weights, [0.5, 0.25, 0.25])
        assert mu.digest() == canonicalize(list(zip(points, weights))).digest()
        nu = canonicalize([((0.0,), 1.0)])
        assert mt.wasserstein(mu, nu, 1.0) == pytest.approx(0.75, rel=1e-15)
        assert mt.wasserstein(nu, mu, 1.0) == pytest.approx(0.75, rel=1e-15)
        # sorted, but two atoms within POINT_TOL: still merged
        mu = DiscreteMeasure(np.array([[0.0], [5e-13], [1.0]]), np.array([0.25, 0.25, 0.5]))
        assert np.array_equal(mu.points[:, 0], [0.0, 1.0])
        assert np.array_equal(mu.weights, [0.5, 0.5])

    def test_far_atoms_gap_overflow_is_quiet(self):
        mu = canonicalize([(-1e308, 0.5), (1e308, 0.25), (1.5e308, 0.25)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = DiscreteMeasure(mu.points, mu.weights)
            assert mt.wasserstein(mu, mu, 1.0) == 0.0
        assert again.digest() == mu.digest()

    @pytest.mark.parametrize("seed", range(20))
    def test_one_dim_grid_is_union1d_with_exact_ties(self, seed):
        # weights in 64ths, zeros among them: the cumulative sums are exact,
        # so cuts tie between the two measures and within one
        rng = np.random.default_rng(seed)
        pair = []
        for _ in range(2):
            n = int(rng.integers(1, 12))
            counts = np.diff(np.sort(np.concatenate(([0, 64], rng.integers(0, 65, n - 1)))))
            pair.append(DiscreteMeasure(rng.normal(size=(n, 1)), counts / 64.0))
        cums = [cumulative_weights(m) for m in pair]
        assert len(np.union1d(*cums)) < sum(map(len, cums))
        for mu, nu in (pair, pair[::-1]):
            for q in (1.0, 2.0, 3.0):
                assert mt.wasserstein(mu, nu, q) == wasserstein_union1d_grid(mu, nu, q)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_distances_are_linalg_norm_bit_for_bit(self, dim):
        # scales 1e-300 to 1e300: differences whose squares underflow or overflow
        rng = np.random.default_rng(dim)
        X, Y = (rng.normal(size=(30, dim)) * 10.0 ** rng.integers(-300, 301, size=(30, 1))
                for _ in range(2))
        with np.errstate(over="ignore"):
            want = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
            got = mt._distances(X, Y)
        assert np.isinf(want).any() and (want < 1e-290).any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,q", [(1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0), (3, 2.0)])
    def test_matches_dense_transport(self, dim, q):
        for mu, nu in random_pairs(500 + dim, dim, count=6):
            expected = wasserstein_transport_oracle(mu, nu, q)
            assert mt.wasserstein(mu, nu, q) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestTransportPlan:
    def test_matches_dense_lp(self):
        rng = np.random.default_rng(3)
        for n_s, n_d in [(1, 1), (1, 4), (4, 1), (3, 5), (12, 9), (20, 30)]:
            w_s, w_d = rng.uniform(0.1, 1.0, n_s), rng.uniform(0.1, 1.0, n_d)
            w_d *= w_s.sum() / w_d.sum()
            C = rng.uniform(0.0, 3.0, (n_s, n_d))
            cost = mt.transport_plan(w_s, w_d, C)
            assert cost == pytest.approx(dense_transport_oracle(w_s, w_d, C), abs=1e-9)

    def test_a_plan_off_its_marginals_is_out_of_range(self, monkeypatch):
        solve = optim.solve_lp

        def scaled(prob):
            sol = solve(prob)
            return optim.Solution("optimal", sol.value, sol.point * (1.0 + 1e-6))

        monkeypatch.setattr(optim, "solve_lp", scaled)
        with pytest.raises(OutOfRange, match="^transport marginals off by 7.00e-07$"):
            mt.transport_plan([0.5, 0.5], [0.3, 0.7], np.ones((2, 2)))

    def test_unequal_masses_rejected(self):
        with pytest.raises(OutOfRange):
            mt.transport_plan([1.0], [0.5], np.zeros((1, 1)))

    def test_lp_input_and_output_match_the_kron_construction(self, monkeypatch):
        # the marginal rows built from index arrays are, CSR array for CSR
        # array, the Kronecker-product rows, and the solver returns the same
        # bits for both (the tableau up to 80 entries, HiGHS above)
        calls = []
        solve = optim.solve_lp
        monkeypatch.setattr(optim, "solve_lp", lambda prob: calls.append(prob) or solve(prob))
        rng = np.random.default_rng(8)
        for n_s, n_d in [(1, 1), (1, 4), (4, 1), (3, 5), (12, 9), (20, 30), (60, 45)]:
            w_s, w_d = rng.uniform(0.1, 1.0, n_s), rng.uniform(0.1, 1.0, n_d)
            w_d *= w_s.sum() / w_d.sum()
            if n_s == n_d == 1:
                w_d = np.nextafter(w_s, 2.0)  # unequal weights keep the LP
            C = rng.uniform(0.0, 3.0, (n_s, n_d))
            calls.clear()
            cost = mt.transport_plan(w_s, w_d, C)
            (prob,) = calls
            kron = optim.LinearProgram(C.reshape(-1), kron_marginal_rows(n_s, n_d),
                                       np.concatenate([w_s, w_d[:-1]]))
            for part in ("data", "indices", "indptr"):
                new, old = getattr(prob.A, part), getattr(kron.A, part)
                assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
            assert prob.c.tobytes() == kron.c.tobytes() and prob.b.tobytes() == kron.b.tobytes()
            got, want = solve(prob), solve(kron)
            assert got.value == want.value and got.point.tobytes() == want.point.tobytes()
            plan = want.point.reshape(n_s, n_d)
            assert cost == float(np.sum(np.where(plan > 1e-14, plan, 0.0) * C))


def empirical(points):
    return canonicalize([(p, 1.0) for p in points])


class TestAssignment:
    """Equal-weight plans of equal size are permutations, found without an LP."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        real = optim._scipy_solve
        monkeypatch.setattr(optim, "_scipy_solve", lambda prob: calls.append(prob) or real(prob))
        return calls

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 60])
    def test_matches_dense_lp(self, n, dim):
        rng = np.random.default_rng(10 * n + dim)
        mu, nu = empirical(rng.normal(size=(n, dim))), empirical(rng.normal(size=(n, dim)))
        C = mt._distances(mu.points, nu.points) ** 2
        cost = mt.transport_plan(mu.weights, nu.weights, C)
        assert cost == pytest.approx(dense_transport_oracle(mu.weights, nu.weights, C),
                                     rel=1e-12, abs=0.0)

    def test_lp_only_when_weights_differ(self, lp_calls):
        rng = np.random.default_rng(4)
        C = rng.uniform(0.0, 3.0, (16, 16))
        w = np.full(16, 1.0 / 16)
        mt.transport_plan(w, w, C)
        assert lp_calls == []
        uneven = rng.uniform(0.5, 1.5, 16)
        cases = [
            (uneven / uneven.sum(), w, C),  # unequal weights
            (w, np.full(8, 1.0 / 8), C[:, :8]),  # unequal counts
            (w, np.full(16, np.nextafter(1.0 / 16, 1.0)), C),  # equal per side only
        ]
        for w_s, w_d, cost in cases:
            lp_calls.clear()
            got = mt.transport_plan(w_s, w_d, cost)
            assert len(lp_calls) == 1
            assert got == pytest.approx(dense_transport_oracle(w_s, w_d, cost), abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_disjoint_empirical_pairs_match_their_oracles(self, dim, lp_calls):
        rng = np.random.default_rng(dim)
        mu, nu = empirical(rng.normal(size=(16, dim))), empirical(rng.normal(0.3, 1.0, (16, dim)))
        w2 = mt.wasserstein(mu, nu, 2.0)
        bl = mt.bounded_lipschitz(mu, nu)
        fm = mt.fortet_mourier(mu, nu, 2.0)
        assert lp_calls == []
        assert w2 == pytest.approx(wasserstein_transport_oracle(mu, nu, 2.0), rel=1e-12)
        assert bl == pytest.approx(pairwise_bl_oracle(mu, nu), rel=1e-9)
        assert fm == pytest.approx(fortet_mourier_oracle(mu, nu, 2.0), rel=1e-9)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_both_argument_orders_agree(self, q):
        # the same float: the cost is summed exactly (a plain sum of the
        # same terms in the other order differs in the last bit about a
        # third of the time at this size)
        rng = np.random.default_rng(int(q))
        for _ in range(8):
            mu, nu = empirical(rng.normal(size=(40, 2))), empirical(rng.normal(size=(40, 2)))
            assert mt.wasserstein(mu, nu, q) == mt.wasserstein(nu, mu, q)
            assert mt.bounded_lipschitz(mu, nu) == mt.bounded_lipschitz(nu, mu)

    @pytest.mark.parametrize("w_dst", [np.full(3, 0.25), np.array([0.2, 0.25, 0.3])],
                             ids=["assignment", "lp"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_is_invalid_on_both_branches(self, w_dst, bad):
        C = np.ones((3, 3))
        C[1, 2] = bad
        with pytest.raises(InvalidSpec, match="^non-finite entries in c$"):
            mt.transport_plan(np.full(3, 0.25), w_dst, C)


class TestUniformIntegrability:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.7])
    def test_tails_match_one_tail_functional_per_threshold(self, dim, q):
        rng = np.random.default_rng(dim)
        family = [random_measure(rng, dim, max_atoms=12, grid=0.5 if k % 2 else None)
                  for k in range(6)]
        grid = np.concatenate([[0.0], np.logspace(-2.0, 2.0, 24)])
        report = mt.diagnose_uniform_integrability(family, q, grid)
        loop = np.array([[tail_functional(m, q, a) for a in grid] for m in family])
        assert report.tails.tobytes() == loop.tobytes()
        assert report.sup_tails.tobytes() == loop.max(axis=0).tobytes()

    def test_overflowing_tail_is_out_of_range(self):
        far = canonicalize([((1e200,), 1.0), ((0.0,), 1.0)])
        with pytest.raises(OutOfRange, match="tail functional is inf at order q = 2.0"):
            mt.diagnose_uniform_integrability([far], 2.0, [0.0, 1.0])


class TestSizeCap:
    def test_transport_plan_refused_before_solving(self):
        cost = np.broadcast_to(0.0, (1001, 1000))
        with pytest.raises(ConstraintLimitExceeded):
            mt.transport_plan(np.ones(1001), np.full(1000, 1.001), cost)

    @pytest.fixture(scope="class")
    def big_pair(self):
        rng = np.random.default_rng(0)
        mu = canonicalize([(p, 1.0) for p in rng.uniform(0.0, 1.0, (1001, 2))])
        nu = canonicalize([(p, 1.0) for p in rng.uniform(2.0, 3.0, (1000, 2))])
        return mu, nu

    @pytest.mark.parametrize(
        "metric",
        [
            mt.bounded_lipschitz,
            lambda mu, nu: mt.wasserstein(mu, nu, 2.0),
            lambda mu, nu: mt.fortet_mourier(mu, nu, 1.0),
        ],
        ids=["bl", "wasserstein", "fm"],
    )
    def test_metrics_refuse_oversized_two_dim_pairs(self, big_pair, metric):
        with pytest.raises(ConstraintLimitExceeded):
            metric(*big_pair)

    @pytest.mark.parametrize("kind", ["bl", "wasserstein", "fm", "psi"])
    def test_cli_exit_code(self, big_pair, kind, tmp_path, capsys):
        paths = []
        for name, m in zip("ab", big_pair):
            path = tmp_path / f"{name}.json"
            path.write_text(m.dumps())
            paths.append(str(path))
        argv = ["metrics", "--measure", paths[0], "--measure2", paths[1], "--kind", kind]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and "plan" in out.err


NEAR = (canonicalize([((0.5,), 0.5), ((2.0,), 0.5)]),
        canonicalize([((0.0,), 0.5), ((3.0,), 0.5)]))
FAR = (NEAR[0], canonicalize([((10.0,), 1.0)]))
# two atoms 30 apart in the plane against one between them
FAR_2D = (canonicalize([((0.0, 0.0), 0.5), ((30.0, 0.0), 0.5)]),
          canonicalize([((15.0, 0.0), 1.0)]))
PAIRS = {"near": NEAR, "far": FAR, "far-2d": FAR_2D}
ORDERED = {"wasserstein": mt.wasserstein, "fm": mt.fortet_mourier, "psi": mt.psi_metric}
# (kind, --q, pair): non-finite orders, then finite orders whose value or
# cost overflows
NON_FINITE = [(kind, q, "near") for kind in ORDERED for q in ("inf", "nan")] + [
    ("fm", "1000", "near"), ("psi", "1000", "near"), ("wasserstein", "1000", "far")] + [
    (kind, "1000", "far-2d") for kind in ORDERED]


class TestNonFinite:
    """A non-finite order, or a value that overflows, is OutOfRange (CLI exit
    2), never a NaN, an Infinity or a meaningless 1.0 on stdout."""

    @pytest.mark.parametrize("kind, q, pair", NON_FINITE)
    def test_api_raises(self, kind, q, pair):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OutOfRange, match="finite"):
                ORDERED[kind](*PAIRS[pair], float(q))

    @pytest.mark.parametrize("kind, q, pair", NON_FINITE)
    def test_cli_exit_code(self, kind, q, pair, tmp_path, capsys):
        paths = []
        for name, m in zip("ab", PAIRS[pair]):
            path = tmp_path / f"{name}.json"
            path.write_text(m.dumps())
            paths.append(str(path))
        argv = ["metrics", "--measure", paths[0], "--measure2", paths[1], "--kind", kind,
                "--q", q]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error:") and "finite" in out.err

    def test_large_finite_order_still_works(self):
        assert np.isfinite(mt.wasserstein(*NEAR, 1000.0))

    def test_nan_threshold_grid_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="thresholds"):
            mt.diagnose_uniform_integrability(NEAR, 1.0, [0.0, np.nan, 2.0])


# --- metric axioms on small random measures ---------------------------------

atom = st.tuples(st.integers(-6, 6), st.integers(1, 4))
atoms = st.lists(atom, min_size=1, max_size=6)


def from_atoms(raw):
    return canonicalize([((0.5 * p,), float(w)) for p, w in raw])


METRICS = {
    "bl": mt.bounded_lipschitz,
    "w1": lambda mu, nu: mt.wasserstein(mu, nu, 1.0),
    "fm2": lambda mu, nu: mt.fortet_mourier(mu, nu, 2.0),
}


@pytest.mark.parametrize("name", sorted(METRICS))
@settings(max_examples=40, deadline=None)
@given(a=atoms, b=atoms)
def test_symmetric_and_zero_iff_equal(name, a, b):
    d = METRICS[name]
    mu, nu = from_atoms(a), from_atoms(b)
    assert d(mu, nu) == pytest.approx(d(nu, mu), abs=1e-10)
    assert d(mu, mu) == 0.0
    equal = np.array_equal(mu.points, nu.points) and np.allclose(mu.weights, nu.weights, atol=1e-12)
    assert (d(mu, nu) <= 1e-12) == equal


@pytest.mark.parametrize("name", ["bl", "w1"])
@settings(max_examples=40, deadline=None)
@given(a=atoms, b=atoms, c=atoms)
def test_triangle_inequality(name, a, b, c):
    d = METRICS[name]
    mu, nu, xi = from_atoms(a), from_atoms(b), from_atoms(c)
    assert d(mu, xi) <= d(mu, nu) + d(nu, xi) + 1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.lists(st.tuples(atom, atom), min_size=1, max_size=5))
def test_bl_triangle_inequality_two_dim(a):
    pts = [((0.5 * p, 0.5 * r), float(w + v)) for (p, w), (r, v) in a]
    mu = canonicalize(pts)
    nu = canonicalize([((y, x), w) for (x, y), w in pts])
    xi = canonicalize([((x, 0.0), w) for (x, _), w in pts])
    d = mt.bounded_lipschitz
    assert d(mu, xi) <= d(mu, nu) + d(nu, xi) + 1e-9
