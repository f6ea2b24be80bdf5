import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import risk as rk
from meanrisk.errors import DimMismatch, InvalidSpec, OutOfRange
from meanrisk.measure import POINT_TOL, DiscreteMeasure, canonicalize, quantile

from oracles import (
    avar_ru_oracle,
    comonotone_mixture,
    direct_mean,
    direct_semidev,
    direct_target_semidev,
    image_risk_oracle,
    line_measure,
    random_distribution,
    riemann_avar,
    stop_loss_grid,
)


def dist(values, weights):
    return line_measure(values, weights)


TWO_POINT = dist([0, 2], [0.5, 0.5])
QUARTERS = dist([1, 2, 3, 4], [0.25] * 4)

ALL_SPECS = [
    rk.RiskSpec("expectation"),
    rk.RiskSpec("avar", alpha=0.5),
    rk.RiskSpec("avar", alpha=0.9),
    rk.RiskSpec("semidev", a=1.0, p=1.0),
    rk.RiskSpec("semidev", a=0.5, p=2.0),
    rk.RiskSpec("target_semidev", a=1.0, c=1.0, p=1.0),
    rk.RiskSpec("target_semidev", a=0.7, c=2.0, p=2.0),
]

EQUIVARIANT_SPECS = [s for s in ALL_SPECS if s.kind != "target_semidev"]


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(InvalidSpec):
            rk.RiskSpec("made_up")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0, None])
    def test_bad_alpha(self, alpha):
        with pytest.raises(InvalidSpec):
            rk.RiskSpec("avar", alpha=alpha)

    def test_bad_semidev(self):
        with pytest.raises(InvalidSpec):
            rk.RiskSpec("semidev", a=1.5, p=1.0)
        with pytest.raises(InvalidSpec):
            rk.RiskSpec("semidev", a=0.5, p=0.5)
        with pytest.raises(InvalidSpec):
            rk.RiskSpec("target_semidev", a=0.5, c=-1.0, p=1.0)

    def test_round_trip(self):
        spec = rk.RiskSpec("target_semidev", a=0.5, c=2.0, p=3.0)
        assert rk.RiskSpec.from_dict(spec.to_dict()) == spec


class TestEvaluate:
    def test_expectation(self):
        assert rk.evaluate_risk(rk.RiskSpec("expectation"), TWO_POINT) == pytest.approx(1.0)

    def test_avar_constant(self):
        for c in (-3.0, 0.0, 7.5):
            d = dist([c], [1.0])
            assert rk.evaluate_risk(rk.RiskSpec("avar", alpha=0.5), d) == pytest.approx(c)

    def test_semidev_a0_is_mean(self):
        spec = rk.RiskSpec("semidev", a=0.0, p=2.0)
        for d in (TWO_POINT, QUARTERS):
            mean = direct_mean(d.points[:, 0], d.weights)
            assert rk.evaluate_risk(spec, d) == pytest.approx(mean, abs=1e-12)


class TestAvar:
    def test_two_point_half(self):
        assert rk.avar(dist([0, 1], [0.5, 0.5]), 0.5) == pytest.approx(1.0)

    def test_quarters(self):
        assert rk.avar(QUARTERS, 0.5) == pytest.approx(3.5)
        assert rk.avar(QUARTERS, 0.75) == pytest.approx(4.0)

    def test_riemann_oracle(self):
        assert rk.avar(QUARTERS, 0.5) == pytest.approx(riemann_avar(QUARTERS, 0.5, 200_000), abs=1e-4)

    def test_alpha_range(self):
        with pytest.raises(OutOfRange):
            rk.avar(QUARTERS, 0.0)
        with pytest.raises(OutOfRange):
            rk.avar(QUARTERS, 1.0)

    def test_against_ru_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            d = random_distribution(rng, max_atoms=50)
            alpha = float(rng.uniform(0.05, 0.95))
            want = avar_ru_oracle(d.points[:, 0], d.weights, alpha)
            assert rk.avar(d, alpha) == pytest.approx(want, abs=1e-9)


class TestRuOracle:
    def test_dirac(self):
        assert avar_ru_oracle([4.2], [1.0], 0.3) == pytest.approx(4.2)

    def test_two_point(self):
        assert avar_ru_oracle([0, 1], [0.5, 0.5], 0.5) == pytest.approx(1.0)

    def test_quarters(self):
        assert avar_ru_oracle(QUARTERS.points[:, 0], QUARTERS.weights, 0.5) == pytest.approx(3.5)


class TestSemidev:
    def test_order_one(self):
        assert rk.semidev(TWO_POINT, 1, 1) == pytest.approx(
            direct_semidev([0, 2], [0.5, 0.5], 1, 1)
        )
        assert rk.semidev(TWO_POINT, 1, 1) == pytest.approx(1.5)

    def test_dirac_no_deviation(self):
        for a, p in ((0.3, 1.0), (1.0, 2.0)):
            assert rk.semidev(dist([5.0], [1.0]), a, p) == pytest.approx(5.0)

    def test_order_two(self):
        expect = 1 + 0.5**0.5
        assert rk.semidev(TWO_POINT, 1, 2) == pytest.approx(expect)

    def test_direct_oracle_random(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = random_distribution(rng)
            a, p = float(rng.uniform(0, 1)), float(rng.uniform(1, 3))
            assert rk.semidev(d, a, p) == pytest.approx(
                direct_semidev(d.points[:, 0], d.weights, a, p), abs=1e-12
            )


class TestTargetSemidev:
    def test_basic(self):
        assert rk.target_semidev(TWO_POINT, 1, 1, 1) == pytest.approx(1.5)

    def test_translation_equivariance_fails(self):
        shifted = dist([1, 3], [0.5, 0.5])
        v_shift = rk.target_semidev(shifted, 1, 1, 1)
        v_base = rk.target_semidev(TWO_POINT, 1, 1, 1)
        assert v_shift == pytest.approx(3.0)
        assert v_shift - (v_base + 1.0) >= 0.5 - 1e-10

    def test_below_target_is_mean(self):
        d = dist([-2, 0.5], [0.5, 0.5])
        assert rk.target_semidev(d, 0.8, 1.0, 2.0) == pytest.approx(-0.75)

    def test_direct_oracle_random(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            d = random_distribution(rng)
            a, c, p = float(rng.uniform(0, 1)), float(rng.uniform(0.5, 3)), float(rng.uniform(1, 3))
            assert rk.target_semidev(d, a, c, p) == pytest.approx(
                direct_target_semidev(d.points[:, 0], d.weights, a, c, p), abs=1e-12
            )


class TestLawInvariance:
    def test_permutations_and_splits_exact(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(-5, 5, size=8)
        weights = rng.uniform(0.1, 1, size=8)
        weights /= weights.sum()
        reference = dist(values, weights)
        perm = rng.permutation(8)
        permuted = dist(values[perm], weights[perm])
        split_vals = np.concatenate([values, values])
        split_wts = np.concatenate([weights / 2, weights / 2])
        split = dist(split_vals, split_wts)
        for spec in ALL_SPECS:
            ref = rk.evaluate_risk(spec, reference)
            assert rk.evaluate_risk(spec, permuted) == ref  # exact
            assert rk.evaluate_risk(spec, split) == ref  # exact


class TestMonotonicity:
    def test_quantile_dominance(self):
        rng = np.random.default_rng(43)
        grid = np.linspace(1e-4, 1 - 1e-4, 10_000)
        for _ in range(15):
            d = random_distribution(rng, max_atoms=10)
            lift = np.abs(rng.normal(size=len(d)))
            dominating = dist(d.points[:, 0] + lift, d.weights)
            assert np.all(quantile(dominating, grid) >= quantile(d, grid))
            for spec in ALL_SPECS:
                assert rk.evaluate_risk(spec, dominating) >= rk.evaluate_risk(spec, d) - 1e-10


class TestConvexity:
    def test_comonotone_mixtures(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            mu = random_distribution(rng, max_atoms=8)
            nu = random_distribution(rng, max_atoms=8)
            for lam in np.arange(0.1, 0.95, 0.1):
                mixed = comonotone_mixture(mu, nu, lam)
                for spec in ALL_SPECS:
                    bound = lam * rk.evaluate_risk(spec, mu) + (1 - lam) * rk.evaluate_risk(
                        spec, nu
                    )
                    assert rk.evaluate_risk(spec, mixed) <= bound + 1e-10


class TestTranslation:
    def test_equivariance(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            d = random_distribution(rng)
            t = float(rng.normal())
            for spec in EQUIVARIANT_SPECS:
                shifted = dist(d.points[:, 0] + t, d.weights)
                assert rk.evaluate_risk(spec, shifted) == pytest.approx(
                    rk.evaluate_risk(spec, d) + t, abs=1e-10
                )


class TestIcx:
    def test_reflexive(self):
        assert rk.icx_leq(QUARTERS, QUARTERS)

    def test_mean_preserving_spread(self):
        mu = dist([1], [1.0])
        nu = dist([0, 2], [0.5, 0.5])
        assert rk.icx_leq(mu, nu)
        # dense-grid stop-loss oracle agrees
        ts, mu_sl = stop_loss_grid(mu, -1, 3)
        _, nu_sl = stop_loss_grid(nu, -1, 3)
        assert np.all(mu_sl <= nu_sl + 1e-10)

    def test_strictly_larger_dirac_not_dominated(self):
        assert not rk.icx_leq(dist([2], [1.0]), dist([1], [1.0]))

    def test_implies_ordering_for_equivariant_specs(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            mu = random_distribution(rng, max_atoms=6)
            # mean preserving spread of one atom
            i = int(rng.integers(len(mu)))
            delta = float(rng.uniform(0.5, 2.0))
            vals = list(mu.points[:, 0])
            wts = list(mu.weights)
            v, w = vals.pop(i), wts.pop(i)
            vals += [v - delta, v + delta]
            wts += [w / 2, w / 2]
            nu = dist(vals, wts)
            assert rk.icx_leq(mu, nu)
            for spec in EQUIVARIANT_SPECS:
                assert rk.evaluate_risk(spec, mu) <= rk.evaluate_risk(spec, nu) + 1e-10


# every reader of a measure on the line, on a measure in the plane
PLANE = canonicalize([((0.0, 1.0), 0.5), ((2.0, 0.0), 0.5)])
LINE_READERS = {
    "evaluate-expectation": lambda m: rk.evaluate_risk(rk.RiskSpec("expectation"), m),
    "evaluate-avar": lambda m: rk.evaluate_risk(rk.RiskSpec("avar", alpha=0.5), m),
    "evaluate-semidev": lambda m: rk.evaluate_risk(rk.RiskSpec("semidev", a=0.5, p=2.0), m),
    "evaluate-target-semidev": lambda m: rk.evaluate_risk(
        rk.RiskSpec("target_semidev", a=0.5, c=1.0, p=2.0), m),
    "avar": lambda m: rk.avar(m, 0.5),
    "semidev": lambda m: rk.semidev(m, 0.5, 2.0),
    "target-semidev": lambda m: rk.target_semidev(m, 0.5, 1.0, 2.0),
    "quantile": lambda m: quantile(m, 0.5),
    "stop-loss": lambda m: rk.stop_loss(m, [0.0, 1.0]),
    "icx-leq-first": lambda m: rk.icx_leq(m, QUARTERS),
    "icx-leq-second": lambda m: rk.icx_leq(QUARTERS, m),
}


@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_line_readers_refuse_other_dimensions(reader):
    with pytest.raises(DimMismatch, match="a measure on the line is needed, got dim 2"):
        LINE_READERS[reader](PLANE)


def test_order_readers_read_the_constructed_atoms():
    # unsorted, two atoms within POINT_TOL and weights summing to 4: the
    # constructor sorts, merges and renormalizes, so the readers of atom
    # order see 0 (weight 1/2), 1 and 2 (1/4 each)
    values, weights = np.array([2.0, 0.0, 1.0, 5e-13]), np.ones(4)
    mu = DiscreteMeasure(values[:, None], weights)
    assert np.array_equal(mu.points[:, 0], [0.0, 1.0, 2.0])
    assert np.array_equal(mu.weights, [0.5, 0.25, 0.25])
    canonical = canonicalize(list(zip(values, weights)))
    betas = np.linspace(0.05, 0.95, 19)
    assert np.array_equal(quantile(mu, betas), quantile(canonical, betas))
    assert quantile(mu, 0.5) == 0.0 and quantile(mu, 0.6) == 1.0
    for alpha in (0.1, 0.5, 0.6, 0.9):
        assert rk.avar(mu, alpha) == rk.avar(canonical, alpha)
        assert rk.avar(mu, alpha) == pytest.approx(
            avar_ru_oracle(values, weights / 4, alpha), abs=1e-12)
    assert rk.avar(mu, 0.5) == pytest.approx(1.5)


@st.composite
def value_rows(draw):
    """k rows of m values on a grid moved by multiples of 4e-13 (anchor
    chains across POINT_TOL), signed zeros among them, and m weights with
    zeros and negative zeros, normalized; m also above 128, where numpy's
    pairwise sums split a row into blocks.  The entries come from a seeded
    generator, so long rows are cheap to draw."""
    k = draw(st.integers(1, 6))
    m = draw(st.one_of(st.integers(1, 30), st.integers(129, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = rng.integers(-2, 3, size=(k, m)) + rng.integers(-4, 5, size=(k, m)) * 4e-13
    F[(F == 0.0) & (rng.random((k, m)) < 0.5)] = -0.0
    weights = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, 0.3], size=m)
    weights[0] = draw(st.sampled_from([0.1, 1.0 / 3.0]))
    return F, weights / weights.sum()


# one spec of each kind, with orders p that are not integers
ROW_SPECS = [
    rk.RiskSpec("expectation"),
    rk.RiskSpec("avar", alpha=0.7),
    rk.RiskSpec("semidev", a=0.8, p=2.5),
    rk.RiskSpec("target_semidev", a=0.6, c=0.5, p=1.5),
]


def direct_risk(spec, values, weights) -> float:
    """rho of the values with the weights by the plain-sum oracles; avar by
    Rockafellar-Uryasev on the atoms as given, neither sorted nor merged."""
    if spec.kind == "expectation":
        return direct_mean(values, weights)
    if spec.kind == "avar":
        return avar_ru_oracle(values, weights, spec.alpha)
    if spec.kind == "semidev":
        return direct_semidev(values, weights, spec.a, spec.p)
    return direct_target_semidev(values, weights, spec.a, spec.c, spec.p)


def assert_close(got, want, tol):
    gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert np.all(gap <= tol), (gap.max(), got, want)


class TestRiskRows:
    """_risk_rows, the one closed form of each kind: rho of every row of a
    value array with one weight vector, as objective reads Q."""

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.kind)
    @settings(max_examples=300, deadline=None)
    @given(rows=value_rows(), data=st.data())
    def test_a_row_has_the_same_bits_in_any_batch(self, spec, rows, data):
        F, w = rows
        whole = rk._risk_rows(spec, F, w)
        assert whole.shape == (len(F),)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(F)), max_size=3)))
        split = np.concatenate([rk._risk_rows(spec, part, w) for part in np.split(F, cuts)])
        alone = np.concatenate([rk._risk_rows(spec, row[None, :], w) for row in F])
        assert split.tobytes() == whole.tobytes()
        assert alone.tobytes() == whole.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=value_rows())
    def test_matches_the_direct_oracles(self, rows):
        F, w = rows
        for spec in ROW_SPECS:
            want = np.array([direct_risk(spec, row, w) for row in F])
            assert_close(rk._risk_rows(spec, F, w), want, 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=value_rows())
    def test_matches_the_merged_image_on_exact_ties(self, rows):
        # rounded to the grid, values are equal or at least 1 apart, so the
        # merge adds the weights of equal values and moves none
        F, w = rows
        F = np.round(F)
        for spec in ROW_SPECS:
            assert_close(rk._risk_rows(spec, F, w), image_risk_oracle(spec, F, w), 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=value_rows())
    def test_a_merge_moves_the_risk_by_at_most_its_shift(self, rows):
        # the merge moves a value at most POINT_TOL down onto its anchor
        F, w = rows
        for spec in ROW_SPECS:
            got = rk._risk_rows(spec, F, w)
            want = image_risk_oracle(spec, F, w)
            bound = (1.0 + 2.0 * (spec.a or 0.0)) * POINT_TOL
            assert np.all(np.abs(got - want) <= bound + 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_anchor_chain_keeps_its_values(self):
        # 0 and 7e-13 merge into the atom 0; the row form keeps 7e-13
        F = np.array([[0.0, 7e-13]])
        w = np.array([0.5, 0.5])
        spec = rk.RiskSpec("expectation")
        assert rk._risk_rows(spec, F, w)[0] == 3.5e-13
        assert image_risk_oracle(spec, F, w)[0] == 0.0

    def test_public_functions_are_batches_of_one(self):
        d = dist([3.0, -1.0, 0.5, 2.0], [0.1, 0.4, 0.3, 0.2])
        t = d.points[:, 0][None, :]
        for spec in ROW_SPECS:
            assert rk.evaluate_risk(spec, d) == rk._risk_rows(spec, t, d.weights)[0]
        assert rk.avar(d, 0.7) == rk._risk_rows(ROW_SPECS[1], t, d.weights)[0]
        assert rk.semidev(d, 0.8, 2.5) == rk._risk_rows(ROW_SPECS[2], t, d.weights)[0]
        assert rk.target_semidev(d, 0.6, 0.5, 1.5) == rk._risk_rows(ROW_SPECS[3], t,
                                                                     d.weights)[0]


# Risk axioms as properties of random variables on one finite probability
# space: ``coupled`` draws weights w and the value vectors of ``count``
# variables, and each variable's law is line_measure(values, w).
value = st.floats(-50.0, 50.0)


@st.composite
def coupled(draw, count):
    n = draw(st.integers(1, 10))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    columns = [np.array(draw(st.lists(value, min_size=n, max_size=n))) for _ in range(count)]
    return weights / weights.sum(), columns


@settings(max_examples=100, deadline=None)
@given(space=coupled(2))
def test_axiom_monotone(space):
    w, (x, lift) = space
    y = x + np.abs(lift)
    for spec in ALL_SPECS:
        assert rk.evaluate_risk(spec, dist(x, w)) <= rk.evaluate_risk(spec, dist(y, w)) + 1e-9


@settings(max_examples=100, deadline=None)
@given(space=coupled(1), t=value)
def test_axiom_translation_equivariant(space, t):
    w, (x,) = space
    for spec in EQUIVARIANT_SPECS:
        shifted = rk.evaluate_risk(spec, dist(x + t, w))
        assert shifted == pytest.approx(rk.evaluate_risk(spec, dist(x, w)) + t, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(space=coupled(1), lam=st.floats(0.01, 100.0))
def test_axiom_positively_homogeneous(space, lam):
    w, (x,) = space
    for spec in EQUIVARIANT_SPECS:
        scaled = rk.evaluate_risk(spec, dist(lam * x, w))
        assert scaled == pytest.approx(lam * rk.evaluate_risk(spec, dist(x, w)), abs=1e-9 * lam)


@settings(max_examples=100, deadline=None)
@given(space=coupled(2), lam=st.floats(0.0, 1.0), alpha=st.floats(0.01, 0.99))
def test_axiom_avar_convex_on_mixtures(space, lam, alpha):
    w, (x, y) = space
    mixed = rk.avar(dist(lam * x + (1.0 - lam) * y, w), alpha)
    bound = lam * rk.avar(dist(x, w), alpha) + (1.0 - lam) * rk.avar(dist(y, w), alpha)
    assert mixed <= bound + 1e-9
