import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

import mnpred as mp
from mnpred.asymptotic import multinomial_equicoordinate_quantile
from mnpred.errors import ValidationError
from mnpred.io import _fmt_cell

from conftest import mc_equicoordinate_quantile


def make_fit(pi, phi, K=10, n=50):
    counts = np.round(np.outer([n] * K, pi)).astype(np.int64)
    counts[:, -1] += n - counts.sum(axis=1)
    data = mp.HistoricalDataset(counts)
    fit = mp.fit_model(data)
    # pin the dispersion so interval comparisons are exact
    return mp.ModelFit(
        pi_hat=fit.pi_hat,
        phi_hat=phi,
        phi_raw=phi,
        chi_square=fit.chi_square,
        df=fit.df,
        s_bar=fit.s_bar,
        n_params=fit.n_params,
        n_total=fit.n_total,
    )


class TestEquicoordinateQuantile:
    """The Monte Carlo oracle in conftest against closed forms and recorded quantiles."""

    def test_perfect_negative_correlation_collapses_to_pointwise(self):
        corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
        q = mc_equicoordinate_quantile(corr, 0.05, mp.RngStream(13), n_draws=400_000)
        assert q == pytest.approx(1.96, abs=0.01)

    def test_independent_matches_sidak(self):
        q = mc_equicoordinate_quantile(np.eye(3), 0.05, mp.RngStream(14), n_draws=400_000)
        sidak = norm.ppf((1 + (1 - 0.05) ** (1 / 3)) / 2)
        assert q == pytest.approx(sidak, abs=0.02)

    def test_perfect_positive_correlation_is_rank_one(self):
        corr = np.ones((4, 4))
        q = mc_equicoordinate_quantile(corr, 0.05, mp.RngStream(15), n_draws=200_000)
        assert q == pytest.approx(norm.ppf(0.975), abs=0.02)

    @pytest.mark.parametrize(
        "C, expected",
        [
            (3, ["0x1.2c2bb1e3495ddp+1", "0x1.2bdb181dc682fp+1", "0x1.2c7bf37192b7dp+1"]),
            (5, ["0x1.47ae2e80e073cp+1", "0x1.4767f9ce57a70p+1", "0x1.473dfcb7ab651p+1"]),
            (10, ["0x1.6667027d6cba3p+1", "0x1.65d0a1f84a1c8p+1", "0x1.65dc123c362cap+1"]),
        ],
        ids=["3", "5", "10"],
    )
    def test_matches_reference_formula_exactly(self, C, expected):
        """Bit for bit the quantiles of the package's former Monte Carlo
        ``equicoordinate_quantile`` (recorded from it at 10^5 draws), so the
        oracle behind criterion 6 and test_matches_monte_carlo is the same."""
        pi = np.random.default_rng(C).dirichlet(np.full(C, 10.0))
        corr = multinomial_corr(make_fit(pi, 2.0, n=200).pi_hat)
        got = [
            mc_equicoordinate_quantile(corr, 0.05, mp.RngStream(seed), 100_000).hex()
            for seed in range(3)
        ]
        assert got == expected


def multinomial_corr(pi):
    """Correlation of diag(pi) - pi pi^T, the prediction correlation of a fit with pi_hat = pi."""
    v = np.diag(pi) - np.outer(pi, pi)
    d = np.sqrt(np.diag(v))
    return v / np.outer(d, d)


def reference_coverage(pi, cells=1 << 16):
    """P(max|Z| <= q) on a fine lattice of exact cell masses (scipy's ndtr).

    Node k of factor c holds the N(0, pi_c) mass of its cell
    [(k - 1/2) h, (k + 1/2) h], cut at the truncation point q s_c; the
    factors are convolved by FFT and the lag-0 mass, over h, is the
    density of the sum at 0.  Its errors are O(h^2), with h about 1e-4
    at 65536 cells.
    """
    pi = np.asarray(pi, dtype=float) / np.sum(pi)
    s, sd = np.sqrt(pi * (1.0 - pi)), np.sqrt(pi)

    def coverage(q):
        edge = q * s
        h = edge.sum() / (cells - pi.shape[0] - 2)
        spectrum = np.ones(cells // 2 + 1)
        for c in range(pi.shape[0]):
            top = int(edge[c] / h + 0.5)
            k = np.arange(-top, top + 1)
            lo = np.maximum((k - 0.5) * h, -edge[c])
            hi = np.minimum((k + 0.5) * h, edge[c])
            weights = np.zeros(cells)
            weights[k % cells] = np.maximum(ndtr(hi / sd[c]) - ndtr(lo / sd[c]), 0.0)
            spectrum = spectrum * np.fft.rfft(weights)
        return math.sqrt(2.0 * math.pi) * np.fft.irfft(spectrum, cells)[0] / h

    return coverage


def reference_quantile(pi, alpha, cells=1 << 16):
    coverage = reference_coverage(pi, cells)
    C = len(pi)
    lo, hi = norm.ppf(1.0 - alpha / 2.0), norm.ppf(1.0 - alpha / (2.0 * C))
    return brentq(lambda q: coverage(q) - (1.0 - alpha), lo, hi, xtol=1e-12)


SEVERITY_PI = (0.224, 0.466, 0.273, 0.031, 0.004)
C10_06_PI = (0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.05, 0.05, 0.10, 0.60)


class TestMultinomialEquicoordinateQuantile:
    """The deterministic mvn quantile against closed forms, a fine lattice and Monte Carlo."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("pi", [(0.5, 0.5), (0.9, 0.1), (0.998, 0.002)])
    def test_two_categories_is_the_pointwise_quantile(self, pi, alpha):
        # Z_2 = -Z_1, so max|Z| = |Z_1|
        q = multinomial_equicoordinate_quantile(pi, alpha)
        assert abs(q - norm.ppf(1.0 - alpha / 2.0)) <= 1e-4

    @pytest.mark.parametrize(
        "pi, cells",
        [
            (SEVERITY_PI, 1 << 16),
            (C10_06_PI, 1 << 16),
            # the repair floor 1 / (K n) at K=10, n=50, in a C5-05-like vector
            ((0.45, 0.27, 0.18, 0.098, 0.002), 1 << 16),
            # the floor at K=100, n=500: the lattice grows to 8192-16384 cells to resolve it
            ((0.5, 0.3, 0.19998, 0.00002), 1 << 18),
            # two near-equal categories and a rare one: the C=2 edge nearly returns
            ((0.6, 0.3999, 0.0001), 1 << 16),
            # far past the lattice's 65536-cell cap: the rare factor is a point mass
            ((0.5, 0.3, 0.2 - 1e-9, 1e-9), 1 << 20),
        ],
        ids=["severity", "C10-06", "floor-0.002", "floor-2e-5", "near-two", "cap"],
    )
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_matches_a_fine_lattice(self, pi, cells, alpha):
        """Within 1e-4 of exact cell masses on 16 or more times the cells the quantile uses."""
        q = multinomial_equicoordinate_quantile(pi, alpha)
        assert abs(q - reference_quantile(pi, alpha, cells)) <= 1e-4

    @pytest.mark.parametrize(
        "pi, seed",
        [(SEVERITY_PI, 2701), ((0.25, 0.01, 0.74), 2702), (C10_06_PI, 2703)],
        ids=["severity", "C3-03", "C10-06"],
    )
    def test_matches_monte_carlo(self, pi, seed):
        """Within 3 Monte Carlo sd of the Monte Carlo oracle at 10^7 draws.

        The sd of a sample quantile is sqrt(p (1 - p) / n) / f(q), with the
        density f of max|Z| read off the reference lattice.
        """
        alpha, n = 0.05, 10_000_000
        pi = np.asarray(pi) / np.sum(pi)
        q = multinomial_equicoordinate_quantile(pi, alpha)
        q_mc = mc_equicoordinate_quantile(multinomial_corr(pi), alpha, mp.RngStream(seed), n)
        coverage = reference_coverage(pi, cells=1 << 14)
        density = (coverage(q + 1e-3) - coverage(q - 1e-3)) / 2e-3
        sd = math.sqrt(alpha * (1.0 - alpha) / n) / density
        assert abs(q - q_mc) <= 3.0 * sd

    @pytest.mark.parametrize("pi", [SEVERITY_PI, C10_06_PI, (0.25, 0.01, 0.74)])
    def test_monotone_in_alpha_and_inside_the_bracket(self, pi):
        alphas = (0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9)
        qs = [multinomial_equicoordinate_quantile(pi, a) for a in alphas]
        assert all(x > y for x, y in zip(qs, qs[1:]))
        C = len(pi)
        for a, q in zip(alphas, qs):
            assert norm.ppf(1.0 - a / 2.0) <= q <= norm.ppf(1.0 - a / (2.0 * C))

    @pytest.mark.parametrize(
        "pi", [SEVERITY_PI, (0.25, 0.01, 0.74), C10_06_PI], ids=["severity", "C3-03", "C10-06"]
    )
    def test_symmetric_in_the_categories(self, pi):
        """The law of max|Z| does not depend on the order of the categories."""
        q = multinomial_equicoordinate_quantile(pi, 0.05)
        rng = np.random.default_rng(len(pi))
        for _ in range(5):
            shuffled = tuple(rng.permutation(pi))
            assert abs(multinomial_equicoordinate_quantile(shuffled, 0.05) - q) <= 1e-12

    def test_same_bytes_on_repeated_calls(self):
        for pi in (SEVERITY_PI, C10_06_PI, (0.6, 0.3999, 0.0001)):
            first = multinomial_equicoordinate_quantile(pi, 0.05).hex()
            assert all(
                multinomial_equicoordinate_quantile(pi, 0.05).hex() == first for _ in range(3)
            )

    @pytest.mark.parametrize("pi", [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0)])
    def test_zero_category_rejected(self, pi):
        with pytest.raises(ValidationError, match="zero prediction variance"):
            multinomial_equicoordinate_quantile(pi, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValidationError):
            multinomial_equicoordinate_quantile(SEVERITY_PI, alpha)


class TestAsymptoticIntervals:
    def test_pointwise_multiplier(self, toy_fit):
        ivs = mp.pointwise_interval(toy_fit, mp.FutureSpec(m=40))
        np.testing.assert_allclose(ivs.multiplier_lower, norm.ppf(0.975), rtol=1e-9)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
    @pytest.mark.parametrize("C", range(2, 11))
    def test_multipliers_equal_scipy_norm_ppf(self, alpha, C):
        # The stdlib quantile is within a few ulp of the exact one (scipy is
        # within about one), and the written cells equal scipy's.
        fit = make_fit(np.full(C, 1.0 / C), 2.0)
        spec = mp.FutureSpec(m=50, alpha=alpha)
        pw = mp.pointwise_interval(fit, spec)
        bf = mp.bonferroni_interval(fit, spec)
        for ivs, p in ((pw, 1.0 - alpha / 2.0), (bf, 1.0 - alpha / (2.0 * C))):
            with mpmath.workdps(60):
                exact = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
            for q in (*ivs.multiplier_lower, *ivs.multiplier_upper):
                assert abs(q - float(exact)) <= 4 * math.ulp(float(exact))
                assert _fmt_cell(q) == _fmt_cell(norm.ppf(p))

    def test_bonferroni_multiplier_c5(self):
        fit = make_fit([0.2, 0.2, 0.2, 0.2, 0.2], 2.0)
        ivs = mp.bonferroni_interval(fit, mp.FutureSpec(m=50))
        np.testing.assert_allclose(ivs.multiplier_upper, 2.575829, rtol=1e-6)

    def test_nesting_pointwise_mvn_bonferroni(self, toy_fit):
        spec = mp.FutureSpec(m=40)
        pw = mp.pointwise_interval(toy_fit, spec)
        bf = mp.bonferroni_interval(toy_fit, spec)
        mvn = mp.mvn_interval(toy_fit, spec, mp.RngStream(19), n_draws=200_000)
        assert np.all(pw.multiplier_upper < mvn.multiplier_upper)
        assert np.all(mvn.multiplier_upper < bf.multiplier_upper)
        assert np.all(pw.upper <= mvn.upper + 1e-9)
        assert np.all(mvn.upper <= bf.upper + 1e-9)
        assert np.all(bf.lower <= mvn.lower + 1e-9)

    def test_mvn_multiplier_ignores_rng_and_draw_count(self, toy_fit):
        spec = mp.FutureSpec(m=40)
        q = multinomial_equicoordinate_quantile(toy_fit.pi_hat, spec.alpha)
        runs = [
            mp.mvn_interval(toy_fit, spec, mp.RngStream(seed), n_draws=n_draws)
            for seed, n_draws in ((1, 1000), (2, 100_000), (3, 5000))
        ]
        for ivs in runs:
            np.testing.assert_array_equal(ivs.multiplier_lower, q)
            np.testing.assert_array_equal(ivs.multiplier_upper, q)
            assert ivs.lower.tobytes() == runs[0].lower.tobytes()
            assert ivs.upper.tobytes() == runs[0].upper.tobytes()

    def test_mvn_draw_floor_still_checked(self, toy_fit):
        with pytest.raises(ValidationError, match="at least 1000 draws"):
            mp.mvn_interval(toy_fit, mp.FutureSpec(m=40), mp.RngStream(1), n_draws=999)

    def test_mvn_rejects_a_degenerate_fit(self):
        """A category with pi_hat = 0 has no prediction variance to correlate."""
        fit = make_fit([0.5, 0.3, 0.2], 2.0)
        broken = mp.ModelFit(
            pi_hat=np.array([0.7, 0.3, 0.0]),
            phi_hat=fit.phi_hat,
            phi_raw=fit.phi_raw,
            chi_square=fit.chi_square,
            df=fit.df,
            s_bar=fit.s_bar,
            n_params=fit.n_params,
            n_total=fit.n_total,
        )
        with pytest.raises(ValidationError, match="zero prediction variance"):
            mp.mvn_interval(broken, mp.FutureSpec(m=10), mp.RngStream(1))

    def test_widths_increase_with_dispersion(self):
        spec = mp.FutureSpec(m=200)
        lo = mp.pointwise_interval(make_fit([0.3, 0.3, 0.4], 1.5), spec)
        hi = mp.pointwise_interval(make_fit([0.3, 0.3, 0.4], 6.0), spec)
        # the clip binds in neither band, so the widths are 2 * q * sep
        assert np.all(hi.lower > 0.0) and np.all(hi.upper < spec.m)
        assert np.all((hi.upper - hi.lower) > (lo.upper - lo.lower))

    def test_unclipped_width_identity(self, toy_fit):
        # every lower bound is clipped at 0 here; the raw band is rebuilt
        # from the written y_hat, sep and multiplier columns
        spec = mp.FutureSpec(m=40)
        ivs = mp.pointwise_interval(toy_fit, spec)
        raw_lower = ivs.y_hat - ivs.multiplier_lower * ivs.sep
        raw_upper = ivs.y_hat + ivs.multiplier_upper * ivs.sep
        assert np.all(raw_lower < 0.0)
        np.testing.assert_array_equal(ivs.lower, np.maximum(raw_lower, 0.0))
        np.testing.assert_array_equal(ivs.upper, np.minimum(raw_upper, spec.m))
        width = raw_upper - raw_lower
        np.testing.assert_allclose(width, 2 * norm.ppf(0.975) * ivs.sep, rtol=1e-12)

    def test_clipped_to_future_size(self, toy_fit):
        ivs = mp.bonferroni_interval(toy_fit, mp.FutureSpec(m=4))
        assert np.all(ivs.lower >= 0.0)
        assert np.all(ivs.upper <= 4.0)
