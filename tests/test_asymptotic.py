import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import mnpred as mp
from mnpred.asymptotic import prediction_covariance
from mnpred.errors import NotPSD, ValidationError


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


class TestPredictionCovariance:
    def test_structure(self, toy_fit):
        cov = prediction_covariance(toy_fit, mp.FutureSpec(m=40))
        sigma, corr = cov.sigma, cov.corr
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        scale = np.abs(sigma).max()
        np.testing.assert_allclose(sigma.sum(axis=1), 0.0, atol=1e-9 * scale)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all((off >= -1.0) & (off < 0.0))

    def test_diagonal_matches_sep(self, toy_fit):
        spec = mp.FutureSpec(m=40)
        cov = prediction_covariance(toy_fit, spec)
        point = mp.prediction_point(toy_fit, spec)
        np.testing.assert_allclose(np.sqrt(np.diag(cov.sigma)), point.sep, rtol=1e-12)

    def test_degenerate_probability_rejected(self):
        fit = make_fit([0.5, 0.5], 2.0)
        broken = mp.ModelFit(
            pi_hat=np.array([1.0, 0.0]),
            phi_hat=fit.phi_hat,
            phi_raw=fit.phi_raw,
            chi_square=fit.chi_square,
            df=fit.df,
            s_bar=fit.s_bar,
            n_params=fit.n_params,
            n_total=fit.n_total,
        )
        with pytest.raises(ValidationError):
            prediction_covariance(broken, mp.FutureSpec(m=10))


def reference_equicoordinate_quantile(corr, alpha, rng, n_draws=100_000):
    """The draws-by-category formula: row-major matmul, row-wise max, full sort."""
    eigvals, eigvecs = np.linalg.eigh((corr + corr.T) / 2.0)
    keep = eigvals > 1e-10
    root = eigvecs[:, keep] * np.sqrt(eigvals[keep])[None, :]
    shocks = rng.generator().standard_normal((n_draws, int(keep.sum())))
    max_abs = np.abs(shocks @ root.T).max(axis=1)
    k = min(max(int(np.ceil((1.0 - alpha) * n_draws)), 1), n_draws)
    return float(np.sort(max_abs)[k - 1])


class TestEquicoordinateQuantile:
    @pytest.mark.parametrize("C", [3, 5, 10])
    def test_matches_reference_formula_exactly(self, C):
        pi = np.random.default_rng(C).dirichlet(np.full(C, 10.0))
        fit = make_fit(pi, 2.0, n=200)
        corr = prediction_covariance(fit, mp.FutureSpec(m=50)).corr
        for seed in range(3):
            q = mp.equicoordinate_quantile(corr, 0.05, mp.RngStream(seed))
            assert q == reference_equicoordinate_quantile(corr, 0.05, mp.RngStream(seed))

    def test_perfect_negative_correlation_collapses_to_pointwise(self):
        corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
        q = mp.equicoordinate_quantile(corr, 0.05, mp.RngStream(13), n_draws=400_000)
        assert q == pytest.approx(1.96, abs=0.01)

    def test_independent_matches_sidak(self):
        q = mp.equicoordinate_quantile(np.eye(3), 0.05, mp.RngStream(14), n_draws=400_000)
        sidak = norm.ppf((1 + (1 - 0.05) ** (1 / 3)) / 2)
        assert q == pytest.approx(sidak, abs=0.02)

    def test_perfect_positive_correlation_is_rank_one(self):
        corr = np.ones((4, 4))
        q = mp.equicoordinate_quantile(corr, 0.05, mp.RngStream(15), n_draws=200_000)
        assert q == pytest.approx(norm.ppf(0.975), abs=0.02)

    def test_not_psd(self):
        corr = np.array([[1.0, -1.2], [-1.2, 1.0]])
        with pytest.raises(NotPSD):
            mp.equicoordinate_quantile(corr, 0.05, mp.RngStream(16))

    def test_draw_floor(self):
        with pytest.raises(ValidationError):
            mp.equicoordinate_quantile(np.eye(2), 0.05, mp.RngStream(17), n_draws=10)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            mp.equicoordinate_quantile(np.ones((2, 3)), 0.05, mp.RngStream(18))

    def test_peak_memory_is_a_few_draw_vectors(self):
        """Only max|Z| per draw outlives its block of shocks, not an n_draws x C table."""
        C, n_draws = 10, 100_000
        corr = np.corrcoef(np.random.default_rng(19).standard_normal((C, 4 * C)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mp.equicoordinate_quantile(corr, 0.05, mp.RngStream(19), n_draws=n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n_draws * 8


class TestAsymptoticIntervals:
    def test_pointwise_multiplier(self, toy_fit):
        ivs = mp.pointwise_interval(toy_fit, mp.FutureSpec(m=40))
        np.testing.assert_allclose(ivs.multiplier_lower, norm.ppf(0.975), rtol=1e-9)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
    @pytest.mark.parametrize("C", range(2, 11))
    def test_multipliers_equal_scipy_norm_ppf(self, alpha, C):
        fit = make_fit(np.full(C, 1.0 / C), 2.0)
        spec = mp.FutureSpec(m=50, alpha=alpha)
        pw = mp.pointwise_interval(fit, spec)
        bf = mp.bonferroni_interval(fit, spec)
        assert np.all(pw.multiplier_lower == norm.ppf(1.0 - alpha / 2.0))
        assert np.all(pw.multiplier_upper == norm.ppf(1.0 - alpha / 2.0))
        assert np.all(bf.multiplier_lower == norm.ppf(1.0 - alpha / (2.0 * C)))
        assert np.all(bf.multiplier_upper == norm.ppf(1.0 - alpha / (2.0 * C)))

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
