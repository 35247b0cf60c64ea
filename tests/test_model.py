import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mnpred as mp
from mnpred.errors import (
    DegenerateDesign,
    ValidationError,
    ZeroCategory,
    ZeroProbability,
)
from mnpred.methods import compute_intervals, resolve_methods
from mnpred.model import pearson_dispersion


def count_matrices(min_k=2, max_k=6, min_c=2, max_c=5):
    """Integer count tables with no all-zero row or column."""

    def ok(x):
        return x.sum(axis=1).min() >= 2 and x.sum(axis=0).min() >= 1

    return st.integers(min_k, max_k).flatmap(
        lambda k: st.integers(min_c, max_c).flatmap(
            lambda c: arrays(np.int64, (k, c), elements=st.integers(0, 30)).filter(ok)
        )
    )


class TestHistoricalDataset:
    def test_basic_properties(self, toy_data):
        assert toy_data.n_clusters == 2
        assert toy_data.n_categories == 3
        assert toy_data.n_total == 20
        np.testing.assert_array_equal(toy_data.cluster_sizes, [10, 10])
        assert toy_data.categories == ("cat_1", "cat_2", "cat_3")

    def test_counts_readonly(self, toy_data):
        with pytest.raises(ValueError):
            toy_data.counts[0, 0] = 99

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            mp.HistoricalDataset(np.array([[1.5, 2.0], [3.0, 4.0]]))

    def test_rejects_negative_naming_cell(self):
        with pytest.raises(ValidationError, match="cluster 2"):
            mp.HistoricalDataset(np.array([[1, 2], [-1, 4]]))

    def test_rejects_single_cluster(self):
        with pytest.raises(DegenerateDesign):
            mp.HistoricalDataset(np.array([[1, 2, 3]]))

    def test_rejects_single_category(self):
        with pytest.raises(DegenerateDesign):
            mp.HistoricalDataset(np.array([[3], [4]]))

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValidationError):
            mp.HistoricalDataset(np.array([[0, 0], [1, 2]]))


class TestDispersion:
    def test_pooled_mle_and_chi_square(self, toy_fit):
        np.testing.assert_allclose(toy_fit.pi_hat, [0.3, 0.35, 0.35], atol=1e-15)
        assert toy_fit.chi_square == pytest.approx(4.095238095238095, abs=1e-9)
        assert toy_fit.df == 2
        assert toy_fit.s_bar == 0.0
        assert toy_fit.phi_raw == pytest.approx(2.047619047619048, abs=1e-9)
        assert toy_fit.phi_hat == pytest.approx(toy_fit.phi_raw)

    def test_residual_df(self):
        assert mp.residual_df(2, 3) == 2
        assert mp.residual_df(10, 5) == 36
        assert mp.residual_df(10, 3) == 18

    def test_n_params(self, toy_fit):
        # C-1 free probabilities in the pooled multinomial
        assert toy_fit.n_params == 2

    def test_chi_square_zero_probability(self, toy_data):
        with pytest.raises(ZeroProbability):
            mp.pearson_chi_square(toy_data, np.array([0.5, 0.5, 0.0]))

    def test_dispersion_validates_pi(self, toy_data):
        with pytest.raises(ZeroProbability):
            mp.afroz_fletcher_dispersion(toy_data, np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValidationError):
            mp.afroz_fletcher_dispersion(toy_data, np.array([0.5, 0.5]))

    @given(count_matrices())
    def test_fit_matches_scalar_reference(self, counts):
        """The shared kernel reproduces the scalar Afroz-Fletcher arithmetic bit for bit."""
        fit = mp.fit_model(mp.HistoricalDataset(counts))
        K, C = counts.shape
        expected = counts.sum(axis=1)[:, None] * fit.pi_hat[None, :]
        resid = counts - expected
        chi2 = float((resid * resid / expected).sum())
        s_bar = float((resid / expected).sum() / (K * C - K))
        denom = 1.0 + s_bar
        phi_raw = math.inf if denom == 0.0 else (chi2 / mp.residual_df(K, C)) / denom
        assert (fit.chi_square, fit.s_bar, fit.phi_raw) == (chi2, s_bar, phi_raw)
        assert fit.phi_raw == mp.afroz_fletcher_dispersion(mp.HistoricalDataset(counts), fit.pi_hat)

    def test_batched_kernel_matches_table_by_table(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 30, size=(40, 7, 4)) + 1
        pi = counts.sum(axis=1) / counts.sum(axis=(1, 2))[:, None]
        batched = pearson_dispersion(counts, pi)
        for b in range(counts.shape[0]):
            single = pearson_dispersion(counts[b], pi[b])
            assert [float(x[b]) for x in batched] == [float(x) for x in single]

    def test_blocked_kernel_matches_whole_batch(self):
        """The ensemble refit runs the kernel over blocks of replicates; the bytes must not move."""
        B, block = 1234, 500  # the last block is short
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 40, size=(B, 12, 6)) + 1
        pi = counts.sum(axis=1) / counts.sum(axis=(1, 2))[:, None]
        whole = pearson_dispersion(counts, pi)
        blocks = [
            pearson_dispersion(counts[i : i + block], pi[i : i + block])
            for i in range(0, B, block)
        ]
        for k in range(3):
            assert np.concatenate([b[k] for b in blocks]).tobytes() == whole[k].tobytes()

    @given(count_matrices())
    def test_pooled_mle_sums_to_one(self, counts):
        fit = mp.fit_model(mp.HistoricalDataset(counts))
        assert fit.pi_hat.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(fit.pi_hat > 0)

    @given(count_matrices())
    def test_equal_sizes_zero_s_bar(self, counts):
        # pad rows to a common total so all cluster sizes match
        target = int(counts.sum(axis=1).max())
        padded = counts.copy()
        padded[:, -1] += target - counts.sum(axis=1)
        fit = mp.fit_model(mp.HistoricalDataset(padded))
        assert fit.s_bar == pytest.approx(0.0, abs=1e-12)

    @given(count_matrices())
    def test_chi_square_doubles_with_stacked_data(self, counts):
        data = mp.HistoricalDataset(counts)
        stacked = mp.HistoricalDataset(np.vstack([counts, counts]))
        pi = mp.fit_model(data).pi_hat
        chi1 = mp.pearson_chi_square(data, pi)
        chi2 = mp.pearson_chi_square(stacked, pi)
        assert chi2 == pytest.approx(2.0 * chi1, rel=1e-12)

    def test_fit_zero_category_mentions_repair(self):
        with pytest.raises(ZeroCategory, match="repair"):
            mp.fit_model(mp.HistoricalDataset(np.array([[3, 0], [4, 0]])))

    def test_fit_rejects_tiny_cluster(self):
        with pytest.raises(ValidationError):
            mp.fit_model(mp.HistoricalDataset(np.array([[1, 0], [2, 3]])))


class TestClamp:
    def test_oracles(self):
        assert mp.clamp_dispersion(0.4, 46) == pytest.approx(1.01)
        assert mp.clamp_dispersion(3.19, 46) == pytest.approx(3.19)
        assert mp.clamp_dispersion(60.0, 46) == pytest.approx(44.85)

    def test_nan_and_inf(self):
        assert mp.clamp_dispersion(float("nan"), 46) == pytest.approx(1.01)
        assert mp.clamp_dispersion(float("inf"), 46) == pytest.approx(44.85)

    def test_size_bound_too_small(self):
        with pytest.raises(ValidationError):
            mp.clamp_dispersion(2.0, 1)

    def test_broadcasts_like_the_scalar_rule(self):
        phi_raw = np.array([0.4, 3.19, 60.0, np.nan, np.inf, 1.0])
        bounds = np.array([46, 46, 46, 46, 20, 2])
        got = mp.clamp_dispersion(phi_raw, bounds)
        assert isinstance(got, np.ndarray)
        want = [mp.clamp_dispersion(float(p), int(b)) for p, b in zip(phi_raw, bounds)]
        assert got.tobytes() == np.array(want).tobytes()
        assert type(mp.clamp_dispersion(3.19, 46)) is float
        with pytest.raises(ValidationError):
            mp.clamp_dispersion(phi_raw, np.array([46, 46, 46, 46, 20, 1]))

    @given(
        st.floats(-5.0, 500.0, allow_nan=False),
        st.integers(2, 1000),
    )
    def test_range_property(self, phi_raw, bound):
        phi = mp.clamp_dispersion(phi_raw, bound)
        assert 1.01 <= phi <= 0.975 * bound
        if 1.01 < phi_raw < 0.975 * bound:
            assert phi == pytest.approx(phi_raw)


class TestPrediction:
    def test_se_oracle(self):
        se = mp.prediction_se(0.224, 3.19, 46, 460)
        assert se == pytest.approx(5.297, abs=1e-3)
        exact = np.sqrt(3.19 * 46 * 0.224 * 0.776 * (1 + 46 / 460))
        assert se == pytest.approx(exact, rel=1e-12)

    def test_se_vectorized(self):
        pi = np.array([0.2, 0.8])
        se = mp.prediction_se(pi, 2.0, 10, 100)
        assert se.shape == (2,)
        assert se[0] == pytest.approx(se[1])  # pi(1-pi) symmetric

    def test_point(self, toy_fit):
        point = mp.prediction_point(toy_fit, mp.FutureSpec(m=40))
        np.testing.assert_allclose(point.y_hat, [12.0, 14.0, 14.0])
        assert np.all(point.sep > 0)

    def test_future_spec_validation(self):
        with pytest.raises(ValidationError):
            mp.FutureSpec(m=0)
        with pytest.raises(ValidationError):
            mp.FutureSpec(m=10, alpha=1.5)

    def test_scaled_interval_clipping(self, toy_fit):
        spec = mp.FutureSpec(m=10)
        point = mp.prediction_point(toy_fit, spec)
        ivs = mp.model.scaled_interval_set("toy", point, 50.0, 50.0, spec)
        np.testing.assert_array_equal(ivs.lower, np.zeros(3))
        np.testing.assert_array_equal(ivs.upper, np.full(3, 10.0))

    def test_interval_set_rejects_crossed_bounds(self):
        with pytest.raises(ValidationError):
            mp.PredictionIntervalSet(
                method="bad",
                lower=np.array([2.0]),
                upper=np.array([1.0]),
                y_hat=np.array([1.5]),
                sep=np.array([1.0]),
                multiplier_lower=np.array([1.0]),
                multiplier_upper=np.array([1.0]),
                alpha=0.05,
            )


class TestOneClip:
    def test_clip_lives_only_in_interval_set(self):
        """No function takes a clip switch, and only interval_set calls np.clip."""
        params, clips = [], []
        for path in sorted(Path(mp.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    if "clip" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                        params.append(f"{path.name}:{node.name}")
                elif isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "attr", getattr(func, "id", None)) == "clip":
                        clips.append((path.name, node.lineno))
        assert params == []
        body, first = inspect.getsourcelines(mp.model.interval_set)
        assert len(clips) == 2
        assert all(name == "model.py" and first <= line < first + len(body) for name, line in clips)

    @pytest.mark.filterwarnings("ignore::mnpred.errors.ConvergenceWarning")
    def test_written_columns_carry_the_raw_band(self, histo_data):
        """Every bound is in [0, m]; scaled bounds are the clipped y_hat -/+ q*sep."""
        fit = mp.fit_model(histo_data)
        spec = mp.FutureSpec(m=5)
        sets = compute_intervals(
            histo_data, fit, spec, resolve_methods(["all"]), mp.RngStream(8),
            B=500, mvn_draws=2000, chains=2, sampling_iters=300, warmup=100,
        )
        assert len(sets) == 11
        binds = False
        for ivs in sets.values():
            assert np.all(ivs.lower >= 0.0) and np.all(ivs.upper <= spec.m)
            finite = np.isfinite(ivs.multiplier_lower)
            assert np.array_equal(finite, np.isfinite(ivs.multiplier_upper))
            if not finite.any():
                # order statistics of counts: the clip leaves them as they are
                assert np.all(ivs.lower == np.round(ivs.lower))
                assert np.all(ivs.upper == np.round(ivs.upper))
                continue
            assert finite.all()
            raw_lower = ivs.y_hat - ivs.multiplier_lower * ivs.sep
            raw_upper = ivs.y_hat + ivs.multiplier_upper * ivs.sep
            assert ivs.lower.tobytes() == np.maximum(raw_lower, 0.0).tobytes()
            assert ivs.upper.tobytes() == np.minimum(raw_upper, spec.m).tobytes()
            binds |= bool(np.any(raw_lower < 0.0) or np.any(raw_upper > spec.m))
        assert binds
