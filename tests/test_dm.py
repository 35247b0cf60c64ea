import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mnpred as mp
from mnpred.dm import (
    _MAX_REDRAWS,
    _checked_probs,
    derive_eta0,
    draw_dm_counts,
    repair_zero_columns_in_place,
    sample_dirichlet,
    sample_dm_matrix,
)
from mnpred.errors import InvalidDispersion, ValidationError, ZeroProbability


class TestEta0:
    def test_oracles(self):
        assert mp.derive_eta0(50, 5.0) == pytest.approx(11.25, rel=1e-9)
        assert mp.derive_eta0(10, 1.01) == pytest.approx(899.0, rel=1e-9)

    def test_domain(self):
        for phi in (1.0, 0.5, 50.0, 51.0):
            with pytest.raises(InvalidDispersion):
                mp.derive_eta0(50, phi)

    def test_dispersion_roundtrip_oracle(self):
        assert mp.dm_dispersion(50, 11.25) == pytest.approx(5.0, rel=1e-12)

    @given(st.integers(3, 1000), st.floats(1e-6, 0.999, allow_nan=False))
    def test_roundtrip_property(self, n, frac):
        phi = 1.0 + frac * (n - 1.0)  # strictly inside (1, n)
        eta0 = mp.derive_eta0(n, phi)
        assert eta0 > 0
        assert mp.dm_dispersion(n, eta0) == pytest.approx(phi, rel=1e-9)


class TestDirichlet:
    def test_rows_sum_to_one(self):
        draws = sample_dirichlet(np.array([2.0, 3.0, 5.0]), mp.RngStream(1).generator(), size=500)
        assert draws.shape == (500, 3)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_mean_matches_normalized_eta(self):
        eta = np.array([4.0, 1.0, 5.0])
        draws = sample_dirichlet(eta, mp.RngStream(2).generator(), size=40_000)
        target = eta / eta.sum()
        se = np.sqrt(target * (1 - target) / (eta.sum() + 1) / 40_000)
        np.testing.assert_allclose(draws.mean(axis=0), target, atol=5 * np.max(se))

    def test_single_draw_shape(self):
        one = sample_dirichlet(np.array([1.0, 1.0]), mp.RngStream(3).generator())
        assert one.shape == (2,)

    def test_batched_eta(self):
        eta = np.tile([2.0, 2.0], (7, 1))
        draws = sample_dirichlet(eta, mp.RngStream(4).generator())
        assert draws.shape == (7, 2)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


class TestDMCounts:
    def test_row_sums(self):
        draws = mp.sample_dm_counts(23, (0.2, 0.3, 0.5), 4.0, mp.RngStream(5), size=200)
        assert draws.shape == (200, 3)
        assert np.all(draws.sum(axis=1) == 23)

    def test_unit_cluster_is_plain_multinomial(self):
        # n=1 carve-out: DM margin is exactly multinomial regardless of phi
        draws = mp.sample_dm_counts(1, (0.3, 0.7), 0.999, mp.RngStream(6), size=30_000)
        assert np.all(draws.sum(axis=1) == 1)
        freq = draws.mean(axis=0)
        np.testing.assert_allclose(freq, [0.3, 0.7], atol=4 * np.sqrt(0.3 * 0.7 / 30_000))

    def test_variance_inflation(self):
        pi = np.array([0.3, 0.7])
        draws = mp.sample_dm_counts(50, pi, 5.0, mp.RngStream(8), size=40_000)
        ratio = draws.var(axis=0, ddof=1) / (50 * pi * (1 - pi))
        np.testing.assert_allclose(ratio, 5.0, rtol=0.06)

    def test_zero_probability_category_stays_empty(self):
        draws = mp.sample_dm_counts(12, (0.5, 0.0, 0.5), 3.0, mp.RngStream(9), size=100)
        assert np.all(draws[:, 1] == 0)
        assert np.all(draws.sum(axis=1) == 12)

    def test_dispersion_domain(self):
        with pytest.raises(InvalidDispersion):
            mp.sample_dm_counts(10, (0.5, 0.5), 10.0, mp.RngStream(10))

    def test_bad_probability_sum(self):
        with pytest.raises(ValidationError):
            mp.sample_dm_counts(10, (0.2, 0.2), 2.0, mp.RngStream(11))

    def test_negative_probability(self):
        with pytest.raises(ZeroProbability):
            mp.sample_dm_counts(10, (-0.1, 1.1), 2.0, mp.RngStream(12))


class TestDMMatrix:
    def test_equal_sizes(self):
        counts = sample_dm_matrix([20] * 6, (0.25, 0.75), 3.0, mp.RngStream(13).generator())
        assert counts.shape == (6, 2)
        assert np.all(counts.sum(axis=1) == 20)

    def test_unequal_sizes_respected(self):
        sizes = [10, 30, 20, 30]
        counts = sample_dm_matrix(sizes, (0.5, 0.5), 2.5, mp.RngStream(14).generator())
        np.testing.assert_array_equal(counts.sum(axis=1), sizes)

    def test_batched(self):
        counts = sample_dm_matrix([15, 25], (0.4, 0.6), 2.0, mp.RngStream(15).generator(), size=9)
        assert counts.shape == (9, 2, 2)
        np.testing.assert_array_equal(counts.sum(axis=2), np.tile([15, 25], (9, 1)))

    def test_deterministic_given_stream(self):
        a = sample_dm_matrix([10, 10], (0.5, 0.5), 2.0, mp.RngStream(16).generator(), size=4)
        b = sample_dm_matrix([10, 10], (0.5, 0.5), 2.0, mp.RngStream(16).generator(), size=4)
        np.testing.assert_array_equal(a, b)
        c = sample_dm_matrix(
            [10, 10], (0.5, 0.5), 2.0, mp.RngStream(16).child(1).generator(), size=4
        )
        assert not np.array_equal(a, c)


class TestRepair:
    def test_adds_single_count_to_zero_column(self):
        counts = np.array([[5, 0], [7, 0]])
        fixed = repair_zero_columns_in_place(counts.copy(), mp.RngStream(17).generator())
        assert fixed[:, 1].sum() == 1
        assert fixed[:, 0].sum() == 12
        np.testing.assert_array_equal(fixed.sum(axis=1) - counts.sum(axis=1), fixed[:, 1])

    def test_leaves_complete_tables_alone(self):
        counts = np.array([[5, 1], [7, 2]])
        fixed = repair_zero_columns_in_place(counts.copy(), mp.RngStream(18).generator())
        np.testing.assert_array_equal(fixed, counts)

    def test_batched_repair_is_per_replicate(self):
        counts = np.zeros((4, 3, 2), dtype=np.int64)
        counts[..., 0] = 5
        counts[2, 1, 1] = 1  # replicate 2 already has the category
        fixed = repair_zero_columns_in_place(counts.copy(), mp.RngStream(19).generator())
        assert np.all(fixed[..., 1].sum(axis=1) >= 1)
        np.testing.assert_array_equal(fixed[2], counts[2])

    @pytest.mark.parametrize("shape", [(2, 2), (4, 3, 2)])
    def test_in_place_kernel_mutates_and_returns_its_argument(self, shape):
        counts = np.zeros(shape, dtype=np.int64)
        counts[..., 0] = 5
        want = repair_zero_columns_in_place(counts.copy(), mp.RngStream(17).generator())
        got = repair_zero_columns_in_place(counts, mp.RngStream(17).generator())
        assert got is counts
        assert counts.tobytes() == want.tobytes()


class TestGenerateDataset:
    def test_returns_dataset_with_labels(self):
        data = mp.generate_dataset(
            5, 30, (0.3, 0.3, 0.4), 2.0, mp.RngStream(20), categories=("a", "b", "c")
        )
        assert data.n_clusters == 5
        assert data.categories == ("a", "b", "c")
        assert np.all(data.cluster_sizes == 30)

    def test_repair_bumps_cluster_size(self):
        # tiny category: with repair on, the lucky cluster gets one extra unit
        data = mp.generate_dataset(3, 8, (0.001, 0.999), 1.5, mp.RngStream(21), repair=True)
        assert data.counts[:, 0].sum() >= 1
        assert data.n_total in (24, 25)

    def test_accepts_rounded_published_vectors(self):
        data = mp.generate_dataset(
            4, 46, (0.224, 0.466, 0.273, 0.031, 0.004), 3.19, mp.RngStream(22), repair=True
        )
        assert data.n_categories == 5


# Reference copies of the draws as they were before the ensemble stopped
# copying its (B, K, C) temporaries.  The lean code must give the same bytes.


def reference_sample_dirichlet(eta, gen, size=None):
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise ValidationError("concentration vectors must lie along the last axis")
    if np.any(eta <= 0.0):
        raise ZeroProbability("Dirichlet concentrations must be strictly positive")
    out_shape = eta.shape if size is None else (int(size),) + eta.shape
    if size is not None:
        if eta.ndim != 1:
            raise ValidationError("size expansion needs a 1-D concentration vector")
        eta = np.broadcast_to(eta, out_shape)
    C = eta.shape[-1]
    flat_eta = np.ascontiguousarray(eta).reshape(-1, C)
    g = gen.gamma(shape=flat_eta)
    total = g.sum(axis=1)
    for _ in range(_MAX_REDRAWS):
        dead = np.flatnonzero(total == 0.0)
        if dead.shape[0] == 0:
            break
        g[dead] = gen.gamma(shape=flat_eta[dead])
        total[dead] = g[dead].sum(axis=1)
    else:
        dead = total == 0.0
        g[dead] = flat_eta[dead]
        total[dead] = g[dead].sum(axis=1)
    return (g / total[:, None]).reshape(out_shape)


def reference_draw_dm_counts(n, pi, phi, gen, size=None):
    pi = _checked_probs(pi)
    n = int(n)
    if n < 1:
        raise ValidationError(f"cluster size must be positive, got {n}")
    if n == 1:
        return gen.multinomial(1, pi, size=size)
    eta0 = derive_eta0(n, phi)
    pos = pi > 0.0
    p_pos = reference_sample_dirichlet(eta0 * pi[pos], gen, size=size)
    if size is None:
        probs = np.zeros(pi.shape[0])
        probs[pos] = p_pos
    else:
        probs = np.zeros((int(size), pi.shape[0]))
        probs[:, pos] = p_pos
    return gen.multinomial(n, probs)


def reference_sample_dm_matrix(cluster_sizes, pi, phi, gen, size=None):
    sizes = np.asarray(cluster_sizes, dtype=np.int64)
    pi = _checked_probs(pi)
    K, C = sizes.shape[0], pi.shape[0]
    B = 1 if size is None else int(size)
    counts = np.empty((B, K, C), dtype=np.int64)
    for n in np.unique(sizes):
        where = np.flatnonzero(sizes == n)
        block = reference_draw_dm_counts(int(n), pi, phi, gen, size=B * where.shape[0])
        counts[:, where, :] = block.reshape(B, where.shape[0], C)
    return counts[0] if size is None else counts


def assert_same_draws(new, reference, *args, **kwargs):
    """Both functions from one stream address: equal bytes, dtype, shape and stream position."""
    gen_new, gen_ref = mp.RngStream(91).generator(), mp.RngStream(91).generator()
    got, want = new(*args, gen_new, **kwargs), reference(*args, gen_ref, **kwargs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert gen_new.bit_generator.state == gen_ref.bit_generator.state


class TestMatchesReferenceDraws:
    @pytest.mark.parametrize("size", [None, 1, 2000])
    def test_dirichlet_size(self, size):
        assert_same_draws(sample_dirichlet, reference_sample_dirichlet, [0.5, 3.0, 7.5], size=size)

    def test_dirichlet_batch_eta(self):
        eta = np.random.default_rng(5).uniform(0.1, 20.0, size=(300, 5))
        assert_same_draws(sample_dirichlet, reference_sample_dirichlet, eta)

    def test_dirichlet_redraws_dead_rows(self):
        # Gammas at shape 3e-3 underflow to zero about one time in ten, so
        # some of the 2000 rows are dead and take the redraw loop.
        eta = np.full(2, 3e-3)
        first = mp.RngStream(91).generator().gamma(shape=eta, size=(2000, 2))
        assert np.any(first.sum(axis=1) == 0.0)
        assert_same_draws(sample_dirichlet, reference_sample_dirichlet, eta, size=2000)

    def test_dirichlet_underflow_fallback(self):
        # At 1e-300 every redraw underflows too, so dead rows end at the mean direction.
        eta = np.vstack([np.full((3, 3), 1e-300), [[2.0, 3.0, 5.0]], np.full((2, 3), 1e-300)])
        assert_same_draws(sample_dirichlet, reference_sample_dirichlet, eta)
        assert_same_draws(sample_dirichlet, reference_sample_dirichlet, eta[0], size=4)

    @pytest.mark.parametrize("size", [None, 7])
    def test_dirichlet_leaves_eta_unchanged(self, size):
        eta = np.vstack([np.full((2, 3), 1e-300), np.full((4, 3), 2.5)])
        if size is not None:
            eta = eta[-1]
        before = eta.copy()
        sample_dirichlet(eta, mp.RngStream(92).generator(), size=size)
        np.testing.assert_array_equal(eta, before)

    @pytest.mark.parametrize("pi", [(0.2, 0.3, 0.5), (0.5, 0.0, 0.5)])
    @pytest.mark.parametrize("size", [None, 500])
    def test_dm_counts(self, pi, size):
        assert_same_draws(draw_dm_counts, reference_draw_dm_counts, 23, pi, 4.0, size=size)

    @pytest.mark.parametrize("sizes", [[40] * 30, [10, 30, 20, 30, 10, 45]])
    @pytest.mark.parametrize("size", [None, 1, 300])
    def test_dm_matrix(self, sizes, size):
        pi = (0.1, 0.2, 0.3, 0.4)
        assert_same_draws(sample_dm_matrix, reference_sample_dm_matrix, sizes, pi, 3.0, size=size)

    def test_dm_matrix_structural_zero(self):
        pi = (0.3, 0.0, 0.7)
        assert_same_draws(
            sample_dm_matrix, reference_sample_dm_matrix, [25] * 8, pi, 2.0, size=50
        )

    # Large draws too: 8209 rows for every distinct size.
    @pytest.mark.parametrize(
        "sizes, pi",
        [([40], (0.1, 0.2, 0.3, 0.4)), ([10, 30], (0.1, 0.2, 0.3, 0.4)), ([25], (0.3, 0.0, 0.7))],
        ids=["equal", "unequal", "structural-zero"],
    )
    def test_dm_matrix_across_row_blocks(self, sizes, pi):
        size = 8209
        assert_same_draws(sample_dm_matrix, reference_sample_dm_matrix, sizes, pi, 3.0, size=size)
