import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import betabinom, chi2

import mnpred as mp
from mnpred.bayes import dm_log_pmf
from mnpred.dm import (
    _MAX_REDRAWS,
    InversionTable,
    _cdf_rows,
    _checked_probs,
    _log_pmf_terms,
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


class TestWholeSizes:
    """A size a cast would truncate is refused; whole floats draw the same bytes as ints."""

    def test_generate_dataset_fractional_size(self):
        with pytest.raises(ValidationError, match="whole number, got 10.7"):
            mp.generate_dataset(3, 10.7, (0.5, 0.5), 2.0, mp.RngStream(23))

    def test_sample_dm_counts_fractional_size(self):
        with pytest.raises(ValidationError, match="whole number, got 10.9"):
            mp.sample_dm_counts(10.9, (0.5, 0.5), 2.0, mp.RngStream(24))

    def test_sample_dm_matrix_fractional_size(self):
        with pytest.raises(ValidationError, match="whole number"):
            sample_dm_matrix([10, 20.5], (0.5, 0.5), 2.0, mp.RngStream(25).generator())

    def test_generate_dataset_fractional_cluster_count(self):
        with pytest.raises(ValidationError, match="number of clusters must be a whole number"):
            mp.generate_dataset(2.5, 10, (0.5, 0.5), 2.0, mp.RngStream(26))

    def test_generate_dataset_size_vector_length(self):
        with pytest.raises(ValidationError, match="one cluster size or K=3 of them"):
            mp.generate_dataset(3, [10, 20], (0.5, 0.5), 2.0, mp.RngStream(27))

    def test_whole_floats_draw_the_same_bytes(self):
        a = mp.generate_dataset(3.0, [10.0, 20.0, 30.0], (0.5, 0.5), 2.0, mp.RngStream(28))
        b = mp.generate_dataset(3, [10, 20, 30], (0.5, 0.5), 2.0, mp.RngStream(28))
        assert a.counts.tobytes() == b.counts.tobytes()
        x = mp.sample_dm_counts(12.0, (0.5, 0.5), 2.0, mp.RngStream(29), size=5)
        y = mp.sample_dm_counts(12, (0.5, 0.5), 2.0, mp.RngStream(29), size=5)
        assert x.tobytes() == y.tobytes()


def beta_binomial_cdf(r, a, b):
    """CDF of BetaBinomial(r, a, b) at k = 0..r, from math.lgamma."""
    log_pmf = [
        math.lgamma(r + 1) - math.lgamma(k + 1) - math.lgamma(r - k + 1)
        + math.lgamma(k + a) + math.lgamma(r - k + b) - math.lgamma(r + a + b)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        for k in range(r + 1)
    ]
    return np.cumsum(np.exp(log_pmf))


class TestInversionTable:
    """Exact conditional laws, exact inversion, and draws that follow the DM pmf."""

    SEVERITY = np.array((0.224, 0.466, 0.273, 0.031, 0.004)) / 0.998

    @pytest.mark.parametrize(
        "n, phi, concentration",
        [
            (46, 3.19, derive_eta0(46, 3.19)),
            # the dispersion clamp of a refit, 0.975 n: eta0 is 0.026 and eta_5 1e-4
            (40, 39.0, derive_eta0(40, 39.0)),
            # a one-unit future: derive_eta0 has no value at n=1, and the law is pi's
            (1, 1.01, 1.0),
        ],
        ids=["severity", "clamped", "unit-future"],
    )
    def test_conditional_cdfs_match_lgamma(self, n, phi, concentration):
        """Row r of category c is F(k | r); the first category has only r = n."""
        table = InversionTable(n, self.SEVERITY, phi)
        eta = concentration * self.SEVERITY
        assert table.n_uniforms == 4
        for c in range(4):
            for r in sorted({0, 1, n // 2, n}) if c else [n]:
                want = beta_binomial_cdf(r, eta[c], eta[c + 1 :].sum())
                stored = table.cdf[c][r - table.lo[c]]
                np.testing.assert_allclose(stored[: r + 1], want, rtol=0, atol=1e-12)
                assert np.all(stored[r:] == 1.0)

    @pytest.mark.parametrize("mass", [0.0, 1e-3, 0.2])
    @pytest.mark.parametrize(
        "n, pi, phi",
        [(46, SEVERITY, 3.19), (60, (0.2, 0.0, 0.5, 0.3), 1.01), (1, SEVERITY, 1.01)],
        ids=["severity", "structural-zero", "unit"],
    )
    def test_first_category_stores_row_n_alone(self, n, pi, phi, mass):
        """No units are used before the first category, so r = n is its one reachable row."""
        table = InversionTable(n, pi, phi, mass)
        assert table.lo[0] == n
        assert table.cdf[0].shape[0] == table.guide[0].shape[0] == 1

    @pytest.mark.parametrize(
        "n, pi, phi, cells",
        [
            (46, SEVERITY, 3.19, 6674),
            (60, (0.2, 0.0, 0.5, 0.3), 1.01, 61 + 61**2),
            (1, SEVERITY, 1.01, 2 + 3 * 2**2),
            (9, (0.3, 0.7), 2.0, 10),
        ],
        ids=["severity", "structural-zero", "unit", "two-categories"],
    )
    def test_mass_0_stores_every_reachable_row_and_column(self, n, pi, phi, cells):
        """(n + 1) + (C' - 2)(n + 1)^2 cells for C' positive categories, drawn over whole rows.

        Each block equals its category's rows r = 0..n (r = n alone for the
        first) as ``_cdf_rows`` computes them over all columns, bit for bit,
        and each count is #{k : F(k | r) <= u} over those whole rows.
        """
        table = InversionTable(n, pi, phi)
        assert table.n_cells == cells == InversionTable.band_cells(n, pi, phi, 0.0)
        pi = np.asarray(pi)
        eta = pi[pi > 0.0] * (1.0 if n == 1 else derive_eta0(n, phi))
        terms = _log_pmf_terms(eta, n)
        whole = [_cdf_rows(terms, c, np.arange(n + 1), n + 1) for c in range(table.n_uniforms)]
        assert [cdf.shape for cdf in table.cdf] == [(1, n + 1)] + [(n + 1, n + 1)] * (len(whole) - 1)
        for c, rows in enumerate(whole):
            assert table.cdf[c].tobytes() == rows[table.lo[c] :].tobytes()
        stored = np.concatenate([cdf.ravel() for cdf in table.cdf])
        edges = np.concatenate([stored, np.nextafter(stored, 0.0), [np.nextafter(1.0, 0.0)]])
        edges = np.concatenate([edges[edges < 1.0], mp.RngStream(35).generator().random(5000)])
        u = np.tile(edges, (table.n_uniforms, 1))
        for c in range(table.n_uniforms):
            mp.RngStream(36).child(c).generator().shuffle(u[c])
        got = table.draw(u)
        left = np.full(u.shape[1], n)
        for c, rows in enumerate(whole):
            want = np.count_nonzero(rows[left] <= u[c][:, None], axis=1)
            np.testing.assert_array_equal(got[:, table.positive[c]], want)
            left -= want
        np.testing.assert_array_equal(got[:, table.positive[-1]], left)

    @pytest.mark.parametrize("n, phi", [(46, 3.19), (40, 39.0), (7, 1.01), (1, 1.01)])
    def test_draws_invert_the_conditional_cdfs(self, n, phi):
        """Each count is #{k : F(k | r) <= u}, the guide only saves the search.

        The uniforms include every bucket edge i/G, each tabulated CDF value
        and the largest double below 1.
        """
        table = InversionTable(n, self.SEVERITY, phi)
        edges = np.concatenate([
            *(np.arange(guide.shape[1]) / guide.shape[1] for guide in table.guide),
            *(cdf[cdf < 1.0] for cdf in table.cdf),
            [np.nextafter(1.0, 0.0)],
            mp.RngStream(30).generator().random(20_000),
        ])
        u = np.tile(edges, (table.n_uniforms, 1))
        for c in range(table.n_uniforms):
            mp.RngStream(31).child(c).generator().shuffle(u[c])
        got = table.draw(u)
        left = np.full(u.shape[1], n)
        for c in range(table.n_uniforms):
            rows = table.cdf[c][left - table.lo[c]]
            want = np.count_nonzero(rows <= u[c][:, None], axis=1)
            np.testing.assert_array_equal(got[:, c], want)
            left -= want
        np.testing.assert_array_equal(got[:, -1], left)

    def test_draws_follow_the_dm_pmf(self):
        """A chi-square test of 200000 draws against the enumerated DM(6, eta) pmf."""
        n, pi, phi = 6, np.array([0.2, 0.3, 0.5]), 2.5
        eta = derive_eta0(n, phi) * pi
        table = InversionTable(n, pi, phi)
        draws = table.draw(mp.RngStream(32).generator().random((2, 200_000)))
        cells = [x for x in itertools.product(range(n + 1), repeat=3) if sum(x) == n]
        index = {x: i for i, x in enumerate(cells)}
        observed = np.bincount([index[tuple(x)] for x in draws.tolist()], minlength=len(cells))
        expected = 200_000 * np.exp([dm_log_pmf(x, n, eta) for x in cells])
        assert expected.min() > 5.0
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, len(cells) - 1)

    def test_structural_zeros_stay_empty(self):
        table = InversionTable(12, (0.5, 0.0, 0.3, 0.2, 0.0), 3.0)
        assert table.n_uniforms == 2
        draws = table.draw(mp.RngStream(33).generator().random((2, 500)))
        assert np.all(draws[:, [1, 4]] == 0)
        assert np.all(draws.sum(axis=1) == 12)
        only = InversionTable(9, (0.0, 1.0), 3.0)
        np.testing.assert_array_equal(only.draw(np.empty((0, 3))), [[0, 9]] * 3)

    def test_matrix_layout(self):
        """One uniform array (n_uniforms, B * K_n) per distinct size n, in size order."""
        sizes, pi, phi, B = [10, 30, 20, 30], (0.1, 0.2, 0.3, 0.4), 3.0, 7
        tables = {n: InversionTable(n, pi, phi) for n in (10, 20, 30)}
        got = sample_dm_matrix(sizes, pi, phi, mp.RngStream(34).generator(), B, tables=tables)
        gen = mp.RngStream(34).generator()
        want = np.empty((B, 4, 4), dtype=np.int64)
        for n, where in ((10, [0]), (20, [2]), (30, [1, 3])):
            u = gen.random((3, B * len(where)))
            want[:, where] = tables[n].draw(u).reshape(B, len(where), 4)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got.sum(axis=2), np.tile(sizes, (B, 1)))


C10_06 = np.array((0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.05, 0.05, 0.10, 0.60))


class TestBandedTable:
    """A band stores part of each category's rows and columns and draws the mass-0 table's clusters."""

    @staticmethod
    def band_cases(full, band, u):
        """How many uniforms of each category fell outside the band's rows or past its row's top."""
        draws = full.draw(u)
        left = np.full(u.shape[1], full.n)
        outside = past_top = 0
        for c in range(full.n_uniforms):
            rows, width = band.cdf[c].shape
            row = left - band.lo[c]
            inside = (row >= 0) & (row < rows)
            outside += np.count_nonzero(~inside)
            past_top += np.count_nonzero(u[c, inside] >= band.cdf[c][row[inside], width - 1])
            left -= draws[:, c]
        return outside, past_top

    @pytest.mark.parametrize(
        "n, pi, phi, mass",
        [
            (46, TestInversionTable.SEVERITY, 3.19, 0.2),
            (80, TestInversionTable.SEVERITY, 5.0, 0.05),
            (60, (0.2, 0.0, 0.5, 0.3), 1.01, 0.3),
            (120, np.full(6, 1.0 / 6.0), 8.0, 0.01),
        ],
        ids=["severity", "severity-80", "structural-zero", "six-categories"],
    )
    def test_band_draws_the_full_tables_clusters(self, n, pi, phi, mass):
        """Same clusters for the same uniforms, fallbacks included.

        The uniforms are random ones, every stored F, the double just below
        each, and the largest double below 1; both fallbacks (a row outside
        the band, u at or past its row's last stored F) must occur.
        """
        full, band = InversionTable(n, pi, phi), InversionTable(n, pi, phi, mass)
        assert band.n_cells < full.n_cells
        stored = np.concatenate([cdf.ravel() for cdf in band.cdf])
        edges = np.concatenate([stored, np.nextafter(stored, 0.0), [np.nextafter(1.0, 0.0)]])
        edges = np.concatenate([edges[edges < 1.0], mp.RngStream(41).generator().random(40_000)])
        u = np.tile(edges, (full.n_uniforms, 1))
        for c in range(full.n_uniforms):
            mp.RngStream(42).child(c).generator().shuffle(u[c])
        outside, past_top = self.band_cases(full, band, u)
        assert outside > 0 and past_top > 0
        got = band.draw(u)
        assert got.dtype == np.int64 and got.tobytes() == full.draw(u).tobytes()

    def test_band_leaves_out_at_most_its_mass(self):
        """Rows outside the band and u past a row's top each take at most mass per category."""
        n, phi, mass, N = 200, 5.0, 0.01, 200_000
        band = InversionTable(n, C10_06, phi, mass)
        full = InversionTable(n, C10_06, phi)
        u = mp.RngStream(43).generator().random((band.n_uniforms, N))
        outside, past_top = self.band_cases(full, band, u)
        bar = band.n_uniforms * mass * N
        assert 0 < outside < bar and 0 < past_top < bar
        assert band.draw(u).tobytes() == full.draw(u).tobytes()

    def test_marginals_at_the_predict_wide_fit(self):
        """Each category of 10^5 banded draws against its BetaBinomial(n, eta_c, eta0 - eta_c).

        The table is the one the ensemble builds at the fit of a K=100,
        n=500, C10-06, phi=8 table.  Chi-square over bins pooled until each
        expects at least 5, each category at level 0.001 (0.01 over the ten),
        fixed before the run.
        """
        data = mp.generate_dataset(100, 500, C10_06, 8.0, mp.RngStream(44).child(0), repair=True)
        fit = mp.fit_model(data)
        band = InversionTable(500, fit.pi_hat, fit.phi_hat, 1e-3)
        assert band.n_cells < InversionTable.band_cells(500, fit.pi_hat, fit.phi_hat, 0.0) // 10
        N = 100_000
        draws = band.draw(mp.RngStream(44).child(1).generator().random((band.n_uniforms, N)))
        eta = derive_eta0(500, fit.phi_hat) * fit.pi_hat
        for c in range(10):
            expected = N * betabinom.pmf(np.arange(501), 500, eta[c], eta.sum() - eta[c])
            observed = np.bincount(draws[:, c], minlength=501).astype(float)
            # Pool neighbouring bins until each expects at least 5; a short last one joins its left.
            pooled_e, pooled_o = [0.0], [0.0]
            for e, o in zip(expected, observed):
                if pooled_e[-1] >= 5.0:
                    pooled_e.append(0.0)
                    pooled_o.append(0.0)
                pooled_e[-1] += e
                pooled_o[-1] += o
            if pooled_e[-1] < 5.0:
                pooled_e[-2] += pooled_e.pop()
                pooled_o[-2] += pooled_o.pop()
            pooled_e, pooled_o = np.array(pooled_e), np.array(pooled_o)
            assert pooled_e.min() >= 5.0 and pooled_e.shape[0] > 10
            stat = float(((pooled_o - pooled_e) ** 2 / pooled_e).sum())
            assert stat < chi2.ppf(0.999, pooled_e.shape[0] - 1), (c, stat)


class TestSentinelKernel:
    """The band's search at its edges draws the mass-0 table's clusters, byte for byte.

    Each stored row ends in a sentinel column of 2.0, so a uniform at or
    past the row's last stored F stops at k = width; a row outside the
    band reads row 0 and is flagged.  Both are inverted on demand.
    """

    SHAPES = [
        (46, TestInversionTable.SEVERITY, 3.19, 0.2),
        (60, (0.2, 0.0, 0.5, 0.3), 1.01, 0.3),
        (120, np.full(6, 1.0 / 6.0), 8.0, 0.01),
    ]
    IDS = ["severity", "structural-zero", "six-categories"]

    @staticmethod
    def reaching(full, c, r, uc, rng):
        """Uniforms that leave r units to category c and give it ``uc``.

        The first category takes n - r (u at its F(n - r - 1)), the ones
        between take none (u = 0) and the ones after c draw at random.
        """
        u = rng.random((full.n_uniforms, uc.shape[0]))
        u[:c] = 0.0
        if c and r < full.n:
            u[0] = full.cdf[0][0, full.n - r - 1]
        u[c] = uc
        left = full.n - full.draw(u)[:, full.positive[:c]].sum(axis=1)
        assert np.all(left == r), (c, r)
        return u

    @staticmethod
    def below(values):
        """The values under 1 and the double just below each."""
        values = np.concatenate([values, np.nextafter(values, 0.0)])
        return values[values < 1.0]

    @pytest.mark.parametrize("n, pi, phi, mass", SHAPES, ids=IDS)
    def test_u_at_and_just_below_each_rows_last_stored_f(self, n, pi, phi, mass):
        full, band = InversionTable(n, pi, phi), InversionTable(n, pi, phi, mass)
        rng = mp.RngStream(50).generator()
        stops = 0
        for c in range(band.n_uniforms):
            for i, r in enumerate(range(band.lo[c], band.lo[c] + band.cdf[c].shape[0])):
                uc = self.below(band.cdf[c][i, -1:])
                u = self.reaching(full, c, r, uc, rng)
                stops += np.count_nonzero(uc >= band.cdf[c][i, -1])
                assert band.draw(u).tobytes() == full.draw(u).tobytes(), (c, r)
        assert stops > 0

    @pytest.mark.parametrize("n, pi, phi, mass", SHAPES, ids=IDS)
    def test_rows_one_step_outside_the_band(self, n, pi, phi, mass):
        """Every F of the row just below and just above each later category's band, and below each."""
        full, band = InversionTable(n, pi, phi), InversionTable(n, pi, phi, mass)
        rng = mp.RngStream(51).generator()
        outside = 0
        for c in range(1, band.n_uniforms):
            for r in (band.lo[c] - 1, band.lo[c] + band.cdf[c].shape[0]):
                if not 0 <= r <= n:
                    continue
                uc = np.concatenate([self.below(full.cdf[c][r - full.lo[c]]), rng.random(200)])
                u = self.reaching(full, c, r, uc, rng)
                outside += 1
                assert band.draw(u).tobytes() == full.draw(u).tobytes(), (c, r)
        assert outside > 0

    @pytest.mark.parametrize("n, pi, phi, mass", SHAPES, ids=IDS)
    def test_the_first_categorys_single_row(self, n, pi, phi, mass):
        """Every F of row n in the band and in the mass-0 table, and the double below each."""
        full, band = InversionTable(n, pi, phi), InversionTable(n, pi, phi, mass)
        assert band.cdf[0].shape[1] < full.cdf[0].shape[1]
        u0 = self.below(np.concatenate([band.cdf[0][0], full.cdf[0][0]]))
        assert np.any(u0 >= band.cdf[0][0, -1])
        u = mp.RngStream(52).generator().random((band.n_uniforms, u0.shape[0]))
        u[0] = u0
        assert band.draw(u).tobytes() == full.draw(u).tobytes()

    @pytest.mark.parametrize("mass", [0.0, 0.2])
    def test_one_positive_category_draws_no_uniform(self, mass):
        """With no uniform rows the size comes from ``size``, and no uniform is consumed."""
        table = InversionTable(9, (0.0, 1.0), 3.0, mass)
        assert table.n_uniforms == 0
        assert table.draw(iter(()), 3).tobytes() == InversionTable(9, (0.0, 1.0), 3.0).draw(
            np.empty((0, 3))
        ).tobytes()
        gen = mp.RngStream(53).generator()
        np.testing.assert_array_equal(draw_dm_counts(9, (0.0, 1.0), 3.0, gen, 3, table), [[0, 9]] * 3)
        np.testing.assert_array_equal(draw_dm_counts(9, (0.0, 1.0), 3.0, gen, table=table), [0, 9])
        assert gen.random() == mp.RngStream(53).generator().random()

    @pytest.mark.parametrize("n, pi, phi, mass", SHAPES, ids=IDS)
    def test_guides_have_twice_the_old_buckets(self, n, pi, phi, mass):
        """G is twice the first power of two at or above the width; every bucket edge draws alike."""
        full, band = InversionTable(n, pi, phi), InversionTable(n, pi, phi, mass)
        edges = []
        for cdf, guide in zip(band.cdf, band.guide):
            width, G = cdf.shape[1], guide.shape[1]
            assert G == 2 * (1 << (width - 1).bit_length())
            edges.append(np.arange(G) / G)
        u0 = self.below(np.concatenate(edges))
        u = np.tile(u0, (band.n_uniforms, 1))
        for c in range(band.n_uniforms):
            mp.RngStream(54).child(c).generator().shuffle(u[c])
        assert band.draw(u).tobytes() == full.draw(u).tobytes()

    @pytest.mark.parametrize("mass", [0.0, 1e-3])
    def test_draw_dm_counts_reads_rows_as_one_array(self, mass):
        """A row of N uniforms per category consumes the stream as one (n_uniforms, N) array does."""
        n, N = 200, 3001
        table = InversionTable(n, C10_06, 5.0, mass)
        gen, ref = mp.RngStream(55).generator(), mp.RngStream(55).generator()
        got = draw_dm_counts(n, C10_06, 5.0, gen, N, table)
        want = table.draw(ref.random((table.n_uniforms, N)))
        assert got.tobytes() == want.tobytes() and got.flags.f_contiguous
        assert gen.random() == ref.random()


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
