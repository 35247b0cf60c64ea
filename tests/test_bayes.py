import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import betaln, gammaln, logsumexp
from scipy.stats import beta as beta_dist
from scipy.stats import halfcauchy, multinomial

import mnpred as mp
import mnpred.bayes
from mnpred.bayes import (
    PredictiveSamples,
    PriorChoice,
    _initial_theta,
    _LogPosterior,
    _pareto_khat,
    bayes_bonferroni_interval,
    bayes_mean_centered_interval,
    bayes_rank_scs_interval,
    dm_log_pmf,
    log_posterior,
    mcmc_sample,
    posterior_predictive,
)
from mnpred.errors import ConvergenceWarning, DomainError, ValidationError


def table(C, seed=0, K=12, n=40):
    """A repaired K x C table at dispersion 3 around a skewed pi."""
    pi = np.linspace(1.0, 3.0, C)
    return mp.generate_dataset(
        K, n, pi / pi.sum(), 3.0, mp.RngStream(700 + C).child(seed), repair=True
    )


PRIORS = [PriorChoice.half_cauchy(), PriorChoice.beta_icc()]


def kernel_table(kind):
    """Tables that stretch the log posterior's layout of terms."""
    if kind == "wide":
        # about 1500 terms per row
        pi = np.linspace(1.0, 3.0, 10)
        return mp.generate_dataset(100, 500, pi / pi.sum(), 8.0, mp.RngStream(710), repair=True)
    if kind == "zero-column":
        data = mp.generate_dataset(
            10, 46, (0.224, 0.466, 0.273, 0.031, 0.004), 3.19, mp.RngStream(711).child(0)
        )
        assert data.counts[:, -1].sum() == 0
        return data
    assert kind == "unequal-sizes"
    return mp.generate_dataset(
        12, np.arange(5, 89, 7), (0.5, 0.3, 0.2), 2.5, mp.RngStream(712), repair=True
    )


KERNEL_TABLES = ("wide", "zero-column", "unequal-sizes")


class TestDmLogPmf:
    def test_normalises_over_all_compositions(self):
        n, eta = 6, np.array([0.7, 1.3, 4.0])
        total = 0.0
        for x01 in itertools.product(range(n + 1), repeat=2):
            if sum(x01) <= n:
                x = (*x01, n - sum(x01))
                total += math.exp(dm_log_pmf(x, n, eta))
        assert total == pytest.approx(1.0, rel=1e-10)

    def test_beta_binomial_special_case(self):
        # C=2 reduces to the beta-binomial pmf
        x, n, a, b = 3, 10, 1.5, 4.0
        expected = (
            gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)
            + betaln(x + a, n - x + b) - betaln(a, b)
        )
        assert dm_log_pmf([x, n - x], n, [a, b]) == pytest.approx(expected, rel=1e-12)

    def test_large_concentration_approaches_multinomial(self):
        pi = np.array([0.2, 0.3, 0.5])
        x = [2, 3, 5]
        got = dm_log_pmf(x, 10, 1e8 * pi)
        assert got == pytest.approx(multinomial.logpmf(x, 10, pi), abs=1e-4)

    def test_rejects_nonpositive_concentration(self):
        with pytest.raises(DomainError):
            dm_log_pmf([1, 1], 2, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_concentration(self, bad):
        # nan fails every comparison, so a check on `eta <= 0` alone lets it through.
        with pytest.raises(DomainError):
            dm_log_pmf([1, 1], 2, [bad, 1.0])

    def test_rejects_mismatched_or_bad_counts(self):
        with pytest.raises(ValidationError):
            dm_log_pmf([1, 1], 2, [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            dm_log_pmf([1, 2], 2, [1.0, 1.0])
        with pytest.raises(ValidationError):
            dm_log_pmf([-1, 3], 2, [1.0, 1.0])

    def test_rejects_counts_or_n_that_are_not_whole(self):
        # int() truncation used to let both through with a wrong value
        for x, n in (([1.5, 0.6], 2), ([2, 0], 2.7), ([0.5, 1.5], 2.0)):
            with pytest.raises(ValidationError, match="whole"):
                dm_log_pmf(x, n, [1.0, 1.0])
        assert dm_log_pmf([2.0, 0.0], 2.0, [1.0, 1.0]) == pytest.approx(math.log(1.0 / 3.0))


def naive_log_posterior(theta, data, prior):
    """Direct cluster-by-cluster evaluation, no shared-term compression."""
    theta = np.asarray(theta, dtype=float)
    C = data.n_categories
    logits = np.append(theta[: C - 1], 0.0)
    log_pi = logits - logsumexp(logits)
    pi = np.exp(log_pi)
    u = theta[C - 1]
    eta0 = math.exp(u)
    ll = sum(
        dm_log_pmf(row, int(row.sum()), eta0 * pi) for row in data.counts
    )
    return ll + prior.log_density_eta0(eta0) + float(log_pi.sum()) + u


class TestLogPosterior:
    @pytest.mark.parametrize(
        "prior, kind",
        [
            pytest.param(prior, kind, id=f"prior{i}" if kind is None else f"prior{i}-{kind}")
            for kind in (None, *KERNEL_TABLES)
            for i, prior in enumerate(PRIORS)
        ],
    )
    def test_matches_naive_evaluation(self, histo_data, prior, kind):
        data = histo_data if kind is None else kernel_table(kind)
        C = data.n_categories
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = np.append(rng.normal(0, 1.5, C - 1), rng.normal(1.5, 1.0))
            got = log_posterior(theta, data, prior)
            want = naive_log_posterior(theta, data, prior)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_minus_inf_outside_support(self, toy_data):
        theta = np.array([0.0, 0.0, 800.0])  # eta0 overflows to inf
        assert log_posterior(theta, toy_data, PriorChoice.half_cauchy()) == -math.inf

    def test_underflowing_empty_category_is_outside_the_support(self):
        # An empty column adds no log terms, so its eta_c = 0 is caught by
        # the support check alone.
        data = kernel_table("zero-column")
        theta = np.array([800.0, 800.0, 800.0, 800.0, 1.0])  # only the last pi underflows
        assert log_posterior(theta, data, PriorChoice.half_cauchy()) == -math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("prior", [PriorChoice.half_cauchy(), PriorChoice.beta_icc()])
    def test_batched_rows_score_independently(self, histo_data, prior):
        rng = np.random.default_rng(4)
        theta = np.column_stack([rng.normal(0, 1.5, (6, 4)), rng.normal(1.5, 1.0, 6)])
        finite = theta.copy()
        theta[1, 4] = 700.0    # eta0 finite but at the support bound u >= 700
        theta[2, 4] = 800.0    # eta0 overflows
        theta[4, 0] = -800.0   # pi_0, hence eta_0, underflows to 0
        logp = _LogPosterior(histo_data, prior)
        got = logp(theta)
        np.testing.assert_array_equal(got[[1, 2, 4]], -math.inf)
        rest = [0, 3, 5]
        np.testing.assert_array_equal(got[rest], logp(finite)[rest])
        for i in rest:
            assert got[i] == pytest.approx(log_posterior(theta[i], histo_data, prior), rel=1e-9)
            want = naive_log_posterior(theta[i], histo_data, prior)
            assert got[i] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("C", [3, 5, 10, *KERNEL_TABLES])
    @pytest.mark.parametrize("prior", PRIORS)
    def test_row_score_independent_of_batch_size(self, C, prior):
        # Proposals, grid cells and Newton stencils are scored in batches of
        # different sizes; a row's score must not depend on the batch.
        data = table(C) if isinstance(C, int) else kernel_table(C)
        dim = data.n_categories
        rng = np.random.default_rng(dim)
        theta = np.column_stack(
            [rng.normal(0.0, 1.5, (124, dim - 1)), rng.normal(1.5, 1.0, 124)]
        )
        logp = _LogPosterior(data, prior)
        alone = np.array([logp(theta[i : i + 1])[0] for i in range(124)])
        assert np.all(np.isfinite(alone))
        for size in range(2, 125):
            batched = np.concatenate(
                [logp(theta[i : i + size]) for i in range(0, 124, size)]
            )
            np.testing.assert_array_equal(batched, alone, err_msg=f"batch size {size}")


class TestPriors:
    def test_half_cauchy_matches_scipy(self):
        prior = PriorChoice.half_cauchy(scale=5.0)
        for x in (0.1, 1.0, 5.0, 42.0):
            assert prior.log_density_eta0(x) == pytest.approx(
                halfcauchy.logpdf(x, scale=5.0), rel=1e-12
            )

    def test_beta_icc_matches_transformed_density(self):
        prior = PriorChoice.beta_icc(a=1.0, b=10.0)
        for eta0 in (0.2, 1.0, 9.0, 99.0):
            rho = 1.0 / (1.0 + eta0)
            want = beta_dist.logpdf(rho, 1.0, 10.0) - 2.0 * math.log1p(eta0)
            assert prior.log_density_eta0(eta0) == pytest.approx(want, rel=1e-12)

    def test_beta_icc_integrates_to_one(self):
        from scipy.integrate import quad

        prior = PriorChoice.beta_icc()
        total, _ = quad(lambda x: math.exp(prior.log_density_eta0(x)), 0, np.inf)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_out_of_support(self):
        prior = PriorChoice.half_cauchy()
        assert prior.log_density_eta0(0.0) == -math.inf
        assert prior.log_density_eta0(-1.0) == -math.inf
        assert prior.log_density_eta0(math.inf) == -math.inf

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            PriorChoice(kind="jeffreys")
        with pytest.raises(ValidationError):
            PriorChoice.half_cauchy(scale=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        # A nan scale used to pass and fail late in mcmc_sample as an
        # InitializationError; an infinite beta_a gave a nan density.
        for kw in (
            dict(kind="cauchy", scale=bad),
            dict(kind="beta", beta_a=bad),
            dict(kind="beta", beta_b=bad),
            dict(kind="cauchy", beta_b=bad),
        ):
            with pytest.raises(ValidationError, match="finite"):
                PriorChoice(**kw)

    @pytest.mark.parametrize("prior", PRIORS)
    def test_unchecked_density_equals_checked_on_the_support(self, prior):
        x = np.array([1e-300, 0.02, 1.0, 7.5, 4e3, 1e100, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(prior._log_density(x), prior.log_density_eta0(x))
            far = prior.log_density_eta0(1e300)
        # At eta0 = 1e300 the densities reduce to their power-law tails:
        # 2 / (pi * scale) * (scale / eta0)**2 and eta0**-(a + 1) / B(a, b).
        a, b, scale = prior.beta_a, prior.beta_b, prior.scale
        if prior.kind == "cauchy":
            want = math.log(2.0 / (math.pi * scale)) - 2.0 * math.log(1e300 / scale)
        else:
            want = -float(betaln(a, b)) - (a + 1.0) * math.log(1e300)
        assert far == pytest.approx(want, rel=1e-14)


@pytest.fixture(scope="module")
def recovery_data():
    """Criterion 8's table: K=20 clusters of 50 at dispersion 5 around (0.3, 0.35, 0.35)."""
    return mp.generate_dataset(20, 50, np.array([0.3, 0.35, 0.35]), 5.0, mp.RngStream(808).child(0))


@pytest.fixture(scope="module")
def draws(histo_data):
    # short on purpose; the structural checks need few draws
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return mcmc_sample(
            histo_data,
            PriorChoice.half_cauchy(),
            mp.RngStream(60),
            chains=2,
            sampling_iters=250,
            warmup=200,
        )


def reference_mcmc(data, prior, rng, chains, sampling_iters, warmup):
    """The chain-at-a-time adaptive coordinate-wise random-walk Metropolis
    sampler, with a scalar gammaln-based log posterior, that the
    importance-resampling sampler replaced; kept as its oracle.  Returns
    pi and log eta0 per chain, shapes (chains, sampling_iters, C) and
    (chains, sampling_iters)."""
    # The gammaln form of the likelihood that the rising-factorial kernel
    # replaced, with the count terms compressed to each column's distinct
    # values.
    counts = data.counts
    K, C = counts.shape
    sizes = data.cluster_sizes
    size_vals, size_mult = np.unique(sizes, return_counts=True)
    size_mult = size_mult.astype(float)
    vals, cols, mult = [], [], []
    for c in range(C):
        u, k = np.unique(counts[:, c], return_counts=True)
        vals.append(u)
        cols.append(np.full(u.shape[0], c))
        mult.append(k)
    count_vals = np.concatenate(vals).astype(float)
    count_cols = np.concatenate(cols)
    count_mult = np.concatenate(mult).astype(float)
    const = float(np.sum(gammaln(sizes + 1.0)) - np.sum(gammaln(counts + 1.0)))

    def log_prior(eta0):
        if prior.kind == "cauchy":
            return (
                math.log(2.0 / math.pi)
                - math.log(prior.scale)
                - math.log1p((eta0 / prior.scale) ** 2)
            )
        a, b = prior.beta_a, prior.beta_b
        return (
            -float(betaln(a, b))
            - (a + 1.0) * math.log1p(eta0)
            + (b - 1.0) * (math.log(eta0) - math.log1p(eta0))
        )

    def log_softmax(free):
        logits = np.append(free, 0.0)
        top = logits.max()
        return logits - (top + math.log(np.exp(logits - top).sum()))

    def logp(theta):
        log_pi = log_softmax(theta[: C - 1])
        u = float(theta[C - 1])
        eta0 = math.exp(u) if u < 700.0 else math.inf
        if not math.isfinite(eta0) or eta0 <= 0.0:
            return -math.inf
        eta = eta0 * np.exp(log_pi)
        if np.any(eta <= 0.0):
            return -math.inf
        ll = (
            const
            + K * gammaln(eta0)
            - float(size_mult @ gammaln(size_vals + eta0))
            + float(count_mult @ gammaln(count_vals + eta[count_cols]))
            - K * float(np.sum(gammaln(eta)))
        )
        lp = ll + log_prior(eta0) + float(log_pi.sum()) + u
        return lp if math.isfinite(lp) else -math.inf

    dim = data.n_categories
    base = _initial_theta(data)
    pi_store = np.empty((chains, sampling_iters, dim))
    u_store = np.empty((chains, sampling_iters))
    for j in range(chains):
        gen = rng.child(j).generator()
        for _ in range(100):
            theta = base + 0.1 * gen.standard_normal(dim)
            lp_cur = logp(theta)
            if math.isfinite(lp_cur):
                break
        scales = np.full(dim, 0.5)
        batch_acc = np.zeros(dim)
        for it in range(warmup + sampling_iters):
            for d in range(dim):
                prop = theta.copy()
                prop[d] += scales[d] * gen.standard_normal()
                lp_prop = logp(prop)
                if math.log(gen.random()) < lp_prop - lp_cur:
                    theta, lp_cur = prop, lp_prop
                    if it < warmup:
                        batch_acc[d] += 1.0
            if it < warmup and (it + 1) % 50 == 0:
                rate = batch_acc / 50
                step = min(0.25, ((it + 1) // 50) ** -0.5)
                scales[rate > 0.45] *= math.exp(step)
                scales[rate < 0.20] *= math.exp(-step)
                batch_acc[:] = 0.0
            if it >= warmup:
                pi_store[j, it - warmup] = np.exp(log_softmax(theta[: dim - 1]))
                u_store[j, it - warmup] = theta[dim - 1]
    return pi_store, u_store


def batch_means_se(per_chain, batches=20):
    """Monte Carlo standard error of the pooled mean of (chains, draws)
    autocorrelated values, from the means of ``batches`` blocks per chain."""
    chains, n = per_chain.shape
    means = per_chain[:, : n - n % batches].reshape(chains * batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(means.shape[0]))


class TestMcmc:
    def test_shapes_and_ranges(self, draws):
        assert draws.pi_global.shape == (500, 5)
        assert draws.eta0.shape == (500,)
        assert draws.rhat.shape == (6,)
        assert draws.ess.shape == draws.khat.shape == draws.accept_rates.shape == (2,)
        np.testing.assert_allclose(draws.pi_global.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(draws.eta0 > 0.0)
        assert np.all((draws.ess >= 1.0) & (draws.ess <= 250.0))
        np.testing.assert_array_equal(draws.accept_rates, draws.ess / 250)
        assert draws.n_draws == 500

    @pytest.mark.parametrize("C", [2, 7, 10])
    def test_draws_are_finite_at_every_width(self, C):
        got = mcmc_sample(table(C, seed=1), PriorChoice.half_cauchy(), mp.RngStream(66),
                          chains=2, sampling_iters=200)
        assert got.pi_global.shape == (400, C) and got.rhat.shape == (C + 1,)
        np.testing.assert_allclose(got.pi_global.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(np.isfinite(got.eta0) & (got.eta0 > 0.0))
        assert np.all(got.ess > 1.0) and np.all(np.isfinite(got.khat))

    def test_rho_is_inverse_shifted_eta0(self, draws):
        np.testing.assert_allclose(draws.rho, 1.0 / (1.0 + draws.eta0), rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::mnpred.errors.ConvergenceWarning")
    def test_deterministic(self, histo_data, draws):
        again = mcmc_sample(
            histo_data,
            PriorChoice.half_cauchy(),
            mp.RngStream(60),
            chains=2,
            sampling_iters=250,
            warmup=200,
        )
        np.testing.assert_array_equal(draws.eta0, again.eta0)
        np.testing.assert_array_equal(draws.pi_global, again.pi_global)

    def test_needs_two_chains(self, toy_data):
        with pytest.raises(ValidationError):
            mcmc_sample(toy_data, PriorChoice.half_cauchy(), mp.RngStream(1), chains=1)

    def test_warmup_is_checked_but_changes_nothing(self, histo_data):
        kw = dict(chains=2, sampling_iters=100)
        with pytest.raises(ValidationError):
            mcmc_sample(histo_data, PriorChoice.half_cauchy(), mp.RngStream(1), warmup=-1, **kw)
        none = mcmc_sample(histo_data, PriorChoice.half_cauchy(), mp.RngStream(1), warmup=0, **kw)
        many = mcmc_sample(histo_data, PriorChoice.half_cauchy(), mp.RngStream(1), warmup=9999, **kw)
        np.testing.assert_array_equal(none.pi_global, many.pi_global)
        np.testing.assert_array_equal(none.eta0, many.eta0)

    def test_batch_j_draws_from_child_j(self, histo_data):
        # Batches are independent: the first two of four equal a two-batch run.
        kw = dict(sampling_iters=300)
        two = mcmc_sample(histo_data, PriorChoice.beta_icc(), mp.RngStream(3), chains=2, **kw)
        four = mcmc_sample(histo_data, PriorChoice.beta_icc(), mp.RngStream(3), chains=4, **kw)
        np.testing.assert_array_equal(four.eta0[:600], two.eta0)
        np.testing.assert_array_equal(four.ess[:2], two.ess)

    @pytest.mark.parametrize(
        "prior, C",
        [
            pytest.param(prior, C, id=f"prior{i}" if C == 5 else f"prior{i}-C{C}")
            for C in (5, 3)
            for i, prior in enumerate(PRIORS)
        ],
    )
    def test_moments_match_chain_at_a_time_reference(self, histo_data, recovery_data, prior, C):
        """Posterior mean and sd of log eta0 and of each pi_c against a long
        Metropolis run, within four Monte Carlo standard errors.  C=5 is the
        severity-shaped table, C=3 criterion 8's recovery table."""
        data = histo_data if C == 5 else recovery_data
        got = mcmc_sample(data, prior, mp.RngStream(68))
        pi_ref, u_ref = reference_mcmc(
            data, prior, mp.RngStream(69), chains=4, sampling_iters=4000, warmup=1000
        )
        ess = float(got.ess.sum())
        pairs = [(np.log(got.eta0), u_ref)] + [
            (got.pi_global[:, c], pi_ref[:, :, c]) for c in range(C)
        ]
        for sir, ref in pairs:
            centre = ref.mean()
            # The sd is compared through the mean squared deviation.
            for f in (lambda v: v, lambda v: (v - centre) ** 2):
                a, b = f(sir), f(ref)
                # Resampled draws: the importance error plus the resampling error.
                se_sir = a.std() * math.sqrt(1.0 / ess + 1.0 / a.shape[0])
                se = math.hypot(se_sir, batch_means_se(b))
                assert abs(a.mean() - b.mean()) <= 4.0 * se

    @pytest.mark.filterwarnings("ignore::mnpred.errors.ConvergenceWarning")
    @pytest.mark.parametrize("C", [2, 3, 4, 5, 7, 10])
    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("chains", [2, 4])
    def test_prefetch_matches_sequential_sweep(self, monkeypatch, C, prior, chains):
        # A batch draws all its proposals before it scores them in blocks;
        # blocks of one proposal are the plain sequential sweep over them,
        # and blocks of 7 end in a partial block.
        data = table(C, seed=1)
        kw = dict(chains=chains, sampling_iters=100)
        got = mcmc_sample(data, prior, mp.RngStream(66), **kw)
        for block in (7, 1):
            monkeypatch.setattr("mnpred.bayes._SCORE_BLOCK", block)
            want = mcmc_sample(data, prior, mp.RngStream(66), **kw)
            np.testing.assert_array_equal(got.pi_global, want.pi_global)
            np.testing.assert_array_equal(got.eta0, want.eta0)
            np.testing.assert_array_equal(got.ess, want.ess)
            np.testing.assert_array_equal(got.khat, want.khat)
            np.testing.assert_array_equal(got.rhat, want.rhat)

    @pytest.mark.filterwarnings("ignore::mnpred.errors.ConvergenceWarning")
    @pytest.mark.parametrize("C", [2, 3, 4, 5, 7, 10])
    def test_one_log_posterior_call_per_block(self, monkeypatch, C):
        # A deterministic guard against a return to one call per proposal.
        rows = []
        score = _LogPosterior.__call__

        def counted(self, theta):
            rows.append(theta.shape[0])
            return score(self, theta)

        monkeypatch.setattr(_LogPosterior, "__call__", counted)
        chains, iters = 3, 2500
        mcmc_sample(
            table(C, seed=2), PriorChoice.half_cauchy(), mp.RngStream(67),
            chains=chains, sampling_iters=iters,
        )
        block = mnpred.bayes._SCORE_BLOCK
        per_batch = [block] * (iters // block) + [iters % block]
        sampling = 1 + chains * len(per_batch)
        # The Newton search: a stencil of 1 + C + C**2 rows per iteration,
        # each but perhaps the last followed by the 30 halved steps.
        newton = rows[:-sampling]
        assert 1 <= len(newton) <= 2 * mnpred.bayes._NEWTON_ITERS
        assert set(newton[::2]) == {1 + C + C * C}
        assert set(newton[1::2]) <= {30}
        assert rows[-sampling:] == [mnpred.bayes._GRID_CELLS] + per_batch * chains

    @pytest.mark.parametrize("prior", PRIORS)
    def test_severity_table_needs_no_warning(self, histo_data, prior):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = mcmc_sample(histo_data, prior, mp.RngStream(2))
        assert got.khat.max() <= 0.7 and np.nanmax(got.rhat) <= 1.05

    def test_poor_mixing_warns(self, monkeypatch, histo_data):
        # A proposal centred two sds off the mode and a fifth as wide puts
        # the posterior's bulk in its tail, so a few huge weights dominate.
        laplace = mnpred.bayes._laplace

        def off_centre(logp, theta):
            mode, cov = laplace(logp, theta)
            return mode + 2.0 * np.sqrt(np.diag(cov)), cov / 25.0

        monkeypatch.setattr(mnpred.bayes, "_laplace", off_centre)
        with pytest.warns(ConvergenceWarning, match="k-hat"):
            mcmc_sample(histo_data, PriorChoice.half_cauchy(), mp.RngStream(42))


class TestParetoKhat:
    @pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
    def test_recovers_generalized_pareto_shape(self, k):
        # Excesses over a high threshold of a GPD(k) sample are GPD(k) again,
        # so the fitted shape is k up to sampling error (sd about
        # (1 + k) / sqrt(3000) = 0.02-0.035 here) and the prior's pull to 0.5.
        u = np.random.default_rng(int(10 * k)).random(1_000_000)
        weights = ((1.0 - u) ** -k - 1.0) / k
        assert _pareto_khat(np.log(weights)) == pytest.approx(k, abs=0.1)

    def test_equal_weights_have_no_tail(self):
        assert _pareto_khat(np.zeros(1000)) == math.inf


class TestPosteriorPredictive:
    def test_rows_sum_to_m(self, histo_data):
        with warnings.catch_warnings():
            # a deliberately short run; mixing quality is irrelevant here
            warnings.simplefilter("ignore", ConvergenceWarning)
            draws = mcmc_sample(
                histo_data, PriorChoice.half_cauchy(), mp.RngStream(61),
                chains=2, sampling_iters=100, warmup=100,
            )
        pred = posterior_predictive(draws, 30, mp.RngStream(62))
        assert pred.y_pred.shape == (200, 5)
        np.testing.assert_array_equal(pred.y_pred.sum(axis=1), 30)
        np.testing.assert_allclose(pred.y_hat, pred.y_pred.mean(axis=0))
        np.testing.assert_allclose(pred.sd, pred.y_pred.std(axis=0, ddof=1))
        again = posterior_predictive(draws, 30, mp.RngStream(62))
        np.testing.assert_array_equal(pred.y_pred, again.y_pred)
        with pytest.raises(ValidationError):
            posterior_predictive(draws, 0, mp.RngStream(63))


def crafted(y_pred, m):
    return PredictiveSamples(y_pred=np.asarray(y_pred), m=m)


def test_predictive_summaries_computed_once():
    y_pred = np.random.default_rng(9).multinomial(40, [0.1, 0.2, 0.3, 0.4], size=3000)
    pred = crafted(y_pred, m=40)
    first_mean, first_sd = pred.y_hat, pred.sd
    assert first_mean.tobytes() == y_pred.mean(axis=0).tobytes()
    assert first_sd.tobytes() == y_pred.std(axis=0, ddof=1).tobytes()
    for _ in range(3):
        assert pred.y_hat is first_mean and pred.sd is first_sd
    # every read shares one array, so none of them may write to it
    with pytest.raises(ValueError):
        first_mean[0] = 0.0
    with pytest.raises(ValueError):
        first_sd[0] = 0.0


class TestBayesConstructions:
    def test_bonferroni_quantile_oracle(self):
        pred = crafted(np.arange(100)[:, None], m=99)
        ivs = bayes_bonferroni_interval(pred, 0.05)
        # ranks ceil(0.025*100)=3 and ceil(0.975*100)=98 of 0..99
        assert ivs.lower[0] == 2.0
        assert ivs.upper[0] == 97.0
        assert math.isnan(ivs.multiplier_lower[0])

    def test_mean_centered_single_category(self):
        rng = np.random.default_rng(20)
        y = rng.integers(0, 50, size=(200, 1))
        pred = crafted(y, m=49)
        ivs = bayes_mean_centered_interval(pred, 0.05)
        z = np.abs(y[:, 0] - y.mean()) / y.std(ddof=1)
        q = mp.nearest_rank_quantile(z, 0.95)
        assert ivs.multiplier_upper[0] == pytest.approx(q)
        assert ivs.upper[0] == pytest.approx(min(y.mean() + q * y.std(ddof=1), 49))
        assert ivs.lower[0] == pytest.approx(max(y.mean() - q * y.std(ddof=1), 0))

    def test_mean_centered_constant_category_collapses(self):
        rng = np.random.default_rng(21)
        y = np.column_stack([rng.integers(0, 5, 150), np.full(150, 7)])
        ivs = bayes_mean_centered_interval(crafted(y, m=12), 0.05)
        assert ivs.lower[1] == ivs.upper[1] == 7.0
        assert ivs.upper[0] > ivs.lower[0]

    def test_rank_scs_bounds_are_order_statistics(self):
        rng = np.random.default_rng(22)
        y = rng.multinomial(40, [0.3, 0.3, 0.4], size=400)
        pred = crafted(y, m=40)
        ivs = bayes_rank_scs_interval(pred, 0.05)
        summary = mp.rank_summary(y, 0.05)
        tau = summary.tau_star
        y_sorted = np.sort(y, axis=0)
        np.testing.assert_array_equal(ivs.lower, y_sorted[400 - tau])
        np.testing.assert_array_equal(ivs.upper, y_sorted[tau - 1])
        inside = np.all((y >= ivs.lower) & (y <= ivs.upper), axis=1)
        assert inside.mean() >= 1 - 0.05 - 2 / 400

    def test_all_constructions_contain_column_medians(self):
        rng = np.random.default_rng(23)
        y = rng.multinomial(25, [0.5, 0.3, 0.2], size=300)
        pred = crafted(y, m=25)
        med = np.median(y, axis=0)
        for fn in (
            bayes_bonferroni_interval,
            bayes_mean_centered_interval,
            bayes_rank_scs_interval,
        ):
            ivs = fn(pred, 0.05)
            assert np.all(ivs.lower <= med)
            assert np.all(med <= ivs.upper)

    def test_clipping_respects_future_size(self):
        y = np.column_stack([np.arange(50), 49 - np.arange(50)])
        ivs = bayes_bonferroni_interval(crafted(y, m=49), 0.05)
        assert np.all(ivs.lower >= 0.0)
        assert np.all(ivs.upper <= 49.0)


def reference_nearest_rank(values, p):
    """One partition of a contiguous 1-D copy, as the per-column loops took it."""
    values = np.asarray(values, dtype=float).ravel()
    k = min(max(int(np.ceil(p * values.shape[0])), 1), values.shape[0])
    return float(np.partition(values, k - 1)[k - 1])


def reference_predictive_set(label, pred, lower, upper, mult_lower, mult_upper, alpha):
    """The Bayes-only interval builder with its own clip."""
    C = pred.y_pred.shape[1]
    lower = np.clip(lower, 0.0, pred.m)
    upper = np.clip(upper, 0.0, pred.m)
    return mp.PredictionIntervalSet(
        method=label,
        lower=lower,
        upper=upper,
        y_hat=pred.y_hat,
        sep=pred.sd,
        multiplier_lower=np.broadcast_to(np.asarray(mult_lower, dtype=float), (C,)),
        multiplier_upper=np.broadcast_to(np.asarray(mult_upper, dtype=float), (C,)),
        alpha=alpha,
    )


def reference_bayes_intervals(pred, alpha):
    """The three constructions with per-column loops and a second full sort."""
    y = pred.y_pred
    S, C = y.shape
    p_lo, p_hi = alpha / (2.0 * C), 1.0 - alpha / (2.0 * C)
    lower = np.array([reference_nearest_rank(y[:, c], p_lo) for c in range(C)])
    upper = np.array([reference_nearest_rank(y[:, c], p_hi) for c in range(C)])
    out = {"bayes-bonf": reference_predictive_set(
        "bayes-bonf", pred, lower, upper, math.nan, math.nan, alpha
    )}
    mean, sd = pred.y_hat, pred.sd
    active = sd > 0.0
    q = 0.0
    if np.any(active):
        z = np.abs(y[:, active] - mean[active]) / sd[active]
        q = reference_nearest_rank(z.max(axis=1), 1.0 - alpha)
    out["bayes-mean"] = reference_predictive_set(
        "bayes-mean", pred, mean - q * sd, mean + q * sd, q, q, alpha
    )
    tau = mp.rank_summary(y, alpha).tau_star
    y_sorted = np.sort(y, axis=0)
    out["bayes-scs"] = reference_predictive_set(
        "bayes-scs", pred, y_sorted[S - tau].astype(float), y_sorted[tau - 1].astype(float),
        math.nan, math.nan, alpha,
    )
    return out


class TestBayesKernelsMatchReference:
    FIELDS = ("lower", "upper", "y_hat", "sep", "multiplier_lower", "multiplier_upper")

    @pytest.mark.parametrize("C", [1, 3, 10])
    def test_bitwise_equal(self, C):
        for seed in range(4):
            rng = np.random.default_rng(100 * C + seed)
            p = rng.dirichlet(np.ones(C))
            p[rng.integers(C)] = 0.0  # one constant (all-zero) column
            p = p / p.sum() if p.sum() > 0 else np.ones(1)
            m = int(rng.integers(3, 15))
            pred = crafted(rng.multinomial(m, p, size=int(rng.integers(50, 600))), m=m)
            alpha = (0.05, 0.1, 0.2, 0.5)[seed]
            want = reference_bayes_intervals(pred, alpha)
            for fn in (
                bayes_bonferroni_interval,
                bayes_mean_centered_interval,
                bayes_rank_scs_interval,
            ):
                got = fn(pred, alpha)
                ref = want[got.method]
                assert got.alpha == ref.alpha
                for name in self.FIELDS:
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        pred = crafted(np.random.default_rng(3).multinomial(20, [0.2, 0.3, 0.5], size=200), m=20)
        for fn in (
            bayes_bonferroni_interval,
            bayes_mean_centered_interval,
            bayes_rank_scs_interval,
        ):
            with pytest.raises(ValidationError):
                fn(pred, alpha)


@pytest.mark.slow
def test_beta_prior_no_wider_than_cauchy_on_mild_data():
    """With mild data the ICC prior shrinks eta0 less aggressively than the
    heavy-tailed one, so its predictive bands should not be systematically
    wider; require that in at least half the categories."""
    root = mp.RngStream(555)
    gen = root.child(0).generator()
    counts = gen.multinomial(8, [0.3, 0.3, 0.2, 0.2], size=6)
    data = mp.HistoricalDataset(counts)
    kw = dict(chains=2, sampling_iters=1500, warmup=800)
    dc = mcmc_sample(data, PriorChoice.half_cauchy(), root.child(2), **kw)
    db = mcmc_sample(data, PriorChoice.beta_icc(), root.child(4), **kw)
    pc = posterior_predictive(dc, 8, root.child(3))
    pb = posterior_predictive(db, 8, root.child(5))
    for fn in (bayes_mean_centered_interval, bayes_bonferroni_interval):
        w_cauchy = fn(pc, 0.05).upper - fn(pc, 0.05).lower
        w_beta = fn(pb, 0.05).upper - fn(pb, 0.05).lower
        assert np.sum(w_beta <= w_cauchy + 1e-9) >= 2
