"""Monte-Carlo harness measuring simultaneous coverage and tail balance.

Each iteration draws a fresh historical dataset and one future cluster
from the Dirichlet-multinomial truth, fits the model, computes all
requested interval methods on the same data, and records whether the
future vector lies inside each method's box together with per-category
bound violations.  Aggregates are counts, so results do not depend on
the order in which iterations are processed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import MIN_MVN_DRAWS
from .bayes import MIN_CHAINS
from .bootstrap import MIN_REPLICATES
from .dm import _checked_probs, derive_eta0, generate_dataset, sample_dm_counts
from .errors import FailureCapError, MnpredError, ValidationError
from .methods import FREQUENTIST_METHODS, compute_intervals, resolve_methods
from .model import FutureSpec, fit_model
from .pool import run_each
from .rng import RngStream

__all__ = [
    "Scenario",
    "MethodOutcome",
    "SimulationReport",
    "TailBalanceRow",
    "run_simulation",
    "tail_balance",
]

_FAILURE_CAP = 0.05


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation design, with everything needed to run it."""

    pi_true: np.ndarray
    K: int
    n: int
    phi: float
    m: int | None = None
    n_iter: int = 500
    methods: tuple[str, ...] = FREQUENTIST_METHODS
    B: int = 2000
    S: int = 4000
    alpha: float = 0.05
    seed: int = 0
    scenario_id: str = "custom"
    repair: bool = True
    chains: int = 4
    warmup: int = 500
    mvn_draws: int = 100_000
    priors: tuple[str, ...] = ("cauchy",)

    def __post_init__(self) -> None:
        pi = _checked_probs(self.pi_true)
        if pi.min() <= 0.0:
            raise ValidationError("pi_true entries must be strictly positive")
        pi.setflags(write=False)
        object.__setattr__(self, "pi_true", pi)
        if self.m is None:
            object.__setattr__(self, "m", self.n)
        minimums = dict(
            K=2, n=2, n_iter=1, B=MIN_REPLICATES, S=1, chains=1, warmup=1,
            mvn_draws=MIN_MVN_DRAWS, seed=0,
        )
        for name, least in minimums.items():
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be at least {least}")
        FutureSpec(self.m, self.alpha)
        # The generating dispersion must be reachable at both cluster sizes.
        derive_eta0(self.n, self.phi)
        if self.m > 1:
            derive_eta0(self.m, self.phi)
        if self.chains < MIN_CHAINS and any(
            r.prior for r in resolve_methods(self.methods, self.priors)
        ):
            raise ValidationError(f"Bayesian methods need chains >= {MIN_CHAINS}")

    @property
    def sampling_iters(self) -> int:
        """Posterior draws per batch: S split across the batches, at least 4."""
        return max(self.S // self.chains, 4)

    @property
    def n_categories(self) -> int:
        return self.pi_true.shape[0]

    @property
    def min_expected_count(self) -> float:
        return float(self.pi_true.min() * self.n)


@dataclass
class MethodOutcome:
    """Aggregated containment counts for one method."""

    method: str
    n_eval: int = 0
    contained: int = 0
    below_lower: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    above_upper: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def coverage(self) -> float:
        return self.contained / self.n_eval if self.n_eval else float("nan")

    @property
    def mc_error(self) -> float:
        """Half-width of the normal-approximation binomial error band."""
        if not self.n_eval:
            return float("nan")
        p = self.coverage
        return 1.96 * float(np.sqrt(p * (1.0 - p) / self.n_eval))

    @property
    def p_below(self) -> np.ndarray:
        """Per-category P(y < L)."""
        return self.below_lower / self.n_eval if self.n_eval else self.below_lower * np.nan

    @property
    def p_above(self) -> np.ndarray:
        """Per-category P(y > U)."""
        return self.above_upper / self.n_eval if self.n_eval else self.above_upper * np.nan


@dataclass
class SimulationReport:
    """All aggregates for one scenario."""

    scenario: Scenario
    outcomes: dict[str, MethodOutcome]
    n_completed: int
    n_failed: int
    runtime_seconds: float
    # Failed iterations by exception class name; the counts sum to n_failed.
    failures: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class TailBalanceRow:
    """Per-category bound-retention probabilities against the Bonferroni target."""

    method: str
    category: int
    p_at_or_above_lower: float
    p_at_or_below_upper: float
    reference: float
    mc_error_lower: float
    mc_error_upper: float


def run_simulation(scenario: Scenario) -> SimulationReport:
    """Run every iteration of one scenario and aggregate containment counts.

    Iteration i draws all of its randomness from substreams of
    (seed, i), so any subset of iterations can be reproduced in
    isolation and results are independent of scheduling.  The iterations
    run on the package's thread pool, and their results are merged in
    iteration order.  Iterations that fail (for example a zero category
    with repair disabled) are skipped and counted by exception class, up
    to a cap of 5% of n_iter.
    """
    t0 = time.perf_counter()
    requests = resolve_methods(scenario.methods, scenario.priors)
    C = scenario.n_categories
    outcomes = {
        r.output_id: MethodOutcome(
            method=r.output_id,
            below_lower=np.zeros(C, dtype=np.int64),
            above_upper=np.zeros(C, dtype=np.int64),
        )
        for r in requests
    }
    root = RngStream(scenario.seed)
    spec = FutureSpec(m=scenario.m, alpha=scenario.alpha)
    # Slot i holds iteration i's per-method (y < lower, y > upper) masks, or
    # the class name of the MnpredError it raised (not the error, whose
    # traceback would keep the iteration's arrays alive).
    results: list = [None] * scenario.n_iter
    failed: list[int] = []
    cap = _FAILURE_CAP * scenario.n_iter

    def iterate(i: int) -> None:
        if len(failed) > cap:
            return  # the merge below raises FailureCapError whatever this slot holds
        it = root.child(i)
        try:
            data = generate_dataset(
                scenario.K,
                scenario.n,
                scenario.pi_true,
                scenario.phi,
                it.child(0),
                repair=scenario.repair,
            )
            y = sample_dm_counts(
                scenario.m, scenario.pi_true, scenario.phi, it.child(1)
            )
            fit = fit_model(data)
            sets = compute_intervals(
                data,
                fit,
                spec,
                requests,
                it.child(2),
                B=scenario.B,
                mvn_draws=scenario.mvn_draws,
                chains=scenario.chains,
                sampling_iters=scenario.sampling_iters,
                warmup=scenario.warmup,
            )
        except MnpredError as exc:
            results[i] = type(exc).__name__
            failed.append(i)
            return
        results[i] = {
            method_id: (y < intervals.lower, y > intervals.upper)
            for method_id, intervals in sets.items()
        }

    run_each(iterate, scenario.n_iter)
    failures: dict[str, int] = {}
    n_failed = 0
    n_completed = 0
    # Merged in iteration order, so the failure cap trips at the same
    # iteration, with the same message, whatever the number of threads.
    # Slots stay empty only once more than the cap have failed.
    for result in results:
        if result is None:
            continue
        if isinstance(result, str):
            failures[result] = failures.get(result, 0) + 1
            n_failed += 1
            if n_failed > cap:
                raise FailureCapError(
                    f"{n_failed} of {scenario.n_iter} iterations failed "
                    f"(cap {_FAILURE_CAP:.0%}) in scenario {scenario.scenario_id}"
                )
            continue
        n_completed += 1
        for method_id, (below, above) in result.items():
            out = outcomes[method_id]
            out.n_eval += 1
            out.contained += int(not (below.any() or above.any()))
            out.below_lower += below
            out.above_upper += above
    return SimulationReport(
        scenario=scenario,
        outcomes=outcomes,
        n_completed=n_completed,
        n_failed=n_failed,
        runtime_seconds=time.perf_counter() - t0,
        failures=failures,
    )


def tail_balance(report: SimulationReport) -> list[TailBalanceRow]:
    """Per-bound retention probabilities P(y >= L) and P(y <= U) per category.

    The reference line is the Bonferroni-adjusted per-bound target
    1 - alpha/(2C); a bound is conservative above it, liberal below.
    """
    scenario = report.scenario
    C = scenario.n_categories
    ref = 1.0 - scenario.alpha / (2.0 * C)
    rows: list[TailBalanceRow] = []
    for method_id, out in report.outcomes.items():
        n = max(out.n_eval, 1)
        for c in range(C):
            p_lo = 1.0 - out.p_below[c]
            p_hi = 1.0 - out.p_above[c]
            rows.append(
                TailBalanceRow(
                    method=method_id,
                    category=c + 1,  # 1-based, matching the emitted tables
                    p_at_or_above_lower=float(p_lo),
                    p_at_or_below_upper=float(p_hi),
                    reference=ref,
                    mc_error_lower=1.96 * float(np.sqrt(p_lo * (1.0 - p_lo) / n)),
                    mc_error_upper=1.96 * float(np.sqrt(p_hi * (1.0 - p_hi) / n)),
                )
            )
    return rows
