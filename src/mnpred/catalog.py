"""Built-in scenario grid for the coverage study.

The 32 probability vectors are stored exactly as tabulated (a few rows
sum to 0.99 or 1.05 because of rounding in the source tables); they are
renormalized when a Scenario is constructed.  Vectors are crossed with
the cluster-count, size and dispersion grids to give 32 x 4 x 4 x 3 =
1536 cells.  build_scenarios turns a simulate config into the cells to
run: one custom cell or a prefix-filtered slice of the catalog, with the
config's run settings.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ValidationError
from .io import RunConfig
from .simulation import Scenario

__all__ = [
    "C3_VECTORS",
    "C5_VECTORS",
    "C10_VECTORS",
    "CLUSTER_GRID",
    "SIZE_GRID",
    "DISPERSION_GRID",
    "build_scenarios",
    "catalog_vectors",
    "scenario_catalog",
]

C3_VECTORS: tuple[tuple[float, ...], ...] = (
    (0.33, 0.33, 0.33),
    (0.01, 0.01, 0.98),
    (0.25, 0.01, 0.74),
    (0.49, 0.02, 0.49),
    (0.25, 0.25, 0.50),
    (0.10, 0.30, 0.60),
    (0.02, 0.03, 0.95),
    (0.05, 0.05, 0.90),
    (0.05, 0.10, 0.85),
    (0.05, 0.15, 0.80),
    (0.10, 0.20, 0.70),
    (0.05, 0.35, 0.65),
)

C5_VECTORS: tuple[tuple[float, ...], ...] = (
    (0.20, 0.20, 0.20, 0.20, 0.20),
    (0.30, 0.30, 0.20, 0.10, 0.10),
    (0.44, 0.22, 0.11, 0.11, 0.11),
    (0.50, 0.30, 0.10, 0.05, 0.05),
    (0.45, 0.27, 0.18, 0.08, 0.01),
    (0.70, 0.10, 0.10, 0.05, 0.05),
    (0.80, 0.10, 0.05, 0.04, 0.01),
    (0.10, 0.10, 0.20, 0.30, 0.30),
    (0.11, 0.11, 0.11, 0.22, 0.44),
    (0.05, 0.05, 0.10, 0.30, 0.50),
)

C10_VECTORS: tuple[tuple[float, ...], ...] = (
    (0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10),
    (0.05, 0.05, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.20),
    (0.05, 0.05, 0.05, 0.05, 0.10, 0.10, 0.10, 0.10, 0.10, 0.30),
    (0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.10, 0.10, 0.10, 0.40),
    (0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.10, 0.50),
    (0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.05, 0.05, 0.10, 0.60),
    (0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.05, 0.05, 0.35, 0.35),
    (0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.10, 0.20, 0.20, 0.20),
    (0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.20, 0.20, 0.20, 0.20),
    (0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.10, 0.20, 0.20, 0.30),
)

CLUSTER_GRID: tuple[int, ...] = (5, 10, 20, 100)
SIZE_GRID: tuple[int, ...] = (10, 50, 100, 500)
DISPERSION_GRID: tuple[float, ...] = (1.01, 5.0, 8.0)


def catalog_vectors() -> dict[str, np.ndarray]:
    """All 32 probability vectors, renormalized, keyed by id like 'C5-07'."""
    out: dict[str, np.ndarray] = {}
    for c, table in ((3, C3_VECTORS), (5, C5_VECTORS), (10, C10_VECTORS)):
        for i, row in enumerate(table, start=1):
            v = np.asarray(row, dtype=float)
            v = v / v.sum()
            v.setflags(write=False)
            out[f"C{c}-{i:02d}"] = v
    return out


def scenario_catalog(
    seed: int = 0,
    clusters: tuple[int, ...] = CLUSTER_GRID,
    sizes: tuple[int, ...] = SIZE_GRID,
    dispersions: tuple[float, ...] = DISPERSION_GRID,
    **settings: Any,
) -> list[Scenario]:
    """Cross the vector catalog with the design grids.

    Cells where the generating dispersion would not satisfy phi < n are
    dropped (none with the default grids); sparse-degenerate cells stay
    in but carry Scenario.sparse = True.  Cell i gets seed + i; every
    other keyword (n_iter, B, S, methods, alpha, ...) goes to each
    Scenario unchanged, so the run settings default to Scenario's.
    """
    scenarios: list[Scenario] = []
    for vec_id, pi in catalog_vectors().items():
        for K in clusters:
            for n in sizes:
                for phi in dispersions:
                    if phi >= n:
                        continue
                    scenarios.append(
                        Scenario(
                            pi_true=pi,
                            K=K,
                            n=n,
                            phi=phi,
                            seed=seed + len(scenarios),
                            scenario_id=f"{vec_id}-K{K}-n{n}-phi{phi:g}",
                            **settings,
                        )
                    )
    return scenarios


def build_scenarios(cfg: RunConfig) -> list[Scenario]:
    """The scenarios a `mnpred simulate` config asks for.

    A config with `pi` is one custom cell (K, n and phi required, m
    defaulting to n); without it, the catalog cells whose id starts with
    one of the `scenarios` prefixes (all cells when none are given).
    Every run setting is taken from the config as written (the original
    study's scale is n_iter = 1000, B = 10000, S = 10000).  Settings
    that would be ignored, and filters that match nothing, raise
    ValidationError.
    """
    settings = dict(
        n_iter=cfg.n_iter,
        B=cfg.B,
        S=cfg.S,
        methods=cfg.methods,
        alpha=cfg.alpha,
        seed=cfg.seed,
        repair=cfg.repair,
        chains=cfg.chains,
        warmup=cfg.warmup,
        mvn_draws=cfg.mvn_draws,
        priors=cfg.priors,
    )
    if cfg.pi is None:
        stray = [name for name in ("K", "n", "m", "phi") if getattr(cfg, name) is not None]
        if stray:
            raise ValidationError(f"{', '.join(stray)} set without pi (a custom cell)")
        prefixes = cfg.scenarios or ("",)
        scenarios = [s for s in scenario_catalog(**settings) if s.scenario_id.startswith(prefixes)]
        if not scenarios:
            raise ValidationError(f"no scenarios match filters {cfg.scenarios}")
        return scenarios
    if cfg.scenarios:
        raise ValidationError("scenarios selects catalog cells and cannot be combined with pi")
    for name in ("K", "n", "phi"):
        if getattr(cfg, name) is None:
            raise ValidationError(f"custom scenario config needs {name}")
    return [Scenario(pi_true=cfg.pi, K=cfg.K, n=cfg.n, m=cfg.m, phi=cfg.phi, **settings)]
