#!/usr/bin/env python3
"""End-to-end walk on a synthetic historical severity table.

Draws ten historical studies of 46 animals over five severity grades at
dispersion 3.19, fits the pooled model, then prints every interval
method side by side for one future study of the same size.  A fresh
concurrent control is drawn last so the containment verdicts show what
a user of the library would actually see.
"""

import argparse
import sys

import numpy as np

from mnpred import (
    FutureSpec,
    RngStream,
    fit_model,
    generate_dataset,
    prediction_point,
)
from mnpred.dm import sample_dm_counts
from mnpred.methods import compute_intervals, resolve_methods
from mnpred.model import PREDICT_DEFAULTS

SEVERITY_PI = (0.224, 0.466, 0.273, 0.031, 0.004)
SEVERITY_PHI = 3.19
LABELS = ("Minimal", "Mild", "Moderate", "Marked", "Massive")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--methods", default="all")
    ap.add_argument("--B", type=int, default=PREDICT_DEFAULTS.B)
    ap.add_argument("--chains", type=int, default=PREDICT_DEFAULTS.chains)
    ap.add_argument("--sampling", type=int, default=PREDICT_DEFAULTS.sampling_iters)
    args = ap.parse_args(argv)

    root = RngStream(args.seed)
    data = generate_dataset(
        10, 46, SEVERITY_PI, SEVERITY_PHI, root.child(0),
        repair=True, categories=LABELS,
    )
    fit = fit_model(data)
    spec = FutureSpec(m=46)
    point = prediction_point(fit, spec)

    print("column totals:", dict(zip(LABELS, data.counts.sum(axis=0))))
    print(f"dispersion: raw {fit.phi_raw:.3f}, clamped {fit.phi_hat:.3f} "
          f"(chi-square {fit.chi_square:.2f} on {fit.df} df)")
    print("predicted counts:", np.round(point.y_hat, 2))
    print()

    requests = resolve_methods(
        tuple(t.strip() for t in args.methods.split(",") if t.strip()), ("cauchy",)
    )
    sets = compute_intervals(
        data, fit, spec, requests, root.child(2),
        B=args.B, chains=args.chains, sampling_iters=args.sampling,
    )

    width = max(len(m) for m in sets) + 2
    print("method".ljust(width) + "  ".join(f"{lab:>14}" for lab in LABELS))
    for method, ivs in sets.items():
        cells = "  ".join(
            f"[{lo:5.1f},{hi:5.1f}]" for lo, hi in zip(ivs.lower, ivs.upper)
        )
        print(method.ljust(width) + cells)

    y = sample_dm_counts(46, np.asarray(SEVERITY_PI) / sum(SEVERITY_PI),
                         SEVERITY_PHI, root.child(1))
    print()
    print("concurrent control:", y)
    for method, ivs in sets.items():
        ok = bool(np.all((ivs.lower <= y) & (y <= ivs.upper)))
        print(f"  contained by {method}: {'yes' if ok else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
