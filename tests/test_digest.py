"""Pinned sha256 digests of four small end-to-end outputs.

Criterion 11 only compares two runs of the same tree, so a change of draw
layout would otherwise pass unnoticed.  A change that alters draws on
purpose updates the digest it moves and says so in CHANGES.md; every other
change leaves these digests alone.  The bytes also depend on numpy's
generator streams, so a numpy release that changes one of them moves a
digest too.
"""

import hashlib

import pytest

from mnpred.cli import main

# The severity fixture of criterion 10 (K=10 clusters of 46, phi 3.19).
GENERATE = [
    "generate", "--K", "10", "--n", "46", "--phi", "3.19",
    "--pi", "0.224,0.466,0.273,0.031,0.004",
    "--categories", "Minimal,Mild,Moderate,Marked,Massive", "--seed", "0",
]
FREQUENTIST = "pointwise,bonferroni,mvn,symmetric,asymmetric,marginal,masr,rank-scs"
SMALL = ["--B", "500", "--mvn-draws", "5000", "--chains", "2", "--sampling", "500", "--seed", "0"]
# A K=80, C=10 table: its 800 cells give ensemble blocks of 81 replicates, so
# B=1000 draws twelve blocks of 81 and one of 28, and pins the block rule.
# Every other digest here fits in one block.
WIDE = [
    "generate", "--K", "80", "--n", "30", "--phi", "3",
    "--pi", ",".join(["0.1"] * 10), "--seed", "1",
]
BOOTSTRAP = "symmetric,asymmetric,marginal,masr,rank-scs"

DIGESTS = {
    "predict-frequentist": "sha256:d388351ac828a77095daf97a3f92d8e1e7759d2ad6dd5abbfb90820224969d3d",
    "predict-all": "sha256:430fb8366616e3f03b04712f29a28ae12a6ce3d4d888a6c6d7f048c88734be90",
    "simulate-cell": "sha256:1a17b5e15a5780b4f1ae4f9e50e8b02cab6f67a068b572952de09a3ab5e975ae",
    "predict-blocks": "sha256:3b0f745891452b5106c1aa98e1b893a00591b82ee2f3413f35097df3355db143",
}


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def severity_counts(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("digest") / "counts.csv")
    assert main([*GENERATE, "--out", path]) == 0
    return path


@pytest.mark.parametrize(
    "name, methods", [("predict-frequentist", FREQUENTIST), ("predict-all", "all")]
)
def test_predict_digest(severity_counts, tmp_path, name, methods):
    out = tmp_path / "intervals.csv"
    argv = ["predict", "--data", severity_counts, "--m", "46", "--methods", methods, *SMALL]
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256_of(out) == DIGESTS[name]


def test_simulate_digest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenarios = C5-05-K10-n50-phi5\nn_iter = 5\nB = 300\nmvn_draws = 5000\n"
        f"methods = {FREQUENTIST}\nseed = 3\n",
        encoding="utf-8",
    )
    out = tmp_path / "simulation.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert sha256_of(out) == DIGESTS["simulate-cell"]


def test_ensemble_blocks_digest(tmp_path):
    counts = tmp_path / "wide.csv"
    assert main([*WIDE, "--out", str(counts)]) == 0
    out = tmp_path / "intervals.csv"
    argv = ["predict", "--data", str(counts), "--m", "46", "--methods", BOOTSTRAP]
    assert main([*argv, "--B", "1000", "--seed", "0", "--out", str(out)]) == 0
    assert sha256_of(out) == DIGESTS["predict-blocks"]
