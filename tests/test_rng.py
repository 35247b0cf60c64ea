import ast
from pathlib import Path

import numpy as np
import pytest

import mnpred as mp
from mnpred.bayes import PosteriorDraws
from mnpred.errors import ValidationError

SRC = Path(__file__).resolve().parent.parent / "src" / "mnpred"


def _draws():
    return PosteriorDraws(
        pi_global=np.full((4, 3), 1.0 / 3.0),
        eta0=np.full(4, 5.0),
        rhat=np.ones(4),
        ess=np.full(2, 2.0),
        khat=np.full(2, 0.3),
    )


# Every public function that draws, called with valid arguments and a given rng.
ENTRY_POINTS = {
    "sample_dm_counts": lambda data, fit, rng: mp.sample_dm_counts(10, (0.5, 0.5), 2.0, rng),
    "generate_dataset": lambda data, fit, rng: mp.generate_dataset(3, 10, (0.5, 0.5), 2.0, rng),
    "build_ensemble": lambda data, fit, rng: mp.build_ensemble(
        fit, data, mp.FutureSpec(m=10), 10, rng
    ),
    "mvn_interval": lambda data, fit, rng: mp.mvn_interval(fit, mp.FutureSpec(m=10), rng),
    "mcmc_sample": lambda data, fit, rng: mp.mcmc_sample(data, mp.PriorChoice.half_cauchy(), rng),
    "posterior_predictive": lambda data, fit, rng: mp.posterior_predictive(_draws(), 10, rng),
    "compute_intervals": lambda data, fit, rng: mp.compute_intervals(
        data, fit, mp.FutureSpec(m=10), mp.resolve_methods(("pointwise",)), rng
    ),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_public_draws_need_an_rng_stream(name, toy_data, toy_fit):
    # A shared Generator would interleave its callers' draws (across chains,
    # say), and a bare seed bypasses the stream layout.
    call = ENTRY_POINTS[name]
    for rng in (7, np.random.default_rng(7), mp.RngStream(7).generator()):
        with pytest.raises(ValidationError, match="RngStream"):
            call(toy_data, toy_fit, rng)


_GENERATOR_FACTORIES = {"default_rng", "SeedSequence", "PCG64", "Generator"}


def _factory_calls(tree: ast.Module):
    """(enclosing qualified name, factory) for every generator-factory call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in _GENERATOR_FACTORIES:
                    found.append((".".join(scope), name))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_rng_stream_builds_generators():
    calls = {
        (path.name, scope, name)
        for path in sorted(SRC.glob("*.py"))
        for scope, name in _factory_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert calls == {
        ("rng.py", "RngStream.generator", "SeedSequence"),
        ("rng.py", "RngStream.generator", "PCG64"),
        ("rng.py", "RngStream.generator", "Generator"),
    }
