import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mnpred as mp
from mnpred.empirical import nearest_rank_in_place, nearest_rank_quantile, rank_summary
from mnpred.errors import DegenerateRankWarning, ValidationError


class TestNearestRank:
    def test_oracles(self):
        values = np.arange(1.0, 101.0)
        assert nearest_rank_quantile(values, 0.95) == 95.0
        assert nearest_rank_quantile(values, 0.951) == 96.0
        assert nearest_rank_quantile(values, 0.0001) == 1.0
        assert nearest_rank_quantile(values, 1.0) == 100.0

    def test_unsorted_input(self):
        assert nearest_rank_quantile(np.array([3.0, 1.0, 2.0]), 0.5) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            nearest_rank_quantile(np.array([]), 0.5)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_level_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValidationError):
            nearest_rank_quantile(np.array([1.0, 2.0]), p)

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=60),
        st.floats(0.01, 1.0),
    )
    def test_result_is_an_order_statistic(self, values, p):
        values = np.asarray(values)
        q = nearest_rank_quantile(values, p)
        srt = np.sort(values)
        k = min(max(int(np.ceil(p * len(values))), 1), len(values))
        assert q == srt[k - 1]

    @pytest.mark.parametrize("kind", ["random", "ties", "nan"])
    def test_matches_full_sort(self, kind):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 100, 1001):
            if kind == "ties":
                values = rng.integers(0, 4, size=n).astype(float)
            else:
                values = rng.normal(size=n)
            if kind == "nan":
                values[rng.choice(n, size=max(1, n // 10), replace=False)] = np.nan
            srt = np.sort(values)
            for p in (0.001, 0.05, 0.5, 0.9, 0.95, 0.999, 1.0):
                k = min(max(int(np.ceil(p * n)), 1), n)
                np.testing.assert_equal(nearest_rank_quantile(values, p), srt[k - 1])
                np.testing.assert_equal(nearest_rank_in_place(values.copy(), p), srt[k - 1])

    @pytest.mark.parametrize("kind", ["random", "ties", "integer", "nan"])
    def test_columns_match_one_dimensional_calls(self, kind):
        rng = np.random.default_rng(6)
        for B, C in ((1, 1), (2, 3), (37, 1), (500, 5), (2001, 10)):
            if kind == "integer":
                values = rng.integers(0, 6, size=(B, C))
            elif kind == "ties":
                values = rng.integers(-3, 4, size=(B, C)) * 0.5
            else:
                values = rng.normal(size=(B, C))
            if kind == "nan":
                values[rng.random((B, C)) < 0.1] = np.nan
            for p in (0.001, 0.05, 0.5, 0.975, 1.0):
                got = nearest_rank_quantile(values, p)
                want = np.array([nearest_rank_quantile(values[:, c], p) for c in range(C)])
                assert got.tobytes() == want.tobytes()


class TestRankSummary:
    @pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
    @pytest.mark.parametrize("kind", ["float", "float-ties", "integer"])
    def test_bounds_are_sorted_rows(self, kind):
        rng = np.random.default_rng(8)
        for B, C in ((2, 1), (40, 3), (1000, 5), (3000, 10)):
            if kind == "integer":
                values = rng.multinomial(12, np.full(C, 1.0 / C), size=B)
            elif kind == "float-ties":
                values = rng.integers(-4, 5, size=(B, C)) / 3.0
            else:
                values = rng.normal(size=(B, C))
            for alpha in (0.01, 0.05, 0.3):
                summary = rank_summary(values, alpha)
                srt = np.sort(values, axis=0)
                tau = summary.tau_star
                assert summary.lower.tobytes() == srt[B - tau].tobytes()
                assert summary.upper.tobytes() == srt[tau - 1].tobytes()

    def test_toy_oracle_tau_star(self):
        # single category, B=100: tau* lands on the 98th extremeness score
        z = np.arange(100.0).reshape(-1, 1)
        summary = rank_summary(z, alpha=0.05)
        assert summary.tau_star == 98
        np.testing.assert_array_equal(np.sort(summary.ranks[:, 0]), np.arange(1, 101))

    @pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
    def test_scores_formula(self):
        z = np.array([[0.0], [5.0], [-3.0], [2.0]])
        summary = rank_summary(z, alpha=0.05)
        # ranks: -3 -> 1, 0 -> 2, 2 -> 3, 5 -> 4; w = max(r, B+1-r)
        np.testing.assert_array_equal(summary.ranks[:, 0], [2, 4, 1, 3])
        np.testing.assert_array_equal(summary.scores, [3, 4, 4, 3])

    def test_stable_tie_ranks_follow_row_order(self):
        z = np.zeros((5, 1))
        summary = rank_summary(z, alpha=0.5)
        np.testing.assert_array_equal(summary.ranks[:, 0], [1, 2, 3, 4, 5])

    @pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
    def test_row_permutation_permutes_scores(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(40, 3))
        perm = rng.permutation(40)
        a = rank_summary(z, 0.1)
        b = rank_summary(z[perm], 0.1)
        assert a.tau_star == b.tau_star
        np.testing.assert_array_equal(a.scores[perm], b.scores)

    def test_degenerate_warns_at_ensemble_edge(self):
        z = np.arange(5.0).reshape(-1, 1)
        with pytest.warns(DegenerateRankWarning):
            rank_summary(z, alpha=0.001)

    @pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
    @given(
        st.integers(4, 60),
        st.integers(1, 4),
        st.floats(0.02, 0.5),
        st.integers(0, 2**31 - 1),
    )
    def test_score_range_property(self, B, C, alpha, seed):
        z = np.random.default_rng(seed).normal(size=(B, C))
        summary = rank_summary(z, alpha)
        lo = int(np.ceil((B + 1) / 2))
        assert np.all(summary.scores >= lo)
        assert np.all(summary.scores <= B)
        assert lo <= summary.tau_star <= B

    # alpha=0.01 with B this small pushes tau* to the ensemble edge on purpose
    @pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
    @given(st.integers(10, 80), st.integers(0, 2**31 - 1))
    def test_tau_star_monotone_in_alpha(self, B, seed):
        z = np.random.default_rng(seed).normal(size=(B, 2))
        taus = [rank_summary(z, a).tau_star for a in (0.01, 0.05, 0.2, 0.5)]
        assert all(t1 >= t2 for t1, t2 in zip(taus, taus[1:]))


_ORDER_CALLS = {"sort", "argsort", "partition", "argpartition"}


def test_only_empirical_sorts_or_partitions():
    """Every method reads its order statistics through the empirical kernels."""
    calls = []
    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in _ORDER_CALLS:
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls and all(c.startswith("empirical.py:") for c in calls), calls
