import ast
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mnpred as mp
from mnpred.asymptotic import equicoordinate_quantile, mvn_interval
from mnpred.bayes import mcmc_sample
from mnpred.catalog import build_scenarios
from mnpred.cli import _build_parser, main
from mnpred.errors import ParseError, ValidationError
from mnpred.io import (
    INTERVAL_COLUMNS,
    SIMULATION_COLUMNS,
    RunConfig,
    comma_list,
    counts_to_csv,
    interval_rows,
    parse_config,
    parse_counts_csv,
    parse_future_csv,
    read_rows_csv,
    read_rows_json,
    rows_to_csv,
    rows_to_json,
    simulation_rows,
    write_text,
)
from mnpred.methods import FREQUENTIST_METHODS, compute_intervals, resolve_methods
from mnpred.model import PREDICT_DEFAULTS
from mnpred.simulation import Scenario, run_simulation


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = "study,Minimal,Mild,Moderate\ns1,5,3,2\ns2,1,4,5\n"


class TestCountParsing:
    def test_happy_path(self, tmp_path):
        data = parse_counts_csv(put(tmp_path, "c.csv", GOOD))
        np.testing.assert_array_equal(data.counts, [[5, 3, 2], [1, 4, 5]])
        assert data.categories == ("Minimal", "Mild", "Moderate")

    def test_header_keyword_case_insensitive(self, tmp_path):
        text = GOOD.replace("study", "Study")
        data = parse_counts_csv(put(tmp_path, "c.csv", text))
        assert data.n_clusters == 2

    def test_blank_lines_skipped(self, tmp_path):
        text = "study,A,B\n\ns1,5,3\n\ns2,1,4\n"
        assert parse_counts_csv(put(tmp_path, "c.csv", text)).n_clusters == 2

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="study"):
            parse_counts_csv(put(tmp_path, "c.csv", "cluster,A,B\ns1,1,2\ns2,3,4\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError, match="row 3"):
            parse_counts_csv(put(tmp_path, "c.csv", "study,A,B\ns1,1,2\ns2,3\n"))

    def test_non_integer_cell(self, tmp_path):
        with pytest.raises(ParseError, match="row 2.*'B'"):
            parse_counts_csv(put(tmp_path, "c.csv", "study,A,B\ns1,1,2.5\ns2,3,4\n"))

    def test_negative_count_names_cell(self, tmp_path):
        with pytest.raises(ValidationError, match="row 3.*'A'"):
            parse_counts_csv(put(tmp_path, "c.csv", "study,A,B\ns1,1,2\ns2,-3,4\n"))

    def test_single_study_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="at least 2 historical"):
            parse_counts_csv(put(tmp_path, "c.csv", "study,A,B\ns1,1,2\n"))

    def test_single_category_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="at least 2 category"):
            parse_counts_csv(put(tmp_path, "c.csv", "study,A\ns1,1\ns2,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            parse_counts_csv(put(tmp_path, "c.csv", ""))

    def test_future_row(self, tmp_path):
        y, labels = parse_future_csv(put(tmp_path, "f.csv", "study,A,B\nfuture,7,3\n"))
        np.testing.assert_array_equal(y, [7, 3])
        assert labels == ("A", "B")

    def test_future_needs_exactly_one_row(self, tmp_path):
        with pytest.raises(ParseError, match="one observed row"):
            parse_future_csv(put(tmp_path, "f.csv", GOOD))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheet CSV exports start with a UTF-8 byte-order mark.
        plain = parse_counts_csv(put(tmp_path, "plain.csv", GOOD))
        marked = parse_counts_csv(put(tmp_path, "bom.csv", "\ufeff" + GOOD))
        np.testing.assert_array_equal(marked.counts, plain.counts)
        assert marked.categories == plain.categories == ("Minimal", "Mild", "Moderate")


class TestCountsRoundTrip:
    def test_matrix_round_trip(self, tmp_path):
        counts = np.array([[5, 3, 2], [1, 4, 5], [2, 2, 6]])
        text = counts_to_csv(counts, ("A", "B", "C"))
        data = parse_counts_csv(put(tmp_path, "c.csv", text))
        np.testing.assert_array_equal(data.counts, counts)
        assert text.splitlines()[1].startswith("study_1,")

    def test_future_round_trip(self, tmp_path):
        text = counts_to_csv(np.array([4, 6]), ("A", "B"), study_labels=["future"])
        y, labels = parse_future_csv(put(tmp_path, "f.csv", text))
        np.testing.assert_array_equal(y, [4, 6])
        assert text.splitlines()[1] == "future,4,6"


class TestConfig:
    def test_full_config(self, tmp_path):
        text = """
# simulation settings
alpha = 0.10
methods = pointwise, masr
B = 500
S = 2000
chains = 2
warmup = 250
seed = 9
priors = cauchy, beta
n_iter = 50
scenarios = C3-01, C5
repair = true
mvn_draws = 20000
pi = 0.3, 0.3, 0.4
K = 5
n = 20
m = 30
phi = 2.5
"""
        cfg = parse_config(put(tmp_path, "run.cfg", text))
        assert cfg.alpha == 0.10
        assert cfg.methods == ("pointwise", "masr")
        assert cfg.B == 500 and cfg.S == 2000 and cfg.chains == 2
        assert cfg.priors == ("cauchy", "beta")
        assert cfg.repair is True
        assert cfg.scenarios == ("C3-01", "C5")
        assert cfg.pi == (0.3, 0.3, 0.4)
        assert cfg.K == 5 and cfg.n == 20 and cfg.m == 30 and cfg.phi == 2.5

    def test_every_field_has_a_reader(self, tmp_path):
        """A RunConfig field whose annotation has no reader fails here, not in a user's run."""
        samples = {
            "int": ("3", 3),
            "float": ("0.5", 0.5),
            "bool": ("false", False),
            "tuple[str, ...]": ("a, b", ("a", "b")),
            "tuple[float, ...]": ("0.25, 0.75", (0.25, 0.75)),
        }
        kinds = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}
        text = "".join(f"{name} = {samples[kind][0]}\n" for name, kind in kinds.items())
        cfg = parse_config(put(tmp_path, "run.cfg", text))
        for name, kind in kinds.items():
            assert getattr(cfg, name) == samples[kind][1], name

    def test_defaults(self, tmp_path):
        cfg = parse_config(put(tmp_path, "run.cfg", "# nothing set\n"))
        assert cfg == RunConfig()

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            parse_config(put(tmp_path, "run.cfg", "alpha = 0.05\nbogus = 1\n"))

    def test_bad_value_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 1.*'B'"):
            parse_config(put(tmp_path, "run.cfg", "B = many\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ParseError, match="key = value"):
            parse_config(put(tmp_path, "run.cfg", "alpha 0.05\n"))

    def test_bool_must_be_true_or_false(self, tmp_path):
        with pytest.raises(ParseError, match="bad value"):
            parse_config(put(tmp_path, "run.cfg", "repair = yes\n"))

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        text = "B = 200\nn_iter = 3\nB = 300\n"
        with pytest.raises(ParseError, match=r"line 3: duplicate key 'B' \(first set on line 1\)"):
            parse_config(put(tmp_path, "run.cfg", text))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        cfg = parse_config(put(tmp_path, "run.cfg", "\ufeffscenarios = C3-01\n"))
        assert cfg.scenarios == ("C3-01",)

    def test_trailing_comma_reads_like_the_cli(self, tmp_path):
        cfg = parse_config(put(tmp_path, "run.cfg", "pi = 0.3,0.7,\nmethods = masr,\n"))
        assert cfg.pi == (0.3, 0.7) and cfg.methods == ("masr",)
        assert comma_list("0.3,0.7,") == ("0.3", "0.7")

    def test_validation_delegated_to_runconfig(self, tmp_path):
        with pytest.raises(ValidationError, match="alpha"):
            build_scenarios(parse_config(put(tmp_path, "run.cfg", "alpha = 2.0\n")))
        with pytest.raises(ValidationError, match="B"):
            build_scenarios(parse_config(put(tmp_path, "run.cfg", "B = 0\n")))

    @pytest.mark.parametrize("pi", ["0.3, 0.3, 4.0", "30, 30, 40", "0.3, 0.3, 0.2"])
    def test_custom_pi_must_sum_to_about_one(self, tmp_path, pi):
        cfg = parse_config(put(tmp_path, "run.cfg", f"pi = {pi}\nK = 5\nn = 20\nphi = 2.0\n"))
        with pytest.raises(ValidationError, match="probabilities sum to .*, expected 1"):
            build_scenarios(cfg)

    def test_custom_pi_near_one_is_renormalised(self, tmp_path):
        text = "pi = 0.33, 0.33, 0.33\nK = 5\nn = 20\nphi = 2.0\n"
        (scenario,) = build_scenarios(parse_config(put(tmp_path, "run.cfg", text)))
        np.testing.assert_allclose(scenario.pi_true, [1 / 3] * 3)

    def test_small_s_floors_sampling_iters(self):
        s = Scenario(pi_true=(0.5, 0.5), K=5, n=20, phi=2.0, S=7)
        assert s.sampling_iters == 4


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    data = mp.HistoricalDataset([[5, 3, 2], [1, 4, 5], [3, 3, 4]])
    fit = mp.fit_model(data)
    spec = mp.FutureSpec(m=12)
    sets = {
        "pointwise": mp.pointwise_interval(fit, spec),
        "bonferroni": mp.bonferroni_interval(fit, spec),
    }
    rows = interval_rows(sets, data.categories)
    root = tmp_path_factory.mktemp("emit")
    csv_path, json_path = str(root / "iv.csv"), str(root / "iv.json")
    write_text(rows_to_csv(rows, INTERVAL_COLUMNS), csv_path)
    write_text(rows_to_json(rows, INTERVAL_COLUMNS), json_path)
    return rows, csv_path, json_path


class TestEmitters:
    def test_csv_cell_formats(self):
        rows = [{"a": 7, "b": 1.23456789, "c": math.nan, "d": None, "e": "x"}]
        text = rows_to_csv(rows, ("a", "b", "c", "d", "e"))
        assert text == "a,b,c,d,e\n7,1.23457,,,x\n"

    def test_json_nan_becomes_null(self):
        text = rows_to_json([{"a": math.nan, "b": 2.0}], ("a", "b"), extra={"note": 1})
        doc = json.loads(text)
        assert doc["rows"][0]["a"] is None
        assert doc["rows"][0]["b"] == 2.0
        assert doc["note"] == 1
        assert doc["columns"] == ["a", "b"]

    def test_six_significant_digits(self):
        text = rows_to_csv([{"x": 123456.789}], ("x",))
        assert "123457" in text
        doc = json.loads(rows_to_json([{"x": 0.123456789}], ("x",)))
        assert doc["rows"][0]["x"] == 0.123457

    def test_interval_rows_schema(self, emitted):
        rows, _, _ = emitted
        assert len(rows) == 2 * 3
        assert tuple(rows[0]) == INTERVAL_COLUMNS

    def test_csv_round_trip_six_digits(self, emitted):
        rows, csv_path, _ = emitted
        back = read_rows_csv(csv_path)
        assert len(back) == len(rows)
        for orig, got in zip(rows, back):
            assert got["method"] == orig["method"]
            assert got["category"] == orig["category"]
            for col in ("L", "U", "y_hat", "sep", "multiplier_L", "multiplier_U"):
                assert got[col] == pytest.approx(float(orig[col]), rel=1e-5)

    def test_json_round_trip_matches_csv(self, emitted):
        _, csv_path, json_path = emitted
        from_csv = read_rows_csv(csv_path)
        from_json = read_rows_json(json_path)
        for a, b in zip(from_csv, from_json):
            for col in INTERVAL_COLUMNS:
                if isinstance(a[col], str):
                    assert a[col] == b[col]
                else:
                    assert a[col] == pytest.approx(b[col], rel=1e-12)

    def test_simulation_rows_schema(self):
        s = Scenario(
            pi_true=(0.3, 0.3, 0.4), K=4, n=15, phi=1.8,
            n_iter=3, methods=("pointwise",), B=100, seed=2, scenario_id="demo",
        )
        rows = simulation_rows([run_simulation(s)])
        assert len(rows) == 3
        assert tuple(rows[0]) == SIMULATION_COLUMNS
        assert [r["category"] for r in rows] == [1, 2, 3]
        assert all(r["scenario_id"] == "demo" for r in rows)
        assert all(r["m"] == 15 for r in rows)

    def test_read_rejects_ragged_and_empty(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1\n")
        with pytest.raises(ParseError, match="ragged"):
            read_rows_csv(str(bad))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_rows_csv(str(empty))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    counts = str(root / "counts.csv")
    future = str(root / "future.csv")
    rc = main([
        "generate", "--K", "6", "--n", "24", "--phi", "2.0",
        "--pi", "0.3,0.3,0.2,0.2", "--categories", "A,B,C,D",
        "--seed", "3", "--m", "24", "--future-out", future, "--out", counts,
    ])
    assert rc == 0
    return root, counts, future


PREDICT_FAST = ["--methods", "pointwise,bonferroni,masr", "--B", "500"]


class TestCliPredict:
    def test_defaults_are_the_api_defaults(self):
        """Every predict run-length default is read from PREDICT_DEFAULTS."""
        args = _build_parser().parse_args(["predict", "--data", "x.csv", "--m", "5"])
        d = PREDICT_DEFAULTS

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert (args.B, args.mvn_draws, args.chains, args.sampling, args.warmup) == (
            d.B, d.mvn_draws, d.chains, d.sampling_iters, d.warmup,
        )
        for field in ("B", "mvn_draws", "chains", "sampling_iters", "warmup"):
            assert default(compute_intervals, field) == getattr(d, field)
        for field in ("chains", "sampling_iters", "warmup"):
            assert default(mcmc_sample, field) == getattr(d, field)
        assert default(mvn_interval, "n_draws") == d.mvn_draws
        assert default(equicoordinate_quantile, "n_draws") == d.mvn_draws

    def test_benchmark_worker_interface(self, cli_files, tmp_path):
        """perfbench/worker.py, loaded unedited, runs its own calls on this package.

        Loading it fails if any name it imports is gone.  Its predict call,
        its simulate call on the catalog cell it builds and its traced
        replica of compute_intervals must run cleanly, the replica must
        match the real call, and the draws keep the rhat and accept_rates
        that a traced run reads.
        """
        path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
        spec = importlib.util.spec_from_file_location("perfbench_worker", path)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        _, counts, future = cli_files
        settings = {
            "B": 200, "chains": 4, "sampling": 2500, "warmup": 1000,
            "mvn_draws": 100_000, "alpha": 0.05, "prior": "cauchy",
        }
        job = {
            "work": str(tmp_path), "data": counts, "future": future, "m": 24,
            "methods": "all", "seed": 1, "settings": settings,
            "expect": [r.output_id for r in resolve_methods(("all",), ("cauchy",))],
            "categories": ["A", "B", "C", "D"],
        }
        rep = worker.predict_call(job)
        assert (rep["error"], rep["problems"]) == (None, [])
        assert len(job["expect"]) == 11

        config = put(
            tmp_path, "simulate.cfg",
            "scenarios = C5-05-K10-n50-phi5\n"
            f"methods = {','.join(FREQUENTIST_METHODS)}\n"
            "n_iter = 3\nB = 200\nseed = 1\n",
        )
        cell = worker.catalog_cell(parse_config(config))
        rep = worker.simulate_call({"work": str(tmp_path)}, cell)
        assert (rep["error"], rep["problems"], rep["completed"]) == (None, [], 3)

        data = parse_counts_csv(counts)
        fit, fspec = mp.fit_model(data), mp.FutureSpec(m=24)
        requests = resolve_methods(FREQUENTIST_METHODS, ("cauchy",))
        replica = worker.Replica(worker.Tracer(), 200, 100_000, 4, 2500, 1000)
        replayed = replica.intervals(data, fit, fspec, requests, mp.RngStream(1))
        real = compute_intervals(data, fit, fspec, requests, mp.RngStream(1), B=200)
        assert len(real) == len(FREQUENTIST_METHODS) and worker.same_intervals(replayed, real)

        draws = mcmc_sample(
            data, mp.PriorChoice.half_cauchy(), mp.RngStream(1).child(2),
            chains=4, sampling_iters=2500, warmup=1000,
        )
        assert draws.rhat.shape == (5,) and np.all(np.isfinite(draws.rhat))
        assert draws.accept_rates.shape == (4,)
        assert np.all((draws.accept_rates > 0.0) & (draws.accept_rates <= 1.0))

    def test_generated_inputs_parse(self, cli_files):
        _, counts, future = cli_files
        data = parse_counts_csv(counts)
        assert data.n_clusters == 6
        assert data.categories == ("A", "B", "C", "D")
        y, labels = parse_future_csv(future)
        assert labels == data.categories
        assert int(y.sum()) == 24

    def test_predict_to_stdout(self, cli_files, capsys):
        _, counts, _ = cli_files
        rc = main(["predict", "--data", counts, "--m", "24", *PREDICT_FAST])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(INTERVAL_COLUMNS)
        assert len(lines) == 1 + 3 * 4

    def test_negative_seed_is_validation_error(self, cli_files, capsys):
        _, counts, _ = cli_files
        rc = main(["predict", "--data", counts, "--m", "24", *PREDICT_FAST, "--seed", "-1"])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (3, "ValidationError")
        assert "seed" in err["message"]

    def test_predict_without_future_has_no_verdicts(self, cli_files, capsys):
        _, counts, _ = cli_files
        main(["predict", "--data", counts, "--m", "24", *PREDICT_FAST])
        captured = capsys.readouterr()
        assert "containment" not in captured.out
        assert "containment" not in captured.err

    def test_future_verdicts_go_to_stdout_with_out(self, cli_files, capsys):
        root, counts, future = cli_files
        out_path = str(root / "iv.csv")
        rc = main([
            "predict", "--data", counts, "--m", "24", "--future", future,
            "--out", out_path, *PREDICT_FAST,
        ])
        captured = capsys.readouterr()
        assert rc == 0
        verdicts = [l for l in captured.out.splitlines() if l.startswith("containment ")]
        assert len(verdicts) == 3
        assert all(l.split()[-1] in ("yes", "no") for l in verdicts)

    def test_unknown_method_is_usage_error(self, cli_files, capsys):
        _, counts, _ = cli_files
        rc = main(["predict", "--data", counts, "--m", "24", "--methods", "wald"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:")
        assert "pointwise" in err  # lists the valid ids

    @pytest.mark.parametrize("methods", ["pointwise,bayes-scs", "bayes-scs"])
    def test_bare_bayesian_id_with_no_prior_is_usage_error(self, cli_files, capsys, methods):
        _, counts, _ = cli_files
        rc = main(["predict", "--data", counts, "--m", "24", "--methods", methods, "--prior", ""])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: method 'bayes-scs' needs a prior")
        assert "cauchy, beta" in captured.err

    def test_no_clip_flag_is_usage_error(self, cli_files, capsys):
        _, counts, _ = cli_files
        assert main(["predict", "--data", counts, "--m", "24", "--no-clip"]) == 2
        assert "--no-clip" in capsys.readouterr().err

    def test_empty_method_list_emits_header_only(self, cli_files, capsys):
        _, counts, _ = cli_files
        rc = main(["predict", "--data", counts, "--m", "24", "--methods", ""])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == ",".join(INTERVAL_COLUMNS) + "\n"

    def test_missing_file_is_io_error(self, capsys):
        rc = main(["predict", "--data", "/nonexistent/x.csv", "--m", "10"])
        err = capsys.readouterr().err
        assert rc == 5
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_bad_counts_are_validation_errors(self, tmp_path, capsys):
        path = put(tmp_path, "neg.csv", "study,A,B\ns1,1,2\ns2,-3,4\n")
        rc = main(["predict", "--data", path, "--m", "10", *PREDICT_FAST])
        err = capsys.readouterr().err
        assert rc == 3
        assert json.loads(err)["error"] == "ValidationError"

    def test_future_sum_mismatch(self, cli_files, capsys):
        _, counts, future = cli_files
        rc = main([
            "predict", "--data", counts, "--m", "23", "--future", future, *PREDICT_FAST,
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert "sums to 24" in json.loads(err)["message"]

    def test_future_labels_must_match_data(self, cli_files, tmp_path, capsys):
        _, counts, _ = cli_files
        future = put(tmp_path, "f.csv", "study,A,B,C,E\nfuture,6,6,6,6\n")
        rc = main(["predict", "--data", counts, "--m", "24", "--future", future, *PREDICT_FAST])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (3, "ValidationError")
        assert "do not match" in err["message"]

    @pytest.mark.parametrize(
        "table, message",
        [
            ("study,A,B\n", "no data rows"),
            ("study,a,a,b\ns1,1,2,3\ns2,4,5,6\n", "duplicate category label 'a'"),
        ],
    )
    def test_table_errors_are_validation_errors(self, tmp_path, capsys, table, message):
        rc = main(["predict", "--data", put(tmp_path, "c.csv", table), "--m", "10", *PREDICT_FAST])
        err = capsys.readouterr().err
        assert rc == 3 and err.count("\n") == 1
        assert json.loads(err)["error"] == "ValidationError"
        assert message in json.loads(err)["message"]

    def test_json_inferred_from_extension(self, cli_files):
        root, counts, future = cli_files
        out_path = str(root / "iv.json")
        rc = main([
            "predict", "--data", counts, "--m", "24", "--future", future,
            "--out", out_path, *PREDICT_FAST,
        ])
        assert rc == 0
        doc = json.loads(open(out_path).read())
        assert doc["columns"] == list(INTERVAL_COLUMNS)
        assert set(doc["containment"]) == {"pointwise", "bonferroni", "masr"}

    def test_format_flag_beats_extension(self, cli_files):
        root, counts, _ = cli_files
        out_path = str(root / "forced.json")
        rc = main([
            "predict", "--data", counts, "--m", "24", "--out", out_path,
            "--format", "csv", *PREDICT_FAST,
        ])
        assert rc == 0
        first = open(out_path).readline().strip()
        assert first == ",".join(INTERVAL_COLUMNS)

    def test_rerun_is_byte_identical(self, cli_files):
        root, counts, _ = cli_files
        a, b = str(root / "runA.csv"), str(root / "runB.csv")
        for path in (a, b):
            rc = main([
                "predict", "--data", counts, "--m", "24", "--seed", "17",
                "--out", path, *PREDICT_FAST,
            ])
            assert rc == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestCliGenerate:
    def test_m_and_future_out_must_pair(self, tmp_path, capsys):
        base = [
            "generate", "--K", "3", "--n", "10", "--phi", "1.5",
            "--pi", "0.5,0.5", "--out", str(tmp_path / "c.csv"),
        ]
        assert main([*base, "--m", "10"]) == 2
        assert main([*base, "--future-out", str(tmp_path / "f.csv")]) == 2
        capsys.readouterr()

    def test_label_count_must_match(self, tmp_path, capsys):
        rc = main([
            "generate", "--K", "3", "--n", "10", "--phi", "1.5",
            "--pi", "0.5,0.5", "--categories", "A,B,C",
            "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_duplicate_labels_are_validation_errors(self, tmp_path, capsys):
        rc = main([
            "generate", "--K", "3", "--n", "10", "--phi", "1.5",
            "--pi", "0.5,0.5", "--categories", "a,a",
            "--out", str(tmp_path / "c.csv"),
        ])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (3, "ValidationError")
        assert "duplicate category label 'a'" in err["message"]
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "phi, pi, code, error",
        [
            ("2", "0.3,abc", 2, None),
            ("2", "0.3,-0.2,0.9", 3, "ZeroProbability"),
            ("25", "0.3,0.7", 3, "InvalidDispersion"),
        ],
    )
    def test_bad_pi_or_phi_exit_codes(self, tmp_path, capsys, phi, pi, code, error):
        rc = main([
            "generate", "--K", "5", "--n", "20", "--phi", phi, "--pi", pi,
            "--out", str(tmp_path / "g.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == code
        if error is None:
            assert err.startswith("usage error: --pi")
        else:
            assert json.loads(err)["error"] == error
        assert not (tmp_path / "g.csv").exists()

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        rc = main([
            "generate", "--K", "5", "--n", "20", "--phi", "2", "--pi", "0.3,0.7",
            "--seed", "-1", "--out", str(tmp_path / "g.csv"),
        ])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (3, "ValidationError")
        assert "seed" in err["message"]
        assert not (tmp_path / "g.csv").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        paths = [str(tmp_path / f"g{i}.csv") for i in (1, 2)]
        for p in paths:
            rc = main([
                "generate", "--K", "4", "--n", "12", "--phi", "1.8",
                "--pi", "0.4,0.6", "--seed", "5", "--out", p,
            ])
            assert rc == 0
        assert open(paths[0]).read() == open(paths[1]).read()


# one catalog cell and one custom cell, each one cheap iteration
ONE_CELL = "scenarios = C3-01-K5-n10-phi1.01\nn_iter = 1\nmethods = pointwise\nB = 100\n"
CUSTOM_CELL = "pi = 0.3,0.7\nK = 5\nn = 20\nphi = 2.0\nn_iter = 1\nmethods = pointwise\nB = 100\n"


class TestCliSimulate:
    def test_custom_cell(self, tmp_path, capsys):
        cfg = put(
            tmp_path,
            "run.cfg",
            "pi = 0.3,0.3,0.4\nK = 5\nn = 20\nphi = 2.0\nn_iter = 4\n"
            "methods = pointwise,bonferroni\nB = 200\nseed = 11\n",
        )
        rc = main(["simulate", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SIMULATION_COLUMNS)
        assert len(lines) == 1 + 2 * 3

    def test_stdout_same_bytes_for_any_worker_count(self, tmp_path, capfd, monkeypatch):
        """Text still buffered in sys.stdout when the workers fork is written once,
        even where an iteration flushes sys.stdout in a worker process."""
        caller = os.getpid()

        def flushing(*args, **kwargs):
            if os.getpid() != caller:
                sys.stdout.flush()
            return mp.generate_dataset(*args, **kwargs)

        monkeypatch.setattr("mnpred.simulation.generate_dataset", flushing)
        # Block-buffered, as sys.stdout is when it is redirected to a file or a pipe.
        stdout = open(1, "w", encoding="utf-8", closefd=False)
        monkeypatch.setattr(sys, "stdout", stdout)
        cfg = put(
            tmp_path,
            "run.cfg",
            "pi = 0.3,0.3,0.4\nK = 5\nn = 20\nphi = 2.0\nn_iter = 6\n"
            "methods = pointwise,bonferroni\nB = 200\nseed = 11\n",
        )
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            stdout.write("pending,")
            assert main(["simulate", "--config", cfg]) == 0
            stdout.flush()
            outs.append(capfd.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].count("pending,") == 1
        assert outs[0].startswith("pending," + ",".join(SIMULATION_COLUMNS) + "\n")

    def test_custom_cell_needs_grid_values(self, tmp_path, capsys):
        cfg = put(tmp_path, "run.cfg", "pi = 0.3,0.7\nK = 5\nn = 20\n")
        rc = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phi" in json.loads(err)["message"]

    def test_catalog_filter(self, tmp_path, capsys):
        cfg = put(
            tmp_path,
            "run.cfg",
            "scenarios = C3-01-K5-n10-phi\nn_iter = 2\nmethods = pointwise\nB = 100\n",
        )
        rc = main(["simulate", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        # three dispersion levels survive the prefix filter, C=3 rows each
        assert len(lines) == 1 + 3 * 3
        assert all("C3-01-K5-n10-phi" in l for l in lines[1:])

    def test_unmatched_filter_is_validation_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "run.cfg", "scenarios = C99\nn_iter = 2\n")
        rc = main(["simulate", "--config", cfg])
        assert rc == 3
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["K = 5", "n = 20", "m = 30", "phi = 2.0"])
    def test_custom_cell_keys_need_pi(self, tmp_path, capsys, key):
        cfg = put(tmp_path, "run.cfg", f"{ONE_CELL}{key}\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert rc == 3
        assert err["error"] == "ValidationError"
        assert f"{key.split()[0]} set without pi" in err["message"]

    def test_scenarios_excludes_pi(self, tmp_path, capsys):
        cfg = put(tmp_path, "run.cfg", f"{CUSTOM_CELL}scenarios = C99\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert rc == 3
        assert "scenarios" in err["message"]

    def test_clip_key_is_parse_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "run.cfg", f"{ONE_CELL}clip = false\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert rc == 3
        assert err["error"] == "ParseError"
        assert "line 5: unknown key 'clip'" in err["message"]

    def test_full_scale_key_is_parse_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "run.cfg", f"{ONE_CELL}full_scale = true\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert rc == 3
        assert err["error"] == "ParseError"
        assert "line 5: unknown key 'full_scale'" in err["message"]

    def test_full_scale_flag_is_usage_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "run.cfg", ONE_CELL)
        assert main(["simulate", "--config", cfg, "--full-scale"]) == 2
        assert "--full-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["B = 0", "B = 1", "alpha = 2.0"])
    def test_bad_run_setting_is_validation_error(self, tmp_path, capsys, setting):
        # a config sets each key once, so ONE_CELL's own B goes
        base = ONE_CELL.replace("B = 100\n", "")
        cfg = put(tmp_path, "run.cfg", f"{base}{setting}\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert rc == 3
        assert err["error"] == "ValidationError"
        assert setting.split()[0] in err["message"]

    @pytest.mark.parametrize("cell", [CUSTOM_CELL, "scenarios = C10-\nn_iter = 1\n"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, cell):
        # catalog cell i gets seed + i, so a C10 cell could reach a valid seed
        cfg = put(tmp_path, "run.cfg", f"{cell}seed = -1\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (3, "ValidationError")
        assert "seed" in err["message"]

    @pytest.mark.parametrize("key", ["format = json", "out = x.json"])
    def test_output_keys_are_parse_errors(self, tmp_path, capsys, key):
        # the output path and format are set by --out and --format only
        cfg = put(tmp_path, "run.cfg", f"{ONE_CELL}{key}\n")
        rc = main(["simulate", "--config", cfg])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (3, "ParseError")
        assert f"line 5: unknown key '{key.split()[0]}'" in err["message"]

    @pytest.mark.parametrize(
        "flags, out_name, expected",
        [
            (["--format", "json"], "run.txt", "json"),  # the flag decides
            ([], "run.csv", "csv"),  # no flag: the extension decides
            (["--format", "csv"], "run.json", "csv"),  # the flag beats the extension
            ([], "run.json", "json"),
            ([], "run.txt", "csv"),  # no flag, no known extension: CSV
        ],
    )
    def test_format_precedence(self, tmp_path, flags, out_name, expected):
        cfg = put(tmp_path, "run.cfg", CUSTOM_CELL)
        out = str(tmp_path / out_name)
        assert main(["simulate", "--config", cfg, "--out", out, *flags]) == 0
        text = open(out).read()
        if expected == "json":
            assert json.loads(text)["columns"] == list(SIMULATION_COLUMNS)
        else:
            assert text.splitlines()[0] == ",".join(SIMULATION_COLUMNS)

    def test_missing_config_is_io_error(self, capsys):
        rc = main(["simulate", "--config", "/nonexistent/run.cfg"])
        err = capsys.readouterr().err
        assert rc == 5
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_output_file_and_rerun_bytes(self, tmp_path):
        cfg = put(
            tmp_path,
            "run.cfg",
            "pi = 0.3,0.3,0.4\nK = 5\nn = 20\nphi = 2.0\nn_iter = 4\n"
            "methods = pointwise\nB = 100\nseed = 11\n",
        )
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            assert main(["simulate", "--config", cfg, "--out", path]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


def test_cli_import_leaves_scipy_unloaded():
    # importing any of scipy costs about half of every CLI call's start-up
    src = os.path.dirname(os.path.dirname(mp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, mnpred.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def program_imports():
    """(file:line, module) of every absolute import in the package's modules."""
    found = []
    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", n) for n in names]
    return found


def test_no_module_imports_scipy():
    """scipy stays out of the program, not just out of the CLI's import graph."""
    assert [at for at, name in program_imports() if name.split(".")[0] == "scipy"] == []


def test_no_module_imports_a_worker_pool():
    """The ensemble's blocks run on plain threads: importing concurrent.futures
    alone costs about 0.4 MB of resident memory, and multiprocessing would copy
    the whole interpreter per worker."""
    barred = ("concurrent", "multiprocessing")
    assert [at for at, name in program_imports() if name.split(".")[0] in barred] == []


def exported(module) -> set[str]:
    """A module's export list: its __all__, else its names without a leading underscore."""
    return set(getattr(module, "__all__", None) or [n for n in vars(module) if n[0] != "_"])


def test_export_lists_are_honest():
    """Each __all__ names only what its module defines, and the package
    re-exports only names its modules export."""
    package = Path(mp.__file__).parent
    modules = [importlib.import_module(f"mnpred.{p.stem}") for p in sorted(package.glob("*.py"))]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exported(importlib.import_module(f"mnpred.{node.module}"))
    ]
    assert unlisted == []


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
