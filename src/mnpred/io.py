"""CSV/JSON input and output plus the flat key=value run configuration.

Count tables are wide format: header `study,<label_1>,...,<label_C>`,
one row per historical study, integer cells.  Result files use fixed
column sets so downstream plotting does not depend on which methods
were requested.  All numbers are serialized with 6 significant digits
and NaN becomes an empty CSV cell (null in JSON), which keeps outputs
byte-identical across runs with the same inputs and seed.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .model import HistoricalDataset, PredictionIntervalSet
from .simulation import Scenario, SimulationReport

__all__ = [
    "INTERVAL_COLUMNS",
    "SIMULATION_COLUMNS",
    "RunConfig",
    "comma_list",
    "parse_config",
    "parse_counts_csv",
    "parse_future_csv",
    "counts_to_csv",
    "interval_rows",
    "simulation_rows",
    "rows_to_csv",
    "rows_to_json",
    "write_text",
    "read_rows_csv",
    "read_rows_json",
]

INTERVAL_COLUMNS = (
    "method",
    "category",
    "L",
    "U",
    "y_hat",
    "sep",
    "multiplier_L",
    "multiplier_U",
)

SIMULATION_COLUMNS = (
    "scenario_id",
    "C",
    "K",
    "n",
    "m",
    "phi",
    "method",
    "coverage",
    "mc_error",
    "category",
    "p_below_L",
    "p_above_U",
    "min_expected_count",
)


# ---------------------------------------------------------------------------
# count-table parsing


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{path}: empty file")
    return rows[0], rows[1:]


def _parse_count_rows(
    header: list[str], body: list[list[str]], path: str
) -> tuple[np.ndarray, tuple[str, ...]]:
    if not header or header[0].strip().lower() != "study":
        raise ParseError(f"{path}: header must start with 'study', got {header[:1]!r}")
    labels = tuple(cell.strip() for cell in header[1:])
    if len(labels) < 2:
        raise ValidationError(f"{path}: at least 2 category columns required, found {len(labels)}")
    counts = []
    for i, row in enumerate(body, start=2):
        if len(row) != len(labels) + 1:
            raise ParseError(
                f"{path}: row {i} has {len(row)} cells, expected {len(labels) + 1}"
            )
        parsed = []
        for label, cell in zip(labels, row[1:]):
            text = cell.strip()
            try:
                value = int(text, 10)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i}, column {label!r}: non-integer cell {text!r}"
                ) from None
            if value < 0:
                raise ValidationError(
                    f"{path}: row {i}, column {label!r}: negative count {value}"
                )
            parsed.append(value)
        counts.append(parsed)
    if not counts:
        raise ValidationError(f"{path}: no data rows")
    return np.asarray(counts, dtype=np.int64), labels


def parse_counts_csv(path: str) -> HistoricalDataset:
    """Read a wide-format historical count table into a dataset."""
    header, body = _read_table(path)
    counts, labels = _parse_count_rows(header, body, path)
    if counts.shape[0] < 2:
        raise ValidationError(
            f"{path}: at least 2 historical studies required, found {counts.shape[0]}"
        )
    return HistoricalDataset(counts, categories=labels)


def parse_future_csv(path: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a single observed future row (same layout as the count table)."""
    header, body = _read_table(path)
    counts, labels = _parse_count_rows(header, body, path)
    if counts.shape[0] != 1:
        raise ParseError(f"{path}: expected exactly one observed row, found {counts.shape[0]}")
    return counts[0], labels


# ---------------------------------------------------------------------------
# run configuration


# The simulate run settings default to Scenario's, so each default is set once.
_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


@dataclass
class RunConfig:
    """Flat bag of run settings; the simulate config file mirrors these names.

    parse_config reads each value by its field's annotation.  The run
    settings are checked where they are used: catalog.build_scenarios
    checks which keys go together and Scenario checks each value.
    """

    alpha: float = _SCENARIO_DEFAULTS["alpha"]
    methods: tuple[str, ...] = _SCENARIO_DEFAULTS["methods"]
    B: int = _SCENARIO_DEFAULTS["B"]
    S: int = _SCENARIO_DEFAULTS["S"]
    chains: int = _SCENARIO_DEFAULTS["chains"]
    warmup: int = _SCENARIO_DEFAULTS["warmup"]
    seed: int = _SCENARIO_DEFAULTS["seed"]
    priors: tuple[str, ...] = _SCENARIO_DEFAULTS["priors"]
    n_iter: int = _SCENARIO_DEFAULTS["n_iter"]
    scenarios: tuple[str, ...] = ()
    repair: bool = _SCENARIO_DEFAULTS["repair"]
    mvn_draws: int = _SCENARIO_DEFAULTS["mvn_draws"]
    pi: tuple[float, ...] | None = None
    K: int | None = None
    n: int | None = None
    m: int | None = None
    phi: float | None = None


def comma_list(text: str) -> tuple[str, ...]:
    """The stripped, non-empty items of a comma-separated list."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


# One reader per RunConfig annotation; an optional field reads like its base type.
_READERS = {
    "int": int,
    "float": float,
    "bool": lambda text: {"true": True, "false": False}[text.lower()],
    "tuple[str, ...]": comma_list,
    "tuple[float, ...]": lambda text: tuple(float(v) for v in comma_list(text)),
}


def parse_config(path: str) -> RunConfig:
    """Parse a flat `key = value` config file with # comments."""
    readers = {f.name: _READERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}
    values: dict[str, object] = {}
    first_set: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in readers:
                raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in first_set:
                raise ParseError(
                    f"{path}: line {lineno}: duplicate key {key!r}"
                    f" (first set on line {first_set[key]})"
                )
            first_set[key] = lineno
            try:
                values[key] = readers[key](value)
            except (KeyError, ValueError):
                raise ParseError(
                    f"{path}: line {lineno}: bad value {value!r} for {key!r}"
                ) from None
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# result serialization


def _fmt_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if np.isnan(x):
        return ""
    return f"{x:.6g}"


def _json_value(value: object) -> object:
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    x = float(value)
    if np.isnan(x):
        return None
    return float(f"{x:.6g}")


def interval_rows(
    sets: Mapping[str, PredictionIntervalSet],
    categories: Sequence[str],
) -> list[dict[str, object]]:
    """Flatten interval sets into one record per method x category."""
    rows: list[dict[str, object]] = []
    for method, ivs in sets.items():
        for c, label in enumerate(categories):
            rows.append(
                {
                    "method": method,
                    "category": label,
                    "L": ivs.lower[c],
                    "U": ivs.upper[c],
                    "y_hat": ivs.y_hat[c],
                    "sep": ivs.sep[c],
                    "multiplier_L": ivs.multiplier_lower[c],
                    "multiplier_U": ivs.multiplier_upper[c],
                }
            )
    return rows


def simulation_rows(reports: Iterable[SimulationReport]) -> list[dict[str, object]]:
    """Flatten reports into one record per scenario x method x category."""
    rows: list[dict[str, object]] = []
    for report in reports:
        s = report.scenario
        for method, out in report.outcomes.items():
            p_below = out.p_below
            p_above = out.p_above
            for c in range(s.n_categories):
                rows.append(
                    {
                        "scenario_id": s.scenario_id,
                        "C": s.n_categories,
                        "K": s.K,
                        "n": s.n,
                        "m": s.m,
                        "phi": s.phi,
                        "method": method,
                        "coverage": out.coverage,
                        "mc_error": out.mc_error,
                        "category": c + 1,
                        "p_below_L": p_below[c],
                        "p_above_U": p_above[c],
                        "min_expected_count": s.min_expected_count,
                    }
                )
    return rows


def counts_to_csv(
    counts: np.ndarray,
    labels: Sequence[str],
    study_labels: Sequence[str] | None = None,
) -> str:
    """Render a count matrix (or a single future row) in the wide input format."""
    counts = np.atleast_2d(np.asarray(counts))
    if study_labels is None:
        study_labels = [f"study_{i}" for i in range(1, counts.shape[0] + 1)]
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["study", *labels])
    for name, row in zip(study_labels, counts):
        writer.writerow([name, *(int(v) for v in row)])
    return buf.getvalue()


def rows_to_csv(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render records as CSV text with a fixed column order and \\n endings."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def rows_to_json(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    extra: Mapping[str, object] | None = None,
) -> str:
    """Render the same records as a JSON document mirroring the CSV schema."""
    doc: dict[str, object] = {
        "columns": list(columns),
        "rows": [{col: _json_value(row.get(col)) for col in columns} for row in rows],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def write_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _maybe_float(text: str) -> object:
    if text == "":
        return float("nan")
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_rows_csv(path: str) -> list[dict[str, object]]:
    """Read back an emitted CSV; numeric cells become int/float, empty -> NaN."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        out = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(f"{path}: ragged row {row!r}")
            out.append(
                {
                    col: (cell if col in ("method", "category", "scenario_id") else _maybe_float(cell))
                    for col, cell in zip(header, row)
                }
            )
    return out


def read_rows_json(path: str) -> list[dict[str, object]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["rows"]
