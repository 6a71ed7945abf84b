"""Golden reports: the bundled-data analysis and a small coverage study.

Each report is compared with its recorded JSON without ``generated_at``:
structure, strings, booleans and integers exactly, floats within
``FLOAT_REL`` relative.  Its CSV and plot-data files are compared with the
same recorded JSON.  Re-record (only when a number is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import importlib.resources as ir
import json
import math
import os

import pytest

from subsetci.criteria import Criterion
from subsetci.harness import (
    SimulationConfig,
    dataset_report,
    emit_report,
    load_csv_dataset,
    report_to_dict,
    simulate_coverage,
)
from subsetci.inference import SigmaSpec

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FLOAT_REL = 1e-9

ANALYZE_STRATEGIES = ("known:1.0", "mse-aic", "mse-full", "external:1.1")


def analyze_report():
    """``subsetci analyze`` of the bundled data under four noise strategies."""
    path = str(ir.files("subsetci") / "data" / "us_consumption.csv")
    return dataset_report(load_csv_dataset(path, "Consumption"), Criterion.AIC, 0.05,
                          [SigmaSpec.parse(s) for s in ANALYZE_STRATEGIES],
                          source=path, response="Consumption")


def study_report():
    """A 60-replication study at n=15, p=6 with the default strategies and
    ten prediction targets."""
    return simulate_coverage(SimulationConfig(
        n=15, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0), rho=0.5, sigma=1.0,
        reps=60, master_seed=1))


def analyze_doc():
    doc = report_to_dict(analyze_report())
    doc["config"]["source"] = "us_consumption.csv"  # not the install path
    return doc


def study_doc():
    return report_to_dict(study_report())


REPORTS = {"analyze": analyze_doc, "study_n15_p6": study_doc}


def _mismatches(got, want, path="$"):
    """Where ``got`` and ``want`` differ, as readable paths."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        if math.isfinite(got) and math.isfinite(want) and \
                abs(got - want) <= FLOAT_REL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r} != "
                f"{type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k],
                                                       f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _load(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        return json.load(fh)


def _fresh(name):
    # through JSON, as the CLI writes it, so tuples and lists compare alike
    doc = json.loads(json.dumps(REPORTS[name]()))
    doc.pop("generated_at")
    return doc


def test_analysis_report_matches_golden():
    assert _mismatches(_fresh("analyze"), _load("analyze"))[:10] == []


def test_study_report_matches_golden():
    assert _mismatches(_fresh("study_n15_p6"), _load("study_n15_p6"))[:10] == []


def _golden_files(doc, fmt):
    """Each file that ``fmt`` writes, as {name: (header, rows)}, stated by the
    recorded JSON document ``doc``."""
    if not doc["coverage"]:  # an analysis
        header = ["target", "strategy", "method", "lower", "upper"]
        if fmt == "csv":
            header += ["point", "pivot", "sigma_used"]
        # a row's JSON name is its CSV target
        rows = [[r["name"]] + [r[k] for k in header[1:]] for r in doc["targets"]]
        return {"report.csv" if fmt == "csv" else "intervals.csv": (header, rows)}
    if fmt == "csv":
        header = ["target", "strategy", "method", "coverage", "stderr",
                  "relative_loss"]
        return {"report.csv": (header, [[c[k] for k in header]
                                        for c in doc["coverage"]])}
    strategies = [s.split(":")[0] for s in doc["config"]["sigma_strategies"]]
    cell = {(c["target"], c["strategy"], c["method"]): c["coverage"]
            for c in doc["coverage"]}
    points = dict.fromkeys(c["target"] for c in doc["coverage"])
    return {
        # the uncorrected coverage is mse_aic's, the default baseline
        "coverage_vs_point.csv": (
            ["point", "uncorrected"] + [f"corrected_{s}" for s in strategies],
            [[t, cell[t, "mse_aic", "uncorrected"]]
             + [cell[t, s, "corrected"] for s in strategies] for t in points]),
        "size_histogram.csv": (["size", "count"], [[h["size"], h["count"]]
                                                   for h in doc["histogram"]]),
    }


def _field_mismatches(field, want, path):
    """A CSV field against its JSON value: null is an empty field, a string
    or an integer its text, a float a number within ``FLOAT_REL``."""
    if want is None or field == "":
        return [] if want is None and field == "" else [f"{path}: {field!r} != {want!r}"]
    if isinstance(want, (str, int)):
        return [] if field == str(want) else [f"{path}: {field!r} != {want!r}"]
    return _mismatches(float(field), want, path)


@pytest.mark.parametrize("fmt", ["csv", "plotdata"])
@pytest.mark.parametrize("name, report", [("analyze", analyze_report),
                                          ("study_n15_p6", study_report)])
def test_report_files_match_golden(name, report, fmt, tmp_path):
    want = _golden_files(_load(name), fmt)
    paths = emit_report(report(), format=fmt, out_dir=str(tmp_path))
    assert [os.path.basename(p) for p in paths] == list(want)
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        file = os.path.basename(path)
        want_header, want_rows = want[file]
        assert header == want_header
        assert len(rows) == len(want_rows)
        assert [m for i, (row, want_row) in enumerate(zip(rows, want_rows))
                for j, (field, value) in enumerate(zip(row, want_row, strict=True))
                for m in _field_mismatches(field, value, f"{file}[{i}][{j}]")][:10] == []


def test_comparison_tolerates_only_float_rounding():
    want = {"a": [1, 2.0, "s", None, math.inf], "b": True}
    assert _mismatches(json.loads(json.dumps(want)), want) == []
    near = {"a": [1, 2.0 * (1 + 1e-12), "s", None, math.inf], "b": True}
    assert _mismatches(near, want) == []
    for bad in ({"a": [1, 2.0 * (1 + 1e-8), "s", None, math.inf], "b": True},
                {"a": [1.0, 2.0, "s", None, math.inf], "b": True},
                {"a": [1, 2.0, "t", None, math.inf], "b": True},
                {"a": [1, 2.0, "s", None], "b": True},
                {"a": [1, 2.0, "s", None, math.inf], "b": 1},
                {"a": [1, 2.0, "s", None, -math.inf], "b": True},
                {"a": [1, 2.0, "s", None, math.inf]}):
        assert _mismatches(bad, want) != []


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in REPORTS:
        with open(os.path.join(GOLDEN, f"{name}.json"), "w") as fh:
            json.dump(_fresh(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("recorded", name)
