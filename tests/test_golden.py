"""Golden reports: the bundled-data analysis and a small coverage study.

Each report is compared with its recorded JSON without ``generated_at``:
structure, strings, booleans and integers exactly, floats within
``FLOAT_REL`` relative.  Re-record (only when a number is meant to change)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import importlib.resources as ir
import json
import math
import os

from subsetci.harness import (
    SimulationConfig,
    analyze,
    report_to_dict,
    simulate_coverage,
)
from subsetci.inference import SigmaSpec

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FLOAT_REL = 1e-9

ANALYZE_STRATEGIES = ("known:1.0", "mse-aic", "mse-full", "external:1.1")


def analyze_doc():
    """``subsetci analyze`` of the bundled data under four noise strategies."""
    csv = str(ir.files("subsetci") / "data" / "us_consumption.csv")
    report = analyze(csv, "Consumption",
                     sigma_strategies=[SigmaSpec.parse(s)
                                       for s in ANALYZE_STRATEGIES])
    doc = report_to_dict(report)
    doc["config"]["source"] = "us_consumption.csv"  # not the install path
    return doc


def study_doc():
    """A 60-replication study at n=15, p=6 with the default strategies and
    ten prediction targets."""
    return report_to_dict(simulate_coverage(SimulationConfig(
        n=15, p=6, beta=(1.0, 2.0, 3.0, 0.0, 0.0, 0.0), rho=0.5, sigma=1.0,
        reps=60, master_seed=1)))


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
