"""subsetci benchmark: four workloads, end-to-end latency, per-layer split.

Run from the repository root::

    python3 bench/run.py --workload table1 --seed 0 --seconds 10 --trace 0

Workloads (``bench/README.md`` says why each exists):

* ``table1``        Table-1 coverage study, fixed design, p=10, M=1023.
* ``wide``          fixed design, n=100, p=12, M=4095, one noise strategy.
* ``random_design`` ``table1`` with a fresh design every replication.
* ``analyze``       ``subsetci analyze`` on the bundled data, in process.

Each workload runs in this one process with ``workers=1``.  With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced calls and reports the per-layer split of the traced ones.
Every run checks the library's outputs outside the timed region; a failed
check is counted in ``failed`` and makes the run exit with code 1.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the host record, the
checks, and the raw figures behind every metric.

End-to-end timings are host-speed normalized: every timed operation sits
next to a short fixed calibration kernel, and its wall time is scaled by
``CAL_REF_MS`` over the kernel's time around it.  The figures are therefore
milliseconds (or seconds) on a host where the kernel takes ``CAL_REF_MS``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
from typing import List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
# reference.json covers the seeds below this one
REFERENCE_SEEDS = 10

# A simulation workload's timed call is one simulate_coverage call of this
# many replications; calls repeat until --seconds have passed.
SIMULATIONS = {
    "table1": dict(n=50, p=10, n_new_points=10, reps=30, fixed_design=True,
                   strategies=("known:1.0", "mse-aic", "mse-full",
                               "external:1.1")),
    "wide": dict(n=100, p=12, n_new_points=2, reps=30, fixed_design=True,
                 strategies=("known:1.0",)),
    "random_design": dict(n=50, p=10, n_new_points=10, reps=24,
                          fixed_design=False,
                          strategies=("known:1.0", "mse-aic", "mse-full",
                                      "external:1.1")),
}
WORKLOADS = tuple(SIMULATIONS) + ("analyze",)

ANALYZE_STRATEGIES = ("known:1.0", "mse-aic", "mse-full", "external:1.1")
ANALYZE_RESPONSE = "Consumption"

# Criterion-7 golden values (mse-full strategy) for the bundled data.
GOLDEN_CLASSICAL = {
    "Income": (0.6615, 0.8197),
    "Production": (0.0015, 0.0928),
    "Savings": (-0.0587, -0.0471),
    "Unemployment": (-0.3631, 0.0137),
}
GOLDEN_CLASSICAL_TOL = 5e-3
GOLDEN_CORRECTED_PRODUCTION = (-0.0109, 0.1148)
GOLDEN_CORRECTED_TOL = 1e-2

# Sampled replications checked per run against the reselection oracle
# (criterion 1) and the truncated-CDF round trip (criterion 6).
ORACLE_REPS = {"table1": 2, "random_design": 2, "wide": 1}
ORACLE_TARGETS = 2
ORACLE_GRID = {"table1": 81, "random_design": 81, "wide": 41}
ROUND_TRIP_TOL = 1e-8

# Reference coverage cells may differ by 2% of their count (at least one
# hit), and size-histogram bins by one, before the check fails: rounding in a
# different BLAS can flip a replication that sits on a selection boundary.
REFERENCE_HIT_TOL = 0.02

SETUP_BUILDS = {"table1": 7, "wide": 7, "random_design": 7, "analyze": 31}

TAIL_MIN_BEYOND = 10

# Calibration kernel time (ms) that normalized timings are expressed at; it
# is about the kernel's time on a 2-vCPU Intel Xeon cloud host when that
# host runs at its usual (not boosted) speed.
CAL_REF_MS = 2.0
_CAL_MATRIX = np.random.default_rng(0).standard_normal((50, 10))


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


# --------------------------------------------------------------------------
# environment


def import_library():
    """Import subsetci from this checkout's ``src``, never from elsewhere."""
    pkg = os.path.join(SRC, "subsetci")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"bench: no library sources at {pkg}")
    sys.path.insert(0, SRC)
    import subsetci

    if os.path.dirname(os.path.abspath(subsetci.__file__)) != pkg:
        raise SystemExit(f"bench: imported subsetci from {subsetci.__file__}")
    return subsetci


def read_steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def openblas_threads():
    """OpenBLAS thread count of the loaded library, read through ctypes."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return ref[5:]


def host_record() -> dict:
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "git_commit": git_commit(),
    }


# --------------------------------------------------------------------------
# statistics and host-speed calibration


def rank(n: int, pct: float) -> int:
    """Nearest-rank position (1-based) of percentile ``pct`` among ``n``."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(samples, pct: float) -> float:
    return sorted(samples)[rank(len(samples), pct) - 1]


def tail_percentile(samples):
    """(percentile, value): the highest of 50/75/90/99/99.9 with at least
    ``TAIL_MIN_BEYOND`` samples beyond it; the maximum when there are too
    few samples for any of them."""
    n = len(samples)
    best = (100.0, max(samples))
    for pct in (50.0, 75.0, 90.0, 99.0, 99.9):
        if n - rank(n, pct) >= TAIL_MIN_BEYOND:
            best = (pct, percentile(samples, pct))
    return best


def canonical(doc: dict) -> str:
    """Report JSON without its volatile ``generated_at`` field."""
    doc = dict(doc)
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


def calibration_ms() -> float:
    """Median wall time of three runs of a fixed mix of interpreter work and
    small LAPACK calls, the two kinds of work the library's time goes to."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i
        for _ in range(30):
            _, r = np.linalg.qr(_CAL_MATRIX)
            _CAL_MATRIX @ r[0]
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def normalized(raw: float, cal_before: float, cal_after: float) -> float:
    """``raw`` scaled to the reference host speed."""
    return raw * CAL_REF_MS / (0.5 * (cal_before + cal_after))


# --------------------------------------------------------------------------
# workload inputs (all derived from --seed)


def simulation_config(workload: str, seed: int):
    from subsetci.harness import SimulationConfig
    from subsetci.inference import SigmaSpec

    w = SIMULATIONS[workload]
    p = w["p"]
    return SimulationConfig(
        n=w["n"], p=p, beta=(1.0, 2.0, 3.0) + (0.0,) * (p - 3),
        rho=0.5, sigma=1.0, reps=w["reps"], alpha=0.05,
        sigma_strategies=tuple(SigmaSpec.parse(s) for s in w["strategies"]),
        n_new_points=w["n_new_points"], master_seed=seed,
        fixed_design=w["fixed_design"])


def analyze_csv(seed: int) -> str:
    """The bundled data with its rows permuted by the seed; every interval is
    invariant to row order, so the golden values still apply."""
    src = os.path.join(SRC, "subsetci", "data", "us_consumption.csv")
    with open(src) as fh:
        header, *rows = fh.read().splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"analyze-seed{seed}.csv")
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [rows[i] for i in order]) + "\n")
    return path


def analyze_argv(csv_path: str):
    argv = ["analyze", csv_path, "--response", ANALYZE_RESPONSE, "--intercept"]
    for s in ANALYZE_STRATEGIES:
        argv += ["--sigma", s]
    return argv


def fresh_dataset(config, csv_path):
    """The workload's Dataset, built from scratch (no shared caches): the
    simulation design without noise, or the analyze CSV."""
    from subsetci import harness
    from subsetci.linmodel import Dataset

    if config is None:
        return harness.load_csv_dataset(csv_path, ANALYZE_RESPONSE)
    X, _ = harness.generate_design(config)
    return Dataset(X, X @ np.asarray(config.beta),
                   tuple(f"x{j}" for j in range(1, config.p + 1)))


# --------------------------------------------------------------------------
# set-up


def setup_seconds(config, csv_path, builds: int) -> List[float]:
    """Normalized wall times of building the Dataset and its candidate set
    afresh, ``builds`` times."""
    from subsetci import criteria

    times = []
    cal = calibration_ms()
    for _ in range(builds):
        t0 = time.perf_counter()
        criteria.candidate_set(fresh_dataset(config, csv_path))
        raw = time.perf_counter() - t0
        # A Dataset and its CandidateSet reference each other; free the build
        # now, so that builds do not pile up in the process's peak RSS.
        gc.collect()
        cal_after = calibration_ms()
        times.append(normalized(raw, cal, cal_after))
        cal = cal_after
    return times


def candidate_set_peak_mb(config, csv_path) -> float:
    """Peak traced allocation while building one candidate set."""
    from subsetci import criteria

    data = fresh_dataset(config, csv_path)
    tracemalloc.start()
    try:
        criteria.candidate_set(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def warm_up(csv_path):
    """First-call costs (lazy SciPy imports, caches) outside any timing."""
    from subsetci import cli, harness
    from subsetci.inference import SigmaSpec

    harness.simulate_coverage(harness.SimulationConfig(
        n=20, p=4, beta=(1.0, 2.0, 0.0, 0.0), rho=0.5, sigma=1.0, reps=2,
        sigma_strategies=tuple(SigmaSpec.parse(s) for s in ANALYZE_STRATEGIES),
        n_new_points=2, master_seed=1))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(analyze_argv(csv_path))
    for _ in range(20):
        calibration_ms()


# --------------------------------------------------------------------------
# timed loops


@dataclasses.dataclass
class Call:
    """One timed call: its wall time, its operations, and what it returned."""

    wall: float  # raw seconds, calibration excluded
    norm: float  # normalized seconds, calibration excluded
    op_ms: List[float]  # normalized latency of each operation in the call
    cal_ms: List[float]  # calibration samples taken during and after it
    report: object = None  # simulate_coverage's CoverageReport
    code: int = 0  # analyze exit code
    text: str = ""  # analyze standard output
    counts: Optional[dict] = None  # trace counts recorded during the call


@contextlib.contextmanager
def replication_clock(marks: list):
    """Calibrate and stamp at the start of every replication.

    The harness draws each replication's noise through ``rep_stream`` once,
    as the replication starts; ``timed_simulation`` fails the run when that
    no longer holds.  Each mark is (time before the calibration,
    calibration ms, time after it); a replication runs from one mark's end to
    the next mark's start."""
    from subsetci import harness

    original = harness.rep_stream

    def stamped(*args, **kwargs):
        t0 = time.perf_counter()
        cal = calibration_ms()
        marks.append((t0, cal, time.perf_counter()))
        return original(*args, **kwargs)

    harness.rep_stream = stamped
    try:
        yield
    finally:
        harness.rep_stream = original


def timed_simulation(config, cal_before: float) -> Call:
    """One ``simulate_coverage(config, workers=1)`` call, each replication
    timed and normalized by the calibrations at its two ends.  The set-up a
    call does before its first replication is in no replication's latency
    (``setup_s`` measures it) but is in the call's time."""
    from subsetci import harness

    marks: list = []
    with replication_clock(marks):
        t0 = time.perf_counter()
        report = harness.simulate_coverage(config, workers=1)
        t1 = time.perf_counter()
    cal_after = calibration_ms()
    if len(marks) != config.reps:
        raise CheckFailed(
            f"replication clock lost: harness.rep_stream was called "
            f"{len(marks)} times for {config.reps} replications; update "
            "replication_clock with the harness")
    # spans between marks: the set-up, then one per replication
    starts = [t0] + [m[2] for m in marks]
    ends = [m[0] for m in marks] + [t1]
    cals = [cal_before] + [m[1] for m in marks] + [cal_after]
    spans = [normalized(end - start, c0, c1)
             for start, end, c0, c1 in zip(starts, ends, cals, cals[1:])]
    wall = sum(end - start for start, end in zip(starts, ends))
    return Call(wall, sum(spans), [1e3 * s for s in spans[1:]], cals[1:],
                report=report)


def timed_analyze(argv, cal_before: float) -> Call:
    """One in-process ``subsetci analyze`` call, stdout and stderr captured."""
    from subsetci import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    cal_after = calibration_ms()
    norm = normalized(wall, cal_before, cal_after)
    return Call(wall, norm, [1e3 * norm], [cal_after], code=code,
                text=out.getvalue())


def traced_call(w, tracer) -> Call:
    """One call, with ``tracer`` installed unless it is None; raw wall time,
    no calibration."""
    from subsetci import cli, harness

    tracing = contextlib.nullcontext() if tracer is None else tracer.installed()
    before = None if tracer is None else tracer.snapshot()
    with tracing:
        t0 = time.perf_counter()
        if w.is_sim:
            call = Call(0.0, 0.0, [], [],
                        report=harness.simulate_coverage(w.config, workers=1))
        else:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(w.argv)
            call = Call(0.0, 0.0, [], [], code=code, text=out.getvalue())
        call.wall = time.perf_counter() - t0
    if tracer is not None:
        call.counts = tracer.counts_between(before, tracer.snapshot())
    return call


# --------------------------------------------------------------------------
# output checks (never inside a timed region)


def check_simulation_reports(workload, config, reports, reference) -> str:
    """Completeness, bit-identical repeats, and the recorded reference."""
    from subsetci.harness import report_to_dict

    for report in reports:
        if report.reps_completed + len(report.failures) != config.reps:
            raise CheckFailed(
                f"reps_completed {report.reps_completed} + failures "
                f"{len(report.failures)} != reps {config.reps}")
    docs = {canonical(report_to_dict(r)) for r in reports}
    if len(docs) != 1:
        raise CheckFailed(f"{len(reports)} runs of one config gave "
                          f"{len(docs)} different reports")
    if config.master_seed >= REFERENCE_SEEDS:
        return "no reference for this seed"
    ref = reference.get(workload, {}).get(str(config.master_seed))
    if ref is None:
        raise CheckFailed(f"reference.json lacks {workload} seed "
                          f"{config.master_seed}")
    compare_reference(reports[0], ref)
    return "reference matched"


def coverage_summary(report) -> dict:
    return {
        "cells": [[c.target, c.strategy, c.method, c.hits, c.count]
                  for c in report.cells],
        "histogram": {str(k): v for k, v in sorted(report.histogram.items())},
    }


def compare_reference(report, ref) -> None:
    got = coverage_summary(report)
    want_cells = {tuple(c[:3]): c[3:] for c in ref["cells"]}
    got_cells = {tuple(c[:3]): c[3:] for c in got["cells"]}
    if set(want_cells) != set(got_cells):
        raise CheckFailed("coverage cells differ from the reference")
    for key, (hits, count) in want_cells.items():
        g_hits, g_count = got_cells[key]
        tol = max(1, math.floor(REFERENCE_HIT_TOL * count))
        if g_count != count or abs(g_hits - hits) > tol:
            raise CheckFailed(f"cell {key}: {g_hits}/{g_count} vs reference "
                              f"{hits}/{count}")
    sizes = set(ref["histogram"]) | set(got["histogram"])
    for s in sizes:
        if abs(ref["histogram"].get(s, 0) - got["histogram"].get(s, 0)) > 1:
            raise CheckFailed(f"size histogram differs from the reference: "
                              f"{got['histogram']} vs {ref['histogram']}")


def oracle_checks(workload, config, seed) -> str:
    """Reselection oracle and CDF round trip on sampled replications."""
    from subsetci import harness
    from subsetci.criteria import CriterionSpec, best_subset
    from subsetci.geometry import decompose, selection_event
    from subsetci.inference import (
        InferenceTarget, SigmaSpec, corrected_ci, estimate_sigma, eta_for_target)
    from subsetci.linmodel import Dataset
    from subsetci.truncnorm import TruncatedNormalSpec, truncated_cdf

    rng = np.random.default_rng([seed, 1])
    X, points = harness.generate_design(config)
    beta = np.asarray(config.beta)
    idx = np.arange(config.p)
    chol = np.linalg.cholesky(config.rho ** np.abs(idx[:, None] - idx[None, :]))
    spec = CriterionSpec(config.criterion, config.n)
    names = tuple(f"x{j}" for j in range(1, config.p + 1))
    alpha = config.alpha
    design = Dataset(X, X @ beta, names)
    checked = round_trips = 0
    for rep in rng.choice(config.reps, size=ORACLE_REPS[workload], replace=False):
        noise = config.sigma * harness.rep_stream(
            config.master_seed, int(rep)).standard_normal(config.n)
        if config.fixed_design:
            data = design.replace_y(design.y + noise)
        else:  # the replication's own design, drawn as the harness draws it
            Xr = harness._stream(config.master_seed, 3, int(rep)).standard_normal(
                (config.n, config.p)) @ chol.T
            data = Dataset(Xr, Xr @ beta + noise, names)
        S_hat, _ = best_subset(data, spec)
        for ti in rng.choice(len(points), size=ORACLE_TARGETS, replace=False):
            target = InferenceTarget.prediction_mean(points[ti])
            eta = eta_for_target(data, S_hat, target)
            dec = decompose(data.y, eta)
            event = selection_event(data, dec, S_hat, spec)
            lam = (estimate_sigma(data, S_hat, SigmaSpec.mse_aic())
                   * math.sqrt(dec.eta_norm2))
            ends = event.region.endpoints()
            for t in np.linspace(dec.eta_dot_y - 8 * lam, dec.eta_dot_y + 8 * lam,
                                 ORACLE_GRID[workload]):
                if any(abs(t - e) < 1e-7 for e in ends):
                    continue
                winner, _ = best_subset(
                    data.replace_y(t * dec.eta_tilde + dec.z), spec)
                if event.region.contains(float(t)) != (winner == S_hat):
                    raise CheckFailed(
                        f"reselection oracle: rep {rep}, target {ti}, t={t!r}")
                checked += 1
            for strat in config.sigma_strategies:
                ci = corrected_ci(data, None, S_hat, target, alpha, strat, spec,
                                  event=event)
                scale = ci.sigma_used * math.sqrt(dec.eta_norm2)
                for mu, want in ((ci.lower, 1.0 - alpha / 2.0),
                                 (ci.upper, alpha / 2.0)):
                    if not math.isfinite(mu):
                        continue
                    back = truncated_cdf(dec.eta_dot_y, TruncatedNormalSpec(
                        mu=mu, lam=scale, region=event.region))
                    if abs(back - want) > ROUND_TRIP_TOL:
                        raise CheckFailed(
                            f"round trip: rep {rep}, target {ti}, "
                            f"{strat.label}: cdf {back!r} vs {want}")
                    round_trips += 1
    return f"{checked} grid points, {round_trips} endpoints"


def check_analyze_output(code: int, text: str) -> None:
    if code != 0:
        raise CheckFailed(f"analyze exited with code {code}")
    doc = json.loads(text)
    rows = {(r["name"], r["strategy"], r["method"]): r for r in doc["targets"]}
    for name, (lo, hi) in GOLDEN_CLASSICAL.items():
        row = rows[(name, "mse_full", "classical_t")]
        if (abs(row["lower"] - lo) > GOLDEN_CLASSICAL_TOL
                or abs(row["upper"] - hi) > GOLDEN_CLASSICAL_TOL):
            raise CheckFailed(f"classical {name} ({row['lower']}, "
                              f"{row['upper']}) vs golden ({lo}, {hi})")
    prod = rows[("Production", "mse_full", "corrected")]
    lo, hi = GOLDEN_CORRECTED_PRODUCTION
    if (abs(prod["lower"] - lo) > GOLDEN_CORRECTED_TOL
            or abs(prod["upper"] - hi) > GOLDEN_CORRECTED_TOL):
        raise CheckFailed(f"corrected Production ({prod['lower']}, "
                          f"{prod['upper']}) vs golden ({lo}, {hi})")
    for (name, strategy, method), row in rows.items():
        if method == "corrected" and not (math.isfinite(row["lower"])
                                          and math.isfinite(row["upper"])):
            raise CheckFailed(f"infinite corrected endpoint: {name} {strategy}")


def check_analyze_calls(calls) -> list:
    """Checks every call and returns the failures, one message per call.  All
    outputs of one input must also agree once ``generated_at`` is removed."""
    failures = []
    first = None
    for i, call in enumerate(calls):
        try:
            check_analyze_output(call.code, call.text)
            doc = canonical(json.loads(call.text))
            if first is None:
                first = doc
            elif doc != first:
                raise CheckFailed("output differs from the first call's")
        except (CheckFailed, KeyError, ValueError) as exc:
            failures.append(f"call {i}: {exc}")
    return failures


def check_traced_replications(per_call_counts, reps: int) -> None:
    """``linmodel.thin_q.calls_in_loop`` needs one ``rep_stream`` call at the
    start of each replication, as ``replication_clock`` does."""
    for counts in per_call_counts:
        got = counts["calls"].get("harness.rep_stream", 0)
        if got != reps:
            raise CheckFailed(f"replication clock lost: harness.rep_stream "
                              f"was called {got} times for {reps} replications")


def check_trace_determinism(per_call_counts) -> None:
    first = per_call_counts[0]
    for counts in per_call_counts[1:]:
        if counts != first:
            raise CheckFailed("traced calls on equal inputs gave different "
                              "call counts or region statistics")


# --------------------------------------------------------------------------
# metrics


def layer_metrics(tracer, units: int, traced_wall: float, overhead: float,
                  build_s: float, peak_mb: float) -> dict:
    """Per-layer metrics of the traced calls, per unit of work (``units``)."""
    from layer_trace import TRACED

    def m(value, unit):
        return {"value": value, "unit": unit}

    metrics = {}
    for layer, path, _, reported in TRACED:
        if not reported:
            continue
        name = f"{layer}.{path}"
        short = f"{layer}.{path.rsplit('.', 1)[-1]}"
        if reported == "all":
            metrics[f"{short}.calls"] = m(tracer.calls[name] / units, "calls/op")
        metrics[f"{short}.self_ms"] = m(1e3 * tracer.self_s[name] / units, "ms/op")
        if reported == "all":
            metrics[f"{short}.errors"] = m(tracer.errors[name] / units,
                                           "errors/op")
    metrics["linmodel.thin_q.calls_in_loop"] = m(
        tracer.thin_q_in_loop / units, "calls/op")
    metrics["criteria.candidate_set.build_s"] = m(build_s, "s")
    metrics["criteria.candidate_set.peak_alloc_mb"] = m(peak_mb, "MB")
    pieces, skips = tracer.region_pieces, tracer.superset_skip
    metrics["geometry.region_pieces_mean"] = m(
        statistics.fmean(pieces) if pieces else 0.0, "pieces")
    metrics["geometry.superset_skip_frac"] = m(
        statistics.fmean(skips) if skips else 0.0, "ratio")
    for layer, secs in tracer.layer_self_s().items():
        metrics[f"{layer}.self_share"] = m(secs / traced_wall, "ratio")
    metrics["trace.overhead_frac"] = m(overhead, "ratio")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# one run


class Workload:
    """A workload's inputs, its timed calls, and the checks on their outputs."""

    def __init__(self, name: str, seed: int):
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)
        self.name = name
        self.seed = seed
        self.is_sim = name in SIMULATIONS
        self.config = simulation_config(name, seed) if self.is_sim else None
        self.csv_path = analyze_csv(seed)
        self.argv = analyze_argv(self.csv_path)
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.rss_mb = 0.0

    def ops(self, calls) -> int:
        """Operations done: replications, or analyze calls."""
        return self.config.reps * len(calls) if self.is_sim else len(calls)

    def loop(self, seconds: float, min_calls: int) -> List[Call]:
        """Timed, normalized calls until their raw time reaches ``seconds``.

        Sets ``rss_mb`` once ``min_calls`` calls are done, since the number
        of later calls depends on how fast the host is.  Garbage of earlier
        calls (the library's Dataset and CandidateSet reference each other)
        is collected before each call, so it does not raise the mark."""
        calls: List[Call] = []
        cal = calibration_ms()
        while len(calls) < min_calls or sum(c.wall for c in calls) < seconds:
            gc.collect()  # the previous call's garbage, outside the timing
            if self.is_sim:
                calls.append(timed_simulation(self.config, cal))
            else:
                calls.append(timed_analyze(self.argv, cal))
            cal = calls[-1].cal_ms[-1]
            if len(calls) == min_calls:
                self.rss_mb = peak_rss_mb()
        return calls

    def guarded(self, what, fn, *args):
        """Run one check; a failure is counted and reported, not raised."""
        try:
            detail = fn(*args)
        except CheckFailed as exc:
            self.failed += 1
            self.messages.append(f"check failed: {what}: {exc}")
            return
        self.messages.append(f"check ok: {what}" + (f" ({detail})" if detail else ""))

    def check(self, calls) -> None:
        self.attempted += self.ops(calls)
        if self.is_sim:
            reports = [c.report for c in calls]
            self.failed += sum(len(r.failures) for r in reports)
            self.guarded("reports complete, repeat bit-identically and match "
                         "the reference", check_simulation_reports, self.name,
                         self.config, reports, self.reference)
            self.guarded("reselection oracle and CDF round trip", oracle_checks,
                         self.name, self.config, self.seed)
        else:
            failures = check_analyze_calls(calls)
            self.failed += len(failures)
            self.messages += [f"check failed: {f}" for f in failures[:5]]
            if not failures:
                self.messages.append(
                    f"check ok: {len(calls)} analyze calls exit 0, match the "
                    "golden rows, have finite corrected endpoints and repeat "
                    "identically")


def measure(w: Workload, seconds: float) -> dict:
    setup = setup_seconds(w.config, w.csv_path, SETUP_BUILDS[w.name])
    calls = w.loop(seconds, min_calls=2)  # two to compare for determinism
    op_ms = [ms for c in calls for ms in c.op_ms]
    cals = [ms for c in calls for ms in c.cal_ms]
    raw_rate = w.ops(calls) / sum(c.wall for c in calls)
    tail_pct, tail = tail_percentile(op_ms)
    w.messages += [
        f"calibration_ms median {statistics.median(cals)!r}, "
        f"min {min(cals)!r}, max {max(cals)!r} (reference {CAL_REF_MS})",
        f"{'reps_per_s' if w.is_sim else 'analyses_per_s'} raw "
        f"{raw_rate!r} {'replications/s' if w.is_sim else 'calls/s'}",
        f"op_ms_tail {tail!r} ms (p{tail_pct:g}: the highest percentile with "
        f">= {TAIL_MIN_BEYOND} of {len(op_ms)} samples beyond it)",
        f"op_ms_p90 {percentile(op_ms, 90.0)!r} ms",
        f"setup_s builds {setup!r}",
    ]
    w.check(calls)
    return {
        "ops_per_s": {"value": w.ops(calls) / sum(c.norm for c in calls),
                      "unit": "ops/s"},
        "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_ms_p75": {"value": percentile(op_ms, 75.0), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": w.rss_mb, "unit": "MB"},
    }


def measure_traced(w: Workload, seconds: float) -> dict:
    """Untraced and traced calls in alternating pairs after one untimed
    call; per-layer split of the traced calls."""
    from subsetci import criteria
    from layer_trace import Tracer

    t0 = time.perf_counter()
    criteria.candidate_set(fresh_dataset(w.config, w.csv_path))
    build_s = time.perf_counter() - t0
    peak_mb = candidate_set_peak_mb(w.config, w.csv_path)
    tracer = Tracer()
    # The first full-size call grows the heap; keep it out of the comparison.
    plain: List[Call] = [traced_call(w, None)]
    traced: List[Call] = []
    timed: List[Call] = []
    while len(traced) < 2 or sum(c.wall for c in timed) < seconds:
        # alternate which side of a pair runs first, so drift cancels
        pair = (None, tracer) if len(traced) % 2 else (tracer, None)
        for t in pair:
            call = traced_call(w, t)
            (plain if t is None else traced).append(call)
            timed.append(call)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"trace-{w.name}-seed{w.seed}.json"))
    if tracer.absent:
        w.messages.append("absent (no longer in the library): "
                          + ", ".join(tracer.absent))
    w.guarded("traced calls repeat their counts exactly",
              check_trace_determinism, [c.counts for c in traced])
    if w.is_sim:
        w.guarded("one rep_stream call per replication",
                  check_traced_replications, [c.counts for c in traced],
                  w.config.reps)
    w.check(plain + traced)
    traced_wall = sum(c.wall for c in traced)
    overhead = 1.0 - sum(c.wall for c in plain[1:]) / traced_wall
    return layer_metrics(tracer, w.ops(traced), traced_wall, overhead,
                         build_s, peak_mb)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    steal0 = read_steal_ticks()
    import_library()
    sys.path.insert(0, HERE)
    w = Workload(args.workload, args.seed)
    warm_up(w.csv_path)
    try:
        if args.trace:
            metrics = measure_traced(w, args.seconds)
        else:
            metrics = measure(w, args.seconds)
    except CheckFailed as exc:
        print(f"bench: check failed, no result: {exc}", file=sys.stderr)
        return 1
    host = host_record()
    host["steal_ticks"] = read_steal_ticks() - steal0
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {w.name} seed {w.seed} trace {args.trace}")
    for line in w.messages:
        print(line)
    print(f"failed_frac {w.failed / w.attempted!r} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    correct = w.failed == 0
    print(json.dumps({"correct": correct, "attempted": w.attempted,
                      "failed": w.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
