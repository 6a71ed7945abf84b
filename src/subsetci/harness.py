"""Simulation studies, CSV analysis, and report emission.

Replication streams are pure functions of ``(master_seed, rep_index)`` via
counter-based Philox generators, so the replication loop can be sharded
across processes without changing any number in the report.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import errors
from .criteria import (
    Criterion,
    CriterionSpec,
    ScoredModel,
    best_subset,
    candidate_set,
)
from .geometry import (
    SelectionEvent,
    cut_comparisons,
    event_regions,
    measure,
    selection_events,
)
from .inference import (
    InferenceTarget,
    LINEAR_COMBO,
    METHOD_CORRECTED,
    PREDICTION_MEAN,
    SigmaSpec,
    interval_cells,
    interval_table,
    solve_intervals,
    target_directions,
)
from .intervals import padded_rows
from .linmodel import (
    Dataset,
    INTERCEPT_FORCED,
    INTERCEPT_NONE,
    IndexSet,
    adjusted_coefficients,
)

UNCORRECTED = "uncorrected"
CORRECTED = "corrected"

# The formats a report is written in (``emit_report``).
REPORT_FORMATS = ("json", "csv", "plotdata")

# Replications per block of the coverage loop: each block's corrected
# intervals come from one truncated-normal solve.
BLOCK = 16


# --------------------------------------------------------------------------
# reproducible streams


def _stream(master_seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def rep_stream(master_seed: int, rep_index: int) -> np.random.Generator:
    """The noise stream of one replication; independent of scheduling."""
    return _stream(master_seed, 2, rep_index)


# --------------------------------------------------------------------------
# configuration


def _cell_names(targets: Sequence[InferenceTarget]) -> List[str]:
    """The study's name for each target's cells: ``x<i>`` for a prediction
    in place i, the target's label otherwise."""
    return [f"x{i}" if t.kind == PREDICTION_MEAN else t.label()
            for i, t in enumerate(targets, start=1)]


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    p: int
    beta: Tuple[float, ...]
    rho: float
    sigma: float
    reps: int
    alpha: float = 0.05
    criterion: Criterion = Criterion.AIC
    sigma_strategies: Optional[Tuple[SigmaSpec, ...]] = None
    targets: Optional[Tuple[InferenceTarget, ...]] = None
    n_new_points: int = 10
    master_seed: int = 20250401
    fixed_design: bool = True
    intercept: bool = False

    def __post_init__(self):
        if self.reps < 1:
            raise errors.InputError("reps must be >= 1")
        if len(self.beta) != self.p:
            raise errors.InputError(
                f"beta has length {len(self.beta)}, expected p={self.p}")
        for j, b in enumerate(self.beta, start=1):
            if not math.isfinite(b):
                raise errors.InputError(f"beta entry {j} is {b}; it must be finite")
        if not -1.0 < self.rho < 1.0:
            raise errors.InvalidRho(f"rho must be in (-1,1), got {self.rho}")
        if not 0.0 < self.sigma < math.inf:
            raise errors.InputError("sigma must be positive and finite")
        if self.n_new_points < 1:
            raise errors.InputError("n_new_points must be >= 1")
        if self.master_seed < 0:
            raise errors.InputError("master_seed must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise errors.InputError("alpha must be in (0,1)")
        if self.sigma_strategies is not None and not self.sigma_strategies:
            raise errors.InputError("sigma_strategies must name at least one strategy")
        names = (("Intercept",) if self.intercept else ()) + tuple(
            f"x{j}" for j in range(1, self.p + 1))  # design columns
        width = len(names)
        for t in self.targets or ():
            if t.kind == LINEAR_COMBO:
                raise errors.InputError(
                    "a linear-combination target has no study truth yet; "
                    "use prediction or coefficient targets")
            if t.kind == PREDICTION_MEAN and len(t.x) != width:
                raise errors.DimensionMismatch(
                    f"prediction point has length {len(t.x)}, expected {width}")
            if t.index is not None and not 1 <= t.index <= width:
                raise errors.IndexOutOfRange(
                    f"coefficient index {t.index} is outside 1..{width}")
            if t.name is not None and t.name not in names:
                raise errors.IndexOutOfRange(
                    f"no design column named {t.name!r}; expected one of {names}")
        cells = _cell_names(self.targets or ())
        for j, name in enumerate(cells):
            if name in cells[:j]:
                raise errors.InputError(
                    f"targets {cells.index(name) + 1} and {j + 1} share the "
                    f"cell name {name!r}")

    def resolved_strategies(self) -> Tuple[SigmaSpec, ...]:
        if self.sigma_strategies is not None:
            return self.sigma_strategies
        return (SigmaSpec.known(self.sigma), SigmaSpec.mse_aic(), SigmaSpec.mse_full())


_CONFIG_BOOL = {"true": True, "false": False, "on": True, "off": False,
                "yes": True, "no": False, "1": True, "0": False}


def parse_config_text(text: str) -> SimulationConfig:
    """Parse the flat ``key = value`` simulation config format."""
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise errors.ParseError(
                f"expected 'key = value', got {stripped!r}", row=lineno)
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key in raw:
            raise errors.ParseError(f"duplicate config key {key!r}", row=lineno)
        raw[key] = value.strip()

    def want(key, default=None):
        return raw.pop(key, default)

    try:
        kwargs = {}
        for key, conv in (("n", int), ("p", int), ("reps", int),
                          ("n_new_points", int), ("master_seed", int),
                          ("rho", float), ("sigma", float), ("alpha", float)):
            v = want(key)
            if v is not None:
                kwargs[key] = conv(v)
        v = want("beta")
        if v is not None:
            kwargs["beta"] = tuple(float(s) for s in v.split(",") if s.strip())
        v = want("criterion")
        if v is not None:
            kwargs["criterion"] = Criterion.parse(v)
        v = want("sigma_strategies")
        if v is not None:
            kwargs["sigma_strategies"] = tuple(
                SigmaSpec.parse(s) for s in v.split(",") if s.strip())
        for key in ("fixed_design", "intercept"):
            v = want(key)
            if v is not None:
                if v.lower() not in _CONFIG_BOOL:
                    raise errors.ParseError(f"cannot parse boolean {v!r} for {key}")
                kwargs[key] = _CONFIG_BOOL[v.lower()]
    except ValueError as exc:
        raise errors.ParseError(f"bad config value: {exc}") from None
    if raw:
        raise errors.ParseError(f"unknown config keys: {sorted(raw)}")
    for required in ("n", "p", "beta", "rho", "sigma", "reps"):
        if required not in kwargs:
            raise errors.ParseError(f"config is missing required key {required!r}")
    return SimulationConfig(**kwargs)


# --------------------------------------------------------------------------
# design generation


def _ar1_cholesky(config: SimulationConfig) -> np.ndarray:
    """Cholesky factor of the AR(1) covariance ``Sigma_jk = rho^|j-k|``."""
    if not -1.0 < config.rho < 1.0:
        raise errors.InvalidRho(f"rho must be in (-1,1), got {config.rho}")
    idx = np.arange(config.p)
    return np.linalg.cholesky(config.rho ** np.abs(idx[:, None] - idx[None, :]))


def generate_design(config: SimulationConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Design matrix rows and evaluation points, both iid N(0, Sigma) with
    AR(1) covariance ``Sigma_jk = rho^|j-k|``; deterministic in the seed."""
    chol = _ar1_cholesky(config)
    X = _stream(config.master_seed, 0).standard_normal((config.n, config.p)) @ chol.T
    points = _stream(config.master_seed, 1).standard_normal(
        (config.n_new_points, config.p)) @ chol.T
    return X, points


def _with_intercept(X: np.ndarray, y: np.ndarray, names: Sequence[str],
                    intercept: bool) -> Dataset:
    """The Dataset of ``X``, with a forced leading column of ones if asked."""
    if intercept:
        return Dataset(np.column_stack([np.ones(X.shape[0]), X]), y,
                       ("Intercept", *names), intercept_policy=INTERCEPT_FORCED)
    return Dataset(X, y, tuple(names), intercept_policy=INTERCEPT_NONE)


def _design_dataset(config: SimulationConfig, X: np.ndarray, y: np.ndarray) -> Dataset:
    return _with_intercept(X, y, [f"x{j}" for j in range(1, config.p + 1)],
                           config.intercept)


# --------------------------------------------------------------------------
# coverage simulation


@dataclass
class CoverageCell:
    target: str
    strategy: str
    method: str
    hits: int
    count: int
    alpha: float

    @property
    def coverage(self) -> float:
        return self.hits / self.count if self.count else math.nan

    @property
    def stderr(self) -> float:
        if not self.count:
            return math.nan
        c = self.coverage
        return math.sqrt(c * (1.0 - c) / self.count)

    @property
    def relative_loss(self) -> float:
        if not self.count:
            return math.nan
        return max(0.0, 1.0 - self.coverage / (1.0 - self.alpha))


@dataclass
class CoverageReport:
    config: SimulationConfig
    cells: List[CoverageCell]
    histogram: Dict[int, int]
    per_size: Dict[Tuple[int, str, str], Tuple[int, int]]
    sigma_means: Dict[str, float]
    sigma_contribution: Optional[float]
    pivots: Dict[Tuple[str, str], np.ndarray]
    reps_completed: int
    failures: List[Tuple[int, str]]

    def pooled_coverage(self, strategy: str, method: str) -> float:
        hits = sum(c.hits for c in self.cells
                   if c.strategy == strategy and c.method == method)
        count = sum(c.count for c in self.cells
                    if c.strategy == strategy and c.method == method)
        return hits / count if count else math.nan


def ks_uniform(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between ``values`` and Unif(0,1)."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.shape[0]
    if n == 0:
        return math.nan
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(v - grid)), np.max(np.abs(v - (grid - 1.0 / n)))))


def _truths(data: Dataset, S_hat: IndexSet, targets: Sequence[InferenceTarget],
            beta: np.ndarray, mean: np.ndarray, intercept: bool) -> np.ndarray:
    """Each target's true value given the selected model; NaN marks a
    coefficient target whose column was not selected.

    A prediction target's truth is the generating mean at its point (which
    carries a leading 1 when the design has an intercept, a term the
    generating mean does not have); a coefficient's is the coefficient the
    selected model estimates on average.
    """
    out = np.full(len(targets), np.nan)
    adjusted = None
    for i, target in enumerate(targets):
        if target.kind == PREDICTION_MEAN:
            with np.errstate(over="ignore"):  # beyond the float range: infinite
                out[i] = np.asarray(target.x, dtype=float)[int(intercept):] @ beta
            continue
        which = (target.index if target.index is not None
                 else data.index_of(target.name))
        if which in S_hat:
            if adjusted is None:
                adjusted = adjusted_coefficients(data, S_hat, mean)
            out[i] = adjusted[S_hat.position_of(which)]
    return out


def _run_rep_chunk(
    config: SimulationConfig,
    X: np.ndarray,
    targets: Tuple[InferenceTarget, ...],
    rep_lo: int,
    rep_hi: int,
) -> Dict:
    """All replications in ``[rep_lo, rep_hi)``; pure in (config, X, range).

    Replications run in blocks of ``BLOCK``.  Each replication of a block
    draws its noise, selects a model and keeps the comparisons of its
    selection events that can fail (:func:`cut_comparisons`); one
    :func:`event_regions` call solves and sweeps them for the whole block;
    each replication prepares its interval cells (:func:`interval_cells`)
    from its own regions and its cut's measurement; then one
    :func:`solve_intervals` call gives the corrected limits of every cell of
    the block and their pivots at the truths.  Every cell's numbers depend on
    that cell alone, so they do not depend on ``BLOCK``.  A target whose
    direction the cut refuses (see ``Comparisons.kept``) is not applicable in
    that replication, and the replication's other targets keep their cells.
    A replication that fails in any step fails alone, with the message a call
    of its own gives.
    """
    strategies = config.resolved_strategies()
    spec = CriterionSpec(config.criterion, config.n)
    beta = np.asarray(config.beta, dtype=float)
    n_t, n_s = len(targets), len(strategies)
    n_reps = rep_hi - rep_lo

    if config.fixed_design:
        base = _design_dataset(config, X, np.zeros(config.n))
        base_mean = X @ beta  # noiseless response under the true coefficients
        cs = candidate_set(base)
    else:
        cov_chol = _ar1_cholesky(config)

    hits_unc = np.zeros((n_reps, n_t, n_s), dtype=np.int8)
    hits_cor = np.zeros((n_reps, n_t, n_s), dtype=np.int8)
    applicable = np.zeros((n_reps, n_t), dtype=np.int8)
    pivots = np.full((n_reps, n_t, n_s), np.nan)
    sigmas = np.full((n_reps, n_s), np.nan)
    sizes = np.full(n_reps, -1, dtype=int)
    ok = np.zeros(n_reps, dtype=bool)
    failures: List[Tuple[int, str]] = []

    def fail(rep: int, exc: errors.SubsetCIError) -> None:
        failures.append((rep, f"{type(exc).__name__}: {exc}"))

    for block_lo in range(rep_lo, rep_hi, BLOCK):
        # step 1: each replication's selection and the comparisons of its
        # selection events that can fail
        staged = []  # (row, rep, data, S_hat, targets, their truths, cut)
        for rep in range(block_lo, min(block_lo + BLOCK, rep_hi)):
            row = rep - rep_lo
            noise = rep_stream(config.master_seed, rep).standard_normal(config.n)
            if config.fixed_design:
                mean_r = base_mean
                data = base.replace_y(base_mean + config.sigma * noise)
                local_cs = cs
            else:
                Z = _stream(config.master_seed, 3, rep).standard_normal(
                    (config.n, config.p))
                Xr = Z @ cov_chol.T
                mean_r = Xr @ beta
                data = _design_dataset(config, Xr, mean_r + config.sigma * noise)
                local_cs = candidate_set(data)
            try:
                scores, _ = local_cs.scores(data.y, spec)
                S_hat = local_cs.models[int(np.argmin(scores))]
                sizes[row] = data.free_size(S_hat)
                truth = _truths(data, S_hat, targets, beta, mean_r, config.intercept)
                rows_t = np.flatnonzero(~np.isnan(truth))
                # every applicable target's direction and comparisons for the
                # whole replication, each in one call
                etas = target_directions(data, S_hat, [targets[i] for i in rows_t])
                cut = cut_comparisons(data, data.y, etas, S_hat, spec)
            except errors.NumericalError as exc:
                fail(rep, exc)
                continue
            # a target whose direction the cut refuses (zero, say: a point
            # that is zero on every selected column) is not applicable
            rows_t = rows_t[cut.kept]
            staged.append((row, rep, data, S_hat, rows_t, truth[rows_t], cut))

        # step 2: one solve and one sweep for the block's event regions;
        # step 3: each replication's interval cells from its regions
        pending = []  # (row, rep, applicable targets, their truths, cells)
        for (row, rep, data, S_hat, rows_t, truth, cut), regions in zip(
                staged, event_regions([s[-1] for s in staged])):
            if isinstance(regions, errors.InvariantViolation):
                fail(rep, regions)
                continue
            try:
                cells = interval_cells(data, S_hat, *cut.measurement, regions,
                                       strategies, config.alpha)
            except errors.NumericalError as exc:
                fail(rep, exc)
                continue
            sigmas[row] = cells.sigmas
            applicable[row, rows_t] = 1
            t = truth[:, None]
            x = cells.points[:, None]
            hits_unc[row, rows_t] = (x - cells.half < t) & (t < x + cells.half)
            pending.append((row, rep, rows_t, truth, cells))

        # step 4: one solve for the block's limits and pivots
        tables = solve_intervals([p[4] for p in pending], [p[3] for p in pending])
        for (row, rep, rows_t, truth, _), table in zip(pending, tables):
            if isinstance(table, errors.RegionMassUnderflow):
                fail(rep, table)
                continue
            t = truth[:, None]
            hits_cor[row, rows_t] = (table.lower < t) & (t < table.upper)
            pivots[row, rows_t] = table.pivots
            ok[row] = True
    failures.sort(key=lambda f: f[0])

    return dict(hits_unc=hits_unc, hits_cor=hits_cor, applicable=applicable,
                pivots=pivots, sigmas=sigmas, sizes=sizes, ok=ok, failures=failures)


def simulate_coverage(config: SimulationConfig, workers: int = 1) -> CoverageReport:
    """Replicate the data-generating process and tabulate interval coverage.

    Every replication draws fresh noise, reruns the subset search, and builds
    classical and corrected intervals for each target and noise strategy; the
    report aggregates containment of the true target values.
    """
    X, points = generate_design(config)
    if config.targets is not None:
        targets = config.targets
    else:
        if config.intercept:
            pts = np.column_stack([np.ones(points.shape[0]), points])
        else:
            pts = points
        targets = tuple(InferenceTarget.prediction_mean(x) for x in pts)
    strategies = config.resolved_strategies()

    workers = max(1, min(int(workers), config.reps, os.cpu_count() or 1))
    bounds = np.linspace(0, config.reps, workers + 1).astype(int)
    chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
              if hi > lo]
    if len(chunks) == 1:
        results = [_run_rep_chunk(config, X, targets, *chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_run_rep_chunk, config, X, targets, lo, hi)
                       for lo, hi in chunks]
            results = [f.result() for f in futures]

    hits_unc, hits_cor, applicable, pivots, sigmas, sizes, ok = (
        np.concatenate([r[key] for r in results]) for key in (
            "hits_unc", "hits_cor", "applicable", "pivots", "sigmas", "sizes", "ok"))
    failures = [f for r in results for f in r["failures"]]

    t_names = _cell_names(targets)
    s_names = [s.label for s in strategies]

    cells: List[CoverageCell] = []
    pivot_store: Dict[Tuple[str, str], np.ndarray] = {}
    for ti, tname in enumerate(t_names):
        mask = ok & (applicable[:, ti] == 1)
        count = int(mask.sum())
        for si, sname in enumerate(s_names):
            cells.append(CoverageCell(tname, sname, UNCORRECTED,
                                      int(hits_unc[mask, ti, si].sum()),
                                      count, config.alpha))
            cells.append(CoverageCell(tname, sname, CORRECTED,
                                      int(hits_cor[mask, ti, si].sum()),
                                      count, config.alpha))
            pivot_store[(tname, sname)] = pivots[mask, ti, si]

    histogram: Dict[int, int] = {}
    for s in sizes[ok]:
        histogram[int(s)] = histogram.get(int(s), 0) + 1

    per_size: Dict[Tuple[int, str, str], Tuple[int, int]] = {}
    for size in sorted(histogram):
        smask = ok & (sizes == size)
        napp = int(applicable[smask].sum())
        for si, sname in enumerate(s_names):
            h_u = int((hits_unc[smask, :, si] * applicable[smask]).sum())
            h_c = int((hits_cor[smask, :, si] * applicable[smask]).sum())
            per_size[(size, sname, UNCORRECTED)] = (h_u, napp)
            per_size[(size, sname, CORRECTED)] = (h_c, napp)

    sigma_means = {
        sname: float(np.mean(sigmas[ok, si])) if ok.any() else math.nan
        for si, sname in enumerate(s_names)
    }

    report = CoverageReport(
        config=dataclasses.replace(config, targets=targets),
        cells=cells,
        histogram=histogram,
        per_size=per_size,
        sigma_means=sigma_means,
        sigma_contribution=None,
        pivots=pivot_store,
        reps_completed=int(ok.sum()),
        failures=failures,
    )
    known_like = next((s.label for s in strategies
                       if s.strategy in ("known", "external")), None)
    if known_like is not None and "mse_aic" in s_names:
        level = 1.0 - config.alpha
        loss_t = level - min(level, report.pooled_coverage("mse_aic", UNCORRECTED))
        loss_known = level - min(level, report.pooled_coverage(known_like, UNCORRECTED))
        if loss_t > 0:
            report.sigma_contribution = 1.0 - loss_known / loss_t
    return report


# --------------------------------------------------------------------------
# CSV analysis


def load_csv_dataset(
    csv_path: str,
    response_column: str,
    intercept: bool = True,
) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset."""
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise errors.ParseError("CSV file is empty") from None
            header = [h.strip() for h in header]
            for j, name in enumerate(header):
                if name in header[:j]:
                    raise errors.ParseError(f"column name {name!r} repeats in the header")
            if response_column not in header:
                raise errors.ParseError(
                    f"response column {response_column!r} not in header {header}")
            rows: List[List[float]] = []
            labels = set()  # columns holding non-numeric labels
            for rowno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise errors.ParseError(
                        f"expected {len(header)} fields, got {len(row)}", row=rowno)
                vals = []
                for j in range(len(header)):
                    cell = row[j].strip()
                    try:
                        vals.append(float(cell))
                    except ValueError:
                        if header[j].lower() in ("quarter", "date", "time", "index"):
                            vals.append(math.nan)  # label column, dropped below
                            labels.add(j)
                        else:
                            raise errors.ParseError(
                                f"non-numeric value {cell!r}",
                                row=rowno, column=header[j]) from None
                rows.append(vals)
    except OSError as exc:
        raise errors.IoError(f"cannot read {csv_path}: {exc}") from None
    if not rows:
        raise errors.ParseError("CSV contains no data rows")
    arr = np.asarray(rows, dtype=float)
    for j in np.flatnonzero(np.isnan(arr).any(axis=0)):
        if j not in labels or header[j] == response_column:
            raise errors.ParseError(
                f"column {header[j]!r} has a missing or non-numeric value")
    numeric = [j for j in range(len(header)) if j not in labels]
    names = [header[j] for j in numeric]
    arr = arr[:, numeric]
    yj = names.index(response_column)
    y = arr[:, yj]
    Xcols = [j for j in range(arr.shape[1]) if j != yj]
    return _with_intercept(arr[:, Xcols], y, [names[j] for j in Xcols], intercept)


@dataclass
class AnalysisRow:
    target: str
    strategy: str
    method: str
    lower: float
    upper: float
    point: float
    pivot: Optional[float]
    sigma_used: float


@dataclass
class AnalysisReport:
    source: str
    response: str
    criterion: Criterion
    alpha: float
    intercept: bool
    n: int
    p: int
    column_names: Tuple[str, ...]
    selected: IndexSet
    selected_names: Tuple[str, ...]
    scores: List[ScoredModel]
    rows: List[AnalysisRow]
    events: List[Tuple[str, SelectionEvent]] = field(default_factory=list)

    @property
    def excluded_regions(self) -> List[Tuple[str, Tuple[Tuple[float, float], ...]]]:
        """Each target's excluded set: its event region's complement."""
        return [(t, e.region.complement().intervals) for t, e in self.events]


def dataset_report(
    data: Dataset,
    criterion: Criterion,
    alpha: float,
    sigma_strategies: Sequence[SigmaSpec],
    targets: Optional[Sequence[InferenceTarget]] = None,
    source: str = "<memory>",
    response: str = "y",
) -> AnalysisReport:
    """Select a model and build intervals for the requested targets.

    ``targets`` defaults to one coefficient target per selected column.
    """
    if not 0.0 < alpha < 1.0:
        raise errors.InputError(f"alpha must be in (0,1), got {alpha}")
    spec = CriterionSpec(criterion, data.n)
    selected, scored = best_subset(data, spec)
    if targets is None:
        targets = [InferenceTarget.coefficient(data.name_of(i))
                   for i in selected.indices]
    events_out: List[Tuple[str, SelectionEvent]] = []
    rows: List[AnalysisRow] = []
    if sigma_strategies and targets:
        etas = target_directions(data, selected, targets)
        events = selection_events(data, data.y, etas, selected, spec)
        table = interval_table(data, selected, *measure(data.y, etas),
                               padded_rows([e.region for e in events]),
                               sigma_strategies, alpha, np.zeros(len(targets)))
        # a classical then a corrected row per (target, strategy)
        cols = zip(table.points.tolist(), table.half.tolist(), table.lower.tolist(),
                   table.upper.tolist(), table.pivots.tolist())
        for target, event, (point, half, lower, upper, pivot) in zip(targets, events, cols):
            tlabel = target.label(data)
            events_out.append((tlabel, event))
            for j, strat in enumerate(sigma_strategies):
                sigma = float(table.sigmas[j])
                rows.append(AnalysisRow(tlabel, strat.label, table.methods[j],
                                        point - half[j], point + half[j], point,
                                        None, sigma))
                rows.append(AnalysisRow(tlabel, strat.label, METHOD_CORRECTED,
                                        lower[j], upper[j], point, pivot[j], sigma))
    return AnalysisReport(
        source=source,
        response=response,
        criterion=criterion,
        alpha=alpha,
        intercept=data.intercept_policy == INTERCEPT_FORCED,
        n=data.n,
        p=data.p,
        column_names=data.column_names,
        selected=selected,
        selected_names=tuple(data.name_of(i) for i in selected.indices),
        scores=scored,
        rows=rows,
        events=events_out,
    )


# --------------------------------------------------------------------------
# report emission


def selection_event_to_dict(event: SelectionEvent) -> Dict:
    """Structured form of a selection event: region plus every comparison's
    endpoints and skip reason."""
    return {
        "selected": list(event.selected.indices),
        "region": [[lo, hi] for lo, hi in event.region.intervals],
        "excluded": [[lo, hi] for lo, hi in event.region.complement().intervals],
        "comparisons": [
            {
                "competitor": list(c.competitor.indices),
                "intervals": (None if c.region is None
                              else [[lo, hi] for lo, hi in c.region.intervals]),
                "skipped": c.skipped,
                "reason": c.reason,
            }
            for c in event.comparisons
        ],
    }


def _schema_skeleton() -> Dict:
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {},
        "selected_model": None,
        "scores": [],
        "targets": [],
        "coverage": [],
        "histogram": [],
        "excluded_regions": [],
    }


def _jsonify(obj):
    """Recursively coerce to JSON-native types (tuples become lists)."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _config_dict(config: SimulationConfig) -> Dict:
    out = dataclasses.asdict(config)
    out["criterion"] = config.criterion.value
    out["sigma_strategies"] = [s.label if s.sigma is None else
                               f"{s.strategy}:{s.sigma}"
                               for s in config.resolved_strategies()]
    if config.targets is not None:
        out["targets"] = [
            {"kind": t.kind, "x": t.x, "index": t.index,
             "name": t.name, "combo": t.combo}
            for t in config.targets]
    return _jsonify(out)


def report_to_dict(report) -> Dict:
    """Unified JSON document for both report kinds (stable field names)."""
    doc = _schema_skeleton()
    if isinstance(report, CoverageReport):
        doc["config"] = _config_dict(report.config)
        # a statistic of no replication is null, as JSON has no NaN
        doc["coverage"] = [
            {"target": c.target, "strategy": c.strategy, "method": c.method,
             "coverage": c.coverage if c.count else None,
             "stderr": c.stderr if c.count else None,
             "relative_loss": c.relative_loss if c.count else None,
             "hits": c.hits, "count": c.count}
            for c in report.cells]
        doc["histogram"] = [{"size": k, "count": v}
                            for k, v in sorted(report.histogram.items())]
        doc["per_size"] = [
            {"size": size, "strategy": strategy, "method": method,
             "coverage": (h / c if c else None), "count": c}
            for (size, strategy, method), (h, c) in sorted(report.per_size.items())]
        doc["sigma_means"] = (report.sigma_means if report.reps_completed
                              else dict.fromkeys(report.sigma_means))
        doc["sigma_contribution"] = report.sigma_contribution
        doc["pivot_ks"] = [
            {"target": t, "strategy": s, "ks": ks_uniform(v) if v.size else None,
             "count": int(v.size)}
            for (t, s), v in sorted(report.pivots.items())]
        doc["reps_completed"] = report.reps_completed
        doc["failures"] = [{"rep": r, "reason": msg} for r, msg in report.failures]
        return doc
    if isinstance(report, AnalysisReport):
        doc["config"] = {
            "source": report.source, "response": report.response,
            "criterion": report.criterion.value, "alpha": report.alpha,
            "intercept": report.intercept, "n": report.n, "p": report.p,
            "columns": list(report.column_names),
        }
        doc["selected_model"] = {
            "indices": list(report.selected.indices),
            "names": list(report.selected_names),
        }
        doc["scores"] = [
            {"model": list(s.model.indices),
             "names": [report.column_names[i - 1] for i in s.model.indices],
             "score": s.score, "rss": s.rss}
            for s in report.scores]
        doc["targets"] = [
            {"name": r.target, "strategy": r.strategy, "method": r.method,
             "lower": r.lower, "upper": r.upper, "point": r.point,
             "pivot": r.pivot, "sigma_used": r.sigma_used}
            for r in report.rows]
        doc["excluded_regions"] = [
            {"target": t, "intervals": [[lo, hi] for lo, hi in pieces]}
            for t, pieces in report.excluded_regions]
        doc["events"] = [{"target": t, **selection_event_to_dict(e)}
                         for t, e in report.events]
        return doc
    raise errors.InputError(f"cannot serialize report of type {type(report)!r}")


def report_json(doc: Dict) -> str:
    """A report's JSON document as text: indented by 2, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _csv_tables(doc: Dict, format: str):
    """(file name, header, rows) of each CSV file of ``format``, read from
    the report's JSON document ``doc``."""
    study = "reps_completed" in doc
    if study and format == "csv":
        header = ["target", "strategy", "method", "coverage", "stderr", "relative_loss"]
        return [("report.csv", header, [[c[k] for k in header] for c in doc["coverage"]])]
    if study:
        # a row per target: the baseline strategy's uncorrected coverage, then
        # each strategy's corrected one (sigma_means has a key per strategy)
        strategies = list(doc["sigma_means"])
        baseline = "mse_aic" if "mse_aic" in strategies else strategies[0]
        coverage = {(c["target"], c["strategy"], c["method"]): c["coverage"]
                    for c in doc["coverage"]}
        points = dict.fromkeys(c["target"] for c in doc["coverage"])
        return [("coverage_vs_point.csv",
                 ["point", "uncorrected"] + [f"corrected_{s}" for s in strategies],
                 [[t, coverage[t, baseline, UNCORRECTED]]
                  + [coverage[t, s, CORRECTED] for s in strategies] for t in points]),
                ("size_histogram.csv", ["size", "count"],
                 [[h["size"], h["count"]] for h in doc["histogram"]])]
    # an analysis: a row's JSON name is its CSV target
    header = ["target", "strategy", "method", "lower", "upper"]
    if format == "csv":
        header += ["point", "pivot", "sigma_used"]
    return [("report.csv" if format == "csv" else "intervals.csv", header,
             [[r["name"]] + [r[k] for k in header[1:]] for r in doc["targets"]])]


def emit_report(report, format: str = "json", out_dir: str = ".") -> List[str]:
    """Write the report in the requested format, every format read from the
    report's JSON document; returns the paths written.  In a CSV file a null
    is an empty field and a float is its ``repr``."""
    if format not in REPORT_FORMATS:
        raise errors.InputError(f"unknown format {format!r}")
    doc = report_to_dict(report)
    try:
        os.makedirs(out_dir, exist_ok=True)
        if format == "json":
            path = os.path.join(out_dir, "report.json")
            with open(path, "w") as fh:
                fh.write(report_json(doc) + "\n")
            return [path]
        written: List[str] = []
        for name, header, rows in _csv_tables(doc, format):
            written.append(os.path.join(out_dir, name))
            with open(written[-1], "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(["" if v is None else repr(float(v)) if isinstance(v, float)
                             else v for v in row] for row in rows)
        return written
    except OSError as exc:
        raise errors.IoError(f"cannot write report: {exc}") from None
