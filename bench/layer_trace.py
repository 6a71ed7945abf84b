"""Tracing of subsetci's public functions from outside the library.

The tracer replaces public functions and methods of the eight library modules
by timing wrappers (attribute patching), including the names other modules
re-imported, such as ``harness.selection_event``.  Each call records a span
(name, start, end, parent); a span's self time is its duration minus the time
its traced children cover.  High-frequency leaf calls (``intervals.*``) are
aggregated into counts and self time as they happen instead of keeping one
span each.  Spans stay in memory until :meth:`Tracer.write_spans`.

A wrapped name that a later version of the library no longer has is reported
as absent, not as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("linmodel", "criteria", "intervals", "geometry", "truncnorm",
          "inference", "harness", "cli")

# (layer, attribute path in that module, leaf, reported).  Every public
# function of a layer that the workloads reach is wrapped, so that layer self
# shares add up.  Leaves are aggregated instead of keeping one span per call.
# ``reported`` says which per-layer metrics the benchmark prints for the
# function: "all" (calls, self_ms, errors), "self" (self_ms) or None.
TRACED: Tuple[Tuple[str, str, bool, Optional[str]], ...] = (
    ("linmodel", "Dataset.thin_q", False, "all"),
    ("linmodel", "fit_submodel", False, "all"),
    ("linmodel", "adjusted_coefficients", False, "all"),
    ("linmodel", "residual_project", False, None),
    ("criteria", "candidate_set", False, None),
    ("criteria", "best_subset", False, None),
    ("criteria", "CandidateSet.rss_all", False, "all"),
    ("criteria", "CandidateSet.projections", False, "all"),
    ("criteria", "CandidateSet.scores", False, "all"),
    ("geometry", "decompose", False, None),
    ("geometry", "selection_event", False, "all"),
    ("intervals", "IntervalUnion.intersect", True, "all"),
    ("intervals", "interval_union", True, "all"),
    ("truncnorm", "invert_mean", False, "all"),
    ("truncnorm", "truncated_cdf", False, "all"),
    ("inference", "eta_for_target", False, "all"),
    ("inference", "estimate_sigma", False, "all"),
    ("inference", "classical_ci", False, "all"),
    ("inference", "corrected_ci", False, "all"),
    ("harness", "simulate_coverage", False, "self"),
    ("harness", "rep_stream", True, None),
    ("harness", "load_csv_dataset", False, "all"),
    ("harness", "analyze", False, None),
    ("harness", "dataset_report", False, None),
    ("harness", "report_to_dict", False, "all"),
    ("cli", "run", False, "self"),
)


class Tracer:
    """Span recorder with per-name call counts, self time and error counts."""

    def __init__(self):
        self._stack: List[list] = []  # frames: [child_seconds, span_id]
        self._next_id = 0
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.region_pieces: List[int] = []
        self.superset_skip: List[float] = []
        self.thin_q_in_loop = 0
        self._in_loop = False
        self.absent: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, aggregate: bool,
              on_return: Optional[Callable] = None,
              on_enter: Optional[Callable] = None) -> Callable:
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            parent = stack[-1][1] if stack else -1
            if aggregate:
                sid = parent
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if not aggregate:
                    spans.append((sid, parent, name, t0, t1))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace the library for the duration of the ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Patch every traced name in every library module that binds it."""
        self.absent = []
        modules = {layer: importlib.import_module(f"subsetci.{layer}")
                   for layer in LAYERS}
        modules["__init__"] = importlib.import_module("subsetci")
        hooks = {
            "geometry.selection_event": {"on_return": self._on_selection_event},
            "harness.simulate_coverage": {"on_enter": self._on_simulation},
            "harness.rep_stream": {"on_enter": self._on_replication},
            "linmodel.Dataset.thin_q": {"on_enter": self._on_thin_q},
        }
        for layer, path, aggregate, _ in TRACED:
            name = f"{layer}.{path}"
            owner_name, _, attr = path.rpartition(".")
            home = modules[layer]
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, aggregate, **hooks.get(name, {}))
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # module-level function: rebind it wherever it was imported
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- hooks (run outside the wrapped call's span) ---------------------

    def _on_selection_event(self, args, kwargs, event) -> None:
        self.region_pieces.append(len(event.region))
        data, s_hat = args[0], args[2]
        skip = kwargs.get("skip_supersets", args[4] if len(args) > 4 else True)
        # default policy: every nonempty subset of the free columns competes,
        # so S_hat has 2^(free - |S_hat free|) - 1 strict supersets among
        # M - 1 competitors.
        free = len(data.free_indices)
        competitors = 2 ** free - 2
        supersets = 2 ** (free - data.free_size(s_hat)) - 1
        self.superset_skip.append(supersets / competitors if skip and competitors
                                  else 0.0)

    def _on_simulation(self) -> None:
        self._in_loop = False

    def _on_replication(self) -> None:
        self._in_loop = True

    def _on_thin_q(self) -> None:
        if self._in_loop:
            self.thin_q_in_loop += 1

    # -- results --------------------------------------------------------

    def snapshot(self) -> Dict:
        """Cumulative counts; for equal inputs their growth repeats exactly."""
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "region_pieces": len(self.region_pieces),
            "superset_skip": len(self.superset_skip),
            "thin_q_in_loop": self.thin_q_in_loop,
        }

    def counts_between(self, before: Dict, after: Dict) -> Dict:
        """Counts recorded between two snapshots, for determinism checks."""
        return {
            "calls": {k: v - before["calls"].get(k, 0)
                      for k, v in after["calls"].items()},
            "errors": {k: v - before["errors"].get(k, 0)
                       for k, v in after["errors"].items()},
            "region_pieces": self.region_pieces[
                before["region_pieces"]:after["region_pieces"]],
            "superset_skip": self.superset_skip[
                before["superset_skip"]:after["superset_skip"]],
            "thin_q_in_loop": after["thin_q_in_loop"] - before["thin_q_in_loop"],
        }

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return out

    def write_spans(self, path: str) -> None:
        aggregated = [f"{layer}.{attr}" for layer, attr, leaf, _ in TRACED if leaf]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans,
                       "aggregated": {name: {"calls": self.calls[name],
                                             "self_s": self.self_s[name]}
                                      for name in aggregated},
                       "absent": self.absent}, fh)
