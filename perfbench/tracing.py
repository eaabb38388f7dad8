"""Spans around calls into each layer, recorded from the benchmark's side.

``Tracer.installed()`` replaces each traced function in the module its
callers look it up in (``alps.core.eval_basis``, ``scipy.linalg.eigh``, ...)
with a wrapper that records one span per call: id, name, start, end,
parent span and thread. Each thread keeps its own stack of open spans, so
spans started in the CLI's batch pool nest under their own thread's spans.
Spans stay in memory until ``write`` dumps them as JSON.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from contextlib import contextmanager


# The default LambdaGrid's lower end: a fit whose lambda_hat sits on it
# counts in core.lambda_floor_fits.
LAMBDA_FLOOR = 1e-4


def _entries(args, kwargs, result):
    return {"entries": int(result.values.size)}


def _eigh_size(args, kwargs, result):
    return {"c": int(args[0].shape[0])}


def _fit_summary(args, kwargs, result):
    scan = result.fit_metadata.scan
    return {
        "rows": len(scan),
        "finite": sum(1 for _, _, cost in scan if math.isfinite(cost)),
        "m_max": max(m for m, _, _ in scan),
        "m_hat": result.knot_vector.m,
        "lambda_hat": result.lambda_hat,
    }


# (module, attribute, span name, summary of the call). Functions are
# replaced where their callers look them up: core imports the basis and
# solver functions into its own namespace, outliers imports eval_basis,
# the CLI imports the CSV functions, and the solver calls scipy.linalg.eigh
# through the module.
TARGETS = (
    ("alps.core", "build_knot_vector", "basis.knots", None),
    ("alps.core", "eval_basis", "basis.eval", _entries),
    ("alps.outliers", "eval_basis", "basis.eval", _entries),
    ("alps.core", "eval_basis_derivative", "basis.deriv", None),
    ("alps.core", "minimize_gcv_lambda", "solver.search", None),
    ("scipy.linalg", "eigh", "solver.eigh", _eigh_size),
    ("alps.core", "fit_penalized", "solver.refit", None),
    ("alps.core", "fit", "core.scan", _fit_summary),
    ("alps.core", "predict", "core.band", None),
    ("alps.core", "predict_derivative", "core.band", None),
    ("alps.core", "save_model", "core.model_io", None),
    ("alps.core", "load_model", "core.model_io", None),
    ("alps.outliers", "detect_and_refit", "outliers.flag", None),
    ("alps.fusion", "reconstruct", "fusion.reconstruct", None),
    ("alps.cli", "read_timeseries", "timeseries.csv", None),
    ("alps.cli", "write_timeseries", "timeseries.csv", None),
    ("alps.cli", "_run_batch_fit", "cli.batch", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, summary=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, start = None, time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = summary(args, kwargs, result) if summary and result is not None else None
                # list.append is atomic under the interpreter lock, so pool
                # threads may record concurrently.
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), attrs))

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, summary in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, summary))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
        rows = [dict(zip(keys, s)) for s in self.spans]
        for row in rows:
            row["start"] -= self.origin
            row["end"] -= self.origin
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def layer_metrics(spans) -> dict:
    """Self times, counts and ratios from a list of spans.

    A span's self time is its duration minus the durations of its children;
    children run inside their parent on the parent's thread, so their
    intervals do not overlap.
    """
    child_time = {}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_s, calls = {}, {}
    for span_id, name, start, end, _, _, _ in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        calls[name] = calls.get(name, 0) + 1

    def attrs(name):
        return [s[6] for s in spans if s[1] == name and s[6] is not None]

    fits = attrs("core.scan")
    rows = sum(f["rows"] for f in fits)
    batches = [s for s in spans if s[1] == "cli.batch"]
    busy = 0.0
    for _, _, b_start, b_end, _, _, _ in batches:
        fit_time = sum(s[3] - s[2] for s in spans
                       if s[1] == "core.scan" and b_start <= s[2] <= b_end)
        busy += fit_time / (b_end - b_start)
    return {
        "basis.knots_s": self_s.get("basis.knots", 0.0),
        "basis.eval_s": self_s.get("basis.eval", 0.0),
        "basis.eval_calls": calls.get("basis.eval", 0),
        "basis.eval_entries": sum(a["entries"] for a in attrs("basis.eval")),
        "basis.deriv_s": self_s.get("basis.deriv", 0.0),
        "solver.search_s": self_s.get("solver.search", 0.0),
        "solver.search_calls": calls.get("solver.search", 0),
        "solver.eigh_s": self_s.get("solver.eigh", 0.0),
        "solver.eigh_calls": calls.get("solver.eigh", 0),
        "solver.eigh_work": sum(a["c"] ** 3 for a in attrs("solver.eigh")),
        "solver.refit_s": self_s.get("solver.refit", 0.0),
        "core.scan_s": self_s.get("core.scan", 0.0),
        "core.scan_rows": rows,
        "core.scan_finite_ratio": sum(f["finite"] for f in fits) / rows if rows else 0.0,
        "core.m_scanned.max": max((f["m_max"] for f in fits), default=0),
        "core.m_hat.max": max((f["m_hat"] for f in fits), default=0),
        "core.lambda_floor_fits": sum(1 for f in fits if f["lambda_hat"] == LAMBDA_FLOOR),
        "core.band_s": self_s.get("core.band", 0.0),
        "core.model_io_s": self_s.get("core.model_io", 0.0),
        "outliers.flag_s": self_s.get("outliers.flag", 0.0),
        "fusion.reconstruct_s": self_s.get("fusion.reconstruct", 0.0),
        "timeseries.csv_s": self_s.get("timeseries.csv", 0.0),
        "cli.batch_busy_ratio": busy / len(batches) if batches else 0.0,
    }
