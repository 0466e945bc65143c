"""In-process span tracing of one ``syncert.cli.main`` call.

Spans are taken from outside the program: each public function is wrapped
and the wrapper is bound at every name its callers look it up under (the
``from .x import f`` names in the importing modules, or the class attribute
for trace methods).  The package's source is untouched and every binding
is restored after the job.  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# span name -> every (module[:class], attribute) a caller resolves it through
BINDINGS = {
    "config.parse_config": [("syncert.cli", "parse_config")],
    "config.bundled_config": [("syncert.cli", "bundled_config")],
    "config.verify_sector": [("syncert.config", "verify_sector")],
    "goodwin.certify_network": [("syncert.config", "certify_network"),
                                ("syncert.goodwin", "certify_network")],
    "goodwin.search_params": [("syncert.cli", "search_params")],
    "certificates.sync_margins": [("syncert.cli", "sync_margins"),
                                  ("syncert.goodwin", "sync_margins")],
    "certificates.quadratic_forms": [("syncert.cli", "quadratic_forms"),
                                     ("syncert.certificates", "quadratic_forms")],
    "certificates.dissipation_matrices": [
        ("syncert.cli", "dissipation_matrices"),
        ("syncert.certificates", "dissipation_matrices")],
    "certificates.gain_bound": [("syncert.cli", "gain_bound")],
    "certificates.gain_bound_from_forms": [
        ("syncert.certificates", "gain_bound_from_forms")],
    "graphs.edge_stats": [("syncert.cli", "edge_stats"),
                          ("syncert.certificates", "edge_stats"),
                          ("syncert.goodwin", "edge_stats")],
    "linalg.jacobi_eigenvalues": [("syncert.certificates", "jacobi_eigenvalues"),
                                  ("syncert.graphs", "jacobi_eigenvalues")],
    "noise.normals": [("syncert.simulation", "normals")],
    "simulation.run": [("syncert.cli", "run")],
    "simulation.bound_check": [("syncert.cli", "bound_check")],
    "simulation.dissipation_curves": [("syncert.simulation:SimulationTrace",
                                       "dissipation_curves")],
    "simulation.pair_residual_curves": [("syncert.simulation:SimulationTrace",
                                         "pair_residual_curves")],
    "simulation.margin_curve": [("syncert.simulation:SimulationTrace",
                                 "margin_curve")],
}
ROOT = "cli.main"
POST = ("simulation.dissipation_curves", "simulation.pair_residual_curves",
        "simulation.margin_curve", "simulation.bound_check")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    count: int = 0


def _owner(path: str):
    """``"module"`` or ``"module:Class"`` to the object holding the name,
    or ``None`` when it does not exist."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Records the spans of the jobs run inside :meth:`job`, one list per
    job.  A span's ``parent`` indexes its job's list, whose first entry is
    the job's root span; ``count`` is the work a call did (steps, normals
    drawn, matrix size, slope samples, grid points) and, on the root, the
    bytes of the traces the job kept."""

    def __init__(self) -> None:
        self.jobs: list[list[Span]] = []
        self.missing: set[str] = set()
        self._traces: list = []

    def _wrap(self, name: str, fn, spans: list[Span], stack: list[int]):
        clock = time.perf_counter
        job_id = len(self.jobs) - 1
        traces = self._traces

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1], job_id))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            spans[idx].count = _work_count(name, args, result, traces)
            return result

        return wrapper

    @contextmanager
    def job(self):
        """Trace one in-process job: bind the wrappers, open the root span,
        and restore every original binding afterwards.  Yields the job's
        span list."""
        spans = [Span(ROOT, 0.0, 0.0, None, len(self.jobs))]
        self.jobs.append(spans)
        stack = [0]
        saved = []
        try:
            for name, sites in BINDINGS.items():
                wrapped = {}
                for path, attr in sites:
                    owner = _owner(path)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:
                        # a later version may drop this name; its span reads 0
                        self.missing.add(f"{path}.{attr}")
                        continue
                    if id(original) not in wrapped:
                        wrapped[id(original)] = self._wrap(name, original,
                                                           spans, stack)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapped[id(original)])
            spans[0].start = time.perf_counter()
            yield spans
        finally:
            spans[0].end = time.perf_counter()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            spans[0].count = trace_bytes(self._traces)
            self._traces.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.jobs:
                for s in spans:
                    fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def _work_count(name: str, args, result, traces: list) -> int:
    """Work done by one call, recorded on its span."""
    if name == "simulation.run":
        traces.append(result)
        return int(result.steps)
    if name == "noise.normals":
        return int(args[1])
    if name == "linalg.jacobi_eigenvalues":
        return int(np.shape(args[0])[0])
    if name == "certificates.gain_bound":
        return int(result.samples)
    if name == "goodwin.search_params":
        return len(result.rows)
    return 0


def trace_bytes(traces) -> int:
    """Bytes of the arrays a trace owns: states, held disturbances and the
    cached derived arrays (views of other arrays are not counted)."""
    total = 0
    for trace in traces:
        for value in vars(trace).values():
            if isinstance(value, np.ndarray) and value.base is None:
                total += value.nbytes
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], csv_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced job; ``spans[0]`` is its root."""
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(k)

    def total(name):
        return sum(spans[k].end - spans[k].start for k in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def counts(name):
        return [spans[k].count for k in by_name.get(name, ())]

    def called_by(k, name):
        parent = spans[k].parent
        return parent is not None and spans[parent].name == name

    own = self_times(spans)
    run_s = total("simulation.run")
    steps = sum(counts("simulation.run"))
    post_s = sum(spans[k].end - spans[k].start
                 for name in POST for k in by_name.get(name, ())
                 if not any(called_by(k, outer) for outer in POST))
    jacobi = by_name.get("linalg.jacobi_eigenvalues", [])
    # gain_bound keeps only coupling_form from its quadratic_forms call, so
    # the solve made there never reaches an output
    wasted = sum(1 for k in jacobi
                 if called_by(k, "certificates.quadratic_forms")
                 and called_by(spans[k].parent, "certificates.gain_bound"))
    metrics = {
        "simulation.run_s": run_s,
        "simulation.steps": steps,
        "simulation.step_us": 1e6 * run_s / steps if steps else 0.0,
        "simulation.post_s": post_s,
        "simulation.trace_mb": spans[0].count / 2 ** 20,
        "noise.normals_s": total("noise.normals"),
        "noise.normals_drawn": sum(counts("noise.normals")),
        "linalg.jacobi_s": total("linalg.jacobi_eigenvalues"),
        "linalg.jacobi_calls": len(jacobi),
        "linalg.jacobi_dim_max": max(counts("linalg.jacobi_eigenvalues"), default=0),
        "linalg.jacobi_useful_ratio":
            (len(jacobi) - wasted) / len(jacobi) if jacobi else 0.0,
        "certificates.quadratic_forms_s": total("certificates.quadratic_forms"),
        "certificates.quadratic_forms_calls": calls("certificates.quadratic_forms"),
        "certificates.dissipation_matrices_calls":
            calls("certificates.dissipation_matrices"),
        "certificates.gain_bound_s": total("certificates.gain_bound"),
        "certificates.slope_samples": sum(counts("certificates.gain_bound")),
        "certificates.sync_margins_s": total("certificates.sync_margins"),
        "graphs.edge_stats_calls": calls("graphs.edge_stats"),
        "goodwin.certify_network_s": total("goodwin.certify_network"),
        "goodwin.search_s": total("goodwin.search_params"),
        "goodwin.grid_points": sum(counts("goodwin.search_params")),
        "config.parse_s": total("config.parse_config") + total("config.bundled_config"),
        "config.sector_checks": calls("config.verify_sector"),
        "cli.self_s": own[0],
        "cli.csv_bytes": csv_bytes,
    }
    for name in BINDINGS:
        metrics[f"self.{name}_s"] = sum(own[k] for k in by_name.get(name, ()))
    return metrics
