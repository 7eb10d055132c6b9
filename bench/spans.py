"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: each public function of
interest is swapped, at the module attribute its callers look it up
through, for a wrapper that opens a span, calls the original and closes
the span.  Private helpers are never wrapped, so the time they take shows
up as self time of the public function that calls them (coefficient
assembly, for instance, is the self time of ``flow.step``).

A span is ``[name, start, end, parent, op, extra]``: ``parent`` is the
index of the enclosing span or -1, ``op`` the id of the benchmark
operation that caused it, ``extra`` a small dict (grid shape, solver size,
bytes written) or None.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter


def shape_label(grid) -> str:
    return f"{grid.nr}x{grid.ntheta}"


class Tracer:
    """Spans and exact counters of one pass through a workload's op list."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, extra: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, extra])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def wrap(self, name: str, fn, extra=None, after=None):
        """Traced stand-in for fn.  ``extra(args)`` may attach data to the
        span; ``after(span_index, args, result)`` may replace the result
        and runs once the span is closed."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name, extra(args) if extra else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            return after(idx, args, result) if after else result

        return traced

    # -- installing wrappers ---------------------------------------------

    def patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark
        reports on.  Modules that bind a function by name at import time
        (``from .cmc import eval_vR``) are patched at that name too."""
        from killingflow import (barriers, cli, cmc, config, exhaustion,
                                 flow, geometry)

        by_grid = lambda i: (lambda args: {"shape": shape_label(args[i])})
        # public entry points, (module, attribute, span name, grid argument)
        for module, attr, name, grid_arg in (
                (flow, "step", "flow.step", 2),
                (flow, "compute_W", "flow.compute_W", 1),
                (flow, "second_fundamental_form",
                 "flow.second_fundamental_form", 1),
                (flow, "residual_identities", "flow.residual_identities",
                 None),
                (flow, "load_run", "flow.load_run", None),
                (flow, "solve_ball", "flow.solve_ball", 1),
                (flow, "radial_solve", "flow.radial_solve", None),
                (exhaustion, "solve_ball", "exhaustion.rung_solve", 1),
                (exhaustion, "run_exhaustion", "exhaustion.run_exhaustion",
                 None),
                (cmc, "solve_vR", "cmc.solve_vR", None),
                (cmc, "sample_vR", "cmc.sample_vR", None),
                (barriers, "sample_vR", "cmc.sample_vR", None),
                (cmc, "eval_vR", "cmc.eval_vR", None),
                (barriers, "eval_vR", "cmc.eval_vR", None),
                (barriers, "verify_supersolution",
                 "barriers.verify_supersolution", None),
                (barriers, "mu_of_t", "barriers.mu_of_t", None),
                (geometry, "make_model", "geometry.make_model", None),
                (cli, "dispatch", "cli.dispatch", None),
                (config, "load_config", "config.load_config", None)):
            original = getattr(module, attr)
            self.patch(module, attr, self.wrap(
                name, original,
                extra=None if grid_arg is None else by_grid(grid_arg)))

        self.patch(flow, "save_run", self.wrap(
            "flow.save_run", flow.save_run, after=self._count_bytes))
        self.patch(flow, "spla", _LinsolveProxy(self, flow.spla))
        self.patch(barriers, "height_bounds", self.wrap(
            "barriers.height_bounds", barriers.height_bounds,
            after=self._wrap_bounds))
        self.patch(exhaustion, "RectBivariateSpline",
                   self._spline_factory(exhaustion.RectBivariateSpline))
        for module in (cmc, geometry, barriers):
            for attr in ("adaptive_simpson", "composite_simpson"):
                if hasattr(module, attr):
                    self.patch(module, attr,
                               self._counting_quadrature(getattr(module,
                                                                 attr)))

    # -- special wrappers ------------------------------------------------

    def _count_bytes(self, idx, args, manifest_path):
        base = os.path.dirname(manifest_path)
        total = sum(os.path.getsize(os.path.join(base, f))
                    for f in os.listdir(base))
        self.spans[idx][5] = {"bytes": total}
        return manifest_path

    def _wrap_bounds(self, idx, args, bounds):
        lower, upper = bounds
        return (self.wrap("barriers.bound", lower),
                self.wrap("barriers.bound", upper))

    def _spline_factory(self, cls):
        tracer = self

        class TracedSpline:
            def __init__(self, *args, **kwargs):
                idx = tracer.open("exhaustion.transfer")
                try:
                    self._spline = cls(*args, **kwargs)
                finally:
                    tracer.close(idx)

            def __call__(self, *args, **kwargs):
                idx = tracer.open("exhaustion.transfer")
                try:
                    return self._spline(*args, **kwargs)
                finally:
                    tracer.close(idx)

        return TracedSpline

    def _counting_quadrature(self, quad):
        counts = self.counts

        def counted_quad(f, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                return quad(counted, *args, **kwargs)
            finally:
                counts["quadrature.integrand_evals"] += evals

        return counted_quad

    # -- output ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]


class _LinsolveProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``flow``: ``spsolve``,
    the one sparse solver ``flow`` calls, is traced as ``flow.linsolve``;
    everything else is forwarded untouched."""

    def __init__(self, tracer: Tracer, module):
        self._module = module
        self.spsolve = tracer.wrap(
            "flow.linsolve", module.spsolve,
            extra=lambda args: {"unknowns": int(args[0].shape[0]),
                                "nnz": int(args[0].nnz)})

    def __getattr__(self, attr):
        return getattr(self._module, attr)


# ---------------------------------------------------------------------------
# per-layer metrics


def _parent_name(spans, span):
    return spans[span[3]][0] if span[3] >= 0 else None


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict]:
    """Per-layer figures of one traced pass, in seconds summed over the
    pass, and the per-shape step breakdown: for each grid shape stepped on,
    the step count and the median step, step self, solve and diagnostics
    times in ms per step."""
    spans = tracer.spans
    selfs = tracer.self_times()
    total = defaultdict(float)      # inclusive time by span name
    self_total = defaultdict(float)
    calls = defaultdict(int)
    margins = 0.0
    linsolve_unknowns = linsolve_nnz = persist_bytes = 0
    step_ms = defaultdict(list)
    step_self = defaultdict(float)
    lin_by_shape = defaultdict(float)
    diag_by_shape = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, op, extra = span
        dur = end - start
        total[name] += dur
        self_total[name] += self_s
        calls[name] += 1
        if name == "flow.step":
            step_ms[extra["shape"]].append(1e3 * dur)
            step_self[extra["shape"]] += self_s
        elif name == "flow.linsolve":
            linsolve_unknowns += extra["unknowns"]
            linsolve_nnz += extra["nnz"]
            owner = spans[parent] if parent >= 0 else None
            if owner is not None and owner[0] == "flow.step":
                lin_by_shape[owner[5]["shape"]] += dur
        elif name in ("flow.compute_W", "flow.second_fundamental_form"):
            diag_by_shape[extra["shape"]] += dur
        elif name == "flow.save_run":
            persist_bytes += extra["bytes"] if extra else 0
        if (name in ("barriers.height_bounds", "barriers.bound")
                and _parent_name(spans, span) == "exhaustion.run_exhaustion"):
            margins += dur
    m = {
        "flow.step.calls": calls["flow.step"],
        "flow.step.self_s": self_total["flow.step"],
        "flow.linsolve.calls": calls["flow.linsolve"],
        "flow.linsolve.s": total["flow.linsolve"],
        "flow.linsolve.unknowns": linsolve_unknowns,
        "flow.linsolve.nnz": linsolve_nnz,
        "flow.diagnostics.s": (total["flow.compute_W"]
                               + total["flow.second_fundamental_form"]),
        "flow.identities.s": total["flow.residual_identities"],
        "flow.persist.write_s": total["flow.save_run"],
        "flow.persist.read_s": total["flow.load_run"],
        "flow.persist.bytes": persist_bytes,
        "cmc.solve_vR.s": total["cmc.solve_vR"],
        "cmc.sample_vR.calls": calls["cmc.sample_vR"],
        "cmc.sample_vR.s": total["cmc.sample_vR"],
        "cmc.eval_vR.calls": calls["cmc.eval_vR"],
        "cmc.eval_vR.s": total["cmc.eval_vR"],
        "quadrature.integrand_evals":
            tracer.counts["quadrature.integrand_evals"],
        "barriers.height_bounds.calls": calls["barriers.height_bounds"],
        "barriers.height_bounds.s": total["barriers.height_bounds"],
        "barriers.bound_evals": calls["barriers.bound"],
        "barriers.verify_supersolution.s":
            total["barriers.verify_supersolution"],
        "barriers.mu_of_t.calls": calls["barriers.mu_of_t"],
        "exhaustion.rungs": calls["exhaustion.rung_solve"],
        "exhaustion.rung_solve.s": total["exhaustion.rung_solve"],
        "exhaustion.transfer.s": total["exhaustion.transfer"],
        "exhaustion.margins.s": margins,
        "exhaustion.self_s": self_total["exhaustion.run_exhaustion"],
        "geometry.make_model.s": total["geometry.make_model"],
        "cli.dispatch.self_s": self_total["cli.dispatch"],
        "config.load_config.s": total["config.load_config"],
        "trace.spans": len(spans),
        "trace.uncovered_s": self_total["op"],
    }
    shapes = {}
    for shape, times in step_ms.items():
        steps = len(times)
        shapes[shape] = {
            "steps": steps,
            "p50_ms": statistics.median(times),
            "self_ms": 1e3 * step_self[shape] / steps,
            "linsolve_ms": 1e3 * lin_by_shape[shape] / steps,
            "diagnostics_ms": 1e3 * diag_by_shape[shape] / steps,
        }
    return m, shapes


def span_problems(tracer: Tracer) -> list[str]:
    """Ways the spans of one pass can be inconsistent: a span ending before
    it starts, a child span reaching outside its parent, or a negative
    self time (children overlapping each other)."""
    problems = []
    spans = tracer.spans
    for i, (span, self_s) in enumerate(zip(spans, tracer.self_times())):
        name, start, end, parent, op, extra = span
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) reaches outside its "
                                f"parent {parent} ({spans[parent][0]})")
        if self_s < -1e-9:
            problems.append(f"span {i} ({name}) has self time "
                            f"{self_s:.3e} s")
        if len(problems) >= 5:
            break
    return problems


# counts that must repeat exactly between traced passes of one seed, in
# one process and across processes
EXACT_COUNTS = ("flow.step.calls", "flow.linsolve.calls",
                "flow.linsolve.unknowns", "flow.linsolve.nnz",
                "quadrature.integrand_evals", "barriers.bound_evals",
                "barriers.height_bounds.calls", "barriers.mu_of_t.calls",
                "cmc.sample_vR.calls", "cmc.eval_vR.calls",
                "exhaustion.rungs", "flow.persist.bytes", "trace.spans")
