"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces the module attributes through which one helmbound
module calls another (``helmbound.solver.assemble``,
``helmbound.cli.build_context``, ...) with wrappers that record a span per
call: layer name, start, end, the enclosing span, and the job it belongs to.
Spans stay in memory; ``layer_metrics`` turns them into per-job averages.  A
layer's self time is its span minus the spans directly inside it; the job's
own span is the layer ``cli``; ``consistency_error`` checks that the self
times of each job sum to the wall time the caller measured for it.

Counts are computed at the same boundaries from the arguments and results
(array shapes, file sizes), so they repeat exactly for the same inputs.
Nothing in helmbound waits on a queue or a lock, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from helmbound.errors import NearDirichletResonance, NearNeumannResonance

# layer -> the (module, attribute) pairs through which callers reach it
LAYERS = {
    "assembly.context": [("helmbound.solver", "build_context"), ("helmbound.cli", "build_context")],
    "basis.tables": [("helmbound.assembly", "basis_tables")],
    "steklov.table": [("helmbound.assembly", "steklov_table"), ("helmbound.reconstruct", "steklov_table")],
    "steklov.trace": [("helmbound.assembly", "steklov_trace"), ("helmbound.reconstruct", "steklov_trace")],
    "assembly.assemble": [("helmbound.solver", "assemble")],
    "solver.eigh": [("helmbound.solver", "solve_generalized")],
    "solver.iterate": [("helmbound.cli", "iterate_mode")],
    "reconstruct.gamma2": [("helmbound.solver", "gamma2_coefficients")],
    "reconstruct.sample": [("helmbound.cli", "sample_field")],
    "reconstruct.export": [("helmbound.cli", "export_grid")],
    "oracle.fdm": [("helmbound.oracle", "fdm_eigen")],
}
ROOT = "cli"
# Job wall time (run.run_job) minus the job's span: entering and leaving the span.
CONSISTENCY_TOL_S = 1e-3
RESONANCES = (NearDirichletResonance, NearNeumannResonance)


def _eigh_flop(n: int, kept: int) -> float:
    """Filtered solve: eigh of the n x n metric, X^T Lambda X, eigh of the kept block, X Z.

    A symmetric eigendecomposition with vectors is counted as 9 m^3 flops.
    """
    return 9.0 * n**3 + 2.0 * n * n * kept + 4.0 * n * kept**2 + 9.0 * kept**3


def _count(tracer: "Tracer", layer: str, args, kwargs, result) -> None:
    c = tracer.counts
    if layer == "basis.tables":
        c["basis.tables.bytes"] += sum(a.nbytes for a in result)
    elif layer == "assembly.context":
        tracer.context_keys.add((result.spec, result.domain, result.quad, result.n_modes))
    elif layer == "assembly.assemble":
        m = result.lam.shape[0]
        c["assembly.assemble.flop"] += 4.0 * kwargs["context"].n_modes * m * m  # two N x M x M products
    elif layer == "solver.eigh":
        n, kept = args[0].delta.shape[0], result.kept
        c["solver.eigh.flop"] += _eigh_flop(n, kept)
        c["solver.eigh.n"] += n
        c["solver.eigh.kept"] += kept
    elif layer == "reconstruct.export":
        c["reconstruct.export.bytes"] += os.path.getsize(args[2])
    elif layer == "oracle.fdm":
        c["oracle.fdm.unknowns"] += result[0].n_unknowns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, job index]
        self.counts: dict[str, float] = defaultdict(float)
        self.context_keys: set = set()
        self.resonances: list[BaseException] = []
        self._stack: list[int] = []
        self._jobs = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, self._jobs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except RESONANCES as exc:
                if not any(exc is seen for seen in self.resonances):
                    self.resonances.append(exc)
                raise
            finally:
                self._close(index)
            _count(self, layer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def job(self):
        """Span of one CLI job; every layer span opened inside belongs to it."""
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)
            self._jobs += 1

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def consistency_error(self, walls: list[float]) -> float:
        """Largest |sum of self times - wall time| over jobs, in seconds.

        ``walls`` are the jobs' wall times as measured by the caller, in the
        order the jobs ran.  A negative self time, or a job count that does
        not match, is an infinite error.
        """
        if len(walls) != self._jobs:
            return float("inf")
        sums = [0.0] * self._jobs
        for span, own in zip(self.spans, self.self_times()):
            if own < -1e-9:
                return float("inf")
            sums[span[4]] += own
        return max((abs(s - w) for s, w in zip(sums, walls)), default=0.0)

    def computed_counts(self) -> dict[str, float]:
        """Every count that does not depend on timing, for exact comparison between runs."""
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out = {f"{layer}.calls": float(n) for layer, n in sorted(calls.items())}
        out.update(sorted(self.counts.items()))
        out["assembly.context.distinct"] = float(len(self.context_keys))
        out["steklov.errors"] = float(len(self.resonances))
        return out

    def layer_metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as per-job averages: name -> (value, unit)."""
        jobs = max(self._jobs, 1)
        self_s = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            self_s[span[0]] += own
        counts = self.computed_counts()
        calls = {layer: counts.get(f"{layer}.calls", 0.0) for layer in LAYERS}
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {"cli.self_s": (self_s[ROOT] / jobs, "s")}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (calls[layer] / jobs, "count")
            metrics[f"{layer}.self_s"] = (self_s[layer] / jobs, "s")
        metrics.update({
            "basis.tables.mb": (c["basis.tables.bytes"] / 1e6 / jobs, "MB"),
            "steklov.errors": (len(self.resonances) / jobs, "count"),
            "assembly.context.useful_frac": (ratio(len(self.context_keys), calls["assembly.context"]), "1"),
            "assembly.assemble.gflop": (c["assembly.assemble.flop"] / 1e9 / jobs, "GFLOP"),
            "solver.eigh.gflop": (c["solver.eigh.flop"] / 1e9 / jobs, "GFLOP"),
            "solver.kept_frac": (ratio(c["solver.eigh.kept"], c["solver.eigh.n"]), "1"),
            "solver.iterate.iters_per_mode": (ratio(calls["assembly.assemble"], calls["solver.iterate"]), "count"),
            "reconstruct.export.mb": (c["reconstruct.export.bytes"] / 1e6 / jobs, "MB"),
            "reconstruct.export.mb_per_s": (
                ratio(c["reconstruct.export.bytes"] / 1e6, self_s["reconstruct.export"]), "MB/s"),
            "oracle.fdm.unknowns": (c["oracle.fdm.unknowns"] / jobs, "count"),
            "trace.overhead_frac": (overhead_frac, "1"),
        })
        return metrics
