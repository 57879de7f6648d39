"""Spans around the benchmark's calls into calderon_lab.

The benchmark reaches the library only through ``Lab``, a namespace of
module proxies. With tracing on, every public function fetched from a
proxy is wrapped so that its call becomes one span (name, start, end,
parent, job id) kept in memory; with tracing off the proxies hand out the
library's own functions and add no cost. Calls the library makes
internally are not spans: each span is the layer the benchmark called.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import defaultdict


def _span_name(name: str, args: tuple) -> str:
    # cli.run dispatches subcommands; each subcommand is its own layer.
    if name == "cli.run" and args:
        return f"cli.{args[0]}"
    return name


def _count_result(counts, name: str, args: tuple, result) -> None:
    """Work counts taken at the layer boundary from arguments and results."""
    if name == "dn_solver.assemble_stiffness":
        counts[f"{name}.nnz"] += result.laplace.nnz + (
            0 if result.mass is None else result.mass.nnz
        )
    elif name == "dn_solver.dn_mode_matrix":
        counts[f"{name}.interior_dofs"] += args[0].grid.interior_ids().size
        counts[f"{name}.rhs_cols"] += len(result[1])
    elif name == "dn_solver.dn_map_partial":
        counts[f"{name}.rhs_cols"] += result.matrix.shape[1]
    elif name == "grid_geometry.sample_metric":
        counts[f"{name}.nodes"] += result.grid.node_count


class Tracer:
    """In-memory span recorder. ``span`` is a no-op while ``on`` is false."""

    def __init__(self, failure_types: tuple):
        self.on = False
        self.failure_types = failure_types
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: defaultdict = defaultdict(int)
        self.job: str | None = None
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], defaultdict(int), []

    @contextlib.contextmanager
    def _record(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[f"{name}.calls"] += 1
        try:
            yield
        except self.failure_types:
            self.counts[f"{name}.failed"] += 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str):
        return self._record(name) if self.on else contextlib.nullcontext()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _span_name(name, args)
            with self._record(span):
                result = fn(*args, **kwargs)
            _count_result(self.counts, span, args, result)
            return result

        return traced

    def layer_summary(self, wall_s: float) -> dict:
        """Self time per span name, plus how much of ``wall_s`` the library
        spans cover. Job spans are roots; what they do outside library
        calls is the benchmark's own time, reported as ``bench.self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy: defaultdict = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            busy[name] += end - start - covered
        bench_self = sum(v for k, v in busy.items() if k.startswith("job."))
        out = {f"{k}.busy_s": v for k, v in busy.items() if not k.startswith("job.")}
        layer_total = sum(out.values())
        out["bench.self_s"] = bench_self
        out["trace.layer_coverage_frac"] = layer_total / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, pass_index: int) -> list[dict]:
        return [
            {"pass": pass_index, "name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


class ModuleProxy:
    """Attribute access to one calderon_lab module; public functions come
    back wrapped in spans while the tracer is on."""

    def __init__(self, module: types.ModuleType, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._wrapped: dict = {}

    def __getattr__(self, attr: str):
        obj = getattr(self._module, attr)
        if not self._tracer.on or attr.startswith("_") or not isinstance(obj, types.FunctionType):
            return obj
        if attr not in self._wrapped:
            owner = obj.__module__.rsplit(".", 1)[-1]
            self._wrapped[attr] = self._tracer.wrap(f"{owner}.{attr}", obj)
        return self._wrapped[attr]


class Lab:
    """The library as the workloads see it: one proxy per module plus the
    tracer's ``span`` for calls that are not module functions."""

    def __init__(self, modules: dict, tracer: Tracer):
        for short, module in modules.items():
            setattr(self, short, ModuleProxy(module, tracer))
        self.span = tracer.span
        self.tracer = tracer
