"""Outside-in span tracing of pathdist's layers, installed by the benchmark.

The tracer replaces public functions and methods of the ``pathdist``
modules with thin wrappers.  A function is replaced in every module whose
namespace holds it, so a call is traced whether it goes through the
defining module (``matching.match_decision``) or through a module that
imported the name (``pathdistance.match_decision``).  Generators are traced
one ``next()`` at a time, so consumers that interleave them with other work
still nest correctly.

Spans stay in memory as ``[name, parent, start, end, items]`` rows and are
written out only when the run ends.  Self time is derived afterwards: a
span's duration minus the durations of its direct children.

Worker processes of a process pool are forked from a traced process, so they
inherit the wrappers.  Their spans are aggregated per name inside the worker
and written to ``<trace_dir>/worker-<pid>.json`` when the worker exits; the
parent merges those files into the counters and per-call times, but never
into self time, which accounts for the parent's wall time only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

# (layer, module, attribute) for every traced boundary.  An attribute with a
# dot names a method on a class defined in that module.
TARGETS = (
    ("geometry", "pathdist.geometry", "disc_segment_intervals"),
    ("geometry", "pathdist.geometry", "PolyLine.point_at"),
    ("graph", "pathdist.graph", "load_graph"),
    ("graph", "pathdist.graph", "export_geojson"),
    ("graph", "pathdist.graph", "graph_stats"),
    ("paths", "pathdist.paths", "enumerate_paths"),
    ("paths", "pathdist.paths", "path_geometry"),
    ("matching", "pathdist.matching", "match_decision"),
    ("matching", "pathdist.matching", "map_match_distance"),
    ("spatial", "pathdist.spatial", "SpatialGrid.__init__"),
    ("spatial", "pathdist.spatial", "SpatialGrid.nearest_point"),
    ("spatial", "pathdist.spatial", "nearest_point_on_graph"),
    ("pathdistance", "pathdist.pathdistance", "iter_match_records"),
    ("pathdistance", "pathdist.pathdistance", "match_all_paths"),
    ("pathdistance", "pathdist.pathdistance", "max_path_distance"),
    ("pathdistance", "pathdist.pathdistance", "directed_path_distance"),
    ("pathdistance", "pathdist.pathdistance", "path_distance_analysis"),
    ("pathdistance", "pathdist.pathdistance", "separation_census"),
    ("pathdistance", "pathdist.pathdistance", "intersection_radius"),
    ("pathdistance", "pathdist.pathdistance", "write_records_csv"),
    ("signatures", "pathdist.signatures", "cdf"),
    ("signatures", "pathdist.signatures", "export_heatmap"),
    ("signatures", "pathdist.signatures", "export_cdf_plot"),
    ("signatures", "pathdist.signatures", "write_signature_csv"),
    ("fscore", "pathdist.fscore", "sample_neighborhood"),
    ("fscore", "pathdist.fscore", "sample_neighborhood_at"),
    ("fscore", "pathdist.fscore", "bottleneck_match"),
    ("fscore", "pathdist.fscore", "fscore_analysis"),
    ("experiments", "pathdist.experiments", "grid_graph"),
    ("experiments", "pathdist.experiments", "generate_perturbed"),
    ("experiments", "pathdist.experiments", "run_perturbation_study"),
    ("experiments", "pathdist.experiments", "run_all"),
    ("parallel", "pathdist.parallel", "iter_chunked"),
    ("cli", "pathdist.cli", "main"),
)

# Items a call produced, for the boundaries where that count is the work.
_ITEMS = {
    "fscore.sample_neighborhood": len,
    "fscore.sample_neighborhood_at": len,
}

NAME, PARENT, START, END, ITEMS = range(5)


class Tracer:
    """Spans of one traced process, plus aggregates merged from its workers."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "pathdist" or n.startswith("pathdist.")
        ]
        for layer, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            name = f"{layer}.{attr}"
            idx = len(self.names)
            self.names.append(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), idx))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, idx)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        mp_util.register_after_fork(self, Tracer._forked)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, idx: int):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = _ITEMS.get(self.names[idx])
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = [idx, stack[-1] if stack else -1, clock(), 0.0, 1]
                    stack.append(len(spans))
                    spans.append(rec)
                    try:
                        item = next(it)
                    except StopIteration:
                        rec[ITEMS] = 0
                        return
                    finally:
                        rec[END] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, stack[-1] if stack else -1, clock(), 0.0, 1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[ITEMS] = count(out)
            return out

        return wrapper

    # -- worker processes ---------------------------------------------------

    def _forked(self) -> None:
        """In a forked worker: drop the parent's spans, report on exit."""
        del self.spans[:]
        del self.stack[:]
        mp_util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        stats = self.stats()
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": len(self.spans), "stats": stats}))

    def worker_stats(self) -> tuple[int, dict]:
        """Span count and per-name aggregates merged over finished workers."""
        merged: dict[str, list[float]] = {}
        n_spans = 0
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            n_spans += doc["spans"]
            for name, row in doc["stats"].items():
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return n_spans, merged

    # -- results ------------------------------------------------------------

    def stats(self) -> dict[str, list]:
        """Per span name: [calls, inclusive s, self s, items]."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, list] = {}
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            row = out.setdefault(self.names[rec[NAME]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[i]
            row[3] += rec[ITEMS]
        return out

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, row in self.stats().items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + row[2]
        return out

    def inside(self, outer: str, inner: str) -> tuple[int, int]:
        """Calls and items of ``inner`` spans that have an ``outer`` ancestor."""
        outer_idx = self.names.index(outer)
        inner_idx = self.names.index(inner)
        flag = [False] * len(self.spans)
        calls = items = 0
        for i, rec in enumerate(self.spans):
            parent = rec[PARENT]
            flag[i] = rec[NAME] == outer_idx or (parent >= 0 and flag[parent])
            if rec[NAME] == inner_idx and parent >= 0 and flag[parent]:
                calls += 1
                items += rec[ITEMS]
        return calls, items

    def write_spans(self, path) -> None:
        """All spans as CSV: index, name, parent index, start and end in s."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s,items\n")
            for i, rec in enumerate(self.spans):
                fh.write(
                    f"{i},{self.names[rec[NAME]]},{rec[PARENT]},"
                    f"{rec[START] - t0:.7f},{rec[END] - t0:.7f},{rec[ITEMS]}\n"
                )
