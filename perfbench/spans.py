"""Span tracing for the benchmark's traced run.

The traced run replaces each public ``pbes`` function in ``TRACED`` at the
module attribute its caller looks it up by (``pbes.harness.train_task``, not
``pbes.model.train_task``) with a wrapper that records one span per call:
name, start, end, parent span, op id and thread. Spans stay in memory until
the run ends. ``patched`` puts every original back when it exits, also on
error. Nothing inside ``src/`` is instrumented.

Counts marked computed in the benchmark's doc come from argument and result
shapes, evaluated after the wrapped call returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; a worker thread's outermost span hangs off the op's open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the one driving op ``op``."""
        self._op = op
        self._op_stack = self._stack()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._op_stack and self._op_stack:
                # A pool thread started by the op thread, which is blocked inside
                # its innermost open span (e.g. sweep_budgets) until the pool ends.
                parent = self._op_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, self._op, threading.get_ident())
                if returned and count is not None:
                    span.counts = count(args, kwargs, result)
                self.spans.append(span)

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, separators=(",", ":")) + "\n")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(manifest_path) -> int:
    """Bytes of a stream manifest plus every CSV it names."""
    base = os.path.dirname(os.fspath(manifest_path))
    with open(manifest_path, encoding="utf-8") as fh:
        tasks = json.load(fh)["tasks"]
    names = [t[split] for t in tasks for split in ("train", "test")]
    return os.path.getsize(manifest_path) + sum(
        os.path.getsize(os.path.join(base, n)) for n in names
    )


def _windows(args, kwargs, result) -> dict:
    h, w = _arg(args, kwargs, 0, "saliency").shape
    rh = _arg(args, kwargs, 1, "region_height")
    rw = _arg(args, kwargs, 2, "region_width")
    return {"windows": (h - rh + 1) * (w - rw + 1)}


def _fsum_terms(args, kwargs, result) -> dict:
    n, d = _arg(args, kwargs, 0, "X").shape
    return {"fsum_terms": n * d * (d + 1) // 2}


def _distance_evals(args, kwargs, result) -> dict:
    n = len(_arg(args, kwargs, 0, "X"))
    m = _arg(args, kwargs, 1, "m")
    return {"distance_evals": m * n - m * (m - 1) // 2}


def _median_loop(args, kwargs, result) -> dict:
    return {"appended": result.appended_count, "requested": _arg(args, kwargs, 1, "m")}


# (span name, lookup sites, computed counts). A site is the module attribute the
# caller reads at call time, so the wrapper sees every call made through it.
TRACED = (
    ("model.train_task", ("pbes.harness.train_task",), None),
    (
        "model.loss_gradient",
        ("pbes.model.loss_gradient",),
        lambda a, k, r: {"rows": len(_arg(a, k, 0, "batch").inputs)},
    ),
    ("model.predict", ("pbes.metrics.predict",), None),
    ("numerics.covariance", ("pbes.numerics.covariance",), _fsum_terms),
    (
        "numerics.principal_directions",
        ("pbes.sampling.principal_directions",),
        lambda a, k, r: {"fallback": int(r.source == "fallback")},
    ),
    ("numerics.random_unit_directions", ("pbes.sampling.random_unit_directions",), None),
    ("sampling.pbes_sample", ("pbes.sampling.pbes_sample",), _median_loop),
    ("sampling.randp_sample", ("pbes.sampling.randp_sample",), _median_loop),
    ("sampling.herding_sample", ("pbes.sampling.herding_sample",), _distance_evals),
    ("sampling.random_sample", ("pbes.sampling.random_sample",), None),
    (
        "augmentation.augment_class_records",
        ("pbes.cli.augment_class_records", "pbes.augmentation.augment_class_records"),
        None,
    ),
    (
        "augmentation.find_low_importance_region",
        ("pbes.augmentation.find_low_importance_region",),
        _windows,
    ),
    ("augmentation.read_pbim", ("pbes.cli.read_pbim",), lambda a, k, r: {"bytes": 16 + 4 * r.size}),
    ("augmentation.read_pbsm", ("pbes.cli.read_pbsm",), lambda a, k, r: {"bytes": 12 + 4 * r.size}),
    (
        "augmentation.write_pbim",
        ("pbes.cli.write_pbim",),
        lambda a, k, r: {"bytes": 16 + 4 * _arg(a, k, 1, "image").size},
    ),
    ("stream.generate_synthetic_stream", ("pbes.harness.generate_synthetic_stream",), None),
    (
        "stream.read_stream",
        ("pbes.harness.read_stream",),
        lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "manifest_path"))},
    ),
    ("harness.run_experiment", ("pbes.harness.run_experiment",), None),
    (
        "harness.sweep_budgets",
        ("pbes.cli.sweep_budgets",),
        lambda a, k, r: {"workers": a[2] if len(a) > 2 else k.get("max_workers", 1)},
    ),
    (
        "memory.rebalance_memory",
        ("pbes.harness.rebalance_memory",),
        lambda a, k, r: {"stored_rows": r.total_stored()},
    ),
    ("metrics.evaluate", ("pbes.harness.evaluate",), lambda a, k, r: {"rows": len(_arg(a, k, 2, "points"))}),
    ("cli.main", ("pbes.cli.main",), None),
    ("cli.parse_experiment_config", ("pbes.cli.parse_experiment_config",), None),
)


def _resolve(site: str):
    module_name, attr = site.rsplit(".", 1)
    return importlib.import_module(module_name), attr


@contextlib.contextmanager
def patched(tracer: Tracer, table=TRACED):
    """Install tracing wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for name, sites, count in table:
            for site in sites:
                module, attr = _resolve(site)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, per span id.

    Children of one span may overlap when they ran on different threads; the
    union counts each covered instant once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = (s.end - s.start) - covered
    return out


# Per-layer metrics of the traced run, in the order BENCHMARK.json lists them.
# Counts and times are per op of the traced phase, so runs that complete a
# different number of ops stay comparable.
PER_LAYER = (
    ("model.train_task.calls", "count"),
    ("model.train_task.self_ms", "ms"),
    ("model.loss_gradient.calls", "count"),
    ("model.loss_gradient.self_ms", "ms"),
    ("model.loss_gradient.rows", "rows"),
    ("model.predict.calls", "count"),
    ("model.predict.self_ms", "ms"),
    ("numerics.covariance.calls", "count"),
    ("numerics.covariance.self_ms", "ms"),
    ("numerics.covariance.fsum_terms", "count"),
    ("numerics.principal_directions.calls", "count"),
    ("numerics.principal_directions.self_ms", "ms"),
    ("numerics.principal_directions.fallback", "count"),
    ("numerics.random_unit_directions.self_ms", "ms"),
    ("sampling.pbes_sample.calls", "count"),
    ("sampling.pbes_sample.self_ms", "ms"),
    ("sampling.randp_sample.calls", "count"),
    ("sampling.randp_sample.self_ms", "ms"),
    ("sampling.herding_sample.calls", "count"),
    ("sampling.herding_sample.self_ms", "ms"),
    ("sampling.herding_sample.distance_evals", "count"),
    ("sampling.random_sample.calls", "count"),
    ("sampling.random_sample.self_ms", "ms"),
    ("sampling.median.appended_ratio", "ratio"),
    ("augmentation.augment_class_records.calls", "count"),
    ("augmentation.augment_class_records.self_ms", "ms"),
    ("augmentation.find_low_importance_region.calls", "count"),
    ("augmentation.find_low_importance_region.self_ms", "ms"),
    ("augmentation.find_low_importance_region.windows", "count"),
    ("augmentation.read_pbim.calls", "count"),
    ("augmentation.read_pbim.self_ms", "ms"),
    ("augmentation.read_pbim.bytes", "bytes"),
    ("augmentation.read_pbsm.calls", "count"),
    ("augmentation.read_pbsm.self_ms", "ms"),
    ("augmentation.read_pbsm.bytes", "bytes"),
    ("augmentation.write_pbim.calls", "count"),
    ("augmentation.write_pbim.self_ms", "ms"),
    ("augmentation.write_pbim.bytes", "bytes"),
    ("stream.generate_synthetic_stream.calls", "count"),
    ("stream.generate_synthetic_stream.self_ms", "ms"),
    ("stream.read_stream.calls", "count"),
    ("stream.read_stream.self_ms", "ms"),
    ("stream.read_stream.bytes", "bytes"),
    ("harness.run_experiment.calls", "count"),
    ("harness.run_experiment.self_ms", "ms"),
    ("harness.sweep_budgets.calls", "count"),
    ("harness.sweep_budgets.self_ms", "ms"),
    ("harness.sweep_budgets.parallel_efficiency", "ratio"),
    ("memory.rebalance_memory.calls", "count"),
    ("memory.rebalance_memory.self_ms", "ms"),
    ("memory.rebalance_memory.stored_rows", "rows"),
    ("metrics.evaluate.calls", "count"),
    ("metrics.evaluate.self_ms", "ms"),
    ("metrics.evaluate.rows", "rows"),
    ("cli.main.self_ms", "ms"),
    ("cli.parse_experiment_config.calls", "count"),
    ("cli.parse_experiment_config.self_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Every span-derived PER_LAYER value; the trace.* entries are the caller's."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[f"{s.name}.calls"] += 1
        totals[f"{s.name}.self_ms"] += own[s.sid] * 1000.0
        for key, value in s.counts.items():
            totals[f"{s.name}.{key}"] += value
    out = {name: totals[name] / ops for name, _ in PER_LAYER if not name.startswith("trace.")}

    appended = totals["sampling.pbes_sample.appended"] + totals["sampling.randp_sample.appended"]
    requested = totals["sampling.pbes_sample.requested"] + totals["sampling.randp_sample.requested"]
    out["sampling.median.appended_ratio"] = appended / requested if requested else 0.0

    sweeps = {s.sid: s for s in spans if s.name == "harness.sweep_budgets"}
    capacity = sum(s.counts.get("workers", 0) * (s.end - s.start) for s in sweeps.values())
    busy = sum(
        s.end - s.start
        for s in spans
        if s.name == "harness.run_experiment" and s.parent in sweeps
    )
    out["harness.sweep_budgets.parallel_efficiency"] = busy / capacity if capacity else 0.0
    return out
