"""Self-tests of the benchmark: span arithmetic, patching, generators, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pbes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, patched, self_times  # noqa: E402


def span(sid, name, start, end, parent=None, thread=1, **counts):
    return Span(sid, name, start, end, parent, 0, thread, counts)


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_and_sequential_children():
    got = self_times([
        span(1, "a", 0.0, 10.0),
        span(2, "b", 1.0, 3.0, parent=1),
        span(3, "c", 4.0, 8.0, parent=1),
        span(4, "d", 5.0, 6.0, parent=3),
    ])
    assert got == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_counts_overlapping_threaded_children_once():
    # A two-worker sweep: children on two threads overlap in [2, 6].
    got = self_times([
        span(1, "harness.sweep_budgets", 0.0, 10.0),
        span(2, "harness.run_experiment", 1.0, 6.0, parent=1, thread=2),
        span(3, "harness.run_experiment", 2.0, 9.0, parent=1, thread=3),
        span(4, "harness.run_experiment", 2.5, 3.0, parent=1, thread=2),
    ])
    assert got[1] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent_interval():
    got = self_times([span(1, "a", 0.0, 4.0), span(2, "b", 3.0, 6.0, parent=1)])
    assert got[1] == pytest.approx(3.0)


def test_parallel_efficiency_is_child_busy_over_worker_capacity():
    trace = [
        span(1, "harness.sweep_budgets", 0.0, 10.0, workers=2),
        span(2, "harness.run_experiment", 0.0, 6.0, parent=1, thread=2),
        span(3, "harness.run_experiment", 0.0, 9.0, parent=1, thread=3),
        span(4, "harness.run_experiment", 20.0, 21.0),  # not under a sweep
    ]
    got = layer_metrics(trace, ops=1)
    assert got["harness.sweep_budgets.parallel_efficiency"] == pytest.approx(15.0 / 20.0)
    assert got["harness.run_experiment.calls"] == 3
    assert got["model.loss_gradient.calls"] == 0


# --- tracer and patching ---------------------------------------------------


def test_pool_thread_spans_hang_off_the_op_threads_open_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x)
    outer = tracer.wrap("outer", lambda: list(ThreadPoolExecutor(2).map(leaf, range(4))))
    tracer.begin_op(7)
    assert outer() == [0, 1, 2, 3]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert top.parent is None
    assert [s.parent for s in by_name["leaf"]] == [top.sid] * 4
    assert {s.op for s in tracer.spans} == {7}


def test_patched_restores_every_original_also_after_an_error():
    sites = [site for _, names, _ in spans.TRACED for site in names]
    originals = {site: getattr(*spans._resolve(site)) for site in sites}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer):
            assert all(getattr(*spans._resolve(s)) is not originals[s] for s in sites)
            raise RuntimeError("boom")
    assert all(getattr(*spans._resolve(s)) is originals[s] for s in sites)


def test_traced_calls_record_computed_counts():
    tracer = Tracer()
    X = np.random.default_rng(0).standard_normal((30, 4))
    with patched(tracer):
        pbes.sampling.sample("herding", X, 5)
        pbes.sampling.sample("pbes", X, 6)
    got = layer_metrics(tracer.spans, ops=1)
    assert got["sampling.herding_sample.distance_evals"] == sum(30 - k + 1 for k in range(1, 6))
    assert got["numerics.covariance.fsum_terms"] == 30 * 4 * 5 // 2
    assert got["sampling.median.appended_ratio"] in (1.0, 7 / 6)
    assert got["numerics.principal_directions.calls"] == 1


# --- generators -------------------------------------------------------------


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _generated(workload) -> bytes:
    if isinstance(workload, workloads.BlobSuite):
        return repr(workload.configs).encode()
    if isinstance(workload, workloads.EmbedSelect):
        return b"".join(X.tobytes() + repr((m, s)).encode() for X, m, s in workload.classes)
    if isinstance(workload, workloads.CliSweep):
        return json.dumps([workload.stream_seed, workload.configs]).encode()
    return b"".join(a.tobytes() for a in [*workload.images.values(), *workload.saliencies.values()]) + repr(
        workload.ops
    ).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_byte_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(5, tmp_path / "a"), cls(5, tmp_path / "b"), cls(6, tmp_path / "c")
    assert _generated(first) == _generated(again)
    assert _generated(first) != _generated(other)
    first.prepare()
    again.prepare()
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


# --- output checks ----------------------------------------------------------


def test_check_rejects_one_swapped_index(tmp_path):
    workload = workloads.EmbedSelect(workloads.DEFAULT_SEED, tmp_path)
    k = 0
    output = workload.run(k)
    assert workload.check(k, output) == []
    herding = output[2]
    idx = list(herding.ordered_indices)
    idx[0], idx[1] = idx[1], idx[0]
    output[2] = dataclasses.replace(herding, ordered_indices=tuple(idx))
    assert any("reference" in p for p in workload.check(k, output))


def test_check_rejects_one_altered_csv_byte(tmp_path):
    workload = workloads.CliSweep(workloads.DEFAULT_SEED, tmp_path)
    workload.prepare()
    k = 1
    output = workload.run(k)
    assert workload.check(k, output) == []
    path = workload.out_path(k)
    blob = bytearray(path.read_bytes())
    pos = blob.index(b"0.", len(pbes.harness.SWEEP_HEADER)) + 2
    blob[pos] = ord("1") if blob[pos] != ord("1") else ord("2")
    path.write_bytes(bytes(blob))
    assert workload.check(k, output) != []


def test_check_rejects_an_altered_blob_metric(tmp_path):
    workload = workloads.BlobSuite(workloads.DEFAULT_SEED, tmp_path)
    k = 4  # finetune, the cheapest run
    rows = workload.run(k)
    assert workload.check(k, rows) == []
    rows[-1] = dataclasses.replace(rows[-1], gmean=rows[-1].gmean + 1e-6)
    assert workload.check(k, rows) != []


def test_structural_check_rejects_out_of_range_indices_at_any_seed(tmp_path):
    workload = workloads.EmbedSelect(11, tmp_path)
    output = workload.run(0)
    assert workload.check(0, output) == []
    bad = dataclasses.replace(output[3], ordered_indices=(10**6,) + output[3].ordered_indices[1:])
    assert workload.check(0, output[:3] + [bad]) != []


def test_measure_counts_corrupted_outputs_as_failed(tmp_path):
    workload = workloads.ImageAugment(3, tmp_path)
    workload.prepare()
    real_run = workload.run

    def corrupt(k):
        code = real_run(k)
        victim = next(workload.out_dir(k).glob("*/aug_*.pbim"))
        victim.write_bytes(victim.read_bytes()[:-4])
        return code

    workload.run = corrupt
    loop = worker.measure(workload, seconds=0)
    assert loop.attempted == len(workload)
    assert loop.failed == loop.attempted
    assert worker.end_to_end(loop)["ops_per_s"] == 0.0


# --- reporting --------------------------------------------------------------


def test_tail_is_the_highest_order_statistic_with_ten_beyond_it():
    assert worker.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
