"""One workload process of the pbes benchmark.

Started by ``run.py`` with the environment it sets (``PYTHONPATH`` pointing at
the checkout's ``src``, ``OPENBLAS_NUM_THREADS=1``, ``PBES_THREADS=1``). It
imports ``pbes``, generates the workload's inputs from the seed and prepares
them, and reports its set-up time measured from the moment ``run.py`` started
it. Unless ``--setup-only`` is given it then runs the cycle's first op once,
untimed, so lazy imports and caches are warm, and drives the workload as one
closed-loop client (the next op starts when the previous one has been
checked). It prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

TAIL_BEYOND = 10
MAX_PROBLEMS = 5


@dataclass
class Loop:
    """Latencies (s) and failures of one closed-loop phase."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(workload, seconds: float, tracer=None) -> Loop:
    """Run whole cycles of the workload's ops until ``seconds`` have passed.

    Stopping only between cycles keeps every run's mix of ops the same. Only
    the call into ``pbes`` is timed; the output check and clean-up are not.
    """
    loop = Loop()
    deadline = time.monotonic() + seconds
    while True:
        for k in range(len(workload)):
            if tracer is not None:
                tracer.begin_op(loop.attempted)
            loop.latencies.append(run_op(workload, k, loop))
        if time.monotonic() >= deadline:
            return loop


def run_op(workload, k: int, loop: Loop) -> float:
    """Run and check op k, count a failure in ``loop``; return the op's latency (s)."""
    start = time.perf_counter()
    try:
        output = workload.run(k)
        raised = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        raised = exc
    latency = time.perf_counter() - start
    try:
        if raised is None:
            errors = workload.check(k, output)
        else:
            errors = [f"op {k} raised: " + "".join(traceback.format_exception_only(raised)).strip()]
    except Exception as exc:
        errors = [f"op {k}: output check raised {exc!r}"]
    finally:
        workload.finish(k)
    if errors:
        loop.failed += 1
        loop.problems.extend(errors)
        del loop.problems[MAX_PROBLEMS:]
    return latency


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the slowest op and percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(loop: Loop) -> dict:
    busy = sum(loop.latencies)
    value, percentile = tail(loop.latencies)
    return {
        "ops_per_s": (loop.attempted - loop.failed) / busy,
        "op_ms_p50": statistics.median(loop.latencies) * 1000.0,
        "op_ms_tail": value * 1000.0,
        "tail_percentile": percentile,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {
            key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "PBES_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="where the traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.prepare()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["environment"] = environment(args.seed)
    warmup = Loop()
    run_op(workload, 0, warmup)
    if not args.trace:
        loop = measure(workload, args.seconds)
        result.update(end_to_end(loop), attempted=loop.attempted + 1,
                      failed=loop.failed + warmup.failed,
                      problems=(warmup.problems + loop.problems)[:MAX_PROBLEMS])
        result["failed_frac"] = result["failed"] / result["attempted"]
    else:
        from spans import Tracer, layer_metrics, patched

        # The untraced and traced phases split the run time, so a traced run
        # takes as long as an untraced one.
        plain = measure(workload, args.seconds / 2)
        tracer = Tracer()
        with patched(tracer):
            traced = measure(workload, args.seconds / 2, tracer)
        layers = layer_metrics(tracer.spans, traced.attempted)
        untraced_rate = end_to_end(plain)["ops_per_s"]
        traced_rate = end_to_end(traced)["ops_per_s"]
        layers["trace.untraced_ops_per_s"] = untraced_rate
        layers["trace.traced_ops_per_s"] = traced_rate
        layers["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
        result.update(per_layer=layers, spans=len(tracer.spans),
                      attempted=1 + plain.attempted + traced.attempted,
                      failed=warmup.failed + plain.failed + traced.failed,
                      problems=(warmup.problems + plain.problems + traced.problems)[:MAX_PROBLEMS])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
