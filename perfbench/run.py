"""Run one workload of the pbes benchmark and print its metrics.

    python3 perfbench/run.py --workload blob_suite --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Run from the root of a checkout; ``pbes`` is imported from its ``src``. The
workload runs in a child process (``worker.py``) with one OpenBLAS thread and
``PBES_THREADS=1``, so it keeps one CPU busy. With ``--trace 0`` set-up runs ``SETUP_REPS`` times, in
separate processes, and the end-to-end metrics are printed; with
``--trace 1`` a traced run prints the per-layer metrics instead. Each metric
is printed by name with its unit, then one JSON object as the last line. The
exit code is 0 when every op's output passed its check, 1 when one failed,
and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("blob_suite", "embed_select", "cli_sweep", "image_augment")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str | None:
    """HEAD's commit, read from the files under .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args: list[str], workdir: Path, timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        PBES_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args,
             "--workdir", str(workdir), "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's result: the measured run plus the median set-up time."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        if not trace:
            for i in range(SETUP_REPS - 1):
                setups.append(
                    run_worker(common + ["--setup-only"], work / f"setup{i}", SETUP_TIMEOUT_S)["setup_s"]
                )
        extra = ["--trace", str(trace)]
        if trace:
            extra += ["--spans-out", str(OUT / f"spans-{name}.jsonl")]
        result = run_worker(common + extra, work / "run", RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["environment"]["git_sha"] = git_sha()
    result["workload"] = name
    return result


def report(result: dict, trace: int) -> dict:
    """Print every metric by name with its unit; return the result object printed last."""
    name = result["workload"]
    if trace:
        metrics = {m: {"value": result["per_layer"][m], "unit": u} for m, u in PER_LAYER}
        for m, entry in metrics.items():
            print(f"{name} {m} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {m: {"value": result[m], "unit": u} for m, u in END_TO_END}
        for m, entry in metrics.items():
            print(f"{name} {m} = {entry['value']:.6g} {entry['unit']}")
        print(f"{name} op_ms_tail is the p{result['tail_percentile']:.1f} of {result['attempted']} ops")
        print(f"{name} failed_frac = {result['failed_frac']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"]:
        print(f"{name} FAILED: {problem}")
    print(f"{name} environment: {json.dumps(result['environment'], sort_keys=True)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the pbes benchmark.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0 checks reference digests)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pbes" / "__init__.py").is_file():
        print(f"error: no pbes package under {ROOT / 'src'}; run from a pbes checkout",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        (OUT / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        line = report(result, args.trace)
        correct = correct and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
