"""The functions the benchmark's traced run wraps stay where it looks them up.

``perfbench/spans.py`` replaces module attributes such as
``pbes.harness.rebalance_memory`` with recording wrappers and derives counts
from their arguments and results (``total_stored()`` of the memory,
``len(points)`` of ``evaluate``'s third argument). A moved or renamed seam
would not fail the benchmark; its metrics would silently read 0.
"""

import importlib.util
import json
import sys
from pathlib import Path

from pbes import harness
from pbes.cli import main
from pbes.harness import ExperimentConfig
from pbes.model import LossConfig
from pbes.stream import SyntheticStreamSpec

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_run_and_sweep_reach_every_harness_seam(tmp_path):
    spans = load_spans()
    stream = {"classes": 4, "tasks": 2, "class_size": 8, "dims": 3}
    config_path = tmp_path / "config.json"
    # The sweep balances its imbalanced classes by selective cuts.
    config_path.write_text(json.dumps({
        "seed": 3,
        "memory_budget": 4,
        "loss": {"learning_rate": 0.001, "epochs": 2},
        "augmentation": {"enabled": True},
        "stream": {"synthetic": {**stream, "imbalance_ratio": 2.0}},
    }))
    config = ExperimentConfig(
        seed=3,
        stream=SyntheticStreamSpec(**stream),
        memory_budget=4,
        loss=LossConfig(learning_rate=0.001, epochs=2),
    )
    tracer = spans.Tracer()
    with spans.patched(tracer):
        tracer.begin_op(0)
        # Looked up inside the patched block, so the call goes through the wrapper.
        harness.run_experiment(config)
        tracer.begin_op(1)
        argv = ["sweep", "--config", str(config_path), "--budgets", "2,4",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
    metrics = spans.layer_metrics(tracer.spans, ops=2)
    for name in (
        "memory.rebalance_memory.stored_rows",
        "metrics.evaluate.rows",
        "model.train_task.calls",
        "model.predict.calls",
        "sampling.pbes_sample.calls",
        "harness.run_experiment.calls",
        "harness.sweep_budgets.calls",
        "augmentation.augment_class_records.calls",
    ):
        assert metrics[name] > 0, name


def test_traced_run_counts_the_rank_fallback():
    # dims 2: a quota of 8 rows needs 4 or more passes, against a rank of 2.
    spans = load_spans()
    config = ExperimentConfig(
        seed=3,
        stream=SyntheticStreamSpec(classes=4, tasks=2, class_size=12, dims=2),
        memory_budget=16,
        loss=LossConfig(learning_rate=0.001, epochs=2),
    )
    tracer = spans.Tracer()
    with spans.patched(tracer):
        tracer.begin_op(0)
        harness.run_experiment(config)
    assert spans.layer_metrics(tracer.spans, ops=1)["numerics.principal_directions.fallback"] > 0
