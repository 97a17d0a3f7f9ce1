"""Canonical synthetic blob benchmark used by the robustness experiments.

Ten imbalanced Gaussian classes arrive over five tasks in eight dimensions;
a tenth of every class is displaced twenty standard deviations away to act
as outliers. All modes classify by argmax logits, so the fine-tune lower
bound and the all-data upper bound bracket the rehearsal methods under one
consistent protocol, and the sampler comparison isolates how replayed
exemplar quality affects retention.
"""

from __future__ import annotations

from .harness import ExperimentConfig
from .model import LossConfig
from .stream import SyntheticStreamSpec

BLOB_BUDGET = 40
BLOB_SEEDS = tuple(range(20))
BLOB_BUDGET_SWEEP = (8, 16, 32, 64)


def blob_stream_spec() -> SyntheticStreamSpec:
    return SyntheticStreamSpec(
        classes=10,
        tasks=5,
        class_size=60,
        imbalance_ratio=2.0,
        blob_std=1.0,
        layout_radius=6.0,
        outlier_fraction=0.1,
        outlier_distance=20.0,
        dims=8,
        test_fraction=0.2,
    )


def blob_loss_config() -> LossConfig:
    # Losses are summed over the batch, so the step size is scaled down to
    # stay inside the stable region for task-sized batches at this radius.
    return LossConfig(
        temperature=1.5,
        beta=0.5,
        learning_rate=1e-4,
        epochs=500,
        batch_size=0,
    )


def blob_config(
    mode: str, seed: int, sampler: str = "pbes", budget: int = BLOB_BUDGET
) -> ExperimentConfig:
    """Benchmark run configuration for one mode/sampler/seed/budget."""
    if mode in ("finetune", "upperbound"):
        return ExperimentConfig(
            seed=seed,
            stream=blob_stream_spec(),
            mode=mode,
            memory_budget=0,
            classifier="argmax",
            loss=blob_loss_config(),
        )
    return ExperimentConfig(
        seed=seed,
        stream=blob_stream_spec(),
        mode="method",
        sampler=sampler,
        memory_budget=budget,
        classifier="argmax",
        loss=blob_loss_config(),
    )

