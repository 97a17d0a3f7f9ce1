"""Class-incremental experiment engine.

One experiment walks a task stream in order, and all three modes share one
loop. Each task trains on a list of (points, labels) blocks and is scored
on the test splits of every task seen so far. In "upperbound" the blocks are
the train splits of every task seen so far, with no teacher (the usual upper
bound). Otherwise they are the new task's train split, its selective-cut
augmentation when enabled, and the replayed memory contents, last. "method"
distils from the previous-task model as a frozen teacher, then selects
exemplars from the original new-class data and rebalances the memory.
"finetune" has no teacher and its memory stays empty (the usual lower
bound).

Everything derives from the master seed through purpose-keyed child states,
so a run is reproducible byte-for-byte and independent runs can share a
stream while differing in any other respect.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import augmentation
from .errors import ValidationError
from .memory import RehearsalMemory, rebalance_memory
from .metrics import METRICS_HEADER, MetricsRow, evaluate, format_metrics_rows
from .model import LossConfig, SoftmaxModel, TrainingBatch, train_task
from .numerics import RngState
from .sampling import check_sampler, sample
from .stream import SyntheticStreamSpec, TaskStream, generate_synthetic_stream, read_stream

EXPERIMENT_MODES = ("finetune", "method", "upperbound")


@dataclass(frozen=True)
class AugmentSettings(augmentation.AugmentParams):
    """Whether and how to balance class sizes inside each incoming task."""

    enabled: bool = False


@dataclass(frozen=True)
class StreamFiles:
    manifest: str


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    stream: SyntheticStreamSpec | StreamFiles
    mode: str = "method"
    sampler: str = "pbes"
    memory_budget: int = 0
    classifier: str = "argmax"
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentSettings = field(default_factory=AugmentSettings)

    def __post_init__(self):
        if self.mode not in EXPERIMENT_MODES:
            raise ValidationError(f"unknown experiment mode {self.mode!r}")
        check_sampler(self.sampler)
        if self.classifier not in ("argmax", "ncm"):
            raise ValidationError(f"unknown classifier mode {self.classifier!r}")
        if self.memory_budget < 0:
            raise ValidationError(
                f"memory budget must be >= 0, got {self.memory_budget}"
            )
        if self.mode in ("finetune", "upperbound") and self.memory_budget != 0:
            raise ValidationError(
                f"{self.mode} mode keeps no memory: memory_budget must be 0, "
                f"got {self.memory_budget}"
            )
        if self.mode == "upperbound" and self.augment.enabled:
            raise ValidationError(
                "upperbound mode trains on every task's data as it is: "
                "augmentation.enabled must be false"
            )
        if self.classifier == "ncm" and (
            self.mode != "method" or self.memory_budget < 1
        ):
            raise ValidationError(
                "ncm classification needs method mode with a positive memory budget"
            )


def load_stream(config: ExperimentConfig) -> TaskStream:
    if isinstance(config.stream, StreamFiles):
        return read_stream(config.stream.manifest)
    return generate_synthetic_stream(config.stream, config.seed)


def _augment_task(train, class_ids, settings: AugmentSettings, rng: RngState):
    """Balance a task's class sizes by cutting vectors viewed as 1 x 1 x d images."""
    sizes = {int(cid): int(np.sum(train.labels == cid)) for cid in class_ids}
    points = [np.zeros((0, train.points.shape[1]))]
    labels = [np.zeros(0, dtype=np.int64)]
    for cid, count in sorted(augmentation.balance_plan(sizes).items()):
        images = [row.reshape(1, 1, -1) for row in train.rows_for(cid)]
        records = augmentation.augment_class_records(
            images, count, rng.derive("class", cid), params=settings
        )
        points.extend(rec.image.reshape(-1) for rec in records)
        labels.append(np.full(count, cid, dtype=np.int64))
    return np.vstack(points), np.concatenate(labels)


def _run_budgets(
    config: ExperimentConfig, budgets: list[int], stream: TaskStream, augmented
) -> list[list[MetricsRow]]:
    """Every budget's loop over a loaded stream, in lockstep task by task; one
    list of rows per budget, largest budget first. ``augmented`` lists each
    task's cut blocks.

    One :func:`train_task` call trains every budget's model. Each new class is
    selected once, for the largest budget, and the others store a prefix of
    its ranked picks. A task's wall time is the lockstep task's.
    """
    models = [SoftmaxModel.empty(stream.dims)] * len(budgets)
    memories = [RehearsalMemory()] * len(budgets)
    rows: list[list[MetricsRow]] = [[] for _ in budgets]
    selections = {}
    for task_index, (task, extra) in enumerate(zip(stream.tasks, augmented), start=1):
        started = time.perf_counter()
        seen = stream.tasks[:task_index]
        new_ids = tuple(sorted(int(c) for c in task.class_ids))

        if config.mode == "upperbound":
            blocks = [(t.train.points, t.train.labels) for t in seen]
        else:
            blocks = [(task.train.points, task.train.labels), *extra]
        class_ids = tuple(models[0].class_ids) + new_ids
        batches = []
        for memory in memories:
            # Replayed rows come last; memory is empty outside method mode.
            stored = memory.stored_points()
            own = blocks if stored is None else [*blocks, stored]
            X, y = (np.concatenate(column) for column in zip(*own))
            batches.append(TrainingBatch(inputs=X, labels=y, class_ids=class_ids))
        # Models are never mutated, so the previous models are the teachers.
        teachers = models if config.mode == "method" else [None] * len(models)
        models = train_task(models, teachers, batches, config.loss)

        def select(cid, points, m):
            key = (task_index, cid)
            if key not in selections:  # the largest budget asks first, for the most rows
                rng = RngState(config.seed).derive("sampler", task_index, cid)
                selections[key] = sample(config.sampler, points, m, rng=rng)
            return replace(selections[key], ordered_indices=selections[key].ordered_indices[:m])

        # Exemplars come from the original (never augmented) new-class rows;
        # only method mode has a positive budget.
        new_rows = {cid: task.train.rows_for(cid) for cid in new_ids}
        memories = [
            rebalance_memory(memory, new_rows, budget, select) if budget else memory
            for memory, budget in zip(memories, budgets)
        ]

        points = np.vstack([t.test.points for t in seen])
        labels = np.concatenate([t.test.labels for t in seen])
        scores = [
            evaluate(model, memory, points, labels, classifier=config.classifier)
            for model, memory in zip(models, memories)
        ]
        wall_ms = (time.perf_counter() - started) * 1000.0
        for budget_rows, (accuracy, macro_f1, gmean) in zip(rows, scores):
            average = float(np.mean([r.accuracy for r in budget_rows] + [accuracy]))
            budget_rows.append(MetricsRow(task_index, accuracy, average, macro_f1, gmean, wall_ms))
    return rows


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Execute the full train/select/rebalance/evaluate loop: the sweep of one budget."""
    return sweep_budgets(config, [config.memory_budget])[0][1]


def sweep_budgets(
    config: ExperimentConfig, budgets: list[int]
) -> list[tuple[int, list[MetricsRow]]]:
    """Run the experiment once per memory budget, deduplicated; results ascend by budget.

    Every budget's config is built, and so validated, before the stream loads.
    Neither the stream nor a task's augmented block depends on the budget, so
    both are made once, and the budgets run in lockstep on them
    (:func:`_run_budgets`). A failure is the first in task order.
    """
    if not budgets:
        raise ValidationError("budget sweep needs at least one budget")
    configs: dict[int, ExperimentConfig] = {}
    for b in budgets:
        if b in configs:
            warnings.warn(f"duplicate budget {b} ignored", stacklevel=2)
        else:
            configs[b] = replace(config, memory_budget=b)
    stream = load_stream(config)
    augmented = [[] for _ in stream.tasks]
    if config.augment.enabled:  # each row is cut as a 1 x dims image
        for name, limit in (("region_height", 1), ("region_width", stream.dims)):
            size = getattr(config.augment, name) or 1
            if size > limit:
                raise ValidationError(f"augmentation.{name} {size} exceeds a 1 x {stream.dims} row")
        augmented = [
            [_augment_task(task.train, task.class_ids, config.augment,
                           RngState(config.seed).derive("augment", task_index))]
            for task_index, task in enumerate(stream.tasks, start=1)
        ]
    largest_first = sorted(configs, reverse=True)
    rows = _run_budgets(config, largest_first, stream, augmented)
    return list(zip(largest_first, rows))[::-1]


SWEEP_HEADER = "M," + METRICS_HEADER


def format_sweep_rows(results: list[tuple[int, list[MetricsRow]]]) -> str:
    """One metrics block per budget in a single CSV, rows ordered by (M, task)."""
    lines = [SWEEP_HEADER]
    for budget, rows in results:
        body = format_metrics_rows(rows).splitlines()[1:]
        lines.extend(f"{budget},{line}" for line in body)
    return "\n".join(lines) + "\n"
