"""Class-incremental experiment engine.

One experiment walks a task stream in order. In "method" mode each task
trains on the new data (optionally balanced by selective-cut augmentation)
plus the replayed memory contents, with the previous-task model as a frozen
distillation teacher; exemplars are then selected from the original new-class
data and the memory is rebalanced. "finetune" ignores memory and distillation
entirely (the usual lower bound) and "upperbound" retrains on everything seen
so far with cross-entropy only.

Everything derives from the master seed through purpose-keyed child states,
so a run is reproducible byte-for-byte and independent runs can share a
stream while differing in any other respect.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .augmentation import AugmentParams, augment_class, balance_plan
from .errors import ValidationError
from .memory import RehearsalMemory, quotas_for, rebalance_memory
from .metrics import MetricsRow, evaluate, format_metrics_rows
from .model import (
    LossConfig,
    SoftmaxModel,
    TrainingBatch,
    make_teacher,
    one_hot,
    train_task,
)
from .numerics import RngState
from .sampling import SAMPLER_NAMES, ExemplarSelection, sample
from .stream import SyntheticStreamSpec, TaskStream, generate_synthetic_stream, read_stream

EXPERIMENT_MODES = ("finetune", "method", "upperbound")


@dataclass(frozen=True)
class AugmentSettings(AugmentParams):
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
    randp_pool: int | None = None
    memory_budget: int = 0
    classifier: str = "argmax"
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentSettings = field(default_factory=AugmentSettings)

    def __post_init__(self):
        if self.mode not in EXPERIMENT_MODES:
            raise ValidationError(f"unknown experiment mode {self.mode!r}")
        if self.sampler not in SAMPLER_NAMES:
            raise ValidationError(f"unknown sampler {self.sampler!r}")
        if self.randp_pool is not None:
            if self.sampler != "randp":
                raise ValidationError("randp_pool only applies to the randp sampler")
            if self.randp_pool < 1:
                raise ValidationError("randp_pool must be >= 1")
        if self.classifier not in ("argmax", "ncm"):
            raise ValidationError(f"unknown classifier mode {self.classifier!r}")
        if self.memory_budget < 0:
            raise ValidationError("memory budget must be >= 0")
        if self.mode == "finetune" and self.memory_budget != 0:
            raise ValidationError("finetune mode requires a zero memory budget")
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
    plan = balance_plan(sizes)
    extra_points, extra_labels = [], []
    for cid in sorted(plan.counts):
        count = plan.counts[cid]
        if count == 0:
            continue
        rows = train.rows_for(cid)
        images = [row.reshape(1, 1, -1) for row in rows]
        generated = augment_class(
            images, count, rng.derive("class", cid), params=settings
        )
        extra_points.extend(img.reshape(-1) for img in generated)
        extra_labels.extend([cid] * count)
    if not extra_points:
        return np.zeros((0, train.points.shape[1])), np.zeros(0, dtype=np.int64)
    return np.vstack(extra_points), np.asarray(extra_labels, dtype=np.int64)


def _select_exemplars(
    train,
    class_ids,
    config: ExperimentConfig,
    task_index: int,
    quota_by_class: dict[int, int],
) -> dict[int, tuple[ExemplarSelection, np.ndarray]]:
    """Ordered selections from the original (never augmented) new-class data."""
    selections = {}
    for cid in sorted(int(c) for c in class_ids):
        rows = train.rows_for(cid)
        m = min(quota_by_class[cid], rows.shape[0])
        if m == 0:
            selections[cid] = (ExemplarSelection(config.sampler, (), None), rows)
            continue
        rng = RngState(config.seed).derive("sampler", task_index, cid)
        selections[cid] = (
            sample(config.sampler, rows, m, rng=rng, pool_size=config.randp_pool),
            rows,
        )
    return selections


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Execute the full train/select/rebalance/evaluate loop over the stream."""
    stream = load_stream(config)
    dims = stream.dims
    model = SoftmaxModel.empty(dims)
    memory = RehearsalMemory(budget=config.memory_budget)
    teacher = None
    rows: list[MetricsRow] = []
    accuracies: list[float] = []
    all_train_points: list[np.ndarray] = []
    all_train_labels: list[np.ndarray] = []
    all_test_points: list[np.ndarray] = []
    all_test_labels: list[np.ndarray] = []

    for task_index, task in enumerate(stream.tasks, start=1):
        started = time.perf_counter()
        new_ids = tuple(sorted(int(c) for c in task.class_ids))
        current_ids = tuple(model.class_ids) + new_ids

        train_points = [task.train.points]
        train_labels = [task.train.labels]
        if config.augment.enabled and config.mode != "upperbound":
            aug_rng = RngState(config.seed).derive("augment", task_index)
            extra_pts, extra_labs = _augment_task(
                task.train, new_ids, config.augment, aug_rng
            )
            if len(extra_labs):
                train_points.append(extra_pts)
                train_labels.append(extra_labs)

        exemplar_rows = 0
        if config.mode == "upperbound":
            all_train_points.append(task.train.points)
            all_train_labels.append(task.train.labels)
            train_points = list(all_train_points)
            train_labels = list(all_train_labels)
            effective_teacher = None
            loss_config = replace(config.loss, beta=0.0)
        elif config.mode == "finetune":
            effective_teacher = None
            loss_config = replace(config.loss, beta=0.0)
        else:
            stored = memory.stored_points()
            if stored is not None:
                train_points.append(stored[0])
                train_labels.append(stored[1])
                exemplar_rows = stored[0].shape[0]
            effective_teacher = teacher
            loss_config = config.loss

        X = np.vstack(train_points)
        y = np.concatenate(train_labels)
        mask = np.zeros(X.shape[0], dtype=bool)
        if exemplar_rows:
            mask[X.shape[0] - exemplar_rows :] = True
        batch = TrainingBatch(
            inputs=X,
            labels=one_hot(y, current_ids),
            class_ids=current_ids,
            exemplar_mask=mask if exemplar_rows else None,
        )
        model = train_task(model, effective_teacher, batch, loss_config)

        if config.mode == "method" and config.memory_budget > 0:
            arrival_after = memory.class_ids() + list(sorted(new_ids))
            quotas = quotas_for(config.memory_budget, len(arrival_after))
            quota_by_class = dict(zip(arrival_after, quotas))
            selections = _select_exemplars(
                task.train, new_ids, config, task_index, quota_by_class
            )
            memory = rebalance_memory(memory, selections, config.memory_budget)

        all_test_points.append(task.test.points)
        all_test_labels.append(task.test.labels)
        accuracy, macro_f1, gmean = evaluate(
            model,
            memory,
            np.vstack(all_test_points),
            np.concatenate(all_test_labels),
            classifier=config.classifier,
        )
        accuracies.append(accuracy)
        rows.append(
            MetricsRow(
                task_index=task_index,
                accuracy=accuracy,
                avg_accuracy=float(np.mean(accuracies)),
                macro_f1=macro_f1,
                gmean=gmean,
                wall_ms=(time.perf_counter() - started) * 1000.0,
            )
        )
        teacher = make_teacher(model)
    return rows


def sweep_budgets(
    config: ExperimentConfig, budgets: list[int]
) -> list[tuple[int, list[MetricsRow]]]:
    """Run the experiment once per memory budget, ascending, deduplicated."""
    if not budgets:
        raise ValidationError("budget sweep needs at least one budget")
    unique: list[int] = []
    for b in budgets:
        if b < 0:
            raise ValidationError(f"memory budget must be >= 0, got {b}")
        if b in unique:
            warnings.warn(f"duplicate budget {b} ignored", stacklevel=2)
        else:
            unique.append(b)
    return [(b, run_experiment(replace(config, memory_budget=b))) for b in sorted(unique)]


SWEEP_HEADER = "M,task,accuracy,avg_accuracy,macro_f1,gmean,wall_ms"


def format_sweep_rows(results: list[tuple[int, list[MetricsRow]]]) -> str:
    """One metrics block per budget in a single CSV, rows ordered by (M, task)."""
    lines = [SWEEP_HEADER]
    for budget, rows in results:
        body = format_metrics_rows(rows).splitlines()[1:]
        lines.extend(f"{budget},{line}" for line in body)
    return "\n".join(lines) + "\n"


def decision_flags(config: ExperimentConfig) -> dict:
    """Behavioural switches recorded alongside every run for provenance."""
    return {
        "covariance_divisor": "n",
        "eigensolver": "cyclic-jacobi",
        "direction_sign": "largest-magnitude-component-positive",
        "rank_fallback": "cycle-informative-directions",
        "cross_entropy_temperature": config.loss.ce_temperature(),
        "distill_scope": config.loss.distill_scope,
        "memory_discard": "prefix-truncation",
        "quota_remainder": "earliest-arrivals-first",
        "exemplar_source": "original-data-only",
        "saliency_fallback": "channel-mean-absolute-deviation",
        "metrics_timing_column": "deterministic-zero",
    }
