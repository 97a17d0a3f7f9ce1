"""Evaluation metrics and the metrics CSV format.

Macro-F1 averages per-class F1 over the seen classes that actually appear in
the test set; G-mean is the geometric mean of per-class recall and collapses
to 0 as soon as any class has zero recall, which makes it sensitive to
classes being forgotten entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import SoftmaxModel, predict

METRICS_HEADER = "task,accuracy,avg_accuracy,macro_f1,gmean,wall_ms"


@dataclass(frozen=True)
class MetricsRow:
    """Per-task evaluation over all classes seen so far."""

    task_index: int
    accuracy: float
    avg_accuracy: float
    macro_f1: float
    gmean: float
    wall_ms: float


def evaluate(
    model: SoftmaxModel,
    memory,
    points,
    labels,
    classifier: str = "argmax",
) -> tuple[float, float, float]:
    """(accuracy, macro-F1, G-mean) of the model on a labeled test set."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if points.shape[0] == 0:
        raise ValidationError("cannot evaluate on an empty test set")
    seen = set(int(c) for c in model.class_ids)
    stray = set(int(l) for l in labels) - seen
    if stray:
        raise ValidationError(f"test labels {sorted(stray)} were never trained on")
    preds = predict(model, points, mode=classifier, memory=memory)
    accuracy = float(np.mean(preds == labels))

    f1_values = []
    recalls = []
    for cid in sorted(seen):
        truth = labels == cid
        positive = preds == cid
        if not truth.any():
            continue  # class absent from the test set
        tp = int(np.sum(truth & positive))
        fp = int(np.sum(~truth & positive))
        fn = int(np.sum(truth & ~positive))
        f1_values.append(0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn))
        recalls.append(tp / (tp + fn))
    macro_f1 = float(np.mean(f1_values))
    product = np.prod(recalls)
    if any(r == 0.0 for r in recalls):
        gmean = 0.0
    elif product >= 2.0**-1022:
        gmean = float(product ** (1.0 / len(recalls)))
    else:  # the product left the normal range: average the logs instead
        gmean = math.exp(math.fsum(math.log(r) for r in recalls) / len(recalls))
    return accuracy, macro_f1, gmean


def format_metrics_rows(rows: list[MetricsRow]) -> str:
    """Render rows as the metrics CSV (fixed 6-decimal formatting).

    The wall_ms column is always written as 0, keeping the file
    byte-reproducible across reruns; measured timings stay available on the
    row objects (and in the CLI's provenance sidecar).
    """
    lines = [METRICS_HEADER]
    for row in rows:
        lines.append(
            f"{row.task_index},{row.accuracy:.6f},{row.avg_accuracy:.6f},"
            f"{row.macro_f1:.6f},{row.gmean:.6f},0.000000"
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    Path(path).write_bytes(format_metrics_rows(rows).encode("utf-8"))
