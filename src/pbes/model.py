"""Linear-softmax classifier and its loss algebra.

The classifier head is trained with a combination of cross-entropy over all
current classes (temperature 1) and, when a frozen teacher from the previous
task exists, a distillation term over the old classes at temperature T > 1.
The combined objective is ``beta * distill + (1 - beta) * cross_entropy``;
both terms are sums over the batch, not means, so learning rates couple to
batch size. Models are immutable values: training returns a new model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, NumericalError, ValidationError

MODEL_MAGIC = b"PBMC"
MODEL_FORMAT_VERSION = 1
_PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class SoftmaxModel:
    """Linear classifier: logits(x) = weights @ x + bias, one row per class."""

    weights: np.ndarray  # (classes, features) float64
    bias: np.ndarray  # (classes,) float64
    class_ids: tuple[int, ...]

    def __post_init__(self):
        k, d = self.weights.shape
        if len(self.class_ids) != k or self.bias.shape != (k,):
            raise ValidationError(
                f"inconsistent model shapes: W {self.weights.shape}, "
                f"b {self.bias.shape}, {len(self.class_ids)} class ids"
            )
        if k and d and not (
            np.isfinite(self.weights).all() and np.isfinite(self.bias).all()
        ):
            raise ValidationError("model parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]

    def logits(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return X @ self.weights.T + self.bias

    @staticmethod
    def empty(num_features: int) -> "SoftmaxModel":
        return SoftmaxModel(
            weights=np.zeros((0, num_features)),
            bias=np.zeros(0),
            class_ids=(),
        )


def make_teacher(model: SoftmaxModel) -> SoftmaxModel:
    """Deep-copied snapshot of a model, safe against later mutation."""
    return SoftmaxModel(
        weights=model.weights.copy(),
        bias=model.bias.copy(),
        class_ids=tuple(model.class_ids),
    )


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the combined objective and its gradient descent.

    ``batch_size`` 0 means full batch. ``distill_scope`` chooses whether the
    distillation sum ranges over every training row ("all") or only rows
    flagged as replayed exemplars ("exemplars_only"). ``ce_shared_temperature``
    switches the cross-entropy term from temperature 1 to the distillation
    temperature (the alternative literal reading of the combined objective).
    """

    temperature: float = 2.0
    beta: float = 0.5
    learning_rate: float = 0.05
    epochs: int = 300
    batch_size: int = 0
    distill_scope: str = "all"
    ce_shared_temperature: bool = False

    def __post_init__(self):
        if not self.temperature > 1.0:
            raise ValidationError(f"temperature must be > 1, got {self.temperature}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta must be in [0, 1], got {self.beta}")
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if self.epochs < 0 or self.batch_size < 0:
            raise ValidationError("epochs and batch size must be >= 0")
        if self.distill_scope not in ("all", "exemplars_only"):
            raise ValidationError(f"unknown distill scope {self.distill_scope!r}")

    def ce_temperature(self) -> float:
        return self.temperature if self.ce_shared_temperature else 1.0


@dataclass(frozen=True)
class TrainingBatch:
    """Inputs with one-hot labels over an ordered class id list.

    ``exemplar_mask`` marks rows replayed from memory (used by the
    "exemplars_only" distillation scope); None means no rows are marked.
    """

    inputs: np.ndarray  # (n, features)
    labels: np.ndarray  # (n, classes) one-hot
    class_ids: tuple[int, ...]
    exemplar_mask: np.ndarray | None = None

    def __post_init__(self):
        X = self.inputs
        Y = self.labels
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValidationError(
                f"inputs {X.shape} and labels {Y.shape} do not align"
            )
        if Y.shape[1] != len(self.class_ids):
            raise ValidationError(
                f"label width {Y.shape[1]} != {len(self.class_ids)} class ids"
            )
        if not np.isin(Y, (0.0, 1.0)).all() or not (Y.sum(axis=1) == 1.0).all():
            raise ValidationError("labels must be one-hot rows")
        if self.exemplar_mask is not None and self.exemplar_mask.shape != (
            X.shape[0],
        ):
            raise ValidationError("exemplar mask must have one entry per row")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def one_hot(labels, class_ids: tuple[int, ...]) -> np.ndarray:
    """Encode integer labels as one-hot rows over the given class id order."""
    index = {cid: i for i, cid in enumerate(class_ids)}
    out = np.zeros((len(labels), len(class_ids)))
    for row, lab in enumerate(labels):
        key = int(lab)
        if key not in index:
            raise ValidationError(f"label {key} not among class ids {class_ids}")
        out[row, index[key]] = 1.0
    return out


def softmax_with_temperature(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax along the last axis, computed with max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0 or z.shape[-1] == 0:
        raise ValidationError("softmax needs at least one logit")
    if not temperature >= 1.0:
        raise ValidationError(f"temperature must be >= 1, got {temperature}")
    scaled = z / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(
    batch: TrainingBatch, model: SoftmaxModel, temperature: float = 1.0
) -> float:
    """Summed cross-entropy over all current classes (temperature 1 by default)."""
    if len(batch.class_ids) != model.num_classes:
        raise ValidationError(
            f"label width {len(batch.class_ids)} != model classes {model.num_classes}"
        )
    probs = softmax_with_temperature(model.logits(batch.inputs), temperature)
    return float(-(batch.labels * np.log(np.maximum(probs, _PROB_FLOOR))).sum())


def distillation_loss(
    student_logits_old: np.ndarray, teacher_logits: np.ndarray, temperature: float
) -> float:
    """Summed soft cross-entropy between temperature-softened distributions.

    Both logit matrices cover only the old classes; each row is normalized
    over those columns alone.
    """
    s = np.asarray(student_logits_old, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 2:
        raise ValidationError(f"logit shapes {s.shape} and {t.shape} must match")
    if s.shape[1] < 1:
        raise ValidationError("distillation needs at least one old class")
    if not temperature > 1.0:
        raise ValidationError(f"distillation temperature must be > 1, got {temperature}")
    if s.shape[0] == 0:
        return 0.0
    p = softmax_with_temperature(s, temperature)
    q = softmax_with_temperature(t, temperature)
    return float(-(q * np.log(np.maximum(p, _PROB_FLOOR))).sum())


def combine_losses(distill: float, cross_entropy: float, beta: float) -> float:
    """beta-weighted sum of the two loss terms."""
    return beta * distill + (1.0 - beta) * cross_entropy


def _check_teacher(model: SoftmaxModel, teacher: SoftmaxModel) -> None:
    k_old = teacher.num_classes
    if k_old > model.num_classes:
        raise ValidationError("teacher has more classes than the student")
    if tuple(teacher.class_ids) != tuple(model.class_ids[:k_old]):
        raise ValidationError("teacher class ids must prefix the student's")


def _distill_rows(batch: TrainingBatch, config: LossConfig) -> np.ndarray:
    if config.distill_scope == "exemplars_only":
        if batch.exemplar_mask is None:
            return np.zeros(len(batch), dtype=bool)
        return batch.exemplar_mask.astype(bool)
    return np.ones(len(batch), dtype=bool)


def combined_loss(
    batch: TrainingBatch,
    model: SoftmaxModel,
    teacher: SoftmaxModel | None,
    config: LossConfig,
) -> float:
    """Cross-entropy plus distillation against the teacher, beta-weighted.

    Without a teacher (first task) the result is the plain cross-entropy,
    i.e. beta is treated as 0.
    """
    ce = cross_entropy_loss(batch, model, config.ce_temperature())
    if teacher is None or teacher.num_classes == 0:
        return ce
    _check_teacher(model, teacher)
    rows = _distill_rows(batch, config)
    if not rows.any():
        distill = 0.0
    else:
        student = model.logits(batch.inputs[rows])[:, : teacher.num_classes]
        distill = distillation_loss(
            student, teacher.logits(batch.inputs[rows]), config.temperature
        )
    return combine_losses(distill, ce, config.beta)


def _soft_targets(
    teacher: SoftmaxModel, X: np.ndarray, rows: np.ndarray, temperature: float
) -> np.ndarray:
    """The teacher's softened distribution on the distilled rows of X."""
    if not rows.any():
        return np.zeros((0, teacher.num_classes))
    return softmax_with_temperature(teacher.logits(X[rows]), temperature)


def _gradient(X, Y, W, b, rows, q, config: LossConfig):
    """(dW, db) of the combined loss from raw arrays; the one gradient formula.

    ``rows`` selects the distilled rows, as a boolean mask or as a slice when
    every row is distilled. ``q`` is the teacher's softened distribution on
    those rows, or None when there is no teacher (beta is then 0).
    """
    logits = X @ W.T + b
    ce_temp = config.ce_temperature()
    probs = softmax_with_temperature(logits, ce_temp)
    if q is None:
        grad_logits = (probs - Y) / ce_temp
    else:
        grad_logits = (1.0 - config.beta) * (probs - Y) / ce_temp
        if len(q):
            k_old = q.shape[1]
            temp = config.temperature
            p = softmax_with_temperature(logits[rows][:, :k_old], temp)
            distill_grad = np.zeros_like(grad_logits[rows])
            distill_grad[:, :k_old] = (p - q) / temp
            grad_logits[rows] += config.beta * distill_grad
    return grad_logits.T @ X, grad_logits.sum(axis=0)


def loss_gradient(
    batch: TrainingBatch,
    model: SoftmaxModel,
    teacher: SoftmaxModel | None,
    config: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dW, db) of :func:`combined_loss` for the linear model."""
    if len(batch.class_ids) != model.num_classes:
        raise ValidationError(
            f"label width {len(batch.class_ids)} != model classes {model.num_classes}"
        )
    X = np.asarray(batch.inputs, dtype=np.float64)
    rows = q = None
    if teacher is not None and teacher.num_classes:
        _check_teacher(model, teacher)
        rows = _distill_rows(batch, config)
        q = _soft_targets(teacher, X, rows, config.temperature)
    return _gradient(X, batch.labels, model.weights, model.bias, rows, q, config)


def _extend_for_new_classes(
    model: SoftmaxModel, class_ids: tuple[int, ...]
) -> SoftmaxModel:
    """Zero-initialized weight rows for classes the model has not seen."""
    if tuple(model.class_ids) == tuple(class_ids):
        return model
    if tuple(class_ids[: model.num_classes]) != tuple(model.class_ids):
        raise ValidationError(
            "training class ids must extend the model's class ids in order"
        )
    extra = len(class_ids) - model.num_classes
    return SoftmaxModel(
        weights=np.vstack([model.weights, np.zeros((extra, model.num_features))]),
        bias=np.concatenate([model.bias, np.zeros(extra)]),
        class_ids=tuple(class_ids),
    )


def train_task(
    model: SoftmaxModel,
    teacher: SoftmaxModel | None,
    data: TrainingBatch,
    config: LossConfig,
) -> SoftmaxModel:
    """Gradient descent on the combined loss; returns a new model.

    New classes in the batch get zero-initialized rows before training, which
    leaves old-class logits untouched at the task boundary. Mini-batches (if
    any) run in fixed slice order, so the whole procedure is deterministic.

    Inputs are validated once: ``data`` was checked when it was built (its
    slices stay one-hot), and the teacher is checked and its softened targets
    computed per slice before the first step, since the frozen teacher never
    changes within a task. Each step then runs :func:`_gradient` on raw
    arrays; only the finiteness of the updated parameters is checked per step.
    """
    model = _extend_for_new_classes(model, data.class_ids)
    if config.epochs == 0:
        return model
    X = np.asarray(data.inputs, dtype=np.float64)
    n = X.shape[0]
    if config.batch_size == 0 or config.batch_size >= n:
        slices = [slice(0, n)]
    else:
        slices = [
            slice(start, min(start + config.batch_size, n))
            for start in range(0, n, config.batch_size)
        ]
    W = model.weights.copy()
    b = model.bias.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if teacher is None or teacher.num_classes == 0:
            steps = [(X[sl], data.labels[sl], None, None) for sl in slices]
        else:
            _check_teacher(model, teacher)
            rows = _distill_rows(data, config)
            steps = []
            for sl in slices:
                q = _soft_targets(teacher, X[sl], rows[sl], config.temperature)
                # Selecting every row by a slice spares the copies a mask costs.
                selected = slice(None) if rows[sl].all() else rows[sl]
                steps.append((X[sl], data.labels[sl], selected, q))
        for _ in range(config.epochs):
            for X_s, Y_s, rows_s, q_s in steps:
                grad_w, grad_b = _gradient(X_s, Y_s, W, b, rows_s, q_s, config)
                W = W - config.learning_rate * grad_w
                b = b - config.learning_rate * grad_b
                if not (np.isfinite(W).all() and np.isfinite(b).all()):
                    raise NumericalError(
                        "training diverged to non-finite parameters; "
                        "lower the learning rate"
                    )
    return SoftmaxModel(W, b, data.class_ids)


def classify(model: SoftmaxModel, x, mode: str = "argmax", memory=None) -> int:
    """Predict a class id for one feature vector.

    "argmax" takes the class with the largest logit. "ncm" takes the class
    whose stored-exemplar mean is nearest in Euclidean distance; it needs a
    rehearsal memory with at least one stored point.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.num_features,):
        raise ValidationError(
            f"input has shape {x.shape}, expected ({model.num_features},)"
        )
    return int(predict(model, x[None, :], mode=mode, memory=memory)[0])


def predict(model: SoftmaxModel, X, mode: str = "argmax", memory=None) -> np.ndarray:
    """Vectorized :func:`classify` over the rows of X."""
    X = np.asarray(X, dtype=np.float64)
    if mode == "argmax":
        if model.num_classes == 0:
            raise ValidationError("model has no classes")
        ids = np.asarray(model.class_ids)
        scores = model.logits(X)
    elif mode == "ncm":
        if memory is None:
            raise ValidationError("ncm classification requires a rehearsal memory")
        ids, means = memory.class_means()
        if len(ids) == 0:
            raise ValidationError("ncm classification with an empty memory")
        diff = X[:, None, :] - means[None, :, :]
        scores = -np.sqrt((diff * diff).sum(axis=2))
        ids = np.asarray(ids)
    else:
        raise ValidationError(f"unknown classifier mode {mode!r}")
    best = scores.max(axis=1, keepdims=True)
    candidates = np.where(scores == best, ids[None, :], np.iinfo(np.int64).max)
    return candidates.min(axis=1)


def save_model(path, model: SoftmaxModel) -> None:
    """Write a checkpoint: versioned header, class ids, f64 W and b, all LE."""
    k, d = model.weights.shape
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<III", MODEL_FORMAT_VERSION, k, d))
        fh.write(np.asarray(model.class_ids, dtype="<i8").tobytes())
        fh.write(model.weights.astype("<f8").tobytes(order="C"))
        fh.write(model.bias.astype("<f8").tobytes())


def load_model(path) -> SoftmaxModel:
    """Read a checkpoint written by :func:`save_model`, byte-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a model checkpoint")
    if len(blob) < 16:
        raise FileFormatError(f"{path}: truncated checkpoint header")
    version, k, d = struct.unpack("<III", blob[4:16])
    if version != MODEL_FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {version}")
    expected = 16 + 8 * k + 8 * k * d + 8 * k
    if len(blob) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes for {k} classes x {d} features"
        )
    offset = 16
    ids = np.frombuffer(blob[offset : offset + 8 * k], dtype="<i8")
    offset += 8 * k
    weights = np.frombuffer(blob[offset : offset + 8 * k * d], dtype="<f8").reshape(
        k, d
    )
    offset += 8 * k * d
    bias = np.frombuffer(blob[offset:], dtype="<f8")
    return SoftmaxModel(
        weights=weights.copy(), bias=bias.copy(), class_ids=tuple(int(i) for i in ids)
    )
