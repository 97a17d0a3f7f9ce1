"""Linear-softmax classifier and its loss algebra.

The classifier head is trained with a combination of cross-entropy over all
current classes (temperature 1) and, when a frozen teacher from the previous
task exists, a distillation term over the old classes at temperature T > 1.
The combined objective is ``beta * distill + (1 - beta) * cross_entropy``;
both terms are sums over the batch, not means, so learning rates couple to
batch size. Models are immutable values: training returns a new model.

The training kernel folds the bias into its products, ``[W | b]`` times
``[X | 1]``, and works on (classes, rows) arrays: each softmax reduces down
columns with numpy's own max and sum, one class after another, and a single
product gives the weight and bias gradients together. Its bits are its own;
like ``eigh``'s, they hold for one numpy/BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


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
        if not 1.0 < self.temperature < math.inf:
            raise ValidationError(
                f"temperature must be finite and > 1, got {self.temperature}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValidationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.distill_scope not in ("all", "exemplars_only"):
            raise ValidationError(f"unknown distill scope {self.distill_scope!r}")

    def ce_temperature(self) -> float:
        return self.temperature if self.ce_shared_temperature else 1.0


@dataclass(frozen=True)
class TrainingBatch:
    """Inputs with integer labels over an ordered list of distinct class ids.

    Each label is one of ``class_ids``; its position there is the label's
    logit column. ``exemplar_mask`` marks rows replayed from memory (used by
    the "exemplars_only" distillation scope); None means no rows are marked.
    """

    inputs: np.ndarray  # (n, features)
    labels: np.ndarray  # (n,) class ids
    class_ids: tuple[int, ...]
    exemplar_mask: np.ndarray | None = None

    def __post_init__(self):
        X = self.inputs
        y = self.labels
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"inputs {X.shape} and labels {y.shape} do not align"
            )
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValidationError(f"class ids {self.class_ids} are not distinct")
        stray = np.setdiff1d(y, self.class_ids)
        if stray.size:
            raise ValidationError(
                f"labels {stray.tolist()} not among class ids {self.class_ids}"
            )
        if self.exemplar_mask is not None and self.exemplar_mask.shape != (
            X.shape[0],
        ):
            raise ValidationError("exemplar mask must have one entry per row")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _label_matrix(batch: TrainingBatch) -> np.ndarray:
    """0/1 rows over ``batch.class_ids``, one per label; :func:`_steps` stores
    them transposed, one row per class, as :func:`_gradient` reads them."""
    return (batch.labels[:, None] == np.asarray(batch.class_ids)).astype(np.float64)


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


def _softmax_columns(z: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax down each column of ``z``, computed in place."""
    if temperature != 1.0:
        z /= temperature
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=0)
    return z


def _coefficients(config: LossConfig) -> tuple[float, float, float]:
    """The cross-entropy temperature, the distillation temperature and
    1 - beta, which :func:`_gradient` reads on every step."""
    return config.ce_temperature(), config.temperature, 1.0 - config.beta


def _gradient(Xa, Yt, Wa, qt, weight, coefficients):
    """Gradient of the combined loss in ``[dW | db]`` form; the one gradient formula.

    ``Xa = [X | 1]`` and ``Wa = [W | b]`` fold the bias into the products.
    Logits, targets and the gradient are (classes, rows) arrays, so each
    softmax reduces down columns. ``Yt`` holds the 0/1 labels. ``qt`` is the
    teacher's softened distribution, 0 in the columns of rows that are not
    distilled, or None when there is no teacher (beta is then 0); it has zero
    height when no row of the slice is distilled. ``weight`` is beta / T on
    distilled rows and 0 on the others, where the term adds ``+0.0``: their
    entries keep their bits, but for a ``-0.0`` (scale 0 at beta 1), whose
    sign the final product drops anyway, as its sums start from ``+0.0``.
    """
    ce_temp, temp, keep = coefficients
    z = Wa @ Xa.T
    if z.size == 0:
        raise ValidationError("softmax needs at least one logit")
    k_old = 0 if qt is None else qt.shape[0]
    if k_old:
        p = z[:k_old] / temp  # a new array: the next line overwrites z
    _softmax_columns(z, ce_temp)
    z -= Yt
    scale = (1.0 if qt is None else keep) / ce_temp
    if scale != 1.0:
        z *= scale
    if k_old:
        p = _softmax_columns(p, 1.0)
        p -= qt
        p *= weight
        z[:k_old] += p
    return z @ Xa


def _steps(
    model: SoftmaxModel,
    teacher: SoftmaxModel | None,
    data: TrainingBatch,
    config: LossConfig,
    batch_size: int,
) -> list[tuple]:
    """The fixed ``(Xa, Yt, qt, weight)`` arguments of :func:`_gradient`, one per slice.

    Slices of ``batch_size`` rows (0 means the whole batch) run in order; a
    0-row batch still yields one empty slice, which :func:`_gradient` rejects.
    Each slice's inputs carry a column of ones, ``Xa = [X | 1]``. The teacher
    is checked once and its softened distribution computed on each slice's
    distilled rows, since a frozen teacher never changes. Labels and soft
    targets are stored transposed, one row per class.
    """
    X = np.asarray(data.inputs, dtype=np.float64)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    Yt = _label_matrix(data).T
    n = max(X.shape[0], 1)
    size = batch_size or n
    slices = [slice(start, start + size) for start in range(0, n, size)]
    if teacher is None or teacher.num_classes == 0:
        return [(Xa[sl], np.ascontiguousarray(Yt[:, sl]), None, None) for sl in slices]
    _check_teacher(model, teacher)
    rows = _distill_rows(data, config)
    weight = np.where(rows, config.beta / config.temperature, 0.0)
    steps = []
    for sl in slices:
        rows_s = rows[sl]
        qt = np.zeros((teacher.num_classes if rows_s.any() else 0, len(rows_s)))
        if len(qt):
            q = softmax_with_temperature(teacher.logits(X[sl][rows_s]), config.temperature)
            qt[:, rows_s] = q.T
        steps.append((Xa[sl], np.ascontiguousarray(Yt[:, sl]), qt, weight[sl]))
    return steps


def loss_gradient(
    batch: TrainingBatch,
    model: SoftmaxModel,
    teacher: SoftmaxModel | None,
    config: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dW, db) of the combined objective for the linear model.

    Without a teacher (first task) beta is treated as 0.
    """
    if len(batch.class_ids) != model.num_classes:
        raise ValidationError(
            f"label width {len(batch.class_ids)} != model classes {model.num_classes}"
        )
    [(Xa, Yt, qt, weight)] = _steps(model, teacher, batch, config, 0)
    Wa = np.hstack([model.weights, model.bias[:, None]])
    g = _gradient(Xa, Yt, Wa, qt, weight, _coefficients(config))
    return g[:, :-1], g[:, -1]


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

    Inputs are validated once: ``data`` was checked when it was built, and
    :func:`_steps` builds every slice's fixed inputs before the first step,
    as :func:`loss_gradient` does for its one slice. Each step then runs
    :func:`_gradient` on raw arrays and updates ``Wa = [W | b]`` in place,
    and the finiteness of the parameters is checked once, after the last step.
    """
    model = _extend_for_new_classes(model, data.class_ids)
    if config.epochs == 0:
        return model
    Wa = np.hstack([model.weights, model.bias[:, None]])
    coefficients = _coefficients(config)
    rate = config.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _steps(model, teacher, data, config, config.batch_size)
        for _ in range(config.epochs):
            for Xa, Yt, qt, weight in steps:
                g = _gradient(Xa, Yt, Wa, qt, weight, coefficients)
                g *= rate
                Wa -= g
    # A non-finite entry stays non-finite under ``Wa -= rate * g``: inf - x
    # is inf or NaN and NaN stays NaN. So one check after the last step
    # raises exactly when a check after every step would.
    if not np.isfinite(Wa).all():
        raise NumericalError(
            "training diverged to non-finite parameters; lower the learning rate"
        )
    return SoftmaxModel(Wa[:, :-1].copy(), Wa[:, -1].copy(), data.class_ids)


def predict(model: SoftmaxModel, X, mode: str = "argmax", memory=None) -> np.ndarray:
    """Predicted class id for every row of X.

    "argmax" takes the class with the largest logit. "ncm" takes the class
    whose stored-exemplar mean is nearest in Euclidean distance; it needs a
    rehearsal memory with at least one stored point. Ties resolve to the
    lowest class id.
    """
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
