"""Linear-softmax classifier and its loss algebra.

The classifier head is trained with a combination of cross-entropy over all
current classes (temperature 1) and, when a frozen teacher from the previous
task exists, a distillation term over the old classes at temperature T > 1 on
every training row.
The combined objective is ``beta * distill + (1 - beta) * cross_entropy``;
both terms are sums over the batch, not means, so learning rates couple to
batch size. Models are immutable values: training returns new models.

The training kernel folds the bias into its products, ``[W | b]`` times
``[X | 1]``, and works on (classes, rows) arrays: each softmax reduces down
columns with numpy's own max and sum, one class after another, and a single
product gives the weight and bias gradients together. Its bits are its own;
like ``eigh``'s, they hold for one numpy/BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

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

    ``batch_size`` 0 means full batch.
    """

    temperature: float = 2.0
    beta: float = 0.5
    learning_rate: float = 0.05
    epochs: int = 300
    batch_size: int = 0

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


@dataclass(frozen=True)
class TrainingBatch:
    """Inputs with integer labels over an ordered list of distinct class ids.

    Each label is one of ``class_ids``; its position there is the label's
    logit column.
    """

    inputs: np.ndarray  # (n, features)
    labels: np.ndarray  # (n,) class ids
    class_ids: tuple[int, ...]

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


def _softmax_columns(z: np.ndarray) -> np.ndarray:
    """Softmax down each column of ``z``, computed in place."""
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=0)
    return z


def _coefficients(config: LossConfig) -> tuple[float, float, float]:
    """The distillation temperature T, 1 - beta and beta / T, which
    :func:`_gradient` reads on every step."""
    return config.temperature, 1.0 - config.beta, config.beta / config.temperature


def _gradient(Xa, Yt, Wa, qt, coefficients):
    """Gradient of the combined loss in ``[dW | db]`` form; the one gradient formula.

    ``Xa = [X | 1]`` and ``Wa = [W | b]`` fold the bias into the products.
    Logits, targets and the gradient are (classes, rows) arrays, so each
    softmax reduces down columns. ``Yt`` holds the 0/1 labels and ``qt`` the
    teacher's softened distribution, or None when there is no teacher (beta
    is then 0). A stack of problems adds a leading axis to ``Xa`` and ``Wa``
    and a middle one to ``Yt``, ``qt`` and the logits, (classes, stack, rows).
    """
    temp, keep, weight = coefficients
    zb = Wa @ Xa.mT
    if zb.size == 0:
        raise ValidationError("softmax needs at least one logit")
    z = zb if zb.ndim == 2 else zb.transpose(1, 0, 2)
    if qt is not None:
        p = z[: len(qt)] / temp  # a new array: the next line overwrites z
    _softmax_columns(z)
    z -= Yt
    if qt is not None:
        z *= keep
        p = _softmax_columns(p)
        p -= qt
        p *= weight
        z[: len(qt)] += p
    return zb @ Xa


def _steps(
    model: SoftmaxModel,
    teacher: SoftmaxModel | None,
    data: TrainingBatch,
    config: LossConfig,
    batch_size: int,
) -> list[tuple]:
    """The fixed ``(Xa, Yt, qt)`` arguments of :func:`_gradient`, one per slice.

    Slices of ``batch_size`` rows (0 means the whole batch) run in order; a
    0-row batch still yields one empty slice, which :func:`_gradient` rejects.
    Each slice's inputs carry a column of ones, ``Xa = [X | 1]``. The teacher
    is checked once and its softened distribution computed on each slice,
    since a frozen teacher never changes. Labels and soft targets are stored
    transposed, one row per class.
    """
    X = np.asarray(data.inputs, dtype=np.float64)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    Yt = _label_matrix(data).T
    n = max(X.shape[0], 1)
    size = batch_size or n
    slices = [slice(start, start + size) for start in range(0, n, size)]
    if teacher is None or teacher.num_classes == 0:
        return [(Xa[sl], np.ascontiguousarray(Yt[:, sl]), None) for sl in slices]
    _check_teacher(model, teacher)
    steps = []
    for sl in slices:
        q = softmax_with_temperature(teacher.logits(X[sl]), config.temperature)
        steps.append((Xa[sl], np.ascontiguousarray(Yt[:, sl]), np.ascontiguousarray(q.T)))
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
    [(Xa, Yt, qt)] = _steps(model, teacher, batch, config, 0)
    Wa = np.hstack([model.weights, model.bias[:, None]])
    g = _gradient(Xa, Yt, Wa, qt, _coefficients(config))
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


def _plan(W, steps) -> list[tuple]:
    """The ``(weight view, Xa, Yt, qt)`` of every step of one epoch.

    ``steps`` lists each problem's :func:`_steps`, longest batch first, and
    ``W`` stacks their ``[W | b]`` in that order, so the problems with a slice
    at an index are a prefix of ``W``. Neighbours whose slices share a shape
    step as one stack; a problem alone steps on 2-D arrays.
    """
    plan = []
    for s in range(len(steps[0])):
        start = 0
        live = [p[s] for p in steps if len(p) > s]
        for _, group in groupby(live, key=lambda step: (step[0].shape, np.shape(step[2]))):
            Xa, Yt, qt = zip(*group)
            end = start + len(Xa)
            if len(Xa) == 1:
                plan.append((W[start], Xa[0], Yt[0], qt[0]))
            else:
                stacked_qt = None if qt[0] is None else np.stack(qt, axis=1)
                plan.append((W[start:end], np.stack(Xa), np.stack(Yt, axis=1), stacked_qt))
            start = end
    return plan


def train_task(
    models: list[SoftmaxModel],
    teachers: list[SoftmaxModel | None],
    batches: list[TrainingBatch],
    config: LossConfig,
) -> list[SoftmaxModel]:
    """Gradient descent on the combined loss for each (model, teacher, batch)
    problem; returns one new model per problem, in order.

    New classes in a batch get zero-initialized rows before training, which
    leaves old-class logits untouched at the task boundary. Mini-batches (if
    any) run in fixed slice order, so the whole procedure is deterministic.
    The problems share class ids and train in lockstep (:func:`_plan`); each
    result is bit for bit that of training its problem alone.

    Inputs are validated once: each batch was checked when it was built, and
    :func:`_steps` builds every slice's fixed inputs before the first step,
    as :func:`loss_gradient` does for its one slice. Each step then runs
    :func:`_gradient` on raw arrays and updates ``[W | b]`` in place, and the
    finiteness of the parameters is checked once, after the last step.
    """
    if len({batch.class_ids for batch in batches}) != 1:
        raise ValidationError("problems trained together must share class ids")
    models = [_extend_for_new_classes(m, b.class_ids) for m, b in zip(models, batches, strict=True)]
    if config.epochs == 0:
        return models
    order = sorted(range(len(models)), key=lambda i: -len(batches[i]))
    W = np.stack([np.hstack([models[i].weights, models[i].bias[:, None]]) for i in order])
    coefficients = _coefficients(config)
    rate = config.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        steps = [_steps(models[i], teachers[i], batches[i], config, config.batch_size)
                 for i in order]
        plan = _plan(W, steps)
        for _ in range(config.epochs):
            for Wa, Xa, Yt, qt in plan:
                g = _gradient(Xa, Yt, Wa, qt, coefficients)
                g *= rate
                Wa -= g
    # A non-finite entry stays non-finite under ``Wa -= rate * g``: inf - x
    # is inf or NaN and NaN stays NaN. So one check after the last step
    # raises exactly when a check after every step would.
    if not np.isfinite(W).all():
        raise NumericalError(
            "training diverged to non-finite parameters; lower the learning rate"
        )
    ids = batches[0].class_ids
    return [SoftmaxModel(W[j, :, :-1].copy(), W[j, :, -1].copy(), ids) for j in np.argsort(order)]


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
