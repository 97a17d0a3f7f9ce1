"""Independent reference implementations used only to check the library.

Everything here is deliberately written in the most literal way possible
(double loops, classical pivoting) so that agreement with the library is
meaningful rather than circular.
"""

import math
from fractions import Fraction

import numpy as np

from pbes.augmentation import Region, as_saliency
from pbes.errors import NumericalError, ValidationError
from pbes.model import (
    SoftmaxModel,
    TrainingBatch,
    _check_teacher,
    _distill_rows,
    _extend_for_new_classes,
    _gradient,
    softmax_with_temperature,
)
from pbes.numerics import RANK_TOLERANCE, covariance, random_unit_directions, sign_normalize
from pbes.sampling import _median_select, direction_count

_PROB_FLOOR = 1e-300


def column_mean(X):
    """Per-column sum/divide with plain Python accumulation."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    out = []
    for j in range(d):
        total = 0.0
        for i in range(n):
            total += X[i, j]
        out.append(total / n)
    return np.array(out)


def covariance_double_loop(X):
    """O(n * d^2) direct-sum population covariance."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mu = column_mean(X)
    cov = np.zeros((d, d))
    for i in range(n):
        for a in range(d):
            for b in range(d):
                cov[a, b] += (X[i, a] - mu[a]) * (X[i, b] - mu[b])
    return cov / n


def mean_fsum_loop(X):
    """Column means, one math.fsum per column (the library's former loop)."""
    A = np.asarray(X, dtype=float)
    n = A.shape[0]
    try:
        return np.array([math.fsum(A[:, j].tolist()) / n for j in range(A.shape[1])])
    except OverflowError as exc:
        raise NumericalError("column sums of the data overflow float64") from exc


@np.errstate(over="ignore", invalid="ignore")
def covariance_exact_dot(X):
    """Population covariance: each entry the exact dot product of two centred
    columns as a Fraction, rounded once to float, then divided by n.

    Every float is a whole multiple of 2^-1074, so the dot product is an
    integer over 2^2148; Fraction rounds it correctly to float or raises
    OverflowError.
    """
    A = np.asarray(X, dtype=float)
    n, d = A.shape
    centered = A - mean_fsum_loop(A)
    cov = np.empty((d, d))
    try:
        columns = [[int(Fraction(x) * 2**1074) for x in centered[:, j].tolist()] for j in range(d)]
        for a in range(d):
            for b in range(a, d):
                dot = Fraction(sum(x * y for x, y in zip(columns[a], columns[b])), 2**2148)
                cov[a, b] = cov[b, a] = float(dot) / n
    except (OverflowError, ValueError) as exc:  # a centred value or an entry beyond float64
        raise NumericalError("covariance of the data overflows float64") from exc
    return cov


@np.errstate(over="ignore", invalid="ignore")
def herding_loop(X, m):
    """Herding with one np.linalg.norm per candidate per step (the former loop)."""
    A = np.asarray(X, dtype=float)
    n = A.shape[0]
    mu = mean_fsum_loop(A)
    chosen = []
    taken = np.zeros(n, dtype=bool)
    running = np.zeros(A.shape[1])
    for step in range(1, m + 1):
        best = -1
        best_dist = np.inf
        for r in range(n):
            if taken[r]:
                continue
            dist = float(np.linalg.norm(mu - (running + A[r]) / step))
            if dist < best_dist:
                best = r
                best_dist = dist
        if best < 0:
            raise NumericalError(f"herding step {step}: every distance overflows float64")
        chosen.append(best)
        taken[best] = True
        running += A[best]
    return chosen


def median_select_loop(A, directions, passes, m):
    """The median loop with Python's sorted and list removal (the former loop).

    Keys are (projection, row), so only finite projections order correctly.
    """
    projections = [(A * v).sum(axis=1) for v in directions]
    remaining = list(range(A.shape[0]))
    appended = []
    for i in range(passes):
        proj = projections[i % len(projections)]
        ordered = sorted(remaining, key=lambda r: (proj[r], r))
        size = len(ordered)
        if size % 2 == 0:
            lower = ordered[size // 2 - 1]
            higher = ordered[size // 2]
            appended.append(lower)
            appended.append(higher)
            remaining.remove(lower)
            remaining.remove(higher)
        else:
            middle = ordered[(size - 1) // 2]
            appended.append(middle)
            remaining.remove(middle)
    return appended[:m], len(appended)


def classical_jacobi(S, tol=1e-13, max_iter=10000):
    """Classical Jacobi: zero the largest off-diagonal entry each step."""
    a = np.array(S, dtype=float)
    d = a.shape[0]
    vecs = np.eye(d)
    if d == 1:
        return a.diagonal().copy(), vecs
    scale = max(abs(np.trace(a)), 1.0)
    for _ in range(max_iter):
        p, q, biggest = 0, 1, 0.0
        for i in range(d - 1):
            for j in range(i + 1, d):
                if abs(a[i, j]) > biggest:
                    p, q, biggest = i, j, abs(a[i, j])
        if biggest <= tol * scale:
            break
        apq = a[p, q]
        theta = (a[q, q] - a[p, p]) / (2.0 * apq)
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        rot = np.eye(d)
        rot[p, p] = c
        rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        a = rot.T @ a @ rot
        vecs = vecs @ rot
    return a.diagonal().copy(), vecs


# Jacobi sweeps stop once every off-diagonal is below this fraction of the trace.
JACOBI_OFFDIAG_TOLERANCE = 1e-12
_JACOBI_MAX_SWEEPS = 64


def cyclic_jacobi(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted. Sweeps run over
    the upper triangle in a fixed row-major order, so the result is a pure
    function of the input.
    """
    d = S.shape[0]
    a = np.array(S, dtype=np.float64, copy=True)
    vecs = np.eye(d)
    if d == 1:
        return a.diagonal().copy(), vecs
    thresh = JACOBI_OFFDIAG_TOLERANCE * abs(float(np.trace(a)))
    for _ in range(_JACOBI_MAX_SWEEPS):
        upper = np.triu(a, k=1)
        off = float(np.abs(upper).max())
        if off <= thresh:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= thresh:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vec_p = vecs[:, p].copy()
                vec_q = vecs[:, q].copy()
                vecs[:, p] = c * vec_p - s * vec_q
                vecs[:, q] = s * vec_p + c * vec_q
    return a.diagonal().copy(), vecs


def cyclic_jacobi_basis(X, p):
    """principal_directions(X, p) with the eigenpairs from cyclic_jacobi.

    The steps after the eigensolve are written out: stable descending sort,
    rank at RANK_TOLERANCE, unit norm and sign convention, then cycling the
    informative directions (or canonical axes at rank 0) up to p. Returns
    (directions, eigenvalues in descending order, rank).
    """
    A = np.asarray(X, dtype=float)
    d = A.shape[1]
    vals, vecs = cyclic_jacobi(covariance(A))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    rank = 0 if vals[0] <= 0.0 else int(np.sum(vals >= RANK_TOLERANCE * vals[0]))
    if rank == 0:
        return np.array([np.eye(d)[i % d] for i in range(p)]), vals, rank
    informative = [
        sign_normalize(vecs[:, i] / np.linalg.norm(vecs[:, i])) for i in range(min(p, rank))
    ]
    return np.array([informative[i % rank] for i in range(p)]), vals, rank


def cyclic_jacobi_selection(X, m):
    """pbes_sample's (ordered indices, appended count) on a cyclic_jacobi basis."""
    A = np.asarray(X, dtype=float)
    passes = direction_count(A.shape[0], m)
    directions, _, _ = cyclic_jacobi_basis(A, passes)
    return _median_select(A, directions, passes, m)


def jacobi_principal_directions(X, p):
    """Eigen-descending unit directions of the population covariance."""
    cov = covariance_double_loop(X)
    vals, vecs = classical_jacobi(cov)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    dirs = []
    for i in range(min(p, len(vals))):
        v = vecs[:, i] / np.linalg.norm(vecs[:, i])
        k = int(np.argmax(np.abs(v)))
        if v[k] < 0:
            v = -v
        dirs.append(v)
    return np.array(dirs), vals


def greedy_herding(X, m):
    """Brute-force greedy mean-matching selection, all candidates each step."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    mu = column_mean(X)
    chosen = []
    total = np.zeros(X.shape[1])
    for step in range(1, m + 1):
        best, best_dist = None, None
        for r in range(n):
            if r in chosen:
                continue
            cand = (total + X[r]) / step
            dist = math.sqrt(sum((mu[j] - cand[j]) ** 2 for j in range(len(mu))))
            if best_dist is None or dist < best_dist:
                best, best_dist = r, dist
        chosen.append(best)
        total = total + X[best]
    return chosen


def label_rows(batch: TrainingBatch) -> np.ndarray:
    """One 0/1 row per label, with the 1 at the label's place in class_ids."""
    rows = np.zeros((len(batch.labels), len(batch.class_ids)))
    for row, label in enumerate(batch.labels):
        rows[row, batch.class_ids.index(int(label))] = 1.0
    return rows


def cross_entropy_loss(
    batch: TrainingBatch, model: SoftmaxModel, temperature: float = 1.0
) -> float:
    """Summed cross-entropy over all current classes (temperature 1 by default)."""
    if len(batch.class_ids) != model.num_classes:
        raise ValidationError(
            f"label width {len(batch.class_ids)} != model classes {model.num_classes}"
        )
    probs = softmax_with_temperature(model.logits(batch.inputs), temperature)
    return float(-(label_rows(batch) * np.log(np.maximum(probs, _PROB_FLOOR))).sum())


def distillation_loss(student_logits_old, teacher_logits, temperature: float) -> float:
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


def combined_loss(batch, model, teacher, config) -> float:
    """The value whose gradient ``pbes.model.loss_gradient`` computes.

    Cross-entropy plus distillation against the teacher, beta-weighted;
    without a teacher (first task) the result is the plain cross-entropy,
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


def randp_full_pool(X, m, rng, pool_size):
    """randp selection with every one of ``pool_size`` directions drawn."""
    A = np.asarray(X, dtype=float)
    passes = direction_count(A.shape[0], m)
    basis = random_unit_directions(A.shape[1], pool_size, rng)
    indices, appended = _median_select(A, basis.directions, passes, m)
    return tuple(indices), appended


def finite_difference_gradient(fun, W, b, eps=1e-5):
    """Central finite differences of fun(W, b) in every coordinate."""
    gW = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            up = W.copy()
            down = W.copy()
            up[i, j] += eps
            down[i, j] -= eps
            gW[i, j] = (fun(up, b) - fun(down, b)) / (2 * eps)
    gb = np.zeros_like(b)
    for i in range(b.shape[0]):
        up = b.copy()
        down = b.copy()
        up[i] += eps
        down[i] -= eps
        gb[i] = (fun(W, up) - fun(W, down)) / (2 * eps)
    return gW, gb


def loss_gradient_reference(batch, model, teacher, config):
    """``pbes.model.loss_gradient`` with its setup written out on the spot.

    Distilled rows are always picked by a boolean mask, never by the slice
    the library uses when every row is distilled, and the labels are encoded
    by :func:`label_rows`. The gradient formula itself is the library's.
    """
    if len(batch.class_ids) != model.num_classes:
        raise ValidationError(
            f"label width {len(batch.class_ids)} != model classes {model.num_classes}"
        )
    X = np.asarray(batch.inputs, dtype=np.float64)
    rows = q = None
    if teacher is not None and teacher.num_classes:
        _check_teacher(model, teacher)
        rows = _distill_rows(batch, config)
        if rows.any():
            q = softmax_with_temperature(teacher.logits(X[rows]), config.temperature)
        else:
            q = np.zeros((0, teacher.num_classes))
    return _gradient(X, label_rows(batch), model.weights, model.bias, rows, q, config)


def train_task_reference(model, teacher, data, config):
    """Gradient descent with every step rebuilt and re-validated from scratch.

    Each step builds a fresh SoftmaxModel and TrainingBatch for its slice and
    calls :func:`loss_gradient_reference`, which re-encodes the slice's
    labels and recomputes the teacher's logits.
    """
    model = _extend_for_new_classes(model, data.class_ids)
    if config.epochs == 0:
        return model
    n = data.inputs.shape[0]
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
        for _ in range(config.epochs):
            for sl in slices:
                current = SoftmaxModel(W, b, data.class_ids)
                sub = TrainingBatch(
                    inputs=data.inputs[sl],
                    labels=data.labels[sl],
                    class_ids=data.class_ids,
                    exemplar_mask=None
                    if data.exemplar_mask is None
                    else data.exemplar_mask[sl],
                )
                grad_w, grad_b = loss_gradient_reference(sub, current, teacher, config)
                W = W - config.learning_rate * grad_w
                b = b - config.learning_rate * grad_b
                if not (np.isfinite(W).all() and np.isfinite(b).all()):
                    raise NumericalError("training diverged")
    return SoftmaxModel(W, b, data.class_ids)


def importance_score(saliency, region: Region) -> float:
    """Sum of saliency weights inside the region."""
    s = as_saliency(saliency)
    region.check_within(*s.shape)
    window = s[
        region.top : region.top + region.height,
        region.left : region.left + region.width,
    ]
    return float(window.sum())


def window_scores_loop(s, rh, rw):
    """One slice sum per window, in raster order (the former region-search loop)."""
    positions = [(t, l) for t in range(s.shape[0] - rh + 1) for l in range(s.shape[1] - rw + 1)]
    return np.array([float(s[t : t + rh, l : l + rw].sum()) for t, l in positions])


def find_low_importance_region_reference(saliency, rh, rw, mode, rng=None, tau=0.25):
    """The former region search: a list of corners and a Python filter for eligibility."""
    s = as_saliency(saliency)
    positions = [(t, l) for t in range(s.shape[0] - rh + 1) for l in range(s.shape[1] - rw + 1)]
    scores = window_scores_loop(s, rh, rw)
    if mode == "deterministic":
        return Region(*positions[int(np.argmin(scores))], rh, rw)
    cutoff = float(np.quantile(scores, tau))
    eligible = [i for i, sc in enumerate(scores) if sc <= cutoff]
    pick = eligible[int(rng.generator().integers(len(eligible)))]
    return Region(*positions[pick], rh, rw)
