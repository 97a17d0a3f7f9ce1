"""Independent reference implementations used only to check the library.

Everything here is deliberately written in the most literal way possible
(double loops, classical pivoting) so that agreement with the library is
meaningful rather than circular.
"""

import math

import numpy as np

from pbes.errors import NumericalError
from pbes.model import (
    SoftmaxModel,
    TrainingBatch,
    _extend_for_new_classes,
    loss_gradient,
)


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


def train_task_reference(model, teacher, data, config):
    """Gradient descent with every step rebuilt and re-validated from scratch.

    Each step builds a fresh SoftmaxModel and TrainingBatch for its slice and
    calls the public loss_gradient, which recomputes the teacher's logits.
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
                grad_w, grad_b = loss_gradient(sub, current, teacher, config)
                W = W - config.learning_rate * grad_w
                b = b - config.learning_rate * grad_b
                if not (np.isfinite(W).all() and np.isfinite(b).all()):
                    raise NumericalError("training diverged")
    return SoftmaxModel(W, b, data.class_ids)
