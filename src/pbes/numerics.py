"""Deterministic dense linear algebra for the samplers.

All reductions (means, covariance entries) go through ``math.fsum``, which
returns the correctly rounded sum regardless of operand order. That makes the
results bit-reproducible across runs and exactly invariant under row
permutations of the input, which in turn keeps downstream median selections
reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Eigenvalues below this fraction of the largest one count as zero rank.
RANK_TOLERANCE = 1e-10
# Jacobi sweeps stop once every off-diagonal is below this fraction of the trace.
JACOBI_OFFDIAG_TOLERANCE = 1e-12
_JACOBI_MAX_SWEEPS = 64


def as_data_matrix(X) -> np.ndarray:
    """Validate and return X as an n x d float64 matrix (n, d >= 1, finite)."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError(f"data matrix must be 2-D, got shape {A.shape}")
    n, d = A.shape
    if n < 1 or d < 1:
        raise ValidationError(f"data matrix must be at least 1x1, got {n}x{d}")
    if not np.isfinite(A).all():
        raise ValidationError("data matrix contains non-finite values")
    return A


_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RngState:
    """Explicit seed for a PCG64 generator.

    Equal seeds produce equal draw streams on every platform. Child states for
    independent sub-tasks come from :meth:`derive`, never from call order.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        """PCG64 draws for the seed taken modulo 2**64, as :meth:`derive` takes it."""
        return np.random.Generator(np.random.PCG64(int(self.seed) & _U64_MASK))

    def derive(self, *keys: int | str) -> "RngState":
        """Deterministic child state keyed by integers and/or short strings."""
        words = [int(self.seed) & _U64_MASK]
        for key in keys:
            if isinstance(key, str):
                digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
                words.append(int.from_bytes(digest, "little"))
            else:
                words.append(int(key) & _U64_MASK)
        seq = np.random.SeedSequence(words)
        return RngState(seed=int(seq.generate_state(1, np.uint64)[0]))


@dataclass(frozen=True)
class DirectionBasis:
    """Ordered unit directions in R^dim.

    ``source`` is "pca" for a plain principal basis, "random" for seeded
    isotropic draws, and "fallback" when the requested direction count
    exceeded the numerical rank and informative directions were cycled (or
    canonical axes used for rank-0 input).
    """

    dim: int
    directions: np.ndarray  # (k, dim), unit rows, sign-normalized
    source: str
    eigenvalues: np.ndarray | None = None
    rank: int | None = None

    def __len__(self) -> int:
        return self.directions.shape[0]


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude component is positive.

    Ties between equal-magnitude components resolve to the earliest one,
    which removes the +/-v ambiguity of eigenvectors.
    """
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v.copy()


def mean_vector(X) -> np.ndarray:
    """Component-wise arithmetic mean of the rows of X."""
    A = as_data_matrix(X)
    n = A.shape[0]
    return np.array([math.fsum(A[:, j].tolist()) / n for j in range(A.shape[1])])


def covariance(X) -> np.ndarray:
    """Population covariance (divisor n) of the rows of X.

    Entries are exactly rounded sums, so the result is symmetric by
    construction and exactly invariant under row permutation.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    centered = A - mean_vector(A)
    cov = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            s = math.fsum((centered[:, a] * centered[:, b]).tolist()) / n
            cov[a, b] = s
            cov[b, a] = s
    return cov


def _jacobi_eigensystem(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def principal_directions(X, p: int) -> DirectionBasis:
    """First p principal directions of X, eigenvalue-descending, sign-normalized.

    When p exceeds the numerical rank r, the informative directions are cycled
    (direction i copies direction ((i-1) mod r)+1, 1-based) and the basis is
    flagged fallback; rank-0 input falls back to canonical axis vectors. This
    never fails, so a caller can always request the direction count its
    selection loop needs.
    """
    if p < 1:
        raise ValidationError(f"direction count must be >= 1, got {p}")
    A = as_data_matrix(X)
    d = A.shape[1]
    eigvals, eigvecs = _jacobi_eigensystem(covariance(A))
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    max_eig = float(eigvals[0])
    rank = 0 if max_eig <= 0.0 else int(np.sum(eigvals >= RANK_TOLERANCE * max_eig))

    dirs: list[np.ndarray] = []
    vals: list[float] = []
    for i in range(min(p, rank)):
        v = eigvecs[:, i]
        dirs.append(sign_normalize(v / np.linalg.norm(v)))
        vals.append(float(eigvals[i]))
    if rank == 0:
        for i in range(p):
            axis = np.zeros(d)
            axis[i % d] = 1.0
            dirs.append(axis)
            vals.append(0.0)
        source = "fallback"
    elif p > rank:
        for i in range(rank, p):
            dirs.append(dirs[i % rank].copy())
            vals.append(vals[i % rank])
        source = "fallback"
    else:
        source = "pca"
    return DirectionBasis(
        dim=d,
        directions=np.array(dirs),
        source=source,
        eigenvalues=np.array(vals),
        rank=rank,
    )


def project(X, v) -> np.ndarray:
    """Dot product of every row of X with the direction v."""
    A = as_data_matrix(X)
    w = np.asarray(v, dtype=np.float64)
    if w.shape != (A.shape[1],):
        raise ValidationError(
            f"direction has dimension {w.shape}, expected ({A.shape[1]},)"
        )
    return A @ w


def random_unit_directions(d: int, k: int, rng: RngState) -> DirectionBasis:
    """k seeded isotropic unit directions in R^d, sign-normalized."""
    if d < 1 or k < 1:
        raise ValidationError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    gen = rng.generator()
    rows: list[np.ndarray] = []
    while len(rows) < k:
        v = gen.standard_normal(d)
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            continue
        rows.append(sign_normalize(v / norm))
    return DirectionBasis(dim=d, directions=np.array(rows), source="random")
