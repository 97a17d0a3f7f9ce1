"""Deterministic dense linear algebra for the samplers.

All reductions (means, covariance entries) go through ``math.fsum``, which
returns the correctly rounded sum regardless of operand order. That makes the
covariance bit-reproducible everywhere and exactly invariant under row
permutations of the input. Principal directions come from LAPACK's symmetric
eigensolver via ``np.linalg.eigh``, whose bits depend on the numpy/LAPACK
build and, for large matrices, on the BLAS thread count: directions and the
median selections built on them are bit-reproducible for one numpy build
and one thread count. Sums beyond the float64 range raise NumericalError.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Eigenvalues below this fraction of the largest one count as zero rank.
RANK_TOLERANCE = 1e-10


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
    """Ordered unit directions in R^d.

    ``source`` is "pca" for a plain principal basis, "random" for seeded
    isotropic draws, and "fallback" when the requested direction count
    exceeded the numerical rank and informative directions were cycled (or
    canonical axes used for rank-0 input).
    """

    directions: np.ndarray  # (k, d), unit rows, sign-normalized
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
    """Component-wise arithmetic mean of the rows of X.

    A column sum beyond the float64 range raises NumericalError.
    """
    A = as_data_matrix(X)
    n = A.shape[0]
    try:
        return np.array([math.fsum(A[:, j].tolist()) / n for j in range(A.shape[1])])
    except OverflowError as exc:
        raise NumericalError("column sums of the data overflow float64") from exc


@np.errstate(over="ignore", invalid="ignore")
def covariance(X) -> np.ndarray:
    """Population covariance (divisor n) of the rows of X.

    Entries are exactly rounded sums, so the result is symmetric by
    construction and exactly invariant under row permutation. An entry
    beyond the float64 range raises NumericalError.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    centered = A - mean_vector(A)
    cov = np.empty((d, d))
    overflow = NumericalError("covariance of the data overflows float64")
    try:
        for a in range(d):
            for b in range(a, d):
                s = math.fsum((centered[:, a] * centered[:, b]).tolist()) / n
                cov[a, b] = s
                cov[b, a] = s
    except (OverflowError, ValueError) as exc:  # huge terms, or both infinities
        raise overflow from exc
    if not np.isfinite(cov).all():
        raise overflow
    return cov


def principal_directions(X, p: int) -> DirectionBasis:
    """First p principal directions of X, eigenvalue-descending, sign-normalized.

    When p exceeds the numerical rank r, the informative directions are cycled
    (direction i copies direction ((i-1) mod r)+1, 1-based) and the basis is
    flagged fallback; rank-0 input falls back to canonical axis vectors, so a
    caller can always request the direction count its selection loop needs.
    The eigenpairs come from LAPACK's symmetric solver (``np.linalg.eigh``);
    its failure raises NumericalError.
    """
    if p < 1:
        raise ValidationError(f"direction count must be >= 1, got {p}")
    A = as_data_matrix(X)
    d = A.shape[1]
    try:
        eigvals, eigvecs = np.linalg.eigh(covariance(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of the covariance failed: {exc}") from exc
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
    return DirectionBasis(np.array(dirs), source, np.array(vals), rank)


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
    return DirectionBasis(np.array(rows), "random")
