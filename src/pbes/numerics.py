"""Deterministic dense linear algebra for the samplers.

Means and covariance entries are exactly rounded sums: ``_exact_sums`` adds
each row of a block of terms with vectorized error-free extraction (Rump,
Ogita and Oishi, "Accurate floating-point summation", SIAM J. Sci. Comput.
31(1), 2008) and hands the few exact partial sums to ``math.fsum``, so every
sum equals ``math.fsum`` of its terms bit for bit, in any operand order. That
makes the covariance bit-reproducible everywhere and exactly invariant under
row permutations of the input. Principal directions come from LAPACK's
symmetric eigensolver via ``np.linalg.eigh``, whose bits depend on the
numpy/LAPACK build and, for large matrices, on the BLAS thread count:
directions and the median selections built on them are bit-reproducible for
one numpy build and one thread count. Sums beyond the float64 range raise
NumericalError.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Eigenvalues below this fraction of the largest one count as zero rank.
RANK_TOLERANCE = 1e-10

# Terms per block summed at once by _exact_sums; bounds its temporaries.
_BLOCK_TERMS = 1 << 14


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


def _exact_sums(block: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a 2-D float64 block, bit for bit; overwrites it.

    Each pass splits every row r into q + (r - q) with q = (sigma + r) - sigma,
    sigma a power of two with sigma >= 2^M * max|r| and 2^M >= n + 2: the split
    is exact, q.sum() is exact in any order, and the residue keeps the low
    bits. Passes repeat until every residue is 0, and fsum rounds the few
    exact partial sums. A block with a non-finite term, or one within 2^(M+2)
    of overflow, is summed by fsum term by term, so it raises exactly what
    fsum raises.
    """
    n = block.shape[1]
    scale = (n + 1).bit_length()  # 2**scale >= n + 2
    top = np.abs(block).max(axis=1)
    if not (top < 2.0 ** (1022 - scale)).all():  # also false for NaN
        return [math.fsum(row) for row in block.tolist()]
    q = np.empty_like(block)
    partials = []
    while True:
        sigma = np.ldexp(1.0, np.frexp(top)[1] + scale)[:, None]
        np.add(block, sigma, out=q)
        q -= sigma
        block -= q
        partials.append(q.sum(axis=1))
        top = np.abs(block, out=q).max(axis=1)
        if not top.any():
            return [math.fsum(p) for p in np.array(partials).T.tolist()]


def mean_vector(X) -> np.ndarray:
    """Component-wise arithmetic mean of the rows of X.

    A column sum beyond the float64 range raises NumericalError.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    step = max(1, _BLOCK_TERMS // n)
    sums: list[float] = []
    try:
        for a in range(0, d, step):
            sums += _exact_sums(np.array(A[:, a : a + step].T))
    except OverflowError as exc:
        raise NumericalError("column sums of the data overflow float64") from exc
    return np.array(sums) / n


@np.errstate(over="ignore", invalid="ignore")
def covariance(X) -> np.ndarray:
    """Population covariance (divisor n) of the rows of X.

    Entries are exactly rounded sums, so the result is symmetric by
    construction and exactly invariant under row permutation. An entry
    beyond the float64 range raises NumericalError.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    columns = np.subtract(A.T, mean_vector(A)[:, None], order="C")  # row j: column j centred
    rows, cols = np.triu_indices(d)
    step = max(1, _BLOCK_TERMS // n)
    sums: list[float] = []
    overflow = NumericalError("covariance of the data overflows float64")
    try:
        for s in range(0, len(rows), step):
            products = columns[rows[s : s + step]]
            products *= columns[cols[s : s + step]]
            sums += _exact_sums(products)
    except (OverflowError, ValueError) as exc:  # huge terms, or both infinities
        raise overflow from exc
    cov = np.empty((d, d))
    cov[rows, cols] = cov[cols, rows] = np.array(sums) / n
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
