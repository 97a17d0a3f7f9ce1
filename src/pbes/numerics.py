"""Deterministic dense linear algebra for the samplers.

Means are exactly rounded sums: ``_exact_sums`` adds each column of a block
of terms with vectorized error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation", SIAM J. Sci. Comput. 31(1), 2008) and
rounds the few exact partial sums once, so every sum equals ``math.fsum`` of
its terms bit for bit, in any operand order. Each covariance entry is the
exact dot product of two centred columns, rounded once: BLAS multiplies
integer slices of the columns, whose products sum exactly in any order, and
``_exact_sums`` adds the exact partial results. So the covariance is
bit-reproducible everywhere, whatever the BLAS blocking or thread count, and
exactly invariant under row permutations of the input. Principal directions
come from LAPACK's symmetric eigensolver via ``np.linalg.eigh``, whose bits
depend on the numpy/LAPACK build and, for large matrices, on the BLAS thread
count: directions and the median selections built on them are
bit-reproducible for one numpy build and one thread count. Sums beyond the
float64 range raise NumericalError.
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
# mean_vector's blocks are whole columns; larger blocks mean fewer passes.
_MEAN_BLOCK_TERMS = 1 << 16

# Slices per centred value that covariance multiplies with BLAS. A row with
# a value that needs more, one nonzero yet about 2^(8w) below its column's
# largest, is summed with Python integers instead. That bounds the partial
# products at 36 d x d matrices.
_MAX_SLICES = 8


def finite_array(x, ndim: int, what: str, dtype=np.float64) -> np.ndarray:
    """x as a finite ``dtype`` array of rank ``ndim`` with no empty axis; errors name ``what``."""
    A = np.asarray(x, dtype=dtype)
    if A.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-D, got shape {A.shape}")
    if min(A.shape) < 1:
        raise ValidationError(f"{what} axes must be >= 1, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError(f"{what} of shape {A.shape} contains non-finite values")
    return A


def as_data_matrix(X) -> np.ndarray:
    """Validate and return X as an n x d float64 matrix (n, d >= 1, finite)."""
    return finite_array(X, 2, "data matrix")


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


def shuffled_prefix(rng: RngState, n: int, k: int) -> list[int]:
    """The first k entries of a seeded Fisher-Yates shuffle of ``range(n)``."""
    gen = rng.generator()
    order = list(range(n))
    for i in range(min(k, n - 1)):  # the last position has nothing left to swap with
        j = int(gen.integers(i, n))
        order[i], order[j] = order[j], order[i]
    return order[:k]


@dataclass(frozen=True)
class DirectionBasis:
    """Ordered unit directions in R^d.

    ``source`` is "pca" for a plain principal basis, "random" for seeded
    isotropic draws, and "fallback" when the requested direction count
    exceeded the numerical rank: the basis then holds only the informative
    directions (canonical axes for rank-0 input), which the median loop
    cycles.
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


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(a + b) and its exact error a + b - fl(a + b) (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _round_partials(partials: list[np.ndarray]) -> np.ndarray:
    """``math.fsum`` of exact partial sums p[0] + p[1] + ..., element-wise, bit for bit.

    p[1:] are added by two-sums from the last, with a bound on their errors,
    and s = fl(p[0] + rest) is kept where that bound cannot move the total
    across a midpoint between floats; ``math.fsum`` rounds the rest (almost
    never any, outside ties).
    """
    rest = partials[-1]
    bound = np.zeros_like(rest)
    for p in partials[-2:0:-1]:
        rest, err = _two_sum(p, rest)
        bound += np.abs(err)
    if len(partials) == 1:
        return rest
    s, e = _two_sum(partials[0], rest)
    if not bound.any():  # rest is exact, so s is the nearest float
        return s
    # The total is s + e within bound, so s is its nearest float unless |e| +
    # bound reaches half the gap to the neighbour on that side; toward 0 from
    # a power of two that gap is half of np.spacing's.
    gap = np.spacing(np.abs(s))
    toward_zero = (e == 0) | ((e < 0) != (s < 0))
    half = np.where((np.abs(np.frexp(s)[0]) == 0.5) & toward_zero, gap / 4, gap / 2)
    for i in np.flatnonzero((bound != 0) & ~(2 * bound < half - np.abs(e))):
        s[i] = math.fsum(p[i] for p in partials)
    return s


def _exact_sums(block: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each column of a 2-D float64 block, bit for bit; overwrites it.

    Each pass splits every column c into q + (c - q) with q = (sigma + c) - sigma,
    sigma a power of two with sigma >= 2^M * max|c| and 2^M >= n + 2: the split
    is exact, q.sum() is exact in any order, and the residue keeps the low
    bits. Passes repeat until every residue is 0, and ``_round_partials``
    rounds the few exact partial sums. A block with a non-finite term, or one
    within 2^(M+2) of overflow, is summed by fsum term by term, so it raises
    exactly what fsum raises.
    """
    n = block.shape[0]
    scale = (n + 1).bit_length()  # 2**scale >= n + 2
    top = np.abs(block).max(axis=0)
    if not (top < 2.0 ** (1022 - scale)).all():  # also false for NaN
        return np.array([math.fsum(column) for column in block.T.tolist()])
    q = np.empty_like(block)
    partials = []
    while True:
        sigma = np.ldexp(1.0, np.frexp(top)[1] + scale)
        np.add(block, sigma, out=q)
        q -= sigma
        block -= q
        partials.append(q.sum(axis=0))
        top = np.abs(block, out=q).max(axis=0)
        if not top.any():
            return _round_partials(partials)


def mean_vector(X) -> np.ndarray:
    """Component-wise arithmetic mean of the rows of X.

    A column sum beyond the float64 range raises NumericalError.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    step = max(1, _MEAN_BLOCK_TERMS // n)
    try:
        # Column-major copies, so each column's reductions run over contiguous
        # memory rather than over rows as narrow as the block.
        sums = [_exact_sums(np.array(A[:, a : a + step], order="F")) for a in range(0, d, step)]
    except OverflowError as exc:
        raise NumericalError("column sums of the data overflow float64") from exc
    return np.concatenate(sums) / n


def _slices(R: np.ndarray, E: np.ndarray, w: int) -> list[np.ndarray]:
    """Split up to ``_MAX_SLICES`` integer-valued slices off R; R keeps the rest.

    Column j of R is below 2^E[j] in magnitude. Slice a holds digits in units
    of 2^(E[j] - (a+1)w), each at most 2^w in magnitude, so R equals the sum
    of slice_a * 2^(E - (a+1)w) plus what R keeps. Every step is exact:
    scaling by a power of two loses only bits below half a unit, which round
    the digit to 0, and R - digit * unit is representable.
    """
    slices: list[np.ndarray] = []
    while len(slices) < _MAX_SLICES and R.any():
        shift = (len(slices) + 1) * w - E
        S = np.ldexp(R, shift)
        np.rint(S, out=S)
        R -= np.ldexp(S, -shift)
        slices.append(S)
    return slices


def _fixed(x: float) -> int:
    """x * 2^1074 as an exact integer."""
    num, den = x.as_integer_ratio()
    return num * ((1 << 1074) // den)


def _round_exact(parts: list[tuple[int, int]]) -> float:
    """The float nearest to the sum of integer * 2^exponent parts.

    Python's integer division rounds correctly, subnormal results included;
    a result beyond the float64 range raises OverflowError.
    """
    low = min(e for _, e in parts)
    total = sum(v << (e - low) for v, e in parts)
    return float(total << low) if low >= 0 else total / (1 << -low)


@np.errstate(over="ignore", invalid="ignore")
def covariance(X) -> np.ndarray:
    """Population covariance (divisor n) of the rows of X.

    Entry (j, k) is the exact dot product of centred columns j and k,
    rounded once to float64, divided by n. After Ozaki, Ogita, Oishi and
    Rump ("Error-free transformations of matrix multiplication by using fast
    routines of matrix multiplication and its applications", Numer.
    Algorithms 59(1), 2012), each centred column is split into slices of
    w-bit integers times a power of two, with n * 2^(2w) <= 2^53, so the
    slice products sum exactly in BLAS GEMMs, whatever their blocking or
    thread count. ``_exact_sums`` then adds the few exact partial matrices
    per entry, scaled by powers of two; entries in the subnormal range, and
    rows too deep for ``_MAX_SLICES`` slices, are summed in Python integers.
    So the result is symmetric, exactly invariant under row permutation and
    bit-reproducible everywhere. An entry beyond the float64 range raises
    NumericalError.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    mu = mean_vector(A)
    overflow = NumericalError("covariance of the data overflows float64")
    top = np.maximum(A.max(axis=0) - mu, mu - A.min(axis=0))  # max |x - mu| per column
    if not (top < 2.0**512).all():  # its square alone would exceed the float64 range
        raise overflow
    E = np.frexp(top)[1]  # |x - mu| < 2^E
    w = (53 - (n - 1).bit_length()) // 2
    partials: dict[tuple[int, int], np.ndarray] = {}  # (a, b): sum of slice_a.T @ slice_b
    deep: list[np.ndarray] = []  # centred rows left to the integer sums
    step = max(1, _BLOCK_TERMS // d)
    for s in range(0, n, step):
        R = A[s : s + step] - mu
        slices = _slices(R, E, w)
        if len(slices) == _MAX_SLICES and R.any():
            rest = R.any(axis=1)
            deep.append(A[s : s + step][rest] - mu)
            for S in slices:
                S[rest] = 0.0
        for a, Sa in enumerate(slices):
            for b in range(a, len(slices)):
                P = Sa.T @ slices[b]
                if (a, b) in partials:
                    partials[(a, b)] += P
                else:
                    partials[(a, b)] = P
    # Entry (j, k) is 2^(E[j] + E[k]) times the sum of its terms, each an
    # integer times 2^-(a+b+2)w, so exact after scaling; for a < b,
    # slice_b.T @ slice_a is the transpose of slice_a.T @ slice_b.
    terms = [(P, a + b, tr) for (a, b), P in partials.items() for tr in range(1 + (a < b))]
    rows, cols = np.nonzero(~np.tri(d, k=-1, dtype=bool))  # upper triangle
    scaled = np.zeros(len(rows))
    per = _BLOCK_TERMS // max(1, len(terms))
    for s in range(0, len(rows) if terms else 0, per):
        r, c = rows[s : s + per], cols[s : s + per]
        block = np.empty((len(terms), len(r)))
        for i, (P, L, tr) in enumerate(terms):
            block[i] = np.ldexp(P[c, r] if tr else P[r, c], -(L + 2) * w)
        scaled[s : s + per] = _exact_sums(block)
    scaled += 0.0  # an exact zero is +0.0
    scale = E[rows] + E[cols]
    sums = np.ldexp(scaled, scale)
    # Below 2^-1022, rounding the scaled sum and then scaling rounds twice.
    slow = (scaled != 0) & (np.abs(sums) < 2.0**-1022)
    if deep:
        slow[:] = True
        fixed = [[_fixed(x) for x in column] for column in np.vstack(deep).T.tolist()]
    try:
        for i in np.flatnonzero(slow):
            j, k = rows[i], cols[i]
            parts = [
                (int(P[k, j] if tr else P[j, k]), int(scale[i]) - (L + 2) * w) for P, L, tr in terms
            ]
            if deep:
                parts.append((sum(x * y for x, y in zip(fixed[j], fixed[k])), -2148))
            sums[i] = _round_exact(parts)
    except OverflowError as exc:
        raise overflow from exc
    cov = np.empty((d, d))
    cov[rows, cols] = cov[cols, rows] = sums / n
    if not np.isfinite(cov).all():
        raise overflow
    return cov


def principal_directions(X, p: int) -> DirectionBasis:
    """First min(p, rank) principal directions of X, eigenvalue-descending, sign-normalized.

    When p exceeds the numerical rank the basis holds only the informative
    directions and is flagged fallback; the median loop cycles them. Rank-0
    input gives the first min(p, d) canonical axes, also flagged fallback.
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
    source = "pca" if p <= rank else "fallback"
    if rank == 0:
        k = min(p, d)
        return DirectionBasis(np.eye(d)[:k], source, np.zeros(k), rank)
    k = min(p, rank)
    dirs = [sign_normalize(eigvecs[:, i] / np.linalg.norm(eigvecs[:, i])) for i in range(k)]
    return DirectionBasis(np.array(dirs), source, eigvals[:k].copy(), rank)


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
