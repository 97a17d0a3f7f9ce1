"""Exemplar selection.

Every sampler returns an ordered selection, so truncating to a prefix is a
meaningful way to shrink a stored exemplar set later. The median samplers
(``pbes_sample`` along principal directions, ``randp_sample`` along random
directions) append one median point per pass when the remaining set has odd
size and the lower-then-higher pair when it is even; outliers sit at the
sorted extremes and are never picked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import (
    RngState,
    as_data_matrix,
    mean_vector,
    principal_directions,
    random_unit_directions,
)


@dataclass(frozen=True)
class ExemplarSelection:
    """Ordered row indices chosen from a class's data matrix.

    ``appended_count`` records how many points the median loop appended before
    truncation to m (always m or m+1); it is None for samplers without that
    loop (herding, random). ``source`` and ``rank`` come from the median
    loop's direction basis: "pca" or "fallback" with the numerical rank of
    the class for pbes (fallback: more passes than rank, directions cycled),
    "random" with no rank for randp, and None for herding and random.
    """

    method: str
    ordered_indices: tuple[int, ...]
    appended_count: int | None = None
    source: str | None = None
    rank: int | None = None

    def __len__(self) -> int:
        return len(self.ordered_indices)


def _check_request(m: int, n: int) -> None:
    if not 1 <= m <= n:
        raise ValidationError(f"need 1 <= m <= n, got m={m}, n={n}")


def direction_count(n: int, m: int) -> int:
    """Number of median passes: ceil(m/2), plus one when n is odd and m even.

    The extra pass covers the parity mismatch: starting from an odd remaining
    set, the first pass appends a single point and every later pass appends
    two, so the loop always accumulates exactly m or m+1 points.
    """
    p = -(-m // 2)
    if n % 2 == 1 and m % 2 == 0:
        p += 1
    return p


def _median_select(
    A: np.ndarray, directions: np.ndarray, passes: int, m: int
) -> tuple[list[int], int]:
    """Run the median-selection loop over fixed directions.

    Pass i sorts the remaining rows by their projection on direction
    ``i mod len(directions)`` (stable, ties by ascending original row index)
    and appends the middle point, or the lower-then-higher middle pair when
    the remaining count is even. Each projection is a per-row reduction, so
    equal rows get equal bits and the index rule decides between them. A
    projection beyond the float64 range raises NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        projections = [(A * v).sum(axis=1) for v in directions]
    if not all(np.isfinite(p).all() for p in projections):
        raise NumericalError("projections of the data on the directions overflow float64")
    live = np.ones(A.shape[0], dtype=bool)
    appended: list[int] = []
    for i in range(passes):
        proj = projections[i % len(projections)]
        remaining = np.flatnonzero(live)
        ordered = remaining[np.argsort(proj[remaining], kind="stable")]
        size = len(ordered)
        picks = ordered[(size - 1) // 2 : size // 2 + 1]  # the middle one or two
        appended += picks.tolist()
        live[picks] = False
    return appended[:m], len(appended)


def pbes_sample(X, m: int) -> ExemplarSelection:
    """Median selection along the leading principal directions of X.

    Computes ``direction_count(n, m)`` principal directions once on the full
    class set, then repeatedly appends the median point(s) of the remaining
    rows projected on direction 1, 2, ... and returns the first m appended
    indices. Deterministic; no RNG involved.
    """
    A = as_data_matrix(X)
    n = A.shape[0]
    _check_request(m, n)
    passes = direction_count(n, m)
    basis = principal_directions(A, passes)
    indices, appended = _median_select(A, basis.directions, passes, m)
    return ExemplarSelection("pbes", tuple(indices), appended, basis.source, basis.rank)


def randp_sample(
    X, m: int, rng: RngState, pool_size: int | None = None
) -> ExemplarSelection:
    """Median selection along seeded random unit directions.

    Control variant of :func:`pbes_sample`: the loop, parity rule, and median
    rule are identical, only the directions differ. ``pool_size`` is the
    number of random directions (defaults to the pass count); if the loop
    needs more passes than the pool holds, directions cycle. Directions past
    the pass count would never be read, and draws come in sequence from one
    generator, so only ``min(pool_size, passes)`` are drawn: every pool of at
    least the pass count selects the same rows.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    _check_request(m, n)
    passes = direction_count(n, m)
    k = passes if pool_size is None else pool_size
    if k < 1:
        raise ValidationError(f"direction pool size must be >= 1, got {k}")
    basis = random_unit_directions(d, min(k, passes), rng)
    indices, appended = _median_select(A, basis.directions, passes, m)
    return ExemplarSelection("randp", tuple(indices), appended, basis.source)


@np.errstate(over="ignore", invalid="ignore")
def herding_sample(X, m: int) -> ExemplarSelection:
    """Greedy selection keeping the running exemplar mean near the class mean.

    At step k the unselected row minimizing
    ``|mean(X) - (x + sum of already selected) / k|`` is taken, without
    replacement, ties by ascending row index. A step where no candidate's
    distance is finite raises NumericalError.
    """
    A = as_data_matrix(X)
    n = A.shape[0]
    _check_request(m, n)
    mu = mean_vector(A)
    chosen: list[int] = []
    live = np.arange(n)
    running = np.zeros(A.shape[1])
    for step in range(1, m + 1):
        # mu - (running + x) / step for every live row x, as the per-row
        # formula rounds it; vecdot is the BLAS ddot np.linalg.norm calls.
        D = A[live]
        D += running
        D /= step
        np.subtract(mu, D, out=D)
        dist = np.sqrt(np.vecdot(D, D))  # inf where a square overflows, never NaN
        best = int(np.argmin(dist))
        if not dist[best] < np.inf:
            raise NumericalError(f"herding step {step}: every distance overflows float64")
        chosen.append(int(live[best]))
        running += A[live[best]]
        live = np.delete(live, best)
    return ExemplarSelection("herding", tuple(chosen), None)


def random_sample(X, m: int, rng: RngState) -> ExemplarSelection:
    """m distinct indices via a seeded Fisher-Yates prefix shuffle."""
    A = as_data_matrix(X)
    n = A.shape[0]
    _check_request(m, n)
    gen = rng.generator()
    indices = list(range(n))
    for i in range(m):
        j = int(gen.integers(i, n))
        indices[i], indices[j] = indices[j], indices[i]
    return ExemplarSelection("random", tuple(indices[:m]), None)


SAMPLER_NAMES = ("pbes", "randp", "herding", "random")


def sample(
    method: str,
    X,
    m: int,
    rng: RngState | None = None,
    pool_size: int | None = None,
) -> ExemplarSelection:
    """Dispatch to a sampler by name; randp/random require an RngState."""
    if pool_size is not None and method != "randp":
        raise ValidationError("randp_pool only applies to the randp sampler")
    if method == "pbes":
        return pbes_sample(X, m)
    if method == "herding":
        return herding_sample(X, m)
    if method == "randp":
        if rng is None:
            raise ValidationError("randp sampling requires a seed")
        return randp_sample(X, m, rng, pool_size)
    if method == "random":
        if rng is None:
            raise ValidationError("random sampling requires a seed")
        return random_sample(X, m, rng)
    raise ValidationError(f"unknown sampling method {method!r}")
