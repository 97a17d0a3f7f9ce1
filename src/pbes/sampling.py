"""Exemplar selection.

Every sampler returns an ordered selection, so truncating to a prefix is a
meaningful way to shrink a stored exemplar set later. The median samplers
(``pbes_sample`` along principal directions, ``randp_sample`` along random
directions) append one median point per pass when the remaining set has odd
size and the lower-then-higher pair when it is even; outliers sit at the
sorted extremes and are never picked.

Herding and the median loops choose rows by a per-row formula: the rounded
distance ``sqrt(vecdot(D, D))`` and the projection ``(A * v).sum(axis=1)``,
ties by ascending row. BLAS products (a GEMV per herding step, one GEMM per
median loop) with a rigorous error bound only decide which rows the formula
must be evaluated on: the filter-then-exact scheme of Shewchuk's adaptive
predicates ("Adaptive precision floating-point arithmetic and fast robust
geometric predicates", DCG 18, 1997). Selections and errors are those of
evaluating every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import (
    RngState,
    as_data_matrix,
    mean_vector,
    principal_directions,
    random_unit_directions,
    shuffled_prefix,
)

_PROJECTION_OVERFLOW = "projections of the data on the directions overflow float64"
_U = 2.0**-53  # unit roundoff
_TINY = 2.0**-1070  # above the error of a few products that underflow
_HUGE = 2.0**500  # norms below this square and multiply without overflow


@dataclass(frozen=True)
class ExemplarSelection:
    """Ordered row indices chosen from a class's data matrix.

    ``appended_count`` records how many points the median loop appended before
    truncation to m (always m or m+1); it is None for samplers without that
    loop (herding, random). ``source`` and ``rank`` come from the median
    loop's direction basis: "pca" or "fallback" with the numerical rank of
    the class for pbes (fallback: more passes than rank, so the loop cycles
    the rank's directions), "random" with no rank for randp, else None.
    """

    method: str
    ordered_indices: tuple[int, ...]
    appended_count: int | None = None
    source: str | None = None
    rank: int | None = None

    def __len__(self) -> int:
        return len(self.ordered_indices)


def _norm_bound(square, d: int, grow: float):
    """An upper bound on the norm whose computed square of d terms is ``square``.

    ``grow`` covers the relative rounding of the square and of this bound, and
    ``d * _TINY`` the squares that underflow, so the bound holds for rows whose
    entries are normal floats but whose squares are 0. Elementwise on arrays.
    """
    return np.sqrt(square * grow + d * _TINY) * grow


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
    the remaining count is even. Each projection is the per-row reduction
    ``(A * v).sum(axis=1)``, so equal rows get equal bits and the index rule
    decides between them; one beyond the float64 range raises NumericalError.

    One GEMM, ``G = V @ A.T``, rules rows out. A projection and the matching
    entry of G sum the same d products, so both lie within
    ``gamma_d * sum_j |v_j a_j|`` of the exact dot product, whatever the
    summation order and with or without FMA, plus 2^-1075 per product that
    underflows. ``e`` bounds twice that for every row of a direction through
    Cauchy-Schwarz, ``sum_j |v_j a_j| <= |v| |a|``, so it is at least the
    per-row bound from ``|V| @ |A|.T`` and needs no second GEMM; |v| and |a|
    come from :func:`_norm_bound`, which holds when the squares underflow
    but the products and projections do not. With g_(r) the r-th smallest
    entry of G over the live rows, the middle ranks r0 and r1 have
    projections within [g_(r0) - e/2, g_(r1) + e/2], so only rows with G in
    [g_(r0) - e, g_(r1) + e] can hold them and every row below that range
    precedes them. The formula orders those few rows by (value, row). A
    direction whose bound leaves room for an overflowing product or partial
    sum gets its projections in full, checked for overflow.
    """
    n, d = A.shape
    grow = 1.0 + (d + 10) * _U
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(_norm_bound(np.vecdot(A, A).max(), d, grow))  # >= |a| for every row
        reach = _norm_bound(np.vecdot(directions, directions), d, grow) * top  # >= sum |v_j a_j|
        G = directions @ A.T
        e = 2.0 * ((2 * d + 24) * _U * reach + d * _TINY)
    for i in np.flatnonzero(~(reach < 2.0**1020)):  # also true for inf
        with np.errstate(over="ignore", invalid="ignore"):
            G[i] = (A * directions[i]).sum(axis=1)
        if not np.isfinite(G[i]).all():
            raise NumericalError(_PROJECTION_OVERFLOW)
        e[i] = 0.0
    appended: list[int] = []
    for i in range(passes):
        j = i % len(directions)
        g = G[j]  # +inf at appended rows, which sort after every live row
        size = n - len(appended)
        r0, r1 = (size - 1) // 2, size // 2
        part = np.partition(g, (r0, r1))
        lo, hi = part[r0] - e[j], part[r1] + e[j]
        below = np.count_nonzero(g < lo)
        rows = np.flatnonzero((g >= lo) & (g <= hi))
        if len(rows) > 1:
            rows = rows[np.argsort((A[rows] * directions[j]).sum(axis=1), kind="stable")]
        picks = rows[r0 - below : r1 - below + 1]
        appended += picks.tolist()
        G[:, picks] = np.inf
    return appended[:m], len(appended)


def pbes_sample(X, m: int) -> ExemplarSelection:
    """Median selection along the leading principal directions of X.

    Computes ``direction_count(n, m)`` principal directions once on the full
    class set, or only the rank's when that is lower, then repeatedly appends
    the median point(s) of the remaining rows projected on direction 1, 2,
    ... (cycling them) and returns the first m appended indices.
    Deterministic; no RNG involved.
    """
    A = as_data_matrix(X)
    n = A.shape[0]
    _check_request(m, n)
    passes = direction_count(n, m)
    basis = principal_directions(A, passes)
    indices, appended = _median_select(A, basis.directions, passes, m)
    return ExemplarSelection("pbes", tuple(indices), appended, basis.source, basis.rank)


def randp_sample(X, m: int, rng: RngState) -> ExemplarSelection:
    """Median selection along seeded random unit directions.

    Control variant of :func:`pbes_sample`: the loop, parity rule, and median
    rule are identical, only the directions differ: one random direction is
    drawn per pass.
    """
    A = as_data_matrix(X)
    n, d = A.shape
    _check_request(m, n)
    passes = direction_count(n, m)
    basis = random_unit_directions(d, passes, rng)
    indices, appended = _median_select(A, basis.directions, passes, m)
    return ExemplarSelection("randp", tuple(indices), appended, basis.source)


def herding_sample(X, m: int) -> ExemplarSelection:
    """Greedy selection keeping the running exemplar mean near the class mean.

    At step k the unselected row minimizing ``fl(sqrt(vecdot(D, D)))`` with
    ``D = mean(X) - (x + sum of already selected) / k`` is taken, without
    replacement, ties by ascending row index. A step where no candidate's
    distance is finite raises NumericalError. The formula runs only on the
    rows :class:`_HerdingScreen` cannot rule out.
    """
    A = as_data_matrix(X)
    _check_request(m, A.shape[0])
    chosen = _herding(A, m)
    return ExemplarSelection("herding", tuple(chosen), None)


@np.errstate(over="ignore", invalid="ignore")
def _herding(A: np.ndarray, m: int) -> list[int]:
    """The herding loop, evaluating the formula on the screen's candidates."""
    mu = mean_vector(A)
    screen = _HerdingScreen(A, mu)
    chosen: list[int] = []
    free = np.ones(A.shape[0], dtype=bool)
    running = np.zeros(A.shape[1])
    for step in range(1, m + 1):
        rows = screen.candidates(running, step)
        if rows is not None and len(rows) == 1:
            best = int(rows[0])  # its bound keeps its distance finite
        else:
            if rows is None:
                rows = np.flatnonzero(free)
            # mu - (x + running) / step for every row x, as the per-row
            # formula rounds it; vecdot is the BLAS ddot np.linalg.norm calls.
            D = A[rows]
            D += running
            D /= step
            np.subtract(mu, D, out=D)
            dist = np.sqrt(np.vecdot(D, D))  # inf where a square overflows, never NaN
            j = int(np.argmin(dist))
            if not dist[j] < np.inf:
                raise NumericalError(f"herding step {step}: every distance overflows float64")
            best = int(rows[j])
        chosen.append(best)
        free[best] = False
        screen.remove(best)
        running += A[best]
    return chosen


class _HerdingScreen:
    """Rows whose herding distance at a step can still be the smallest.

    Scaled by k, row x's distance is ``|P|`` with ``P = y + w``, ``y = x - mu``
    and ``w = running - (k - 1) mu``. The screen value ``Q = |y|^2 + 2 y.w``
    (plus the common ``|w|^2``) costs one GEMV per step from the row norms of
    ``Y = A - mu``. Its bound ``k * dist in (1 +- c) sqrt(Q + |w|^2) +- slack``
    covers the screen's rounding (``gamma_d`` on each dot product, forming Y
    and w), the three elementwise roundings of D per coordinate, the ``ddot``
    error and the final ``sqrt`` (so rows whose squared distances differ but
    whose distances round equal both stay), and 2^-1075 per result that
    underflows. A row is a candidate when its lower bound reaches the
    smallest upper bound; the row the formula picks, and every row tied with
    it, always is. In the subnormal range every row is a candidate, and a
    step whose norms come near the overflow range gets None: every live row.
    """

    def __init__(self, A: np.ndarray, mu: np.ndarray):
        n, d = A.shape
        self.d = d
        self.c = (d + 10) * _U * 1.01
        self.grow = 1.0 + self.c
        self.Y = A - mu
        self.mu = mu
        self.ny = np.vecdot(self.Y, self.Y)  # +inf at chosen rows
        self.top = self._norm(float(self.ny.max()))  # >= |y| for every row
        self.xn = self._norm(float(np.vecdot(A, A).max()))  # >= |x| for every row
        self.mun = self._norm(float(mu @ mu))
        self.Q = np.empty(n)

    def _norm(self, square: float) -> float:
        return float(_norm_bound(square, self.d, self.grow))

    def remove(self, row: int) -> None:
        self.ny[row] = np.inf

    def candidates(self, running: np.ndarray, k: int) -> np.ndarray | None:
        """Ascending candidate rows for step k, or None for every live row."""
        w = running - (k - 1) * self.mu
        ww = float(w @ w)
        wn = self._norm(ww)
        past = (k - 1) * self.mun
        rn = (wn + past) * self.grow  # >= |running|
        if not (self.top + wn < _HUGE and self.xn + rn < _HUGE):  # also false for NaN
            return None
        c = self.c
        np.matmul(self.Y, w + w, out=self.Q)
        self.Q += self.ny
        qmin = float(self.Q.min())
        # Q + ww is |P|^2 within EQ, P is the exact k * D within shift, and
        # the per-row formula adds the relative c and the absolute terms.
        EQ = c * (self.top + wn) ** 2 + self.d * _TINY
        shift = c * (self.top + wn + past) + math.sqrt(self.d) * _TINY
        slack = (1 + c) * (math.sqrt(EQ) + shift) + 4 * _U * (self.xn + rn)
        slack += k * math.sqrt(self.d) * 2.0**-536
        rmin = math.sqrt(max(qmin + ww, 0.0) + 4 * _U * (abs(qmin) + ww))
        tau = ((1 + c) * rmin + 2 * slack) / (1 - c) * (1 + 32 * _U)
        t2 = tau * tau
        return np.flatnonzero(self.Q <= t2 - ww + 8 * _U * (t2 + ww))


def random_sample(X, m: int, rng: RngState) -> ExemplarSelection:
    """m distinct indices via a seeded Fisher-Yates prefix shuffle."""
    A = as_data_matrix(X)
    _check_request(m, A.shape[0])
    return ExemplarSelection("random", tuple(shuffled_prefix(rng, A.shape[0], m)), None)


SAMPLER_NAMES = ("pbes", "randp", "herding", "random")


def check_sampler(method: str) -> None:
    """The sampler-name rule that :func:`sample` and a run config share."""
    if method not in SAMPLER_NAMES:
        raise ValidationError(f"unknown sampler {method!r}")


def sample(method: str, X, m: int, rng: RngState | None = None) -> ExemplarSelection:
    """Dispatch to a sampler by name; randp/random require an RngState."""
    check_sampler(method)
    if method == "pbes":
        return pbes_sample(X, m)
    if method == "herding":
        return herding_sample(X, m)
    if rng is None:
        raise ValidationError(f"{method} sampling requires a seed")
    if method == "randp":
        return randp_sample(X, m, rng)
    return random_sample(X, m, rng)
