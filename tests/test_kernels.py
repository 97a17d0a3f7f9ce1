"""The vectorized sampler kernels against their references.

Means must equal the per-column ``math.fsum`` loop bit for bit, covariance
the exact ``Fraction`` dot product of the centred columns rounded once,
herding and median selection must pick the rows the per-row loops pick, and
every input a reference rejects must raise the same NumericalError text. The
families are tie-heavy (grids, duplicated rows, one-hot) or extreme (wide
exponents, subnormal, near overflow, large offsets). Herding and median
selection screen rows on every case, whatever its size; at embedding width
they must equal herding vectorized over every row and the sorted median loop.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbes.errors import NumericalError
from pbes.numerics import (
    RngState,
    covariance,
    mean_vector,
    principal_directions,
    random_unit_directions,
)
from pbes.sampling import (
    _herding,
    _median_select,
    direction_count,
    herding_sample,
    pbes_sample,
    randp_sample,
)

from oracles import (
    covariance_exact_dot,
    herding_every_row,
    herding_loop,
    mean_fsum_loop,
    median_select_loop,
)

FAMILIES = (
    "gaussian",
    "wide_exponents",
    "row_exponents",
    "integer_grid",
    "quarter_grid",
    "subnormal",
    "near_overflow",
    "duplicated_rows",
    "offset_columns",
    "one_hot",
    "tiny",
)


def extreme_rows(family, n, d, gen):
    """n x d finite rows of one family, drawn from ``gen``."""
    if family == "gaussian":
        return gen.normal(size=(n, d))
    if family == "wide_exponents":
        return gen.normal(size=(n, d)) * 10.0 ** gen.integers(-300, 301, size=(n, d))
    if family == "row_exponents":
        return gen.normal(size=(n, d)) * 10.0 ** gen.integers(-150, 151, size=(n, 1))
    if family == "integer_grid":
        return gen.integers(-3, 4, size=(n, d)).astype(np.float64)
    if family == "quarter_grid":
        return np.round(gen.normal(size=(n, d)) * 4.0) / 4.0
    if family == "subnormal":
        return gen.normal(size=(n, d)) * 5e-320
    if family == "near_overflow":
        signs = gen.choice([-1.0, 1.0], size=(n, d))
        return signs * gen.uniform(0.1, 1.0, size=(n, d)) * 10.0 ** gen.integers(140, 309, size=d)
    if family == "duplicated_rows":
        base = gen.normal(size=(int(gen.integers(1, n + 1)), d))
        return base[gen.integers(0, base.shape[0], size=n)]
    if family == "offset_columns":
        return gen.normal(size=(n, d)) + 10.0 ** gen.integers(0, 13, size=d)
    if family == "tiny":  # normal entries whose squares underflow to 0
        return gen.normal(size=(n, d)) * 1e-200
    return np.eye(d)[gen.integers(0, d, size=n)]  # one_hot


@st.composite
def cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 10))
    m = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return extreme_rows(family, n, d, np.random.default_rng(seed)), m


def outcome(fn, *args):
    """("value", bytes or indices) on return, ("error", text) on NumericalError."""
    try:
        result = fn(*args)
    except NumericalError as exc:
        return "error", str(exc)
    if isinstance(result, np.ndarray):
        return "value", result.shape, result.tobytes()
    return "value", result


def _tall(huge_column: bool) -> np.ndarray:
    # More rows than one block of slices holds, so the slice products add up
    # across blocks; a huge first column puts its variance near overflow.
    X = np.random.default_rng(5).normal(size=((1 << 14) + 3, 3))
    if huge_column:
        X[:, 0] *= 3e151
    return X


@given(cases())
@example((_tall(False), 1))
@example((_tall(True), 1))
@example((np.array([[2.0**500, 0.0], [-(2.0**500), 0.0]]), 1))
@example((np.array([[1.0], [2.0**-53], [2.0**-200]]), 1))  # three partials; the last rounds up
@example((np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 5.0]]), 1))  # a constant column
# 1e+-300 rows: a centred value far below its column's largest leaves more
# than the sliced bits (here it alone sets entry (0, 1)), and products of
# 1e-300 values round to subnormals.
@example((np.array([[1.0, 0.0], [-1.0, 0.0], [1e-300, 1.0]]), 1))
@example((np.array([[1e-160, 1e-300], [-1e-160, 3e-300], [0.0, -2e-300]]), 1))
# Off-diagonal dot product 2^-1074 * (2.5 + 2.5 * 2^-78): just above a
# subnormal midpoint, where rounding to 53 bits first would round twice.
@example((np.array([[1.25 * (1 + 2.0**-26), 2.0**-74 * (1 - 2.0**-26 + 2.0**-52)]]) * 2.0**-500
          * np.array([[1.0], [-1.0]]), 1))
@settings(max_examples=200)
def test_covariance_and_mean_equal_the_fsum_loops(case):
    X, _ = case
    assert outcome(mean_vector, X) == outcome(mean_fsum_loop, X)
    assert outcome(covariance, X) == outcome(covariance_exact_dot, X)


@given(cases(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_covariance_is_exactly_invariant_under_row_permutation(case, rnd):
    X, _ = case
    perm = list(range(X.shape[0]))
    rnd.shuffle(perm)
    assert outcome(covariance, X[perm]) == outcome(covariance, X)


def _basis(X, passes, m, random_directions):
    if random_directions:
        return random_unit_directions(X.shape[1], passes, RngState(m)).directions
    return principal_directions(X, passes).directions


# Squared distances 6.25 and 6.25 + 2^-50, one ulp apart, both with square
# root 2.5: row 0 (the larger square) and row 1 tie, and row 0 wins. Rows 2
# and 3 mirror them, so the mean is exactly 0.
_ULP_TIE = np.array([[-2.5, -(2.0**-25)], [-2.5, 0.0], [2.5, 2.0**-25], [2.5, 0.0]])


def _outlier_overflow(n, d, m):
    """Gaussian rows and, in row 0, an outlier whose projection on the first
    random direction of ``RngState(m)`` overflows while no product does."""
    X = np.random.default_rng(7).normal(size=(n, d))
    v = random_unit_directions(d, direction_count(n, m), RngState(m)).directions[0]
    X[0] = 1.5e308 * np.sign(v)
    return X, m


@given(cases())
@example((np.ones((5, 3)), 4))
@example((np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]]), 2))
@example((np.array([[0.0], [3e154], [-3e154]]), 3))  # step 1 is finite, step 2 overflows
@example((_ULP_TIE, 2))
@settings(max_examples=200)
def test_herding_picks_the_rows_of_the_norm_loop(case):
    X, m = case
    expected = outcome(herding_loop, X, m)
    assert outcome(lambda: list(herding_sample(X, m).ordered_indices)) == expected
    assert outcome(_herding, X, m) == expected


def test_herding_ties_on_rounded_distances_not_on_their_squares():
    squares = np.vecdot(_ULP_TIE, _ULP_TIE)
    assert squares[0] == np.nextafter(squares[1], np.inf)
    assert np.sqrt(squares[0]) == np.sqrt(squares[1])
    assert _herding(_ULP_TIE, 1) == herding_loop(_ULP_TIE, 1) == [0]


def sorted_loop_outcome(X, directions, passes, m):
    """The outcome of the sorted median loop, whose keys order only finite
    projections: the overflow error when one is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.isfinite((X * v).sum(axis=1)).all() for v in directions)
    if not finite:
        return "error", "projections of the data on the directions overflow float64"
    return "value", median_select_loop(X, directions, passes, m)


# Equal rows that the GEMM V @ A.T rounds apart, with the median among them
# (this numpy/OpenBLAS build): the screen must widen by its bound. Scaled by
# 2^-700 the GEMM splits them the same way while every square underflows, so
# the bound must not shrink with the computed row norms.
_GEMM_SPLIT_TIES = np.random.default_rng(6).normal(size=(2, 8))[[0, 0, 1, 0, 1, 1, 0]]


@given(cases(), st.booleans())
@example((np.ones((6, 2)), 5), False)
@example(_outlier_overflow(9, 3, 4), True)
@example((_GEMM_SPLIT_TIES, 1), False)
@example((_GEMM_SPLIT_TIES, 1), True)
@example((_GEMM_SPLIT_TIES * 2.0**-700, 1), True)
@settings(max_examples=200)
def test_median_select_picks_the_rows_of_the_sorted_loop(case, random_directions):
    X, m = case
    passes = direction_count(X.shape[0], m)
    try:
        directions = _basis(X, passes, m, random_directions)
    except NumericalError:
        return  # no basis to select on; the covariance test covers the error
    expected = sorted_loop_outcome(X, directions, passes, m)
    assert outcome(_median_select, X, directions, passes, m) == expected


def test_an_outlier_projection_overflow_raises_though_no_median_needs_it():
    # Row 0, set against the signs of the first direction, is the largest
    # projection and the only one that overflows: the median ranks of 601
    # rows lie far from it, yet the whole selection must raise.
    X, m = _outlier_overflow(601, 8, 20)
    text = "projections of the data on the directions overflow float64"
    passes = direction_count(X.shape[0], m)
    random = random_unit_directions(8, passes, RngState(m)).directions
    assert outcome(randp_sample, X, m, RngState(m)) == ("error", text)
    # pbes rejects such a row before projecting: its centred value is beyond
    # the range whose square the covariance can hold.
    assert outcome(pbes_sample, X, m) == ("error", "covariance of the data overflows float64")
    principal = principal_directions(X[1:], passes).directions
    for directions in (random, principal):
        X[0] = 1.5e308 * np.sign(directions[0])
        assert outcome(_median_select, X, directions, passes, m) == ("error", text)


WIDE_FAMILIES = (
    "duplicated_rows",
    "quarter_grid",
    "offset_columns",
    "subnormal",
    "near_overflow",
    "tiny",
)


@st.composite
def wide_cases(draw):
    family = draw(st.sampled_from(WIDE_FAMILIES))
    n = draw(st.integers(1, 400))
    d = draw(st.integers(1, 128))
    m = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return extreme_rows(family, n, d, np.random.default_rng(seed)), m


@given(wide_cases(), st.booleans())
@example((extreme_rows("duplicated_rows", 400, 128, np.random.default_rng(1)), 40), False)
@example((extreme_rows("quarter_grid", 300, 64, np.random.default_rng(2)), 60), True)
@settings(max_examples=25)
def test_selection_equals_the_every_row_loops_at_embedding_width(case, random_directions):
    X, m = case
    expected = outcome(herding_every_row, X, m)
    assert outcome(lambda: list(herding_sample(X, m).ordered_indices)) == expected
    assert outcome(_herding, X, m) == expected
    passes = direction_count(X.shape[0], m)
    try:
        directions = _basis(X, passes, m, random_directions)
    except NumericalError:
        return
    expected = sorted_loop_outcome(X, directions, passes, m)
    assert outcome(_median_select, X, directions, passes, m) == expected
