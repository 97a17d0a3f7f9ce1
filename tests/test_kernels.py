"""The vectorized sampler kernels against their references.

Means must equal the per-column ``math.fsum`` loop bit for bit, covariance
the exact ``Fraction`` dot product of the centred columns rounded once,
herding and median selection must pick the rows the per-row loops pick, and
every input a reference rejects must raise the same NumericalError text. The
families are tie-heavy (grids, duplicated rows, one-hot) or extreme (wide
exponents, subnormal, near overflow, large offsets).
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
from pbes.sampling import _median_select, direction_count, herding_sample

from oracles import covariance_exact_dot, herding_loop, mean_fsum_loop, median_select_loop

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


@given(cases())
@example((np.ones((5, 3)), 4))
@example((np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]]), 2))
@settings(max_examples=200)
def test_herding_picks_the_rows_of_the_norm_loop(case):
    X, m = case
    got = outcome(lambda: list(herding_sample(X, m).ordered_indices))
    assert got == outcome(herding_loop, X, m)


@given(cases(), st.booleans())
@example((np.ones((6, 2)), 5), False)
@settings(max_examples=200)
def test_median_select_picks_the_rows_of_the_sorted_loop(case, random_directions):
    X, m = case
    passes = direction_count(X.shape[0], m)
    try:
        if random_directions:
            directions = random_unit_directions(X.shape[1], passes, RngState(m)).directions
        else:
            directions = principal_directions(X, passes).directions
    except NumericalError:
        return  # no basis to select on; the covariance test covers the error
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.isfinite((X * v).sum(axis=1)).all() for v in directions)
    got = outcome(_median_select, X, directions, passes, m)
    if finite:
        assert got == ("value", median_select_loop(X, directions, passes, m))
    else:
        assert got == ("error", "projections of the data on the directions overflow float64")
