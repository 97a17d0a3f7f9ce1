import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbes.errors import NumericalError, ValidationError
from pbes.numerics import (
    DirectionBasis,
    RngState,
    covariance,
    finite_array,
    mean_vector,
    principal_directions,
    random_unit_directions,
    shuffled_prefix,
    sign_normalize,
)
from pbes.sampling import _median_select, direction_count

from oracles import (
    column_mean,
    covariance_double_loop,
    jacobi_principal_directions,
    median_select_loop,
)

# Five rows whose first column sums past float64 on the way (mean_vector),
# and five whose centred products overflow (covariance).
SUM_OVERFLOW = [[1e308, 1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, -1e308], [-1e308, 1e308]]
PRODUCT_OVERFLOW = [[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200], [-1e200, -1e200], [1e200, -1e200]]

small_matrix = st.integers(2, 7).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(
                st.floats(-50, 50, allow_nan=False, allow_infinity=False, width=32),
                min_size=d,
                max_size=d,
            ),
            min_size=n,
            max_size=n,
        )
    )
)


class TestMeanVector:
    def test_midpoint(self):
        assert np.array_equal(mean_vector([[0.0, 0.0], [2.0, 0.0]]), [1.0, 0.0])

    def test_single_point(self):
        assert np.array_equal(mean_vector([[7.0]]), [7.0])

    def test_matches_column_sum_oracle(self):
        X = np.random.default_rng(11).normal(size=(5, 3))
        assert np.allclose(mean_vector(X), column_mean(X), atol=1e-12, rtol=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            mean_vector([[np.nan, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            mean_vector(np.zeros((0, 3)))

    def test_overflowing_sum_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflow"):
            mean_vector(SUM_OVERFLOW)


class TestCovariance:
    def test_hand_two_points(self):
        cov = covariance([[0.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_single_row_is_zero(self):
        assert np.array_equal(covariance([[3.0, -1.0, 4.0]]), np.zeros((3, 3)))

    def test_matches_double_loop_oracle(self):
        X = np.random.default_rng(3).normal(size=(6, 2))
        assert np.allclose(covariance(X), covariance_double_loop(X), atol=1e-12, rtol=0)

    def test_symmetric_psd(self):
        X = np.random.default_rng(5).normal(size=(9, 4))
        cov = covariance(X)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    @pytest.mark.parametrize("rows", [SUM_OVERFLOW, PRODUCT_OVERFLOW])
    def test_overflow_is_numerical_error(self, rows):
        # No RuntimeWarning either: the suite turns warnings into errors.
        with pytest.raises(NumericalError, match="overflow"):
            covariance(rows)

    def test_huge_but_representable_entries(self):
        cov = covariance([[2.0**500, 0.0], [-(2.0**500), 0.0]])
        assert np.array_equal(cov, [[2.0**1000, 0.0], [0.0, 0.0]])

    @given(small_matrix, st.randoms(use_true_random=False))
    def test_exactly_permutation_invariant(self, rows, rnd):
        X = np.array(rows)
        perm = list(range(X.shape[0]))
        rnd.shuffle(perm)
        assert np.array_equal(covariance(X), covariance(X[perm]))


class TestPrincipalDirections:
    def test_hand_two_points(self):
        basis = principal_directions([[0.0, 0.0], [2.0, 0.0]], 1)
        assert basis.source in ("pca", "fallback")
        assert np.allclose(basis.directions[0], [1.0, 0.0], atol=1e-12)

    def test_rank_zero_falls_back_to_axes(self):
        basis = principal_directions([[3.0, 5.0], [3.0, 5.0]], 2)
        assert basis.source == "fallback"
        assert basis.rank == 0
        assert np.array_equal(basis.directions, np.eye(2))
        # more directions than axes: the axes once, for the median loop to cycle
        more = principal_directions([[3.0, 5.0], [3.0, 5.0]], 3)
        assert np.array_equal(more.directions, np.eye(2))

    def test_matches_classical_jacobi_oracle(self):
        X = np.random.default_rng(17).normal(size=(5, 3))
        basis = principal_directions(X, 3)
        expected, _ = jacobi_principal_directions(X, 3)
        assert basis.source == "pca"
        assert np.allclose(basis.directions, expected, atol=1e-8, rtol=0)

    def test_eigen_residual(self):
        X = np.random.default_rng(23).normal(size=(10, 5))
        cov = covariance(X)
        basis = principal_directions(X, 5)
        for v, lam in zip(basis.directions, basis.eigenvalues):
            residual = np.abs(cov @ v - lam * v).max()
            assert residual < 1e-8 * (1.0 + lam)

    def test_orthonormal_within_rank(self):
        X = np.random.default_rng(29).normal(size=(8, 4))
        basis = principal_directions(X, 4)
        gram = basis.directions @ basis.directions.T
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_bit_reproducible(self):
        X = np.random.default_rng(31).normal(size=(7, 3))
        a = principal_directions(X, 3)
        b = principal_directions(X, 3)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_fallback_cycles_informative_directions(self):
        # rank-1 data needing 4 passes: the basis holds its one informative
        # direction, and the median loop cycles it as if it were repeated
        X = np.array([[3.0, 3.0], [0.0, 0.0], [6.0, 6.0], [1.0, 1.0], [5.0, 5.0],
                      [2.0, 2.0], [4.0, 4.0]])
        passes = direction_count(7, 6)
        assert passes == 4
        basis = principal_directions(X, passes)
        assert basis.source == "fallback"
        assert basis.rank == 1
        assert basis.directions.shape == (1, 2)
        assert basis.eigenvalues.shape == (1,)
        repeated = np.repeat(basis.directions, passes, axis=0)
        assert _median_select(X, basis.directions, passes, 6) == median_select_loop(
            X, repeated, passes, 6
        )

    def test_sign_convention_positive_max_component(self):
        X = np.random.default_rng(37).normal(size=(12, 4))
        basis = principal_directions(X, 4)
        for v in basis.directions:
            assert v[np.argmax(np.abs(v))] > 0

    def test_rejects_bad_count(self):
        with pytest.raises(ValidationError):
            principal_directions([[1.0, 2.0]], 0)


class TestSignNormalize:
    def test_flips_negative_max(self):
        assert np.array_equal(sign_normalize(np.array([0.1, -0.9])), [-0.1, 0.9])

    def test_tie_uses_earliest_component(self):
        v = np.array([-0.5, 0.5])
        assert np.array_equal(sign_normalize(v), [0.5, -0.5])


class TestRandomUnitDirections:
    def test_one_dimensional_is_plus_one(self):
        basis = random_unit_directions(1, 3, RngState(99))
        assert np.array_equal(basis.directions, [[1.0], [1.0], [1.0]])

    def test_unit_norms(self):
        basis = random_unit_directions(5, 4, RngState(123))
        norms = np.linalg.norm(basis.directions, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9
        assert basis.source == "random"

    def test_seed_determinism(self):
        a = random_unit_directions(4, 3, RngState(7))
        b = random_unit_directions(4, 3, RngState(7))
        c = random_unit_directions(4, 3, RngState(8))
        assert np.array_equal(a.directions, b.directions)
        assert not np.array_equal(a.directions, c.directions)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            random_unit_directions(0, 1, RngState(1))
        with pytest.raises(ValidationError):
            random_unit_directions(3, 0, RngState(1))


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(42).generator().standard_normal(8)
        b = RngState(42).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_derive_is_stable_and_key_sensitive(self):
        root = RngState(42)
        assert root.derive("x", 1) == root.derive("x", 1)
        assert root.derive("x", 1) != root.derive("x", 2)
        assert root.derive("x") != root.derive("y")

    def test_direction_basis_len(self):
        basis = random_unit_directions(3, 5, RngState(0))
        assert len(basis) == 5
        assert isinstance(basis, DirectionBasis)

    @given(st.integers(0, 2**64 - 1))
    def test_generator_draws_match_pcg64(self, seed):
        expected = np.random.Generator(np.random.PCG64(seed)).integers(0, 2**63, size=4)
        assert np.array_equal(RngState(seed).generator().integers(0, 2**63, size=4), expected)

    def test_negative_seed_taken_modulo_two_to_64(self):
        a = RngState(-1).generator().random(3)
        b = RngState(2**64 - 1).generator().random(3)
        assert np.array_equal(a, b)


def former_sampler_shuffle(rng, n, m):
    """The loop random_sample ran before it called shuffled_prefix."""
    gen = rng.generator()
    indices = list(range(n))
    for i in range(m):
        j = int(gen.integers(i, n))
        indices[i], indices[j] = indices[j], indices[i]
    return indices[:m]


def former_augment_shuffle(rng, n):
    """The loop augment_class_records ran before it called shuffled_prefix."""
    gen = rng.generator()
    order = list(range(n))
    for i in range(n - 1):
        j = int(gen.integers(i, n))
        order[i], order[j] = order[j], order[i]
    return order


class TestShuffledPrefix:
    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.data())
    def test_equals_both_former_loops(self, seed, n, data):
        m = data.draw(st.integers(1, n))
        assert shuffled_prefix(RngState(seed), n, m) == former_sampler_shuffle(RngState(seed), n, m)
        assert shuffled_prefix(RngState(seed), n, n) == former_augment_shuffle(RngState(seed), n)


def test_finite_array_names_a_wrong_rank():
    with pytest.raises(ValidationError, match=r"data matrix must be 2-D, got shape \(3,\)"):
        finite_array([1.0, 2.0, 3.0], 2, "data matrix")
