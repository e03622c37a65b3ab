"""Constructor invariants and functional-calculus algebra of the spectral core."""

import numpy as np
import pytest

from opineq import (
    ConfigInvalid,
    DimensionMismatch,
    HermitianOperator,
    IntervalMismatch,
    NormalizationViolation,
    NotHermitian,
    NotUnitState,
    SpectralInterval,
    SpectralMeasure,
    SpectrumOutOfInterval,
    StateVector,
    apply_function,
    block_diagonal,
    constant,
    eigenbasis_weights,
    exp_fn,
    expectation,
    expectation_product,
    from_dense,
    identity,
    linear_combination,
    log_fn,
    pointwise_product,
    power,
    tol_calc,
    trial_rng,
)
from opineq import TOL_UNITARY, MAX_DIM, random_operator, random_state

IR2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# SpectralInterval


class TestSpectralInterval:
    def test_basic_fields(self):
        iv = SpectralInterval(1.0, 2.5)
        assert iv.lo == 1.0
        assert iv.hi == 2.5
        assert iv.width == 1.5
        assert iv.as_pair() == (1.0, 2.5)

    def test_degenerate_interval_allowed(self):
        iv = SpectralInterval(1.5, 1.5)
        assert iv.width == 0.0
        assert iv.contains(1.5)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ConfigInvalid):
            SpectralInterval(2.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigInvalid):
            SpectralInterval(0.0, np.inf)
        with pytest.raises(ConfigInvalid):
            SpectralInterval(np.nan, 1.0)

    def test_contains_with_slack(self):
        iv = SpectralInterval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0)
        assert not iv.contains(2.0 + 1e-9)
        assert iv.contains(2.0 + 1e-9, slack=1e-8)

    def test_grid_includes_both_endpoints(self):
        pts = SpectralInterval(1.0, 2.0).grid(11)
        assert pts[0] == 1.0 and pts[-1] == 2.0
        assert pts.size == 11
        assert np.all(np.diff(pts) > 0)

    def test_grid_needs_two_points(self):
        with pytest.raises(ConfigInvalid):
            SpectralInterval(1.0, 2.0).grid(1)

    @pytest.mark.parametrize("grid_n", [5.7, 5.0, True, "5"])
    def test_grid_size_must_be_an_integer(self, grid_n):
        with pytest.raises(ConfigInvalid, match=f"grid_n must be an integer, got {grid_n!r}"):
            SpectralInterval(1.0, 2.0).grid(grid_n)

    def test_grid_size_takes_numpy_integers(self):
        iv = SpectralInterval(1.0, 2.0)
        np.testing.assert_array_equal(iv.grid(np.int64(5)), iv.grid(5))

    def test_shrunk_pulls_endpoints_inward(self):
        iv = SpectralInterval(0.0, 1.0).shrunk()
        assert iv.lo == pytest.approx(1e-3)
        assert iv.hi == pytest.approx(1.0 - 1e-3)

    def test_hull(self):
        iv = SpectralInterval(1.0, 2.0).hull(SpectralInterval(0.5, 1.5))
        assert iv.as_pair() == (0.5, 2.0)


# ---------------------------------------------------------------------------
# StateVector


class TestStateVector:
    def test_norm_cached(self):
        x = StateVector(np.asarray([3.0, 4.0]))
        assert x.norm == pytest.approx(5.0)
        assert x.dim == 2

    def test_require_unit_passes_for_unit_vector(self):
        x = StateVector(np.asarray([IR2, IR2]))
        assert x.require_unit() is x

    def test_require_unit_rejects_non_unit(self):
        with pytest.raises(NotUnitState):
            StateVector(np.asarray([1.0, 1.0])).require_unit()

    def test_unit_normalizes(self):
        x = StateVector.unit([3.0, 4.0])
        assert x.norm == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(x.components, [0.6, 0.8])

    def test_unit_rejects_zero_vector(self):
        with pytest.raises(ConfigInvalid):
            StateVector.unit([0.0, 0.0])

    @pytest.mark.parametrize(
        "components, expected",
        [
            ([1e200, 1e200], [IR2, IR2]),
            ([1e-200, 1e-200], [IR2, IR2]),
            ([3e-170, 4e-170], [0.6, 0.8]),
        ],
    )
    def test_unit_at_extreme_scales(self, components, expected):
        x = StateVector.unit(components)
        assert x.is_unit
        np.testing.assert_allclose(x.components, expected, rtol=1e-15)

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]])
    def test_unit_rejects_non_finite(self, bad):
        with pytest.raises(ConfigInvalid, match="state components must be finite"):
            StateVector.unit(bad)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ConfigInvalid):
            StateVector(np.asarray([]))
        with pytest.raises(ConfigInvalid):
            StateVector(np.asarray([np.nan, 1.0]))
        with pytest.raises(ConfigInvalid):
            StateVector(np.asarray([[1.0, 2.0]]))

    def test_components_immutable(self):
        x = StateVector(np.asarray([1.0, 0.0]))
        with pytest.raises(ValueError):
            x.components[0] = 2.0

    def test_complex_components(self):
        x = StateVector(np.asarray([1j * IR2, IR2]))
        assert x.norm == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# HermitianOperator construction


class TestHermitianOperator:
    def test_diagonal_constructor(self):
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        np.testing.assert_array_equal(A.eigenvalues, [1.0, 2.0])
        np.testing.assert_array_equal(A.eigenvectors, np.eye(2))
        assert A.dim == 2

    def test_unsorted_diagonal_is_sorted_consistently(self):
        A = HermitianOperator.diagonal([2.0, 1.0, 1.5], SpectralInterval(1.0, 2.0))
        np.testing.assert_array_equal(A.eigenvalues, [1.0, 1.5, 2.0])
        np.testing.assert_allclose(A.matrix, np.diag([2.0, 1.0, 1.5]), atol=1e-15)

    @pytest.mark.parametrize(
        "values, standard",
        [
            ([1.0, 2.0], True),
            ([1.5, 1.5, 1.5], True),
            ([1.0 - 1e-9, 2.0 + 1e-9], True),  # clipped, still ascending
            ([2.0, 1.0, 1.5], False),
            ([2.0 + 1e-9, 2.0], False),  # out of order; the clip ties them
        ],
    )
    def test_standard_basis_is_an_ascending_diagonal(self, values, standard):
        A = HermitianOperator.diagonal(values, SpectralInterval(1.0, 2.0))
        assert A.standard_basis is standard
        basis = np.eye(len(values))[:, np.argsort(values, kind="stable")]
        np.testing.assert_array_equal(A.eigenvectors, basis)

    def test_a_given_basis_is_never_the_standard_basis(self):
        iv = SpectralInterval(1.0, 2.0)
        assert not HermitianOperator(np.asarray([1.0, 2.0]), np.eye(2), iv).standard_basis
        assert not from_dense(np.diag([1.0, 2.0]), iv).standard_basis
        with pytest.raises(TypeError):
            HermitianOperator(np.asarray([1.0, 2.0]), None, iv, standard_basis=True)

    def test_matrix_reconstruction(self):
        A = from_dense([[2.0, 1.0], [1.0, 2.0]], SpectralInterval(0.0, 4.0))
        np.testing.assert_allclose(A.matrix, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_non_unitary_eigenvectors_rejected(self):
        bad = np.asarray([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
        with pytest.raises(ConfigInvalid):
            HermitianOperator(np.asarray([1.0, 2.0]), bad, SpectralInterval(1.0, 2.0))

    def test_eigenvector_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(
                np.asarray([1.0, 2.0]),
                np.eye(3, dtype=np.complex128),
                SpectralInterval(1.0, 2.0),
            )

    def test_dimension_cap(self):
        n = MAX_DIM + 1
        with pytest.raises(ConfigInvalid):
            HermitianOperator.diagonal([1.0] * n, SpectralInterval(0.0, 2.0))

    def test_eigenvalue_clamped_within_slack(self):
        A = HermitianOperator.diagonal([1.0, 2.0 + 1e-9], SpectralInterval(1.0, 2.0))
        assert A.eigenvalues[-1] == 2.0

    def test_eigenvalue_beyond_slack_rejected(self):
        with pytest.raises(SpectrumOutOfInterval):
            HermitianOperator.diagonal([1.0, 2.1], SpectralInterval(1.0, 2.0))

    @pytest.mark.parametrize(
        "values, lo, hi",
        [
            ([1.0, 1.25, 2.0], 1.0, 2.0),
            ([2.0, 1.0, 1.5, 1.25], 1.0, 2.0),
            ([1.5, 1.0, 1.5, 1.0, 2.0 + 1e-9], 1.0, 2.0),
            ([1.0, 1.0 - 1e-9, 1.0 - 5e-9], 1.0, 2.0),
            ([0.5, -0.0, 0.0, -1e-9], 0.0, 1.0),
            ([1.75], 1.0, 2.0),
        ],
    )
    def test_diagonal_bits_match_the_general_constructor(self, values, lo, hi):
        iv = SpectralInterval(lo, hi)
        A = HermitianOperator.diagonal(values, iv)
        B = HermitianOperator(np.asarray(values), np.eye(len(values), dtype=np.complex128), iv)
        for a, b in ((A.eigenvalues, B.eigenvalues), (A.eigenvectors, B.eigenvectors)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and not a.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [[], [[1.0, 2.0], [1.5, 1.5]], [1.0, np.nan], [1.0, 2.5], [1.0] * (MAX_DIM + 1)],
    )
    def test_diagonal_errors_match_the_general_constructor(self, values):
        iv = SpectralInterval(1.0, 2.0)
        n = np.asarray(values).size
        with pytest.raises(Exception) as general:
            HermitianOperator(np.asarray(values), np.eye(n, dtype=np.complex128), iv)
        with pytest.raises(type(general.value)) as diagonal:
            HermitianOperator.diagonal(values, iv)
        assert str(diagonal.value) == str(general.value)


class TestFromDense:
    def test_diagonal_input(self):
        A = from_dense([[1.0, 0.0], [0.0, 2.0]], SpectralInterval(1.0, 2.0))
        np.testing.assert_allclose(A.eigenvalues, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(A.eigenvectors), np.eye(2), atol=1e-12)

    def test_swap_matrix_spectrum(self):
        A = from_dense([[0.0, 1.0], [1.0, 0.0]], SpectralInterval(-1.0, 1.0))
        np.testing.assert_allclose(A.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_two_by_two_hand_spectrum(self):
        A = from_dense([[2.0, 1.0], [1.0, 2.0]], SpectralInterval(0.0, 4.0))
        np.testing.assert_allclose(A.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_hermitian_complex_input(self):
        A = from_dense([[2.0, -1j], [1j, 2.0]], SpectralInterval(0.0, 4.0))
        np.testing.assert_allclose(A.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            from_dense([[0.0, 1.0], [0.0, 0.0]], SpectralInterval(-1.0, 1.0))

    def test_non_square_rejected(self):
        with pytest.raises(ConfigInvalid):
            from_dense([[1.0, 0.0]], SpectralInterval(0.0, 1.0))


# ---------------------------------------------------------------------------
# functional calculus


class TestApplyFunction:
    def setup_method(self):
        self.A = from_dense([[2.0, 1.0], [1.0, 2.0]], SpectralInterval(0.0, 4.0))

    def test_constant_one_gives_identity(self):
        np.testing.assert_allclose(
            apply_function(self.A, constant(1.0)), np.eye(2), atol=1e-12
        )

    def test_identity_recovers_matrix(self):
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        np.testing.assert_allclose(
            apply_function(A, identity()), np.diag([1.0, 2.0]), atol=1e-15
        )

    def test_inverse_inverts_spectrum(self):
        inv = apply_function(self.A, power(-1.0))
        np.testing.assert_allclose(inv @ self.A.matrix, np.eye(2), atol=1e-12)
        lam = np.linalg.eigvalsh(inv)
        np.testing.assert_allclose(lam, [1.0 / 3.0, 1.0], atol=1e-12)

    def test_result_is_hermitian(self):
        out = apply_function(self.A, exp_fn())
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


class TestExpectation:
    def setup_method(self):
        self.A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        self.eq = StateVector(np.asarray([IR2, IR2]))

    def test_equal_weight_mean(self):
        assert expectation(self.A, identity(), self.eq) == pytest.approx(1.5, abs=1e-15)

    def test_eigenvector_state(self):
        e1 = StateVector(np.asarray([1.0, 0.0]))
        assert expectation(self.A, power(2.0), e1) == pytest.approx(1.0, abs=1e-15)

    def test_inverse_mean(self):
        assert expectation(self.A, power(-1.0), self.eq) == pytest.approx(0.75, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(self.A, identity(), StateVector(np.asarray([1.0, 0.0, 0.0])))

    def test_product_matches_pointwise_product(self):
        f, g = power(2.0), power(0.5)
        direct = expectation_product(self.A, f, g, self.eq)
        via_product = expectation(self.A, pointwise_product(f, g), self.eq)
        assert direct == pytest.approx(via_product, abs=1e-14)

    def test_expectation_is_real_for_complex_state(self):
        A = from_dense([[2.0, -1j], [1j, 2.0]], SpectralInterval(0.0, 4.0))
        x = StateVector.unit([1.0, 1j])
        value = expectation(A, power(2.0), x)
        assert isinstance(value, float)


class TestEigenbasisWeights:
    def test_weights_sum_to_squared_norm(self):
        rng = trial_rng(3, 0, 0)
        A = random_operator(rng, 5, SpectralInterval(1.0, 2.0))
        x = random_state(rng, 5)
        w = eigenbasis_weights(A, x)
        assert np.all(w >= 0.0)
        assert float(w.sum()) == pytest.approx(x.norm**2, abs=1e-12)

    def test_weights_reproduce_expectation(self):
        rng = trial_rng(3, 0, 1)
        A = random_operator(rng, 4, SpectralInterval(1.0, 2.0))
        x = random_state(rng, 4)
        w = eigenbasis_weights(A, x)
        via_weights = float(np.sum(w * np.exp(A.eigenvalues)))
        assert expectation(A, exp_fn(), x) == pytest.approx(via_weights, abs=1e-12)


class TestSpectralMeasure:
    FNS = (identity(), power(2.0), power(-1.0), power(0.5), exp_fn(), log_fn())

    @pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
    def test_expect_matches_dense_expectation_product(self, dim):
        for trial in range(3):
            rng = trial_rng(11, dim, trial)
            A = random_operator(rng, dim, SpectralInterval(0.5, 3.0))
            x = random_state(rng, dim)
            mu = SpectralMeasure.of(A, x)
            for f in self.FNS:
                for g in self.FNS:
                    dense = expectation_product(A, f, g, x)
                    assert mu.expect(f, g) == pytest.approx(dense, rel=1e-12, abs=0.0)
                assert mu.expect(f) == pytest.approx(expectation(A, f, x), rel=1e-12, abs=0.0)

    def test_total_mass_is_squared_norm(self):
        rng = trial_rng(11, 0, 0)
        A = random_operator(rng, 6, SpectralInterval(1.0, 2.0))
        x = StateVector(0.5 * random_state(rng, 6).components)
        assert SpectralMeasure.of(A, x).expect() == pytest.approx(0.25, abs=1e-15)

    def test_concatenation_matches_block_diagonal_lift(self):
        rng = trial_rng(11, 0, 1)
        ops = [random_operator(rng, d, SpectralInterval(1.0, 2.0)) for d in (2, 3, 1)]
        states = [StateVector(random_state(rng, d).components / np.sqrt(3.0)) for d in (2, 3, 1)]
        joint = SpectralMeasure.concat([SpectralMeasure.of(A, x) for A, x in zip(ops, states)])
        stacked, sx = block_diagonal(ops, states)
        for f in self.FNS:
            parts = sum(expectation(A, f, x) for A, x in zip(ops, states))
            assert joint.expect(f) == pytest.approx(parts, rel=1e-12)
            lifted = expectation_product(stacked, f, f, sx)
            assert joint.expect(f, f) == pytest.approx(lifted, rel=1e-12)

    def test_dimension_mismatch(self):
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        with pytest.raises(DimensionMismatch):
            SpectralMeasure.of(A, StateVector(np.asarray([1.0, 0.0, 0.0])))

    @pytest.mark.parametrize("atoms", [2, 5])
    def test_batch_expect_matches_each_measure(self, atoms):
        rng = trial_rng(11, 1, atoms)
        lam = rng.uniform(0.5, 3.0, (7, atoms))
        w = rng.uniform(0.0, 1.0, (7, atoms))
        batch = SpectralMeasure(lam, w)
        for f in self.FNS:
            for g in self.FNS:
                got = batch.expect(f, g)
                assert isinstance(got, np.ndarray) and got.shape == (7,)
                each = [SpectralMeasure(lam[k], w[k]).expect(f, g) for k in range(7)]
                assert got == pytest.approx(each, rel=1e-12, abs=0.0)
        assert isinstance(SpectralMeasure(lam[0], w[0]).expect(), float)

    @staticmethod
    def _uncached(mu, *fns):
        """expect's product and sum, each function evaluated afresh."""
        vals = np.ones_like(mu.weights)
        for fn in fns:
            vals = vals * fn.evaluate(mu.atoms)
        return mu.weights @ vals if mu.weights.ndim == 1 else (mu.weights * vals).sum(axis=-1)

    @pytest.mark.parametrize("shape", [(5,), (7, 2)])
    def test_repeated_expectations_change_no_bit(self, shape):
        rng = trial_rng(11, 2, len(shape))
        lam = rng.uniform(0.5, 3.0, shape)
        w = rng.uniform(0.0, 1.0, shape)
        warm = SpectralMeasure(lam, w)
        calls = [(f, g) for f in self.FNS for g in self.FNS] + [(f,) for f in self.FNS]
        # power(2.0) again, as a distinct object equal in value to the first
        calls += [(power(2.0), identity()), (constant(0.0),), ()]
        for fns in calls:
            got = np.asarray(warm.expect(*fns))
            fresh = np.asarray(SpectralMeasure(lam, w).expect(*fns))
            expected = np.asarray(self._uncached(warm, *fns))
            assert got.tobytes() == fresh.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# block-diagonal stacking


class TestBlockDiagonal:
    def test_single_pair_roundtrip(self):
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        x = StateVector(np.asarray([IR2, IR2]))
        stacked, sx = block_diagonal([A], [x])
        np.testing.assert_array_equal(stacked.eigenvalues, A.eigenvalues)
        np.testing.assert_array_equal(sx.components, x.components)

    def test_two_copies_hand_value(self):
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        x = StateVector(np.asarray([0.5, 0.5]))
        stacked, sx = block_diagonal([A, A], [x, x])
        assert stacked.dim == 4
        assert sx.norm == pytest.approx(1.0, abs=1e-15)
        assert expectation(stacked, identity(), sx) == pytest.approx(1.5, abs=1e-14)

    def test_expectation_adds_block_by_block(self):
        rng = trial_rng(4, 0, 0)
        iv = SpectralInterval(0.5, 2.0)
        ops = [random_operator(rng, d, iv) for d in (2, 3)]
        raw = [random_state(rng, 2), random_state(rng, 3)]
        scale = np.sqrt(sum(s.norm**2 for s in raw))
        states = [StateVector(s.components / scale) for s in raw]
        stacked, sx = block_diagonal(ops, states)
        for fn in (identity(), power(2.0), log_fn()):
            parts = sum(expectation(op, fn, st) for op, st in zip(ops, states))
            total = expectation(stacked, fn, sx)
            assert abs(total - parts) <= tol_calc(abs(parts))

    def test_interval_mismatch(self):
        A = HermitianOperator.diagonal([1.0], SpectralInterval(1.0, 2.0))
        B = HermitianOperator.diagonal([3.0], SpectralInterval(3.0, 4.0))
        x = StateVector(np.asarray([IR2]))
        with pytest.raises(IntervalMismatch):
            block_diagonal([A, B], [x, x])

    def test_normalization_violation(self):
        A = HermitianOperator.diagonal([1.0], SpectralInterval(1.0, 2.0))
        x = StateVector(np.asarray([1.0]))
        with pytest.raises(NormalizationViolation):
            block_diagonal([A, A], [x, x])

    def test_dimension_mismatch(self):
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 2.0))
        x = StateVector(np.asarray([1.0]))
        with pytest.raises(DimensionMismatch):
            block_diagonal([A], [x])

    def test_stacked_dimension_cap(self):
        iv = SpectralInterval(1.0, 2.0)
        ops = [HermitianOperator.diagonal([1.0] * 6, iv) for _ in range(3)]
        states = [StateVector.unit([1.0] * 6) for _ in range(3)]
        scaled = [StateVector(s.components / np.sqrt(3.0)) for s in states]
        with pytest.raises(ConfigInvalid):
            block_diagonal(ops, scaled)


# ---------------------------------------------------------------------------
# calculus algebra over random draws (small-scale; the full-size sweep is an
# acceptance criterion)


def _pool(lo):
    fns = [identity(), constant(1.0), power(2.0), power(0.5), exp_fn()]
    if lo > 0.0:
        fns += [power(-1.0), log_fn()]
    return fns


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calculus_multiplicativity_and_linearity(seed):
    iv = SpectralInterval(0.5, 2.0)
    fns = _pool(iv.lo)
    for trial in range(60):
        rng = trial_rng(seed, 0, trial)
        dim = int(rng.integers(1, 7))
        A = random_operator(rng, dim, iv)
        f = fns[int(rng.integers(len(fns)))]
        g = fns[int(rng.integers(len(fns)))]
        fa, ga = apply_function(A, f), apply_function(A, g)
        scale = float(np.max(np.abs(f(A.eigenvalues)))) * float(
            np.max(np.abs(g(A.eigenvalues)))
        )
        prod = apply_function(A, pointwise_product(f, g))
        assert float(np.max(np.abs(fa @ ga - prod))) <= tol_calc(scale)
        alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = apply_function(A, linear_combination((alpha, f), (beta, g)))
        assert float(np.max(np.abs(combo - (alpha * fa + beta * ga)))) <= tol_calc(scale)


def test_calculus_norm_property():
    iv = SpectralInterval(0.5, 2.0)
    fns = _pool(iv.lo)
    for trial in range(100):
        rng = trial_rng(7, 1, trial)
        dim = int(rng.integers(1, 7))
        A = random_operator(rng, dim, iv)
        f = fns[int(rng.integers(len(fns)))]
        sup = float(np.max(np.abs(f(A.eigenvalues))))
        opnorm = float(np.linalg.norm(apply_function(A, f), ord=2))
        assert abs(sup - opnorm) <= tol_calc(sup)


def test_calculus_order_preservation():
    iv = SpectralInterval(0.5, 2.0)
    fns = _pool(iv.lo)
    checked = 0
    for trial in range(200):
        rng = trial_rng(7, 2, trial)
        dim = int(rng.integers(1, 7))
        A = random_operator(rng, dim, iv)
        f = fns[int(rng.integers(len(fns)))]
        g = fns[int(rng.integers(len(fns)))]
        fv, gv = f(A.eigenvalues), g(A.eigenvalues)
        if not np.all(fv >= gv):
            if np.all(gv >= fv):
                f, g, fv, gv = g, f, gv, fv
            else:
                continue
        x = random_state(rng, dim)
        diff = expectation(A, f, x) - expectation(A, g, x)
        scale = float(np.max(np.abs(fv))) + float(np.max(np.abs(gv)))
        assert diff >= -tol_calc(scale)
        checked += 1
    assert checked > 50


def test_random_operator_basis_is_unitary():
    for trial in range(50):
        rng = trial_rng(11, 0, trial)
        dim = int(rng.integers(1, 9))
        A = random_operator(rng, dim, SpectralInterval(1.0, 2.0))
        residue = float(
            np.max(np.abs(A.eigenvectors.conj().T @ A.eigenvectors - np.eye(dim)))
        )
        assert residue <= TOL_UNITARY
        assert A.eigenvalues.min() >= 1.0 and A.eigenvalues.max() <= 2.0
