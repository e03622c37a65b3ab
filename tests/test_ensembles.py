"""Ensemble checks, the discrete sum inequality, and the averaged chain."""

import itertools
import warnings

import numpy as np
import pytest

from opineq import (
    ConfigInvalid,
    DimensionMismatch,
    DomainViolation,
    GE,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    HermitianOperator,
    IntervalMismatch,
    MAX_GRID_N,
    NonPositiveSpectrum,
    NormalizationViolation,
    NotSimilarlyOrdered,
    OperatorEnsemble,
    PER_VECTOR,
    SUM_OF_SQUARES,
    SpectralInterval,
    SpectrumOutOfInterval,
    StateVector,
    check_ensemble_mean_point,
    check_ensemble_sign_bound,
    check_ensemble_square_bound,
    check_mean_point,
    check_sign_bound,
    check_square_bound,
    constant,
    discrete_chebyshev,
    ensemble_expectation,
    ensemble_expectation_product,
    exp_fn,
    identity,
    kantorovich_constant,
    kantorovich_ensemble_chain,
    lift_ensemble,
    log_fn,
    power,
    random_ensemble,
    similarly_ordered,
    tol_calc,
    trial_rng,
)
from opineq.ensembles import _chain_sides, _member_means
from opineq.functionals import _kantorovich_constants
from opineq.spectral import SpectralMeasure

IV12 = SpectralInterval(1.0, 2.0)
DIAG12 = HermitianOperator.diagonal([1.0, 2.0], IV12)
ONE = constant(1.0)
ID = identity()
SQ = power(2.0)
INV = power(-1.0)
HALF2 = StateVector(np.asarray([0.5, 0.5]))
TWO_BLOCKS = OperatorEnsemble((DIAG12, DIAG12), (HALF2, HALF2), SUM_OF_SQUARES)


# ---------------------------------------------------------------------------
# construction and basic aggregation


class TestOperatorEnsemble:
    def test_counts_must_match(self):
        with pytest.raises(ConfigInvalid):
            OperatorEnsemble((), (), SUM_OF_SQUARES)
        with pytest.raises(ConfigInvalid):
            OperatorEnsemble((DIAG12,), (HALF2, HALF2), SUM_OF_SQUARES)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigInvalid):
            OperatorEnsemble((DIAG12,), (StateVector.unit([1.0, 1.0]),), "unit-sum")

    def test_interval_mismatch(self):
        other = HermitianOperator.diagonal([1.0, 1.5], SpectralInterval(1.0, 1.5))
        with pytest.raises(IntervalMismatch):
            OperatorEnsemble((DIAG12, other), (HALF2, HALF2), SUM_OF_SQUARES)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            OperatorEnsemble((DIAG12,), (StateVector.unit([1.0]),), PER_VECTOR)

    def test_sum_of_squares_normalization_checked(self):
        unit = StateVector.unit([1.0, 1.0])
        with pytest.raises(NormalizationViolation):
            OperatorEnsemble((DIAG12, DIAG12), (unit, unit), SUM_OF_SQUARES)

    def test_per_vector_normalization_checked(self):
        with pytest.raises(NormalizationViolation):
            OperatorEnsemble((DIAG12, DIAG12), (HALF2, HALF2), PER_VECTOR)

    def test_huge_state_norm_is_a_normalization_violation(self):
        huge = StateVector(np.asarray([1e200, 0.0]))
        with pytest.raises(NormalizationViolation):
            OperatorEnsemble((DIAG12,), (huge,), SUM_OF_SQUARES)

    def test_properties(self):
        assert TWO_BLOCKS.n == 2
        assert TWO_BLOCKS.interval == IV12

    def test_expectation_sums_over_blocks(self):
        assert ensemble_expectation(TWO_BLOCKS, ID) == pytest.approx(1.5, abs=1e-14)
        assert ensemble_expectation_product(TWO_BLOCKS, ID, ID) == pytest.approx(
            2.5, abs=1e-14
        )

    def test_lift_matches_sums(self):
        stacked, sx = lift_ensemble(TWO_BLOCKS)
        assert stacked.dim == 4
        assert sx.norm == pytest.approx(1.0, abs=1e-14)

    def test_lift_rejects_per_vector(self):
        unit = StateVector.unit([1.0, 1.0])
        E = OperatorEnsemble((DIAG12,), (unit,), PER_VECTOR)
        with pytest.raises(NormalizationViolation):
            lift_ensemble(E)


# ---------------------------------------------------------------------------
# summed checks vs the block-diagonal lift


def _random_sos_ensemble(rng):
    n = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 4)) for _ in range(n)]
    return random_ensemble(rng, n, dims, IV12, SUM_OF_SQUARES)


class TestBlockDiagonalEquivalence:
    def test_pinned_two_block_instance(self):
        r = check_ensemble_sign_bound(SQ, SQ, ID, TWO_BLOCKS)
        assert r.verdict == HOLDS
        assert r.gap == pytest.approx(1.0, abs=1e-12)
        assert r.lhs == pytest.approx(2.5 * 8.5, abs=1e-12)

    def test_equal_triple_gap_zero(self):
        r = check_ensemble_sign_bound(ID, ID, ID, TWO_BLOCKS)
        assert r.gap == pytest.approx(0.0, abs=1e-13)

    def test_sign_bound_matches_lift(self):
        for trial in range(50):
            rng = trial_rng(31, 0, trial)
            E = _random_sos_ensemble(rng)
            summed = check_ensemble_sign_bound(SQ, log_fn(), ID, E)
            stacked, sx = lift_ensemble(E)
            single = check_sign_bound(SQ, log_fn(), ID, stacked, sx)
            assert abs(summed.gap - single.gap) <= tol_calc(abs(single.gap))
            assert summed.verdict == single.verdict

    def test_square_bound_matches_lift(self):
        for trial in range(50):
            rng = trial_rng(31, 1, trial)
            E = _random_sos_ensemble(rng)
            summed = check_ensemble_square_bound(exp_fn(), ID, E)
            stacked, sx = lift_ensemble(E)
            single = check_square_bound(exp_fn(), ID, stacked, sx)
            assert abs(summed.gap - single.gap) <= tol_calc(abs(single.gap))
            assert summed.verdict == HOLDS

    def test_mean_point_matches_lift(self):
        for trial in range(50):
            rng = trial_rng(31, 2, trial)
            E = _random_sos_ensemble(rng)
            summed = check_ensemble_mean_point(ID, ID, ONE, E)
            stacked, sx = lift_ensemble(E)
            single = check_mean_point(ID, ID, ONE, stacked, sx)
            assert abs(summed.gap - single.gap) <= tol_calc(abs(single.gap))
            assert summed.verdict == single.verdict

    def test_mean_point_pinned_sides(self):
        r = check_ensemble_mean_point(ID, ID, ONE, TWO_BLOCKS)
        assert r.lhs == pytest.approx(0.25, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)

    def test_summed_checks_reject_per_vector(self):
        unit = StateVector.unit([1.0, 1.0])
        E = OperatorEnsemble((DIAG12,), (unit,), PER_VECTOR)
        with pytest.raises(NormalizationViolation):
            check_ensemble_sign_bound(ID, ID, ONE, E)
        with pytest.raises(NormalizationViolation):
            check_ensemble_square_bound(ID, ID, E)
        with pytest.raises(NormalizationViolation):
            check_ensemble_mean_point(ID, ID, ONE, E)

    def test_permutation_invariance(self):
        rng = trial_rng(31, 3, 0)
        E = random_ensemble(rng, 3, [2, 1, 3], IV12, SUM_OF_SQUARES)
        base = check_ensemble_sign_bound(SQ, exp_fn(), ID, E)
        for perm in itertools.permutations(range(3)):
            shuffled = OperatorEnsemble(
                tuple(E.operators[i] for i in perm),
                tuple(E.states[i] for i in perm),
                SUM_OF_SQUARES,
            )
            r = check_ensemble_sign_bound(SQ, exp_fn(), ID, shuffled)
            assert abs(r.gap - base.gap) <= tol_calc(abs(base.gap))

    def test_n_fold_replication_telescopes(self):
        x = StateVector.unit([1.0, 1.0])
        single = check_sign_bound(SQ, log_fn(), ID, DIAG12, x)
        for n in (2, 3, 4):
            scaled = StateVector(x.components / np.sqrt(n))
            E = OperatorEnsemble((DIAG12,) * n, (scaled,) * n, SUM_OF_SQUARES)
            r = check_ensemble_sign_bound(SQ, log_fn(), ID, E)
            assert abs(r.gap - single.gap) <= tol_calc(abs(single.gap))


# ---------------------------------------------------------------------------
# similarly ordered tuples / discrete inequality


class TestSimilarlyOrdered:
    def test_sorted_pair_is_ordered(self):
        ordered, witness, worst = similarly_ordered((1, 2, 3), (4, 5, 9))
        assert ordered and witness is None
        assert worst >= 0.0

    def test_opposite_pair_has_witness(self):
        ordered, witness, worst = similarly_ordered((1.0, 2.0), (2.0, 1.0))
        assert not ordered
        assert witness == (0, 1)
        assert worst == pytest.approx(-1.0)

    def test_singleton_trivially_ordered(self):
        ordered, witness, _ = similarly_ordered((5.0,), (7.0,))
        assert ordered and witness is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigInvalid):
            similarly_ordered((1.0, 2.0), (1.0,))

    def test_points_are_bounded_as_a_grid_is(self):
        r = discrete_chebyshev([1.0] * MAX_GRID_N, [2.0] * MAX_GRID_N)
        assert r.verdict == HOLDS
        n = MAX_GRID_N + 1
        with pytest.raises(ConfigInvalid) as err:
            similarly_ordered(np.arange(n), np.arange(n))
        assert str(err.value) == (
            f"a similarly-ordered certificate takes at most {MAX_GRID_N} entries, got {n}"
        )


class TestDiscreteChebyshev:
    def test_pinned_value(self):
        r = discrete_chebyshev([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.verdict == HOLDS
        assert r.lhs == pytest.approx(14.0 / 3.0, abs=1e-12)
        assert r.rhs == pytest.approx(4.0, abs=1e-12)
        assert r.gap == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_constant_tuple_gap_zero(self):
        r = discrete_chebyshev([2.0, 2.0, 2.0], [1.0, 5.0, 9.0])
        assert r.gap == pytest.approx(0.0, abs=1e-14)

    def test_opposite_order_rejected_with_witness(self):
        with pytest.raises(NotSimilarlyOrdered) as err:
            discrete_chebyshev([1.0, 2.0], [2.0, 1.0])
        assert "i=0" in str(err.value) and "j=1" in str(err.value)

    def test_overflowing_opposite_pair_rejected_with_witness(self):
        # (a_0 - a_1)(b_0 - b_1) = -(1.6e154)^2 overflows; it is still negative
        with pytest.raises(NotSimilarlyOrdered) as err:
            discrete_chebyshev([8e153, -8e153], [-8e153, 8e153])
        assert "i=0" in str(err.value) and "j=1" in str(err.value)

    def test_gate_off_overflowing_sides_are_a_domain_violation(self):
        # a_j b_j = -1e400 overflows in the sides as in the pair products; neither warns
        with pytest.raises(DomainViolation):
            discrete_chebyshev([1e200, -1e200], [-1e200, 1e200], gate=False)

    def test_gate_off_evaluates_anyway(self):
        r = discrete_chebyshev([1.0, 2.0], [2.0, 1.0], gate=False)
        assert r.inputs_digest["gate_hypothesis"] is False
        assert r.hypothesis_evidence["ordered"] is False
        assert r.hypothesis_evidence["witness"] == [0, 1]
        assert r.gap == pytest.approx(2.0 - 2.25, abs=1e-14)
        assert r.verdict == "violated"

    def test_exhaustive_sorted_tuples_up_to_six(self):
        values = (0.0, 1.0, 2.0)
        for n in range(1, 7):
            tuples = [
                t
                for t in itertools.combinations_with_replacement(values, n)
            ]
            for a in tuples:
                for b in tuples:
                    r = discrete_chebyshev(a, b)
                    direct = float(np.mean(np.asarray(a) * np.asarray(b))) - float(
                        np.mean(a)
                    ) * float(np.mean(b))
                    assert r.gap == pytest.approx(direct, abs=1e-12)
                    assert r.gap >= -r.tolerance
                    assert r.verdict == HOLDS


# ---------------------------------------------------------------------------
# averaged Kantorovich chain


def test_chain_sides_of_a_batch_are_each_rows():
    # members' means of a batch of measures, as the falsifier scores candidates
    rng = np.random.default_rng(1)
    measures = [
        SpectralMeasure(rng.uniform(1.0, 2.0, (6, 2)), rng.dirichlet(np.ones(2), 6))
        for _ in range(3)
    ]
    constants = [1.2, 1.5, 1.1]
    batch = _chain_sides(*_member_means(measures), constants)
    for k in range(6):
        rows = [SpectralMeasure(m.atoms[k], m.weights[k]) for m in measures]
        single = _chain_sides(*_member_means(rows), constants)
        for got, want in zip(batch, single):
            got = [float(np.broadcast_to(v, (6,))[k]) for v in got]
            assert got == pytest.approx(list(want), rel=1e-12)


class TestKantorovichConstant:
    def test_hand_values(self):
        assert kantorovich_constant(1.0, 2.0) == pytest.approx(9.0 / 8.0, abs=1e-15)
        assert kantorovich_constant(1.5, 1.5) == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveSpectrum):
            kantorovich_constant(0.0, 1.0)

    def test_constant_overflows_to_inf_instead_of_raising(self):
        # (1 + r)^2 overflows, but not (1 + r)^2 / (4 r), about r / 4
        assert kantorovich_constant(1.0, 1e160) == pytest.approx(2.5e159, rel=1e-15)
        assert kantorovich_constant(1e-200, 1e200) == np.inf  # r = hi / lo overflows

    @pytest.mark.parametrize(
        "lo,hi", [(1.0, 1.35e154), (1.0, 1e160), (1e-7, 1e300), (1.0, 1.7e308), (1e-300, 1e-100)]
    )
    def test_a_ratio_whose_square_overflows_is_not_squared(self, lo, hi):
        r = hi / lo
        plus, minus = 1.0 + r, r - 1.0
        want = (plus / 4.0 * (plus / r), minus / 4.0 * (minus / r))
        with np.errstate(all="ignore"):  # as its callers run it
            assert _kantorovich_constants(SpectralInterval(lo, hi)) == want
        assert want == pytest.approx((r / 4.0, r / 4.0), rel=1e-15)

    def test_a_ratio_whose_square_is_finite_keeps_its_form(self):
        # (1 + r)^2 is finite just below 1.34e154: the constant squares it as before
        r = 1.3e154
        want = ((1.0 + r) ** 2 / (4.0 * r), (r - 1.0) ** 2 / (4.0 * r))
        assert _kantorovich_constants(SpectralInterval(1e-160, 1e-160 * r)) == want

    def test_extreme_scales_read_the_ratio(self):
        # 4 lo hi underflows to 0 at 1e-300; (lo + hi)^2 and 4 lo hi overflow at 1e300
        assert kantorovich_constant(1e-300, 1e-300) == 1.0
        assert kantorovich_constant(1e300, 1e300) == 1.0
        assert kantorovich_constant(1e200, 2e200) == 9.0 / 8.0
        assert _kantorovich_constants(SpectralInterval(1e-300, 1e-300)) == (1.0, 0.0)
        # 4 lo hi underflows to 0: (1 + r)^2 / (4 r) and (r - 1)^2 / (4 r) of r = hi / lo
        r = 1e-160 / 1e-170
        want = ((1.0 + r) ** 2 / (4.0 * r), (r - 1.0) ** 2 / (4.0 * r))
        assert _kantorovich_constants(SpectralInterval(1e-170, 1e-160)) == want

    @pytest.mark.parametrize("lo,hi", [(1.0, 2.0), (0.5, 30.0), (1e-150, 1e-140), (1e150, 3e150)])
    def test_other_intervals_keep_the_direct_form(self, lo, hi):
        denominator = 4.0 * lo * hi
        want = ((lo + hi) ** 2 / denominator, (hi - lo) ** 2 / denominator)
        assert _kantorovich_constants(SpectralInterval(lo, hi)) == want

    def test_underflowing_constant_warns_nothing(self):
        # the public function holds numpy's warnings off itself; the checks
        # that read the constant are already quiet and do not re-enter it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kantorovich_constant(1e-170, 1e-160) < np.inf  # 4 lo hi underflows to 0
            assert kantorovich_constant(1e-200, 1e200) == np.inf


def _pv(op_list, state_list):
    return OperatorEnsemble(tuple(op_list), tuple(state_list), PER_VECTOR)


class TestKantorovichEnsembleChain:
    def test_single_block_matches_hand_chain(self):
        x = StateVector.unit([1.0, 1.0])
        lower, middle, upper = kantorovich_ensemble_chain(_pv([DIAG12], [x]))
        assert lower.lhs == pytest.approx(1.125, abs=1e-12)
        assert lower.rhs == 1.0
        assert middle.lhs == pytest.approx(1.125, abs=1e-12)
        assert upper.lhs == pytest.approx(9.0 / 8.0, abs=1e-15)
        assert [r.verdict for r in (lower, middle, upper)] == [HOLDS] * 3

    def test_scalar_blocks_tie_every_link(self):
        c = 2.5
        iv = SpectralInterval(c, c)
        op = HermitianOperator.diagonal([c, c], iv)
        x = StateVector.unit([1.0, 1.0])
        lower, middle, upper = kantorovich_ensemble_chain(_pv([op, op], [x, x]))
        for r in (lower, middle, upper):
            assert r.gap == pytest.approx(0.0, abs=1e-13)
            assert r.verdict == HOLDS

    def test_opposite_ordered_middle_link_gated(self):
        iv = SpectralInterval(1.0, 3.0)
        A1 = HermitianOperator.diagonal([1.0, 2.0], iv)
        A2 = HermitianOperator.diagonal([1.0, 3.0], iv)
        x = StateVector.unit([1.0, 1.0])
        lower, middle, upper = kantorovich_ensemble_chain(_pv([A1, A2], [x, x]))
        assert middle.verdict == HYPOTHESIS_NOT_MET
        assert middle.hypothesis_evidence["witness"] == [0, 1]
        # a = (1.5, 2), b = (0.75, 2/3): means multiply as stated.
        assert lower.lhs == pytest.approx(1.75 * (0.75 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert lower.verdict == HOLDS and upper.verdict == HOLDS

    def test_sum_of_squares_rejected_when_gated(self):
        with pytest.raises(NormalizationViolation):
            kantorovich_ensemble_chain(TWO_BLOCKS)

    def test_gate_off_shows_counterexample(self):
        # Two identity blocks with sum-of-squares weights: product is 1/4 per
        # factor pair, so mean(a)*mean(b) = 0.25 and the first link fails.
        iv = SpectralInterval(1.0, 1.0)
        eye = HermitianOperator.diagonal([1.0], iv)
        half = StateVector(np.asarray([1.0 / np.sqrt(2.0)]))
        E = OperatorEnsemble((eye, eye), (half, half), SUM_OF_SQUARES)
        lower, _, _ = kantorovich_ensemble_chain(E, gate=False)
        assert lower.verdict == "violated"
        assert lower.gap == pytest.approx(-0.75, abs=1e-12)
        assert any("sum form" in note for note in lower.notes)

    def test_per_op_interval_count_checked(self):
        x = StateVector.unit([1.0, 1.0])
        with pytest.raises(ConfigInvalid):
            kantorovich_ensemble_chain(_pv([DIAG12], [x]), [(1.0, 2.0), (1.0, 2.0)])

    def test_per_op_containment_gated(self):
        x = StateVector.unit([1.0, 1.0])
        with pytest.raises(SpectrumOutOfInterval):
            kantorovich_ensemble_chain(_pv([DIAG12], [x]), [(1.0, 1.5)])

    def test_nonpositive_interval_rejected(self):
        iv = SpectralInterval(0.0, 1.0)
        op = HermitianOperator.diagonal([0.5, 1.0], iv)
        x = StateVector.unit([1.0, 1.0])
        with pytest.raises(NonPositiveSpectrum):
            kantorovich_ensemble_chain(_pv([op], [x]))

    def test_inverted_per_op_interval_rejected(self):
        x = StateVector.unit([1.0, 1.0])
        with pytest.raises(ConfigInvalid):
            kantorovich_ensemble_chain(_pv([DIAG12], [x]), [(2.0, 1.0)], gate=False)

    @pytest.mark.parametrize(
        "intervals",
        [[(1.0,)], "x", [("1", 2.0)], [(True, 2.0)], [(1.0, 2.0, 3.0)], [(1.0, float("inf"))]],
    )
    def test_per_op_intervals_must_be_pairs_of_numbers(self, intervals):
        x = StateVector.unit([1.0, 1.0])
        for link in (None, 0, 2):
            with pytest.raises(ConfigInvalid, match="'per_op_intervals'"):
                kantorovich_ensemble_chain(_pv([DIAG12], [x]), intervals, gate=False, link=link)

    def test_per_op_intervals_read_as_the_document_reads_them(self):
        x = StateVector.unit([1.0, 1.0])
        E = _pv([DIAG12], [x])
        reports = kantorovich_ensemble_chain(E, [(1, 3)])
        assert kantorovich_ensemble_chain(E, [[1.0, 3.0]]) == reports
        assert kantorovich_ensemble_chain(E, np.array([[1.0, 3.0]])) == reports
        assert all(r.inputs_digest["per_op_intervals"] == [[1.0, 3.0]] for r in reports)

    def test_upper_notes_report_both_constant_forms(self):
        x = StateVector.unit([1.0, 1.0])
        _, _, upper = kantorovich_ensemble_chain(_pv([DIAG12], [x]))
        joined = "\n".join(upper.notes)
        assert "(lo+hi)^2/(4 lo hi)" in joined
        assert "(hi-lo)^2/(4 lo hi)" in joined
        assert "not used" in joined

    def test_link_builds_only_its_report(self):
        x = StateVector.unit([1.0, 1.0])
        E = _pv([DIAG12], [x])
        reports = kantorovich_ensemble_chain(E)
        assert [kantorovich_ensemble_chain(E, link=k) for k in range(3)] == list(reports)
        assert [kantorovich_ensemble_chain(E, link=k) for k in np.arange(3)] == list(reports)
        # the per-operator constant overflows on [1e-200, 1e200]; only the upper link reads it
        wide = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1e-200, 1e200))
        E = _pv([wide], [x])
        assert kantorovich_ensemble_chain(E, link=0).verdict == HOLDS
        assert kantorovich_ensemble_chain(E, link=1).verdict == HOLDS
        with pytest.raises(DomainViolation, match="ensemble-kantorovich-upper: sides inf"):
            kantorovich_ensemble_chain(E, link=2)
        for link in (3, -1, True, 2.0):
            with pytest.raises(ConfigInvalid, match="link"):
                kantorovich_ensemble_chain(E, link=link)

    def test_random_per_vector_draws(self):
        for trial in range(60):
            rng = trial_rng(32, 0, trial)
            n = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 4)) for _ in range(n)]
            E = random_ensemble(rng, n, dims, IV12, PER_VECTOR)
            lower, middle, upper = kantorovich_ensemble_chain(E)
            assert lower.verdict == HOLDS
            assert upper.verdict == HOLDS
            assert middle.verdict in (HOLDS, HYPOTHESIS_NOT_MET)
