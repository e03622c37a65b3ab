"""Scalar function library, synchrony/monotonicity classification, r-scans."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    ASYNCHRONOUS,
    ArgumentOrder,
    ConfigInvalid,
    DomainViolation,
    GE,
    H_DECREASING,
    H_INCREASING,
    LE,
    MIXED,
    SYNCHRONOUS,
    DEFAULT_FUNCTION_POOL,
    ScalarFunction,
    SpectralInterval,
    affine,
    canonical_json,
    classify_monotonicity,
    classify_synchrony,
    constant,
    exp_fn,
    function_from_descriptor,
    identity,
    linear_combination,
    log_fn,
    mono_defect,
    neg_parabola,
    pointwise_product,
    power,
    scan_tr_regions,
    similarly_ordered,
    sync_product,
    tabulated,
    tol_sync,
)
from opineq import functions as functions_module
from opineq.tolerances import CERTIFY_MEMO_SIZE, DEFAULT_GRID_N, MAX_GRID_N, MAX_LITERAL_DEPTH
from opineq.tolerances import MAX_R_VALUES

IV12 = SpectralInterval(1.0, 2.0)


# ---------------------------------------------------------------------------
# construction, evaluation, descriptors


class TestEvaluation:
    def test_basic_values(self):
        assert identity()(1.5) == 1.5
        assert constant(3.0)(10.0) == 3.0
        assert power(2.0)(3.0) == 9.0
        assert power(-1.0)(4.0) == 0.25
        assert power(0.5)(4.0) == 2.0
        assert exp_fn()(0.0) == 1.0
        assert log_fn()(np.e) == pytest.approx(1.0)
        assert affine(2.0, -1.0)(3.0) == 5.0
        assert neg_parabola()(0.5) == 0.25

    def test_at_matches_call(self):
        f = power(2.0)
        assert f.at(1.5) == f(1.5)

    def test_pointwise_product_and_linear_combination(self):
        fg = pointwise_product(power(2.0), identity())
        assert fg(2.0) == 8.0
        combo = linear_combination((2.0, identity()), (-1.0, constant(1.0)))
        assert combo(3.0) == 5.0

    def test_linear_combination_empty_rejected(self):
        with pytest.raises(ConfigInvalid):
            linear_combination()

    def test_tabulated_interpolates(self):
        f = tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert f(0.5) == pytest.approx(1.0)
        assert f(1.0) == pytest.approx(2.0)

    def test_tabulated_validation(self):
        with pytest.raises(ConfigInvalid):
            tabulated([0.0, 1.0], [1.0])
        with pytest.raises(ConfigInvalid):
            tabulated([0.0], [1.0])
        with pytest.raises(ConfigInvalid):
            tabulated([1.0, 0.0], [0.0, 1.0])

    def test_labels_are_readable(self):
        assert power(2.0).label
        assert identity().label


class TestDomainChecks:
    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainViolation):
            log_fn()(0.0)
        with pytest.raises(DomainViolation):
            log_fn()(-1.0)

    def test_negative_power_rejects_zero(self):
        with pytest.raises(DomainViolation):
            power(-1.0)(0.0)

    def test_fractional_power_rejects_negatives(self):
        with pytest.raises(DomainViolation):
            power(0.5)(-1.0)

    def test_integer_power_accepts_negatives(self):
        assert power(2.0)(-3.0) == 9.0
        assert power(-1.0)(-2.0) == -0.5

    def test_declared_domain_enforced(self):
        f = function_from_descriptor({"kind": "identity", "domain": [0.0, 1.0]})
        assert f(0.5) == 0.5
        with pytest.raises(DomainViolation):
            f(2.0)

    def test_tabulated_outside_knots(self):
        f = tabulated([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainViolation):
            f(1.5)

    def test_non_finite_point_rejected(self):
        with pytest.raises(DomainViolation):
            identity()(np.nan)

    def test_domain_check_recurses_into_composites(self):
        fg = pointwise_product(log_fn(), identity())
        with pytest.raises(DomainViolation):
            fg(-1.0)


# (function, points) -> the DomainViolation message; every kind's check, a
# declared domain, and the checks of product and sum children
EVALUATE_ERRORS = [
    (identity(), [1.0, np.nan], "s evaluated at non-finite points"),
    (identity(), np.inf, "s evaluated at non-finite points"),
    (constant(2.0), [np.nan], "2 evaluated at non-finite points"),
    (power(-1.0), [0.0, 1.0], "s^-1 is undefined at 0"),
    (power(0.5), [1.0, -2.5], "s^0.5 is undefined at negative point -2.5"),
    (ScalarFunction("power", (-2.0,), label="g"), [0.0], "g is undefined at 0"),
    (log_fn(), [1.0, 0.0], "log is undefined at point 0.0 <= 0"),
    (log_fn(), -3.0, "log is undefined at point -3.0 <= 0"),
    (exp_fn(), [1.0, 800.0], "exp(s) produced non-finite values"),
    (affine(1e308, 1e308), [10.0], "1e+308*s+1e+308 produced non-finite values"),
    (neg_parabola(), [1e200], "s*(1-s) produced non-finite values"),
    (
        tabulated([0.0, 1.0], [0.0, 1.0]),
        [0.5, 1.5],
        "tabulated function evaluated outside its knot range [0.0, 1.0]",
    ),
    (
        tabulated([0.0, 4.0], [0.0, 1.0], domain=SpectralInterval(1.0, 2.0)),
        [3.0],
        "tabulated evaluated outside its declared domain [1.0, 2.0]",
    ),
    (
        function_from_descriptor({"kind": "identity", "domain": [0.0, 1.0]}),
        [2.0],
        "s evaluated outside its declared domain [0.0, 1.0]",
    ),
    (pointwise_product(log_fn(), identity()), [-1.0], "log is undefined at point -1.0 <= 0"),
    (
        pointwise_product(exp_fn(), exp_fn()),
        [400.0],
        "(exp(s))*(exp(s)) produced non-finite values",
    ),
    (
        linear_combination((2.0, power(-2.0)), (1.0, identity())),
        [0.0],
        "s^-2 is undefined at 0",
    ),
    (
        linear_combination((1.0, pointwise_product(power(0.5), identity()))),
        [-4.0],
        "s^0.5 is undefined at negative point -4.0",
    ),
]


@pytest.mark.parametrize("fn, points, message", EVALUATE_ERRORS)
def test_evaluate_error_messages(fn, points, message):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainViolation) as err:
        fn.evaluate(points)
    assert str(err.value) == message


def test_evaluate_keeps_scalar_and_array_shapes():
    f = power(2.0)
    assert isinstance(f.evaluate(1.5), np.float64) and f.evaluate(1.5) == 2.25
    assert f.evaluate([1.5]).shape == (1,)
    assert f.evaluate(np.ones((3, 2))).shape == (3, 2)


class TestDescriptors:
    @pytest.mark.parametrize(
        "f",
        [
            identity(),
            constant(2.5),
            power(-1.0),
            function_from_descriptor({"kind": "power", "p": 0.5, "domain": [0.0, 4.0]}),
            log_fn(),
            exp_fn(),
            affine(2.0, 1.0),
            neg_parabola(),
            tabulated([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]),
            pointwise_product(identity(), exp_fn()),
            linear_combination((1.0, identity()), (-2.0, power(2.0))),
        ],
    )
    def test_round_trip(self, f):
        g = function_from_descriptor(f.descriptor())
        assert g.descriptor() == f.descriptor()
        for s in (0.25, 0.5, 0.75, 1.0):
            try:
                expected = f(s)
            except DomainViolation:
                with pytest.raises(DomainViolation):
                    g(s)
            else:
                assert g(s) == pytest.approx(expected, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigInvalid):
            function_from_descriptor({"kind": "sinh"})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigInvalid):
            function_from_descriptor("identity")

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            function_from_descriptor({"kind": "power"})

    def test_product_needs_two_factors(self):
        with pytest.raises(ConfigInvalid):
            function_from_descriptor(
                {"kind": "product", "factors": [identity().descriptor()]}
            )

    @pytest.mark.parametrize("extra, refused", [(0, False), (1, True)])
    def test_products_and_sums_count_towards_one_depth_bound(self, extra, refused):
        """Products and sums alternate; the bound counts both kinds."""
        f = identity()
        for level in range(MAX_LITERAL_DEPTH + extra):
            f = pointwise_product(f, identity()) if level % 2 else linear_combination((1.0, f))
        if refused:
            with pytest.raises(ConfigInvalid, match="MAX_LITERAL_DEPTH"):
                function_from_descriptor(f.descriptor())
        else:
            assert function_from_descriptor(f.descriptor()).descriptor() == f.descriptor()


# ---------------------------------------------------------------------------
# sync_product / mono_defect


class TestSyncProduct:
    def test_pinned_value(self):
        assert sync_product(constant(1.0), identity(), power(0.5), 1.0, 4.0) == -2.0

    def test_zero_on_diagonal(self):
        assert sync_product(identity(), power(2.0), constant(1.0), 1.3, 1.3) == 0.0

    def test_symmetry_in_arguments(self):
        f, g, h = power(2.0), log_fn(), identity()
        a = sync_product(f, g, h, 1.2, 1.9)
        assert sync_product(g, f, h, 1.2, 1.9) == pytest.approx(a)
        assert sync_product(f, g, h, 1.9, 1.2) == pytest.approx(a)

    @given(
        x=st.floats(min_value=1.0, max_value=2.0),
        y=st.floats(min_value=1.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_functions_never_negative(self, x, y):
        f = power(2.0)
        assert sync_product(f, f, identity(), x, y) >= 0.0

    def test_classical_case_reduces_to_plain_product(self):
        f, g = power(2.0), exp_fn()
        x, y = 1.2, 1.8
        plain = (f(x) - f(y)) * (g(x) - g(y))
        assert sync_product(f, g, constant(1.0), x, y) == pytest.approx(plain)


class TestMonoDefect:
    def test_pinned_value(self):
        value = mono_defect(neg_parabola(), identity(), 0.25, 0.75)
        assert value == pytest.approx(-0.09375, abs=1e-15)

    def test_zero_when_function_equals_weight(self):
        assert mono_defect(identity(), identity(), 1.1, 1.7) == 0.0

    def test_argument_order_enforced(self):
        with pytest.raises(ArgumentOrder):
            mono_defect(identity(), constant(1.0), 0.75, 0.25)

    def test_constant_function_identity_weight(self):
        # h(x) f(t) - h(t) f(x) with f = 1, h = s gives x - t <= 0.
        assert mono_defect(constant(1.0), identity(), 0.5, 2.0) == -1.5


# ---------------------------------------------------------------------------
# classification


class TestClassifySynchrony:
    def test_power_pair_synchronous(self):
        v = classify_synchrony(power(2.0), power(3.0), identity(), IV12, 64)
        assert v.classification == SYNCHRONOUS
        assert v.witness_neg is None

    def test_inverse_pair_asynchronous(self):
        v = classify_synchrony(identity(), power(-1.0), constant(1.0), IV12, 64)
        assert v.classification == ASYNCHRONOUS
        assert v.witness_pos is None

    def test_exp_pair_with_power_weight_synchronous(self):
        v = classify_synchrony(exp_fn(), exp_fn(), power(1.7), IV12, 64)
        assert v.classification == SYNCHRONOUS

    def test_mixed_pair(self):
        v = classify_synchrony(
            neg_parabola(), identity(), constant(1.0), SpectralInterval(0.1, 0.9), 64
        )
        assert v.classification == MIXED
        assert v.witness_pos is not None and v.witness_neg is not None

    def test_witnesses_reproduce_their_signs(self):
        v = classify_synchrony(
            neg_parabola(), identity(), constant(1.0), SpectralInterval(0.1, 0.9), 64
        )
        f, g, h = neg_parabola(), identity(), constant(1.0)
        xp, yp = v.witness_pos
        xn, yn = v.witness_neg
        assert sync_product(f, g, h, xp, yp) > v.tol
        assert sync_product(f, g, h, xn, yn) < -v.tol

    def test_extremes_bracket_the_classification(self):
        v = classify_synchrony(power(2.0), power(3.0), identity(), IV12, 64)
        assert v.min_product >= -v.tol
        assert v.max_product >= v.min_product
        assert v.grid_size == 64

    def test_supports_and_implied_direction(self):
        sync = classify_synchrony(power(2.0), power(3.0), identity(), IV12, 64)
        assert sync.supports(GE) and not sync.supports(LE)
        assert sync.implied_direction() == GE
        anti = classify_synchrony(identity(), power(-1.0), constant(1.0), IV12, 64)
        assert anti.supports(LE) and not anti.supports(GE)
        assert anti.implied_direction() == LE
        mixed = classify_synchrony(
            neg_parabola(), identity(), constant(1.0), SpectralInterval(0.1, 0.9), 64
        )
        assert not mixed.supports(GE) and not mixed.supports(LE)
        assert mixed.implied_direction() is None
        with pytest.raises(ConfigInvalid):
            sync.supports("≥")

    def test_summary_shape(self):
        v = classify_synchrony(power(2.0), power(3.0), identity(), IV12, 16)
        doc = v.summary()
        assert doc["kind"] == "synchrony"
        assert doc["classification"] == SYNCHRONOUS
        assert {"min_product", "max_product", "grid_size", "tol"} <= set(doc)

    def test_self_pair_always_synchronous(self):
        for f in (identity(), power(2.0), exp_fn(), neg_parabola()):
            for h in (constant(1.0), identity(), exp_fn()):
                v = classify_synchrony(f, f, h, SpectralInterval(0.2, 1.8), 32)
                assert v.classification == SYNCHRONOUS

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_weight_scaling_invariance(self, c):
        f, g = power(2.0), log_fn()
        base = classify_synchrony(f, g, identity(), IV12, 32)
        scaled_h = linear_combination((c, identity()))
        scaled = classify_synchrony(f, g, scaled_h, IV12, 32)
        assert scaled.classification == base.classification

    def test_weight_sign_flip_preserves_class(self):
        f, g = power(2.0), log_fn()
        base = classify_synchrony(f, g, identity(), IV12, 32)
        flipped = classify_synchrony(
            f, g, linear_combination((-1.0, identity())), IV12, 32
        )
        assert flipped.classification == base.classification

    def test_unit_weight_matches_classical_ordering(self):
        # With h = 1 both increasing => synchronous, opposite => asynchronous.
        v = classify_synchrony(identity(), exp_fn(), constant(1.0), IV12, 48)
        assert v.classification == SYNCHRONOUS
        w = classify_synchrony(
            identity(), linear_combination((-1.0, identity())), constant(1.0), IV12, 48
        )
        assert w.classification == ASYNCHRONOUS


    def test_overflowing_products_keep_a_finite_tolerance(self):
        # -(e^a - e^b)^2 overflows on [1, 465]; the tolerance comes from the finite products
        neg_exp = linear_combination((-1.0, exp_fn()))
        iv = SpectralInterval(1.0, 465.0)
        with np.errstate(over="ignore"):
            v = classify_synchrony(exp_fn(), neg_exp, constant(1.0), iv, 32)
        assert v.classification == ASYNCHRONOUS
        assert np.isfinite(v.tol)
        assert v.min_product == -np.inf

    def test_nan_product_is_a_domain_violation(self):
        # e^a e^b - e^b e^a is inf - inf once both factors are large
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainViolation):
                classify_synchrony(exp_fn(), exp_fn(), exp_fn(), SpectralInterval(1.0, 465.0), 32)


class TestClassifyMonotonicity:
    def test_constant_vs_square_weight(self):
        v = classify_monotonicity(constant(1.0), power(2.0), IV12, 64)
        assert v.classification == H_DECREASING

    def test_identity_vs_sqrt_weight(self):
        v = classify_monotonicity(identity(), power(0.5), IV12, 64)
        assert v.classification == H_INCREASING

    def test_inverse_vs_inverse_square_weight(self):
        v = classify_monotonicity(power(-1.0), power(-2.0), IV12, 64)
        assert v.classification == H_INCREASING

    def test_mixed_defect(self):
        v = classify_monotonicity(
            neg_parabola(), constant(1.0), SpectralInterval(0.1, 0.9), 64
        )
        assert v.classification == MIXED

    def test_weight_must_be_positive(self):
        with pytest.raises(DomainViolation):
            classify_monotonicity(identity(), affine(1.0, -1.5), IV12, 64)

    def test_summary_shape(self):
        v = classify_monotonicity(identity(), power(0.5), IV12, 16)
        doc = v.summary()
        assert doc["kind"] == "monotonicity"
        assert {"min_defect", "max_defect", "grid_size", "tol"} <= set(doc)

    def test_witnesses_reproduce_signs(self):
        v = classify_monotonicity(
            neg_parabola(), constant(1.0), SpectralInterval(0.1, 0.9), 64
        )
        f, h = neg_parabola(), constant(1.0)
        xp, tp = v.witness_pos
        xn, tn = v.witness_neg
        assert mono_defect(f, h, xp, tp) > v.tol
        assert mono_defect(f, h, xn, tn) < -v.tol


class TestRelativeMonotonicityScope:
    """Relative increase only transfers to plain increase under extra hypotheses."""

    def test_unscoped_transfer_fails(self):
        # f = 1/s is relatively increasing against h = 1/s^2 yet plainly decreasing.
        f, h = power(-1.0), power(-2.0)
        rel = classify_monotonicity(f, h, IV12, 64)
        assert rel.classification == H_INCREASING
        plain = classify_monotonicity(f, constant(1.0), IV12, 64)
        assert plain.classification == H_DECREASING

    def test_decreasing_transfer_fails(self):
        # f = s(1-s) with h = s is ratio-decreasing yet plainly mixed.
        iv = SpectralInterval(0.1, 0.9)
        rel = classify_monotonicity(neg_parabola(), identity(), iv, 64)
        assert rel.classification == H_DECREASING
        plain = classify_monotonicity(neg_parabola(), constant(1.0), iv, 64)
        assert plain.classification == MIXED

    def test_converse_fails(self):
        # f = s is plainly increasing but not increasing relative to h = s^2.
        plain = classify_monotonicity(identity(), constant(1.0), IV12, 64)
        assert plain.classification == H_INCREASING
        rel = classify_monotonicity(identity(), power(2.0), IV12, 64)
        assert rel.classification == H_DECREASING

    @pytest.mark.parametrize(
        "f,h",
        [
            (power(2.0), identity()),
            (exp_fn(), identity()),
            (power(2.0), power(0.5)),
            (power(3.0), identity()),
        ],
    )
    def test_scoped_transfer_holds(self, f, h):
        # For nonnegative f and positive increasing h, relative increase
        # does imply plain increase.
        rel = classify_monotonicity(f, h, IV12, 64)
        assert rel.classification == H_INCREASING
        plain = classify_monotonicity(f, constant(1.0), IV12, 64)
        assert plain.classification == H_INCREASING


# ---------------------------------------------------------------------------
# the synchrony memo


@pytest.fixture
def cold_memo():
    classify_synchrony.cache_clear()
    yield classify_synchrony.cache_info
    classify_synchrony.cache_clear()


def _summary_bytes(verdict):
    return canonical_json(verdict.summary())


class TestSynchronyMemo:
    def test_warm_call_matches_cold_call(self, cold_memo):
        args = (neg_parabola(), identity(), constant(1.0), SpectralInterval(0.1, 0.9), 64)
        cold = _summary_bytes(classify_synchrony(*args))
        warm = _summary_bytes(classify_synchrony(*args))
        assert cold == warm
        assert cold_memo()[:2] == (1, 1)  # hits, misses
        classify_synchrony.cache_clear()
        assert _summary_bytes(classify_synchrony(*args)) == cold

    def test_positional_and_keyword_grid_share_an_entry(self, cold_memo):
        classify_synchrony(power(2.0), power(3.0), identity(), IV12, 64)
        classify_synchrony(power(2.0), power(3.0), identity(), IV12, grid_n=64)
        classify_synchrony(power(2.0), power(3.0), identity(), IV12)
        classify_synchrony(power(2.0), power(3.0), identity(), IV12, grid_n=128)
        assert cold_memo()[:2] == (2, 2)

    def test_label_and_integer_parameters_share_an_entry(self, cold_memo):
        relabelled = dataclasses.replace(power(2.0), label="square")
        from_literal = function_from_descriptor({"kind": "power", "p": 2})
        integral = ScalarFunction("power", (2,))
        first = classify_synchrony(power(2.0), exp_fn(), identity(), IV12, 32)
        for f in (relabelled, from_literal, integral):
            v = classify_synchrony(f, exp_fn(), identity(), IV12, 32)
            assert _summary_bytes(v) == _summary_bytes(first)
        assert cold_memo()[:2] == (3, 1)

    @pytest.mark.parametrize("zero_side", [(-0.0, 1.0), (-1.0, -0.0)], ids=["lo", "hi"])
    def test_signed_zero_endpoints_share_an_entry(self, cold_memo, zero_side):
        negative = SpectralInterval(*zero_side)
        positive = SpectralInterval(*(v + 0.0 for v in zero_side))
        args = (identity(), power(3.0), constant(1.0))
        summaries = []
        for order in ((negative, positive), (positive, negative)):
            classify_synchrony.cache_clear()
            summaries += [_summary_bytes(classify_synchrony(*args, iv, 16)) for iv in order]
            assert cold_memo()[:2] == (1, 1)
        assert len(set(summaries)) == 1
        assert "-0.0" not in summaries[0]

    def test_memo_never_exceeds_its_bound(self, cold_memo):
        f, g, h = identity(), power(2.0), constant(1.0)
        for k in range(CERTIFY_MEMO_SIZE + 40):
            classify_synchrony(f, g, h, SpectralInterval(1.0, 2.0 + k), 2)
            assert cold_memo().currsize <= CERTIFY_MEMO_SIZE
        info = cold_memo()
        assert info.maxsize == CERTIFY_MEMO_SIZE
        assert info.currsize == CERTIFY_MEMO_SIZE
        assert info.misses == CERTIFY_MEMO_SIZE + 40

    def test_default_suite_key_space_fits(self):
        pool = len(DEFAULT_FUNCTION_POOL)
        assert CERTIFY_MEMO_SIZE >= pool**3 * 2  # (f, g, h) triples on the interval and its hull

    @pytest.mark.parametrize("grid_n", [9.5, 64.0, True])
    def test_grid_size_is_read_before_the_memo(self, cold_memo, grid_n):
        args = (power(2.0), power(3.0), identity(), IV12)
        classify_synchrony(*args, 64)
        for _ in range(2):
            with pytest.raises(ConfigInvalid, match=f"got {grid_n!r}"):
                classify_synchrony(*args, grid_n)
        info = cold_memo()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)

    def test_numpy_grid_size_shares_the_integer_entry(self, cold_memo):
        args = (power(2.0), power(3.0), identity(), IV12)
        assert classify_synchrony(*args, np.int64(64)) is classify_synchrony(*args, 64)
        assert cold_memo()[:2] == (1, 1)


# ---------------------------------------------------------------------------
# the cached pair grid


class TestPairIndexCache:
    SYNCHRONY = [
        (power(2.0), power(3.0), identity(), IV12, 128),
        (neg_parabola(), identity(), constant(1.0), SpectralInterval(0.1, 0.9), 64),
        (identity(), power(3.0), constant(1.0), SpectralInterval(-1.0, 1.0), 17),
        (exp_fn(), linear_combination((-1.0, exp_fn())), constant(1.0), SpectralInterval(1, 465), 32),
        (constant(1.0), identity(), power(0.5), IV12, 2),
    ]
    MONOTONICITY = [
        (power(2.0), identity(), IV12, 128),
        (log_fn(), power(0.5), IV12, 33),
        (neg_parabola(), constant(1.0), SpectralInterval(0.0, 1.0), 2),
    ]
    TUPLES = [
        ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]),
        ([1.0], [2.0]),
        ([0.3, -0.0, 0.0, 2.5, 1.0], [1.0, 0.0, -0.0, 4.0, 1.0]),
    ]

    def _verdicts(self) -> list:
        classify_synchrony.cache_clear()
        out = [classify_synchrony(*case) for case in self.SYNCHRONY]
        out += [classify_monotonicity(*case) for case in self.MONOTONICITY]
        classify_synchrony.cache_clear()
        texts = [_summary_bytes(v) for v in out]
        return out + texts + [repr(similarly_ordered(a, b)) for a, b in self.TUPLES]

    def test_verdicts_match_fresh_index_pairs_bit_for_bit(self, monkeypatch):
        cold, warm = self._verdicts(), self._verdicts()
        monkeypatch.setattr(functions_module, "_pair_indices", lambda n: np.triu_indices(n, k=1))
        assert cold == warm == self._verdicts()

    def test_index_pairs_are_read_only_and_bounded(self):
        i, j = functions_module._pair_indices(128)
        assert not i.flags.writeable and not j.flags.writeable
        fresh_i, fresh_j = np.triu_indices(128, k=1)
        assert np.array_equal(i, fresh_i) and np.array_equal(j, fresh_j)
        assert functions_module._pair_indices(128)[0] is i
        for n in range(1, 40):
            functions_module._pair_indices(n)
        info = functions_module._pair_indices.cache_info()
        assert info.currsize <= info.maxsize <= 16

    def test_only_sizes_up_to_the_default_grid_are_kept(self):
        functions_module._pair_indices.cache_clear()
        for n in range(MAX_GRID_N - 7, MAX_GRID_N + 1):
            ordered, _, _ = similarly_ordered(np.arange(n, dtype=float), np.ones(n))
            assert ordered
        assert functions_module._pair_indices.cache_info().currsize == 0
        for _ in range(2):
            classify_synchrony.cache_clear()
            classify_synchrony(power(2.0), power(3.0), identity(), IV12, DEFAULT_GRID_N)
        info = functions_module._pair_indices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_domain_violation_is_raised_on_every_call(self, cold_memo):
        around_zero = SpectralInterval(-1.0, 1.0)
        for _ in range(3):
            with pytest.raises(DomainViolation):
                classify_synchrony(log_fn(), identity(), constant(1.0), around_zero)
        info = cold_memo()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


# ---------------------------------------------------------------------------
# power-weight region scans


class TestScanTrRegions:
    def test_more_weights_than_the_bound_are_refused_before_certifying(self):
        r_values = [float(k) for k in range(MAX_R_VALUES + 1)]
        before = classify_synchrony.cache_info()
        with pytest.raises(ConfigInvalid, match="MAX_R_VALUES"):
            scan_tr_regions(constant(1.0), identity(), r_values, IV12, 64)
        after = classify_synchrony.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_constant_identity_pattern(self):
        out = scan_tr_regions(constant(1.0), identity(), [-1.0, 0.5, 2.0], IV12, 64)
        assert [r for r, _ in out] == [-1.0, 0.5, 2.0]
        assert [v.classification for _, v in out] == [
            SYNCHRONOUS,
            ASYNCHRONOUS,
            SYNCHRONOUS,
        ]

    def test_identity_inverse_pattern(self):
        out = scan_tr_regions(identity(), power(-1.0), [-2.0, 0.0, 2.0], IV12, 64)
        assert [v.classification for _, v in out] == [
            SYNCHRONOUS,
            ASYNCHRONOUS,
            SYNCHRONOUS,
        ]

    def test_equal_functions_synchronous_everywhere(self):
        out = scan_tr_regions(power(2.0), power(2.0), [-2.0, -0.5, 1.0, 3.0], IV12, 32)
        assert all(v.classification == SYNCHRONOUS for _, v in out)

    @pytest.mark.parametrize("interval", [IV12, SpectralInterval(0.5, 3.0)])
    def test_power_triples_match_closed_form(self, interval):
        # (s^p, s^q, s^r) is synchronous iff (p - r)(q - r) >= 0, since
        # h(y)f(x) - h(x)f(y) = (xy)^r (x^(p-r) - y^(p-r)); otherwise asynchronous
        exponents = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
        for p, q in itertools.product(exponents, repeat=2):
            scanned = scan_tr_regions(power(p), power(q), exponents, interval)
            for r, verdict in scanned:
                expected = SYNCHRONOUS if (p - r) * (q - r) >= 0 else ASYNCHRONOUS
                direct = classify_synchrony(power(p), power(q), power(r), interval)
                got = (direct.classification, verdict.classification)
                assert got == (expected, expected), (p, q, r)

    def test_zero_exponent_matches_unit_weight(self):
        f, g = identity(), power(-1.0)
        (_, via_scan), = scan_tr_regions(f, g, [0.0], IV12, 64)
        direct = classify_synchrony(f, g, constant(1.0), IV12, 64)
        assert via_scan.classification == direct.classification


# ---------------------------------------------------------------------------
# the pair-sign certificate against a plain double loop over pairs

# finite values whose products overflow, signed zeros and small integers
VALUES = st.one_of(
    st.floats(min_value=-1e250, max_value=1e250, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
)
# a degenerate interval puts x == y in every pair, where the defects are signed zeros
ENDS = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=2).map(sorted)
CERTIFY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# exp overflows a product of two values on [1, 465]
IV1_465 = SpectralInterval(1.0, 465.0)


def _loop_certificate(pts, pair_value, signs):
    """The certificate written out: every pair i < j in order, the first extreme
    wins a tie, and the tolerance comes from the largest finite value."""
    values = [
        (pair_value(i, j), (pts[i], pts[j]))
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ]
    if not values:
        return signs[0], "0x0.0p+0", "0x0.0p+0", None, None, len(pts), tol_sync(0.0)
    if any(math.isnan(v) for v, _ in values):
        return DomainViolation
    mn, at_mn = min(values, key=lambda item: item[0])
    mx, at_mx = max(values, key=lambda item: item[0])
    tol = tol_sync(max([abs(v) for v, _ in values if math.isfinite(v)], default=0.0))
    if all(v >= -tol for v, _ in values):
        cls = signs[0]
    elif all(v <= tol for v, _ in values):
        cls = signs[1]
    else:
        cls = MIXED
    witness_pos = at_mx if mx > tol else None
    witness_neg = at_mn if mn < -tol else None
    return cls, mn.hex(), mx.hex(), witness_pos, witness_neg, len(pts), tol


def _fields(verdict):
    fields = [getattr(verdict, f.name) for f in dataclasses.fields(verdict)]
    fields[1], fields[2] = fields[1].hex(), fields[2].hex()  # keeps the sign of a zero
    return tuple(fields)


def _outcome(certify):
    try:
        return certify()
    except DomainViolation:
        return DomainViolation


class TestPairSignCertificate:
    @CERTIFY
    @given(ends=ENDS, n=st.integers(2, 6), coefs=st.lists(VALUES, min_size=6, max_size=6))
    def test_synchrony_is_the_written_product(self, ends, n, coefs):
        f, g, h = (affine(a, b) for a, b in zip(coefs[::2], coefs[1::2]))
        iv = SpectralInterval(*ends)
        pts = iv.grid(n)
        fv, gv, hv = ([float(v) for v in fn(pts)] for fn in (f, g, h))

        def product(i, j):  # (h(y)f(x) - h(x)f(y))(h(y)g(x) - h(x)g(y)), x = pts[i], y = pts[j]
            return (hv[j] * fv[i] - hv[i] * fv[j]) * (hv[j] * gv[i] - hv[i] * gv[j])

        got = _outcome(lambda: _fields(classify_synchrony(f, g, h, iv, n)))
        assert got == _loop_certificate(list(pts), product, (SYNCHRONOUS, ASYNCHRONOUS))

    @CERTIFY
    @given(ends=ENDS, n=st.integers(2, 6), coefs=st.lists(VALUES, min_size=4, max_size=4))
    def test_monotonicity_is_the_written_defect(self, ends, n, coefs):
        f, h = affine(coefs[0], coefs[1]), affine(coefs[2], abs(coefs[3]) + 3.0)
        iv = SpectralInterval(*ends)
        pts = iv.grid(n)
        fv, hv = ([float(v) for v in fn(pts)] for fn in (f, h))
        if min(hv) <= 0.0:
            with pytest.raises(DomainViolation):
                classify_monotonicity(f, h, iv, n)
            return

        def defect(i, j):  # h(x)f(t) - h(t)f(x), x = pts[i] <= t = pts[j]
            return hv[i] * fv[j] - hv[j] * fv[i]

        got = _outcome(lambda: _fields(classify_monotonicity(f, h, iv, n)))
        assert got == _loop_certificate(list(pts), defect, (H_INCREASING, H_DECREASING))

    @CERTIFY
    @given(st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=6))
    def test_similarly_ordered_is_the_written_product(self, pairs):
        a, b = [p[0] for p in pairs], [p[1] for p in pairs]

        def product(i, j):  # (a_i - a_j)(b_i - b_j)
            return (a[i] - a[j]) * (b[i] - b[j])

        def certify():
            ordered, witness, worst = similarly_ordered(a, b)
            return ordered, witness, worst.hex()

        want = _loop_certificate(list(range(len(a))), product, (True, False))
        if want is not DomainViolation:
            ordered, worst, _, _, witness, _, _ = want
            want = (ordered is True, witness, worst)
        assert _outcome(certify) == want

    @pytest.mark.parametrize(
        "certify",
        [
            lambda: classify_synchrony(exp_fn(), exp_fn(), exp_fn(), IV1_465, 32),
            lambda: classify_monotonicity(exp_fn(), exp_fn(), IV1_465, 32),
            lambda: similarly_ordered([1.0, 2.0, 3.0], [1.0, np.nan, 0.0]),
        ],
        ids=["synchrony", "monotonicity", "similarly-ordered"],
    )
    def test_nan_is_a_domain_violation(self, certify):
        # inf - inf in a defect, or a NaN entry, has no sign; the NaN must not
        # mask the unordered pair (0, 2) of the tuples either
        with pytest.raises(DomainViolation):
            certify()

    def test_overflowed_pair_product_is_a_witness(self):
        assert similarly_ordered([1e200, -1e200], [-1e200, 1e200]) == (False, (0, 1), -np.inf)

    def test_overflowed_extremes_are_null_in_the_summary(self):
        neg_exp = linear_combination((-1.0, exp_fn()))
        v = classify_synchrony(exp_fn(), neg_exp, constant(1.0), IV1_465, 32)
        assert v.min_product == -np.inf
        doc = v.summary()
        assert doc["min_product"] is None
        assert doc["max_product"] == v.max_product and doc["tol"] == v.tol
        assert doc["classification"] == ASYNCHRONOUS
