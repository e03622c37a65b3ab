"""The input rules that read small vectors as Python floats, and the arithmetic
rewritten around fewer numpy calls, each against the numpy code it replaced.

The references below are that code, kept verbatim: ``evaluate`` with its
domain rules, ``read_numbers``, the state and spectrum rules, the norm,
the eigenbasis weights and the gathered pair values of a certificate.  Each
rewritten rule must give the same value bit for bit, or raise the same
exception with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    ConfigInvalid,
    DomainViolation,
    HermitianOperator,
    ScalarFunction,
    SpectralInterval,
    SpectrumOutOfInterval,
    StateVector,
    affine,
    classify_monotonicity,
    constant,
    eigenbasis_weights,
    exp_fn,
    function_from_descriptor,
    identity,
    linear_combination,
    log_fn,
    neg_parabola,
    pointwise_product,
    power,
    tabulated,
)
from opineq import functions as functions_module
from opineq import spectral as spectral_module
from opineq.errors import all_finite, read_number, read_numbers
from opineq.tolerances import MAX_DIM, MAX_GRID_N, TOL_KNOT, TOL_SPEC

# ---------------------------------------------------------------------------
# the numpy rules these replaced


def _reference_check_domain(fn: ScalarFunction, pts: np.ndarray) -> None:
    if fn.domain is not None:
        if (pts < fn.domain.lo).any() or (pts > fn.domain.hi).any():
            raise DomainViolation(
                f"{fn._name()} evaluated outside its declared domain "
                f"[{fn.domain.lo}, {fn.domain.hi}]"
            )
    kind = fn.kind
    if kind == "power":
        p = fn.params[0]
        if p < 0.0 and (pts == 0.0).any():
            raise DomainViolation(f"{fn._name()} is undefined at 0")
        if not float(p).is_integer() and (pts < 0.0).any():
            bad = float(pts[pts < 0.0][0])
            raise DomainViolation(f"{fn._name()} is undefined at negative point {bad!r}")
    elif kind == "log":
        if (pts <= 0.0).any():
            bad = float(pts[pts <= 0.0][0])
            raise DomainViolation(f"log is undefined at point {bad!r} <= 0")
    elif kind == "tabulated":
        knots = fn.params[0]
        slack = TOL_KNOT * (1.0 + max(abs(knots[0]), abs(knots[-1])))
        if (pts < knots[0] - slack).any() or (pts > knots[-1] + slack).any():
            raise DomainViolation(
                f"tabulated function evaluated outside its knot range "
                f"[{knots[0]}, {knots[-1]}]"
            )
    elif kind == "product":
        for child in fn.params:
            _reference_check_domain(child, pts)
    elif kind == "sum":
        for _, child in fn.params[0]:
            _reference_check_domain(child, pts)


def _reference_evaluate(fn: ScalarFunction, points):
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 0
    if scalar:
        pts = pts.reshape(1)
    if not np.isfinite(pts).all():
        raise DomainViolation(f"{fn._name()} evaluated at non-finite points")
    _reference_check_domain(fn, pts)
    out = fn._eval(pts)
    if not np.isfinite(out).all():
        raise DomainViolation(f"{fn._name()} produced non-finite values")
    return out[0] if scalar else out


def _reference_read_numbers(values: list, what: str) -> np.ndarray:
    if set(map(type, values)) <= {float, int}:
        try:
            row = np.array(values, dtype=np.float64)
        except OverflowError:
            pass
        else:
            if np.isfinite(row).all():
                return row
    return np.array([read_number(v, what) for v in values], dtype=np.float64)


def _reference_sorting(lam: np.ndarray):
    if not np.isfinite(lam).all():
        raise ConfigInvalid("eigenvalues must be finite")
    if (lam[1:] < lam[:-1]).any():
        return np.argsort(lam, kind="stable")
    return None


def _reference_contained(lam: np.ndarray, interval: SpectralInterval) -> np.ndarray:
    lo, hi = interval.as_pair()
    if not interval.contains_spectrum(lam):
        raise SpectrumOutOfInterval(
            f"spectrum [{float(lam[0])!r}, {float(lam[-1])!r}] outside [{lo}, {hi}] "
            f"by more than {TOL_SPEC}"
        )
    if lam[0] < lo or lam[-1] > hi:
        lam = np.clip(lam, lo, hi)
    return lam


def _reference_state(components) -> tuple[np.ndarray, float]:
    comp = np.array(components, dtype=np.complex128)
    if comp.ndim != 1 or comp.size == 0:
        raise ConfigInvalid(f"state must be a nonempty 1-d vector, got shape {comp.shape}")
    if not np.isfinite(comp).all():
        raise ConfigInvalid("state components must be finite")
    with np.errstate(over="ignore"):
        return comp, float(np.linalg.norm(comp))


def _outcome(call):
    """A call's result as bytes, shape and type, or its exception's type and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = call()
    except Exception as exc:  # compared, type and message, against the reference's
        return type(exc), str(exc)
    if isinstance(value, (np.ndarray, np.generic)):
        return type(value), np.shape(value), value.dtype.str, np.asarray(value).tobytes()
    return value


# ---------------------------------------------------------------------------
# ScalarFunction.evaluate

FUNCTIONS = [
    identity(),
    constant(2.0),
    power(2.0),
    power(3.0),
    power(-1.0),
    power(-2.0),
    power(0.5),
    power(-0.5),
    log_fn(),
    exp_fn(),
    affine(1e308, 1e308),
    neg_parabola(),
    tabulated([0.0, 1.0], [0.0, 1.0]),
    tabulated([-3.0, 1e6], [1.0, 2.0]),
    tabulated([0.0, 4.0], [0.0, 1.0], domain=SpectralInterval(1.0, 2.0)),
    function_from_descriptor({"kind": "identity", "domain": [0.0, 1.0]}),
    function_from_descriptor({"kind": "power", "p": -1.0, "domain": [-1.0, 1.0]}),
    pointwise_product(log_fn(), identity()),
    pointwise_product(exp_fn(), exp_fn()),
    pointwise_product(power(2.0), constant(3.0)),
    linear_combination((2.0, power(-2.0)), (1.0, identity())),
    linear_combination((1.0, pointwise_product(power(0.5), identity()))),
    pointwise_product(
        linear_combination((1.0, log_fn()), (-1.0, power(-1.0))),
        pointwise_product(identity(), function_from_descriptor({"kind": "exp", "domain": [-2.0, 3.0]})),
    ),
]
FUNCTION_IDS = [fn._name() or fn.kind for fn in FUNCTIONS]


def _knot_edges() -> list[float]:
    """Points just inside and just outside the slack at both ends of the knots [-3, 1e6]."""
    slack = TOL_KNOT * (1.0 + 1e6)
    return [-3.0 - slack / 2, -3.0 - 2 * slack, 1e6 + slack / 2, 1e6 + 2 * slack, -3.0 - slack, 1e6 + slack]


SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 2.0, 1e-300, -1e-300, 800.0, 1e200, math.nan, math.inf, -math.inf]
POINTS = [
    [],
    np.zeros((0, 2)),
    0.0,
    -0.0,
    1.5,
    -2.5,
    math.nan,
    math.inf,
    -math.inf,
    [1.0, math.nan],
    [math.inf, 1.0],
    [1.0, -math.inf],
    [-0.0, 1.0],
    [0.0, 1.0],
    [1.0, 0.0, -0.0],
    [-0.0],
    [0.5, -2.5, -1.0],
    [1.0, 3.0],
    [2.0, 0.25, 0.75],
    _knot_edges()[:2],
    _knot_edges()[2:4],
    _knot_edges()[4:],
    [-3.0, 1e6],
    np.linspace(0.1, 2.0, 16),
    np.linspace(0.1, 2.0, 17),
    np.linspace(-1.0, 1.0, 16),
    np.linspace(-1.0, 1.0, 17),
    np.r_[np.linspace(0.5, 1.5, 15), -0.0],
    np.r_[np.linspace(0.5, 1.5, 16), -0.0],
    np.r_[np.linspace(0.5, 1.5, 15), math.nan],
    np.r_[np.linspace(0.5, 1.5, 16), math.inf],
    np.r_[-4.0, np.linspace(0.5, 1.5, 16)],
    np.array([[1.0, 2.0], [0.5, 1.5], [0.25, 0.75]]),
    np.array([[1.0, 2.0], [-0.5, 1.5], [0.0, -1.0]]),
    np.array([[1.0, 2.0], [math.nan, 1.5]]),
    np.linspace(0.25, 1.75, 40).reshape(20, 2),
    np.linspace(-1.75, 1.75, 40).reshape(20, 2),
    np.r_[np.linspace(0.25, 1.75, 38), 0.0, 1.0].reshape(20, 2),
    np.linspace(0.5, 1.0, 128),
    np.linspace(-1.0, 1.0, 128),
]


@pytest.mark.parametrize("fn", FUNCTIONS, ids=FUNCTION_IDS)
@pytest.mark.parametrize("points", POINTS, ids=range(len(POINTS)))
def test_evaluate_matches_the_numpy_rules(fn, points):
    assert _outcome(lambda: fn.evaluate(points)) == _outcome(lambda: _reference_evaluate(fn, points))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    fn=st.sampled_from(FUNCTIONS),
    values=st.lists(st.sampled_from(SPECIAL) | st.floats(-3.0, 3.0), max_size=24),
    pairs=st.booleans(),
)
def test_evaluate_matches_the_numpy_rules_on_drawn_points(fn, values, pairs):
    points = np.array(values, dtype=np.float64)
    if pairs and points.size % 2 == 0:
        points = points.reshape(-1, 2)
    assert _outcome(lambda: fn.evaluate(points)) == _outcome(lambda: _reference_evaluate(fn, points))


def test_the_tabulated_slack_admits_and_refuses_as_before():
    f = tabulated([-3.0, 1e6], [1.0, 2.0])
    inside_lo, outside_lo, inside_hi, outside_hi = _knot_edges()[:4]
    f.evaluate([inside_lo, inside_hi])
    for bad in (outside_lo, outside_hi):
        with pytest.raises(DomainViolation, match=r"outside its knot range \[-3.0, 1000000.0\]"):
            f.evaluate([1.0, bad])


def test_only_a_function_with_a_rule_reads_the_span(monkeypatch):
    reads = []

    class Span(functions_module._Span):
        __slots__ = ()

        def __init__(self, pts):
            reads.append(pts.size)
            super().__init__(pts)

        @property
        def lo(self):
            reads.append("lo")
            return super().lo

        @property
        def hi(self):
            reads.append("hi")
            return super().hi

    monkeypatch.setattr(functions_module, "_Span", Span)
    for fn in (identity(), power(3.0), exp_fn(), pointwise_product(exp_fn(), power(2.0))):
        fn.evaluate(np.linspace(-1.0, 1.0, 128))
    assert reads == []
    # one span for every factor and term; no rule here needs the greatest point
    nested = pointwise_product(log_fn(), linear_combination((1.0, power(0.5)), (2.0, power(-1.0))))
    nested.evaluate(np.linspace(0.5, 1.0, 128))
    assert reads == [128, "lo", "lo", "lo"]
    reads.clear()
    power(-1.0).evaluate(np.linspace(-1.0, 1.0, 128))  # the span crosses 0, no point is 0
    assert reads == [128, "lo", "hi"]


# ---------------------------------------------------------------------------
# all_finite, read_numbers and SpectralInterval


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-0.0, 1.0],
        [math.nan],
        [1.0, math.inf],
        [-math.inf, 1.0],
        [1.7e308, 1.7e308],  # a sum that overflows, every entry finite
        [1.7e308, 1.7e308, math.nan],
        [1e308] * MAX_DIM,
        [1e308] * (MAX_DIM + 1),
        [1.0] * MAX_DIM + [math.nan],
        [1.0] * (MAX_DIM - 1) + [math.inf],
    ],
)
def test_all_finite_matches_numpy(values):
    real = np.array(values, dtype=np.float64)
    imaginary = np.zeros(real.size, dtype=np.complex128)
    imaginary.imag = real
    for a in (real, real.astype(np.complex128), imaginary, real[: real.size // 2 * 2].reshape(-1, 2)):
        assert all_finite(a) == bool(np.isfinite(a).all())


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1.0, 2, -0.0],
        [1.0, math.nan],
        [math.inf, 1.0],
        [1.0, -math.inf],
        [2**1024, 1.0],
        [1.7e308, 1.7e308],
        [1.7e308, 2**1023],
        [True, 1.0],
        ["1", 1.0],
        [1.0] * MAX_DIM,
        [1.0] * (MAX_DIM + 1),
        [1.0] * MAX_DIM + [math.nan],
        [1.0] * (MAX_DIM - 1) + [math.inf],
    ],
)
def test_read_numbers_matches_the_numpy_rule(values):
    got = _outcome(lambda: read_numbers(values, "entry"))
    assert got == _outcome(lambda: _reference_read_numbers(values, "entry"))


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (-0.0, 0.0)])
def test_interval_endpoints_are_read_as_before(lo, hi):
    got = _outcome(lambda: SpectralInterval(lo, hi).as_pair())
    if math.isfinite(lo) and math.isfinite(hi):
        assert got == (lo, hi)
    else:
        assert got == (ConfigInvalid, f"interval endpoints must be finite, got [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# spectra and states

IV = SpectralInterval(-1.0, 2.0)
SPECTRA = [
    [0.5],
    [-0.0, 0.0],
    [0.0, -0.0],
    [1.0, 0.5, 0.5, -0.25],
    [math.nan, 1.0],
    [1.0, math.inf],
    [-math.inf],
    [-1.0 - TOL_SPEC / 2, 2.0 + TOL_SPEC / 2],
    [-1.0 - 2 * TOL_SPEC, 0.0],
    [0.0, 2.0 + 2 * TOL_SPEC],
    list(np.linspace(-1.0, 2.0, MAX_DIM)),
    list(np.linspace(2.0, -1.0, MAX_DIM)),
]


@pytest.mark.parametrize("values", SPECTRA, ids=range(len(SPECTRA)))
def test_sorting_and_containment_match_the_numpy_rules(values):
    def rules(sorting, contained):
        def run():
            lam = np.array(values, dtype=np.float64)
            order = sorting(lam)
            if order is not None:
                lam = lam[order]
            return np.concatenate([contained(lam, IV), [-1.0] if order is None else order])

        return _outcome(run)

    assert rules(spectral_module._sorting, spectral_module._contained) == rules(
        _reference_sorting, _reference_contained
    )


STATES = [
    [1.0],
    [0.6, 0.8],
    [-0.0, 1.0],
    [0.0j, -0.0 - 0.0j],
    [0.6 + 0.0j, 0.0 + 0.8j],
    [1.0, math.nan],
    [complex(1.0, math.inf)],
    [complex(-math.inf, 0.0)],
    [1e308, 1e308],
    [1.0] * MAX_DIM,
    [1.0] * (MAX_DIM - 1) + [math.nan],
    [],
    [[1.0]],
]


@pytest.mark.parametrize("components", STATES, ids=range(len(STATES)))
def test_state_rules_match_the_numpy_rules(components):
    def new():
        x = StateVector(components)
        return x.components, x.norm

    got, want = _outcome(new), _outcome(lambda: _reference_state(components))
    if isinstance(want, tuple) and len(want) == 2 and isinstance(want[0], np.ndarray):
        assert got[0].tobytes() == want[0].tobytes() and got[1].hex() == want[1].hex()
    else:
        assert got == want


@pytest.mark.parametrize("exponent", range(-150, 151, 10))
def test_the_state_norm_is_numpys_at_every_scale(exponent):
    rng = np.random.default_rng(exponent + 150)
    for d in (1, 2, 5, MAX_DIM):
        c = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 10.0**exponent
        for comp in (c, c.real + 0j):
            with np.errstate(over="ignore"):
                want = float(np.linalg.norm(comp))
            assert StateVector(comp).norm.hex() == want.hex()


@pytest.mark.parametrize("d", [1, 2, 7, MAX_DIM])
def test_standard_basis_weights_are_the_identity_product(d):
    rng = np.random.default_rng(d)
    A = HermitianOperator.diagonal(np.sort(rng.uniform(0.0, 1.0, d)), SpectralInterval(0.0, 1.0))
    assert A.standard_basis
    rows = [
        rng.standard_normal(d) + 1j * rng.standard_normal(d),
        rng.standard_normal(d) + 0j,
        np.full(d, -0.0 - 0.0j),
        np.full(d, complex(-0.0, -1.0)),
        rng.standard_normal(d) * 1e160 + 1j * rng.standard_normal(d),
    ]
    for comp in rows:
        x = StateVector(comp)
        y = A.eigenvectors.conj().T @ x.components
        with np.errstate(over="ignore"):
            want = (y.conj() * y).real
        got = eigenbasis_weights(A, x)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the certificate's pair values


def _recorded_pair_values(monkeypatch) -> list:
    """The pair values every certificate computes from here on, as it computes them."""
    seen = []
    certify = functions_module._certify

    def recording(verdict, pts, pair_values):
        def record(row, j):
            values = pair_values(row, j)
            seen.append(values.copy())
            return values

        return certify(verdict, pts, record)

    monkeypatch.setattr(functions_module, "_certify", recording)
    return seen


def _grid_values(n: int, rng) -> list[np.ndarray]:
    """Values with zeros, signed zeros and entries whose products overflow."""
    special = np.array([0.0, -0.0, 1e200, -1e200, 1.0, -1.0, 1e-300])
    out = []
    for _ in range(3):
        v = rng.standard_normal(n)
        picks = rng.random(n) < 0.4
        v[picks] = rng.choice(special, picks.sum())
        out.append(v)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128, MAX_GRID_N])
def test_certificate_pair_values_are_the_gather_formula(monkeypatch, n):
    seen = _recorded_pair_values(monkeypatch)
    fv, gv, hv = _grid_values(n, np.random.default_rng(n))
    given = [v.tobytes() for v in (fv, gv, hv)]
    pts = np.linspace(-1.0, 1.0, n)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as its callers run it
            functions_module._synchrony(pts, fv, gv, hv)
    except DomainViolation:  # inf - inf in a defect: a NaN pair value
        pass
    assert [v.tobytes() for v in (fv, gv, hv)] == given  # the values are left as they were
    i, j = np.triu_indices(n, k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        want = (hv[j] * fv[i] - hv[i] * fv[j]) * (hv[j] * gv[i] - hv[i] * gv[j])
    if n == 1:
        assert seen == []
        return
    (got,) = seen
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 17, 128])
def test_monotonicity_pair_values_are_the_gather_formula(monkeypatch, n):
    seen = _recorded_pair_values(monkeypatch)
    iv = SpectralInterval(1.0, 465.0)  # exp's products overflow on it
    for f, h in ((exp_fn(), exp_fn()), (affine(-1.0, 2.0), power(0.5)), (neg_parabola(), constant(2.0))):
        seen.clear()
        try:
            classify_monotonicity(f, h, iv, n)
        except DomainViolation:
            pass
        pts = iv.grid(n)
        with np.errstate(over="ignore", invalid="ignore"):
            fv, hv = f.evaluate(pts), h.evaluate(pts)
            i, j = np.triu_indices(n, k=1)
            want = hv[i] * fv[j] - hv[j] * fv[i]
        (got,) = seen
        assert got.tobytes() == want.tobytes()
