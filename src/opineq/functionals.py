"""Covariance-type functionals of one operator and the single-operator inequality checkers.

Report convention: ``lhs`` is always the side the inequality favors, so
``gap = lhs - rhs`` and a theorem predicts ``gap >= 0`` regardless of whether
the source statement reads ``>=`` or ``<=``.  The requested direction is kept
on the report as data.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import ConfigInvalid, DomainViolation, IntervalMismatch, NonPositiveSpectrum
from .functions import (
    GE,
    LE,
    ScalarFunction,
    classify_synchrony,
    identity,
    power,
)
from .spectral import (
    HermitianOperator,
    SpectralInterval,
    SpectralMeasure,
    StateVector,
    expectation,
    expectation_product,
)
from .tolerances import DEFAULT_GRID_N, TOL_SPEC, tol_ineq

__all__ = [
    "HOLDS",
    "VIOLATED",
    "HYPOTHESIS_NOT_MET",
    "InequalityReport",
    "cebysev",
    "pompeiu_cebysev",
    "check_sign_bound",
    "check_square_bound",
    "kantorovich_chain",
    "kantorovich_constant",
    "check_two_operator",
    "check_mean_point",
    "check_inverse_pair",
    "fmt",
]

HOLDS = "holds"
VIOLATED = "violated"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

AUTOMATIC_HYPOTHESIS = {
    "kind": "automatic",
    "reason": "a function is always synchronous with itself relative to any weight",
}

REVERSED_NOTE = "direction '<=' evaluates the fully sign-reversed bound"

# Decorates each check and constant: an overflowing side or constant becomes a
# DomainViolation or an inf where it lands, so numpy's warning about it is noise.
_quiet = np.errstate(over="ignore", invalid="ignore")


def fmt(x: float) -> str:
    """Decimal with 17 significant digits; used everywhere numbers reach text."""
    return format(float(x), ".17g")


def _square(x):
    """x**2 with the bits of Python's, but inf on overflow where Python's raises;
    elementwise for an array."""
    sq = np.float64(x) ** 2
    return sq if isinstance(sq, np.ndarray) else float(sq)


@dataclasses.dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    ``inputs`` is a scenario document: a JSON-able dict that the scenario
    loader can replay to reproduce this exact check.
    """

    theorem_id: str
    direction: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    verdict: str
    hypothesis_evidence: Optional[dict]
    inputs_digest: dict
    notes: tuple[str, ...] = ()

    def to_record(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "direction": self.direction,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "hypothesis_evidence": self.hypothesis_evidence,
            "notes": list(self.notes),
            "inputs_digest": self.inputs_digest,
        }


def _build_report(
    theorem_id: str,
    direction: str,
    favored: float,
    other: float,
    *,
    hypothesis: Optional[dict],
    hypothesis_ok: bool,
    inputs: dict,
    tol_factor: float = 1.0,
    notes: tuple[str, ...] = (),
) -> InequalityReport:
    favored, other = float(favored), float(other)
    if not (math.isfinite(favored) and math.isfinite(other)):
        raise DomainViolation(
            f"{theorem_id}: sides {fmt(favored)} and {fmt(other)} are not both finite"
        )
    gap = favored - other
    tolerance = tol_factor * tol_ineq(favored, other)
    if not hypothesis_ok:
        verdict = HYPOTHESIS_NOT_MET
    elif gap >= -tolerance:
        verdict = HOLDS
    else:
        verdict = VIOLATED
    return InequalityReport(
        theorem_id=theorem_id,
        direction=direction,
        lhs=favored,
        rhs=other,
        gap=gap,
        tolerance=tolerance,
        verdict=verdict,
        hypothesis_evidence=hypothesis,
        inputs_digest=inputs,
        notes=notes,
    )


def _operator_doc(A: HermitianOperator) -> dict:
    return {
        "dim": A.dim,
        "eigenvalues": [float(v) for v in A.eigenvalues],
        "eigenvectors": [
            [[float(z.real), float(z.imag)] for z in row] for row in A.eigenvectors
        ],
        "interval": [A.interval.lo, A.interval.hi],
    }


def _state_doc(x: StateVector) -> dict:
    return {"components": [[float(z.real), float(z.imag)] for z in x.components]}


def _pair(
    A: HermitianOperator, x: StateVector
) -> tuple[tuple[SpectralMeasure], SpectralInterval, dict]:
    """What a check reads of (A, x): (mu_x,), the interval to certify on, the inputs body."""
    body = {"operator": _operator_doc(A), "state": _state_doc(x)}
    return (SpectralMeasure.of(A, x),), A.interval, body


def _inputs_doc(
    theorem_id: str,
    direction: str,
    body: dict,
    functions: dict[str, ScalarFunction],
    grid_n: int,
    gate_hypothesis: bool,
) -> dict:
    """Scenario document of one check; ``body`` holds its operator, state or ensemble keys."""
    doc: dict = {
        "theorem": theorem_id,
        "direction": direction,
        "grid_n": grid_n,
        **body,
        "functions": {name: fn.descriptor() for name, fn in functions.items()},
    }
    if not gate_hypothesis:
        doc["gate_hypothesis"] = False
    return doc


def cebysev(
    f: ScalarFunction, g: ScalarFunction, A: HermitianOperator, x: StateVector
) -> float:
    """<f(A)g(A)x,x> - <g(A)x,x><f(A)x,x> for a unit state x."""
    x.require_unit()
    return expectation_product(A, f, g, x) - expectation(A, g, x) * expectation(A, f, x)


def pompeiu_cebysev(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
) -> float:
    """<h^2(A)x,x><f(A)g(A)x,x> - <h(A)g(A)x,x><h(A)f(A)x,x> for a unit state x."""
    x.require_unit()
    return expectation_product(A, h, h, x) * expectation_product(A, f, g, x) - expectation_product(
        A, h, g, x
    ) * expectation_product(A, h, f, x)


@_quiet
def _synchrony_bound(
    sides: Callable[..., tuple],
    measures: tuple[SpectralMeasure, ...],
    interval: SpectralInterval,
    body: dict,
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    direction: Optional[str],
    theorem_id: str,
    grid_n: int,
    tol_factor: float,
    gate_hypothesis: bool,
    auto_hypothesis: bool = False,
    notes: Optional[tuple[str, ...]] = None,
) -> InequalityReport:
    """A bound gated on h-synchrony of (f, g) over ``interval``, read off its measures.

    ``sides(*measures, f, g, h)`` gives its sides in the ``>=`` orientation.  With
    ``direction=None`` the grid classification picks the direction; a mixed
    verdict dispatches ``>=`` and fails the gate.  ``auto_hypothesis`` marks
    the f = g parameterizations whose synchrony is structural, skipping the
    classification.  ``notes`` is None for bounds whose ``<=`` form is part of
    the theorem; otherwise ``<=`` adds the reversal note to it.
    """
    evidence = None if auto_hypothesis else classify_synchrony(f, g, h, interval, grid_n)
    if direction is None:
        direction = GE if auto_hypothesis else evidence.implied_direction() or GE
    if direction not in (GE, LE):
        raise ConfigInvalid(f"direction must be '>=' or '<=', got {direction!r}")
    if auto_hypothesis:
        hypothesis, hypothesis_ok = AUTOMATIC_HYPOTHESIS, True
    else:
        hypothesis = evidence.summary()
        hypothesis_ok = evidence.supports(direction) or not gate_hypothesis
    lhs_raw, rhs_raw = sides(*measures, f, g, h)
    favored, other = (lhs_raw, rhs_raw) if direction == GE else (rhs_raw, lhs_raw)
    if notes is not None and direction == LE:
        notes = notes + (REVERSED_NOTE,)
    return _build_report(
        theorem_id,
        direction,
        favored,
        other,
        hypothesis=hypothesis,
        hypothesis_ok=hypothesis_ok,
        inputs=_inputs_doc(
            theorem_id, direction, body, {"f": f, "g": g, "h": h}, grid_n, gate_hypothesis
        ),
        tol_factor=tol_factor,
        notes=notes or (),
    )


def _sign_sides(
    mu: SpectralMeasure, f: ScalarFunction, g: ScalarFunction, h: ScalarFunction
) -> tuple:
    """E[h^2]E[fg] and E[hg]E[hf]; arrays for a batch of measures, as every ``*_sides``."""
    return mu.expect(h, h) * mu.expect(f, g), mu.expect(h, g) * mu.expect(h, f)


def check_sign_bound(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    direction: Optional[str] = None,
    *,
    theorem_id: str = "pc-sign",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """E[h^2]E[fg] vs E[hg]E[hf]: >= under h-synchrony of (f, g), <= under h-asynchrony.

    With ``direction=None`` the grid classification picks the direction; a
    mixed verdict yields ``hypothesis-not-met``.
    """
    x.require_unit()
    args = (direction, theorem_id, grid_n, tol_factor, gate_hypothesis)
    return _synchrony_bound(_sign_sides, *_pair(A, x), f, g, h, *args)


def _square_sides(mu: SpectralMeasure, f: ScalarFunction, h: ScalarFunction) -> tuple:
    """E[h^2]E[f^2] and E[hf]^2."""
    return mu.expect(h, h) * mu.expect(f, f), _square(mu.expect(h, f))


@_quiet
def _square_bound(
    measures: tuple[SpectralMeasure],
    interval: SpectralInterval,
    body: dict,
    f: ScalarFunction,
    h: ScalarFunction,
    theorem_id: str,
    grid_n: int,
    tol_factor: float,
) -> InequalityReport:
    """E[hf]^2 <= E[h^2]E[f^2] on a measure; nothing to certify, so ``interval`` is unused."""
    favored, other = _square_sides(*measures, f, h)
    return _build_report(
        theorem_id,
        LE,
        favored,
        other,
        hypothesis=AUTOMATIC_HYPOTHESIS,
        hypothesis_ok=True,
        inputs=_inputs_doc(theorem_id, LE, body, {"f": f, "h": h}, grid_n, True),
        tol_factor=tol_factor,
    )


def check_square_bound(
    f: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    *,
    theorem_id: str = "pc-square",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
) -> InequalityReport:
    """E[hf]^2 <= E[h^2]E[f^2]; holds for every continuous f, no synchrony gate."""
    x.require_unit()
    return _square_bound(*_pair(A, x), f, h, theorem_id, grid_n, tol_factor)


@_quiet
def kantorovich_constant(lo: float, hi: float) -> float:
    """(lo + hi)^2 / (4 lo hi) for 0 < lo <= hi."""
    if lo <= 0.0:
        raise NonPositiveSpectrum(f"constant needs 0 < lo, got ({lo!r}, {hi!r})")
    return _square(lo + hi) / (4.0 * lo * hi)


def _kantorovich_sides(mu: SpectralMeasure, bound: float) -> tuple[tuple, tuple]:
    """The lower and upper links' sides: (E[s]E[1/s], 1) and (bound, E[s]E[1/s])."""
    product = mu.expect(identity()) * mu.expect(power(-1.0))
    return (product, 1.0), (bound, product)


@_quiet
def kantorovich_chain(
    A: HermitianOperator,
    x: StateVector,
    *,
    bound_interval: Optional[SpectralInterval] = None,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
) -> tuple[InequalityReport, InequalityReport]:
    """1 <= E[s]E[1/s] <= (lo+hi)^2 / (4*lo*hi) for a positive spectral interval.

    ``bound_interval`` overrides the interval used for the upper constant; the
    falsifier uses it to probe what happens when the declared interval lies.
    """
    x.require_unit()
    iv = bound_interval if bound_interval is not None else A.interval
    if A.interval.lo <= 0.0 or iv.lo <= 0.0:
        raise NonPositiveSpectrum(
            f"inversion needs 0 < lo; intervals {A.interval.as_pair()}, {iv.as_pair()}"
        )
    measures, _, body = _pair(A, x)
    bound = kantorovich_constant(iv.lo, iv.hi)
    lower_sides, upper_sides = _kantorovich_sides(*measures, bound)
    difference_form = _square(iv.hi - iv.lo) / (4.0 * iv.lo * iv.hi)
    containment = None
    if bound_interval is not None:
        body["bound_interval"] = [iv.lo, iv.hi]
        lam = A.eigenvalues
        contained = bool(
            float(lam.min()) >= iv.lo - TOL_SPEC and float(lam.max()) <= iv.hi + TOL_SPEC
        )
        containment = {
            "kind": "spectral-containment",
            "declared": [iv.lo, iv.hi],
            "contained": contained,
        }
    lower = _build_report(
        "kantorovich-lower",
        GE,
        *lower_sides,
        hypothesis=None,
        hypothesis_ok=True,
        inputs=_inputs_doc("kantorovich-lower", GE, body, {}, grid_n, True),
        tol_factor=tol_factor,
    )
    upper = _build_report(
        "kantorovich-upper",
        GE,
        *upper_sides,
        hypothesis=containment,
        hypothesis_ok=True,
        inputs=_inputs_doc("kantorovich-upper", GE, body, {}, grid_n, True),
        tol_factor=tol_factor,
        notes=(
            "upper constant (lo+hi)^2/(4*lo*hi) = " + fmt(bound),
            "difference-form constant (hi-lo)^2/(4*lo*hi) = "
            + fmt(difference_form)
            + " (source discrepancy; not used)",
        ),
    )
    return lower, upper


def _two_operator_sides(mu: SpectralMeasure, nu: SpectralMeasure, f, g, h) -> tuple:
    """The mixed bound's sides: cross products of the two measures' expectations."""
    main = nu.expect(h, h) * mu.expect(f, g) + mu.expect(h, h) * nu.expect(f, g)
    cross = nu.expect(h, g) * mu.expect(h, f) + mu.expect(h, g) * nu.expect(h, f)
    return main, cross


def check_two_operator(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    B: HermitianOperator,
    x: StateVector,
    y: StateVector,
    direction: Optional[str] = None,
    *,
    theorem_id: str = "pc-two-op",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Mixed two-operator bound: cross products of expectations over (A, x) and (B, y)."""
    x.require_unit()
    y.require_unit()
    if A.interval != B.interval:
        raise IntervalMismatch(
            f"operators declare intervals {A.interval.as_pair()} and {B.interval.as_pair()}"
        )
    (mu,), interval, body = _pair(A, x)
    body.update(operator_b=_operator_doc(B), state_b=_state_doc(y))
    measures = (mu, SpectralMeasure.of(B, y))
    args = (direction, theorem_id, grid_n, tol_factor, gate_hypothesis)
    return _synchrony_bound(_two_operator_sides, measures, interval, body, f, g, h, *args)


def mean_point_sides(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    mean,
    e_h2,
    e_hf,
    e_hg,
    e_fg,
) -> tuple:
    """Raw (>= orientation) sides of the mean-point bound from its ingredients,
    scalars or equally shaped arrays."""
    ha, fa, ga = h.evaluate(mean), f.evaluate(mean), g.evaluate(mean)
    lhs_raw = _square(ha) * e_fg - e_hf * e_hg
    rhs_raw = (ha * e_hf - e_h2 * fa) * ga + (ha * fa - e_hf) * e_hg
    return lhs_raw, rhs_raw


def _mean_point_sides(
    mu: SpectralMeasure, f: ScalarFunction, g: ScalarFunction, h: ScalarFunction
) -> tuple:
    """mean_point_sides at the measure's mean, from its four product expectations."""
    terms = (mu.expect(h, h), mu.expect(h, f), mu.expect(h, g), mu.expect(f, g))
    return mean_point_sides(f, g, h, mu.expect(identity()), *terms)


def check_mean_point(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    direction: Optional[str] = None,
    *,
    theorem_id: str = "mean-point",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
    auto_hypothesis: bool = False,
) -> InequalityReport:
    """Bound anchored at the mean point <Ax,x>, with correction terms on the small side.

    ``auto_hypothesis`` marks the f = g parameterizations whose synchrony is
    structural, skipping the grid classification.
    """
    x.require_unit()
    args = (direction, theorem_id, grid_n, tol_factor, gate_hypothesis, auto_hypothesis)
    return _synchrony_bound(_mean_point_sides, *_pair(A, x), f, g, h, *args, ())


def inverse_pair_hull(interval: SpectralInterval) -> SpectralInterval:
    """Hull of the interval and its elementwise inverse.

    The two anchor points <Ax,x> and <A^{-1}x,x> live in [lo, hi] and
    [1/hi, 1/lo] respectively, so hypotheses are certified on the hull.
    """
    if interval.lo <= 0.0:
        raise NonPositiveSpectrum(f"inversion needs 0 < lo, interval is {interval.as_pair()}")
    return interval.hull(SpectralInterval(1.0 / interval.hi, 1.0 / interval.lo))


def _inverse_pair_sides(
    mu: SpectralMeasure, f: ScalarFunction, g: ScalarFunction, h: ScalarFunction
) -> tuple:
    """The two-point sides at the measure's mean and inverse mean."""
    pts = np.asarray([mu.expect(identity()), mu.expect(power(-1.0))])
    fv, gv, hv = f.evaluate(pts), g.evaluate(pts), h.evaluate(pts)
    lhs_raw = hv[0] ** 2 * fv[1] * gv[1] + hv[1] ** 2 * fv[0] * gv[0]
    rhs_raw = hv[0] * hv[1] * (fv[1] * gv[0] + fv[0] * gv[1])
    return lhs_raw, rhs_raw


def check_inverse_pair(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    direction: Optional[str] = None,
    *,
    theorem_id: str = "inverse-pair",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
    auto_hypothesis: bool = False,
) -> InequalityReport:
    """Two-point bound at the pair (<Ax,x>, <A^{-1}x,x>) for a positive spectrum."""
    x.require_unit()
    hull = inverse_pair_hull(A.interval)
    notes = (
        "synchrony certified on the hull of the interval and its inverse "
        f"[{fmt(hull.lo)}, {fmt(hull.hi)}]",
    )
    measures, _, body = _pair(A, x)
    args = (direction, theorem_id, grid_n, tol_factor, gate_hypothesis, auto_hypothesis)
    return _synchrony_bound(_inverse_pair_sides, measures, hull, body, f, g, h, *args, notes)
