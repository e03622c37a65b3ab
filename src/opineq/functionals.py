"""Covariance-type functionals of one operator and the single-operator inequality checkers.

Report convention: ``lhs`` is always the side the inequality favors, so
``gap = lhs - rhs`` and a theorem predicts ``gap >= 0`` regardless of whether
the source statement reads ``>=`` or ``<=``.  The requested direction is kept
on the report as data.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigInvalid, DomainViolation, quiet, read_integer
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
    _shared_interval,
    diagonal_measure,
    expectation,
    expectation_product,
    require_unit_norm,
)
from .tolerances import DEFAULT_GRID_N, tol_ineq

__all__ = [
    "HOLDS",
    "VIOLATED",
    "HYPOTHESIS_NOT_MET",
    "InequalityReport",
    "ReadInputs",
    "ReadPair",
    "read_pair",
    "read_two",
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

# s and 1/s, whose expectations the mean-point, inverse-pair and Kantorovich
# sides read; built once rather than on every call
_IDENTITY = identity()
_INVERSE = power(-1.0)


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


class Outcome(NamedTuple):
    """What a check's core computes: the direction it dispatched, the favored
    and the other side, the hypothesis evidence and whether it is met, and notes."""

    direction: str
    favored: float
    other: float
    hypothesis: Optional[dict]
    hypothesis_ok: bool
    notes: tuple[str, ...] = ()


def _build_report(inputs: dict, outcome: Outcome, tol_factor: float = 1.0) -> InequalityReport:
    """The report of ``outcome`` on the inputs document ``inputs``, to which it
    adds only the dispatched direction; the report's id is the document's theorem."""
    direction, favored, other, hypothesis, hypothesis_ok, notes = outcome
    theorem_id = inputs["theorem"]
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
    inputs["direction"] = direction
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


def _pairs(z: np.ndarray) -> list:
    """A C-contiguous complex array as nested lists of [re, im] Python floats."""
    return z.view(np.float64).reshape(*z.shape, 2).tolist()


def _operator_doc(A: HermitianOperator) -> dict:
    """A's document: its diagonal when A is diag(eigenvalues) on the standard
    basis, else its eigenvalues and eigenvectors.  A diagonal given out of order
    keeps its permuted basis, which a re-read sorted diagonal would not give."""
    interval = [A.interval.lo, A.interval.hi]
    if A.standard_basis:
        return {"diagonal": A.eigenvalues.tolist(), "interval": interval}
    return {
        "dim": A.dim,
        "eigenvalues": A.eigenvalues.tolist(),
        "eigenvectors": _pairs(A.eigenvectors),
        "interval": interval,
    }


def _state_doc(x: StateVector) -> dict:
    return {"components": _pairs(x.components)}


class ReadInputs(NamedTuple):
    """What a check reads of its (A, x) pairs, and all that its core takes of them:
    their spectral measures, the interval they declare, the inputs-document body
    that writes them, and an ensemble's normalization (None for one or two pairs)."""

    measures: tuple[SpectralMeasure, ...]
    interval: SpectralInterval
    body: dict
    normalization: Optional[str] = None


class ReadPair(NamedTuple):
    """One (A, x) as a check reads it: mu_x, A's interval, ||x||, and the operator
    and state documents that write the pair."""

    measure: SpectralMeasure
    interval: SpectralInterval
    norm: float
    operator: dict
    state: dict

    @staticmethod
    def of(A: HermitianOperator, x: StateVector) -> "ReadPair":
        mu = SpectralMeasure.of(A, x)
        return ReadPair(mu, A.interval, x.norm, _operator_doc(A), _state_doc(x))

    @staticmethod
    def diagonal(atoms, components: np.ndarray, interval: SpectralInterval) -> "ReadPair":
        """(diag(atoms), x) for the real state ``components``, read with neither
        built: diagonal_measure's rules and weights, and the documents that
        HermitianOperator.diagonal and StateVector would write of the sorted atoms
        and the components in their order."""
        mu, c = diagonal_measure(atoms, components, interval)
        operator = {"diagonal": mu.atoms.tolist(), "interval": [interval.lo, interval.hi]}
        state = {"components": [[v, 0.0] for v in c.tolist()]}
        # StateVector's norm: numpy's sqrt(x.x) of a real vector
        return ReadPair(mu, interval, math.sqrt(c @ c), operator, state)


def single_inputs(pair: ReadPair) -> ReadInputs:
    """A single-pair check's inputs: a unit state's (mu_x,), the interval, the body."""
    require_unit_norm(pair.norm)
    body = {"operator": pair.operator, "state": pair.state}
    return ReadInputs((pair.measure,), pair.interval, body)


def two_inputs(first: ReadPair, second: ReadPair) -> ReadInputs:
    """The two-operator check's inputs: two unit states' (mu, nu) on one interval."""
    require_unit_norm(first.norm)
    require_unit_norm(second.norm)
    interval = _shared_interval((first.interval, second.interval))
    body = {
        "operator": first.operator,
        "state": first.state,
        "operator_b": second.operator,
        "state_b": second.state,
    }
    return ReadInputs((first.measure, second.measure), interval, body)


def read_pair(A: HermitianOperator, x: StateVector) -> ReadInputs:
    """What a single-pair check reads of a unit (A, x)."""
    return single_inputs(ReadPair.of(A, x))


def read_two(
    A: HermitianOperator, B: HermitianOperator, x: StateVector, y: StateVector
) -> ReadInputs:
    """What the two-operator check reads of (A, x) and (B, y)."""
    return two_inputs(ReadPair.of(A, x), ReadPair.of(B, y))


def _run(theorem_id: str, inputs, tol_factor: float, **keys) -> InequalityReport:
    """Registry entry ``theorem_id`` run on read inputs with the document keys
    ``keys``: the one assembly of a check, which scenarios and suites run too."""
    from .registry import lookup  # the registry imports this module's cores

    return lookup(theorem_id).run(keys, inputs, tol_factor=tol_factor)


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


def _synchrony_bound(
    sides: Callable[..., tuple],
    inputs: ReadInputs,
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    direction: Optional[str] = None,
    grid_n: int = DEFAULT_GRID_N,
    gate_hypothesis: bool = True,
    auto_hypothesis: bool = False,
    notes: Optional[tuple[str, ...]] = None,
    hull: bool = False,
) -> Outcome:
    """A bound gated on h-synchrony of (f, g) over the inputs' interval, read off their measures.

    ``sides(*inputs.measures, _slot_values(f, g, h))`` gives its sides in the
    ``>=`` orientation.  With ``direction=None`` the grid classification picks
    the direction; a mixed verdict dispatches ``>=`` and fails the gate.
    ``auto_hypothesis`` marks the f = g parameterizations whose synchrony is
    structural, skipping the classification.  ``notes`` is None for bounds
    whose ``<=`` form is part of the theorem; otherwise ``<=`` adds the
    reversal note to it.  ``hull`` certifies on the hull of the interval and
    its inverse, and says so in a first note.
    """
    interval = inputs.interval
    if hull:
        interval = inverse_pair_hull(interval)
        notes = (
            "synchrony certified on the hull of the interval and its inverse "
            f"[{fmt(interval.lo)}, {fmt(interval.hi)}]",
        ) + (notes or ())
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
    lhs_raw, rhs_raw = sides(*inputs.measures, _slot_values(f, g, h))
    favored, other = (lhs_raw, rhs_raw) if direction == GE else (rhs_raw, lhs_raw)
    if notes is not None and direction == LE:
        notes = notes + (REVERSED_NOTE,)
    return Outcome(direction, favored, other, hypothesis, hypothesis_ok, notes or ())


def _slot_values(*fns: ScalarFunction) -> Callable:
    """A core's ``values``: the slot functions at ``points``, a list of one evaluation each."""
    return lambda points: [fn.evaluate(points) for fn in fns]


def _sign_sides(mu: SpectralMeasure, values: Callable) -> tuple:
    """E[h^2]E[fg] and E[hg]E[hf], ``values(points)`` giving f, g, h at ``points``, as every
    ``*_sides`` reads them; arrays for a batch, under any leading axis ``values`` adds."""
    f, g, h = values(mu.atoms)
    return mu.sum(h * h) * mu.sum(f * g), mu.sum(h * g) * mu.sum(h * f)


def check_sign_bound(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    direction: Optional[str] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """E[h^2]E[fg] vs E[hg]E[hf]: >= under h-synchrony of (f, g), <= under h-asynchrony.

    With ``direction=None`` the grid classification picks the direction; a
    mixed verdict yields ``hypothesis-not-met``.
    """
    functions = {"f": f, "g": g, "h": h}
    keys = dict(direction=direction, grid_n=grid_n, gate_hypothesis=gate_hypothesis)
    return _run("pc-sign", read_pair(A, x), tol_factor, functions=functions, **keys)


def _square_sides(mu: SpectralMeasure, values: Callable) -> tuple:
    """E[h^2]E[f^2] and E[hf]^2, ``values`` giving f and h."""
    f, h = values(mu.atoms)
    return mu.sum(h * h) * mu.sum(f * f), _square(mu.sum(h * f))


def _square_bound(
    sides: Callable[..., tuple],
    inputs: ReadInputs,
    f: ScalarFunction,
    h: ScalarFunction,
) -> Outcome:
    """E[hf]^2 <= E[h^2]E[f^2] on a measure, as ``sides`` gives them; nothing to certify."""
    return Outcome(LE, *sides(*inputs.measures, _slot_values(f, h)), AUTOMATIC_HYPOTHESIS, True)


def check_square_bound(
    f: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
) -> InequalityReport:
    """E[hf]^2 <= E[h^2]E[f^2]; holds for every continuous f, no synchrony gate."""
    functions = {"f": f, "h": h}
    return _run("pc-square", read_pair(A, x), tol_factor, functions=functions, grid_n=grid_n)


def _kantorovich_constants(iv: SpectralInterval) -> tuple[float, float]:
    """(lo+hi)^2 / (4 lo hi) and the difference form (hi-lo)^2 / (4 lo hi) of a
    positive interval, read off r = hi/lo as (1+r)^2 / (4r) and (r-1)^2 / (4r) where
    4 lo hi is not a normal float or (lo+hi)^2 overflows; inf where r does too.
    Where (1+r)^2 overflows too, they are ((1+r)/4) ((1+r)/r) and ((r-1)/4)
    ((r-1)/r), about r/4.  Its callers run it under ``quiet``."""
    lo, hi = iv.require_positive().as_pair()
    denominator = 4.0 * np.float64(lo) * hi
    if not (sys.float_info.min <= denominator < math.inf and _square(lo + hi) < math.inf):
        ratio = np.float64(hi) / lo
        if ratio < math.inf:
            if _square(1.0 + ratio) == math.inf:
                plus, minus = 1.0 + ratio, ratio - 1.0
                return float(plus / 4.0 * (plus / ratio)), float(minus / 4.0 * (minus / ratio))
            lo, hi, denominator = 1.0, ratio, 4.0 * ratio
    return float(_square(lo + hi) / denominator), float(_square(hi - lo) / denominator)


@quiet
def kantorovich_constant(lo: float, hi: float) -> float:
    """(lo + hi)^2 / (4 lo hi) for 0 < lo <= hi."""
    return _kantorovich_constants(SpectralInterval(lo, hi))[0]


def _kantorovich_sides(mu: SpectralMeasure, bound: float) -> tuple[tuple, tuple]:
    """The lower and upper links' sides: (E[s]E[1/s], 1) and (bound, E[s]E[1/s])."""
    product = mu.expect(_IDENTITY) * mu.expect(_INVERSE)
    return (product, 1.0), (bound, product)


def _chain(theorem_ids: tuple[str, ...], link, read: Callable, tol_factor: float, **keys):
    """A chain's reports: its links' entries run on one ``read()`` of its inputs,
    or with ``link``, an integer index (numpy's too) refused before the read, that
    entry's alone."""
    if link is not None:
        index = int(link) if isinstance(link, np.integer) else link
        theorem_ids = (theorem_ids[read_integer(index, "link", (0, len(theorem_ids) - 1))],)
    inputs = read()
    reports = tuple(_run(theorem_id, inputs, tol_factor, **keys) for theorem_id in theorem_ids)
    return reports if link is None else reports[0]


def kantorovich_chain(
    A: HermitianOperator,
    x: StateVector,
    *,
    bound_interval: Optional[SpectralInterval] = None,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    link: Optional[int] = None,
) -> "tuple[InequalityReport, InequalityReport] | InequalityReport":
    """1 <= E[s]E[1/s] <= (lo+hi)^2 / (4*lo*hi) for a positive spectral interval.

    ``bound_interval`` overrides the interval used for the upper constant; the
    falsifier uses it to probe what happens when the declared interval lies.
    Returns the (lower, upper) reports, or with ``link`` (0 or 1) that one.
    """
    ids = ("kantorovich-lower", "kantorovich-upper")
    keys = dict(bound_interval=bound_interval, grid_n=grid_n)
    return _chain(ids, link, lambda: read_pair(A, x), tol_factor, **keys)


def _kantorovich_links(
    sides: Callable[..., tuple],
    inputs: ReadInputs,
    *,
    bound_interval: Optional[SpectralInterval] = None,
    link: int,
) -> Outcome:
    """kantorovich_chain's link ``link`` on read inputs, its sides as ``sides`` gives them."""
    inputs.interval.require_positive()
    iv = bound_interval if bound_interval is not None else inputs.interval
    bound, difference_form = _kantorovich_constants(iv)
    (mu,) = inputs.measures
    lower_sides, upper_sides = sides(mu, bound)
    if link == 0:
        return Outcome(GE, *lower_sides, None, True)
    containment = None
    if bound_interval is not None:
        containment = {
            "kind": "spectral-containment",
            "declared": [iv.lo, iv.hi],
            "contained": iv.contains_spectrum(mu.atoms),
        }
    notes = (
        "upper constant (lo+hi)^2/(4*lo*hi) = " + fmt(bound),
        "difference-form constant (hi-lo)^2/(4*lo*hi) = "
        + fmt(difference_form)
        + " (source discrepancy; not used)",
    )
    return Outcome(GE, *upper_sides, containment, True, notes)


def _two_operator_sides(mu: SpectralMeasure, nu: SpectralMeasure, values: Callable) -> tuple:
    """The mixed bound's sides: cross products of the two measures' expectations."""
    (f, g, h), (fb, gb, hb) = values(mu.atoms), values(nu.atoms)
    main = nu.sum(hb * hb) * mu.sum(f * g) + mu.sum(h * h) * nu.sum(fb * gb)
    cross = nu.sum(hb * gb) * mu.sum(h * f) + mu.sum(h * g) * nu.sum(hb * fb)
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
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Mixed two-operator bound: cross products of expectations over (A, x) and (B, y)."""
    functions = {"f": f, "g": g, "h": h}
    keys = dict(direction=direction, grid_n=grid_n, gate_hypothesis=gate_hypothesis)
    return _run("pc-two-op", read_two(A, B, x, y), tol_factor, functions=functions, **keys)


def mean_point_sides(mu: SpectralMeasure, values: Callable) -> tuple:
    """Raw (>= orientation) sides of the mean-point bound at the mean m = E[s]:
    h(m)^2 E[fg] - E[hf]E[hg] and (h(m)E[hf] - E[h^2]f(m))g(m) + (h(m)f(m) - E[hf])E[hg]."""
    f, g, h = values(mu.atoms)
    e_h2, e_hf, e_hg, e_fg = mu.sum(h * h), mu.sum(h * f), mu.sum(h * g), mu.sum(f * g)
    fa, ga, ha = values(mu.expect(_IDENTITY))
    lhs_raw = _square(ha) * e_fg - e_hf * e_hg
    rhs_raw = (ha * e_hf - e_h2 * fa) * ga + (ha * fa - e_hf) * e_hg
    return lhs_raw, rhs_raw


def check_mean_point(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    direction: Optional[str] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Bound anchored at the mean point <Ax,x>, with correction terms on the small side."""
    functions = {"f": f, "g": g, "h": h}
    keys = dict(direction=direction, grid_n=grid_n, gate_hypothesis=gate_hypothesis)
    return _run("mean-point", read_pair(A, x), tol_factor, functions=functions, **keys)


def inverse_pair_hull(interval: SpectralInterval) -> SpectralInterval:
    """Hull of the interval and its elementwise inverse.

    The two anchor points <Ax,x> and <A^{-1}x,x> live in [lo, hi] and
    [1/hi, 1/lo] respectively, so hypotheses are certified on the hull.
    """
    lo, hi = interval.require_positive().as_pair()
    if not math.isfinite(1.0 / lo):
        raise ConfigInvalid(
            f"the inverse 1/lo of the interval's lower endpoint lo = {lo!r} overflows, "
            "so the hull of the interval and its inverse is unbounded"
        )
    return interval.hull(SpectralInterval(1.0 / hi, 1.0 / lo))


def _inverse_pair_sides(mu: SpectralMeasure, values: Callable) -> tuple:
    """The two-point sides at the measure's mean and inverse mean."""
    (f0, g0, h0), (f1, g1, h1) = values(mu.expect(_IDENTITY)), values(mu.expect(_INVERSE))
    lhs_raw = h0**2 * f1 * g1 + h1**2 * f0 * g0
    rhs_raw = h0 * h1 * (f1 * g0 + f0 * g1)
    return lhs_raw, rhs_raw


def check_inverse_pair(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    A: HermitianOperator,
    x: StateVector,
    direction: Optional[str] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Two-point bound at the pair (<Ax,x>, <A^{-1}x,x>) for a positive spectrum,
    its synchrony certified on inverse_pair_hull of the interval."""
    functions = {"f": f, "g": g, "h": h}
    keys = dict(direction=direction, grid_n=grid_n, gate_hypothesis=gate_hypothesis)
    return _run("inverse-pair", read_pair(A, x), tol_factor, functions=functions, **keys)
