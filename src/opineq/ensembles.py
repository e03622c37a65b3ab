"""Families of (operator, state) pairs: summed inequality checks, the discrete
Chebyshev sum inequality, and the averaged Kantorovich chain.

A sum-of-squares ensemble's summed check is its single-operator check read off
the concatenation of the members' spectral measures.  It must agree with that
check on the block-diagonal lift; the test suite enforces that equivalence.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    NonPositiveSpectrum,
    NormalizationViolation,
    NotSimilarlyOrdered,
    SpectrumOutOfInterval,
)
from .functions import GE, SYNCHRONOUS, ScalarFunction, _evidence_doc, _synchrony, identity, power
from .functionals import (
    InequalityReport,
    _build_report,
    _inputs_doc,
    _mean_point_sides,
    _operator_doc,
    _quiet,
    _sign_sides,
    _square,
    _square_bound,
    _state_doc,
    _synchrony_bound,
    fmt,
    kantorovich_constant,
)
from .spectral import (
    HermitianOperator,
    SpectralInterval,
    SpectralMeasure,
    StateVector,
    _check_pairs,
    block_diagonal,
)
from .tolerances import DEFAULT_GRID_N, TOL_NORM, TOL_SPEC

__all__ = [
    "SUM_OF_SQUARES",
    "PER_VECTOR",
    "OperatorEnsemble",
    "ensemble_expectation",
    "ensemble_expectation_product",
    "lift_ensemble",
    "check_ensemble_sign_bound",
    "check_ensemble_square_bound",
    "check_ensemble_mean_point",
    "similarly_ordered",
    "discrete_chebyshev",
    "kantorovich_constant",
    "kantorovich_ensemble_chain",
]

SUM_OF_SQUARES = "sum_of_squares"
PER_VECTOR = "per_vector"
_MODES = (SUM_OF_SQUARES, PER_VECTOR)


@dataclasses.dataclass(frozen=True, eq=False)
class OperatorEnsemble:
    """n operators sharing one spectral interval, each paired with a state.

    ``normalization`` is either ``sum_of_squares`` (the squared norms add to 1,
    as the summed checks require) or ``per_vector`` (each state is a unit
    vector, as the averaged Kantorovich chain requires).
    """

    operators: tuple[HermitianOperator, ...]
    states: tuple[StateVector, ...]
    normalization: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "states", tuple(self.states))
        if self.normalization not in _MODES:
            raise ConfigInvalid(
                f"normalization must be one of {_MODES}, got {self.normalization!r}"
            )
        _check_pairs(self.operators, self.states, self.normalization == SUM_OF_SQUARES)
        if self.normalization == PER_VECTOR:
            for k, st in enumerate(self.states):
                if abs(st.norm - 1.0) > TOL_NORM:
                    raise NormalizationViolation(
                        f"state {k} has norm {st.norm!r}, expected 1"
                    )

    @property
    def n(self) -> int:
        return len(self.operators)

    @property
    def interval(self) -> SpectralInterval:
        return self.operators[0].interval

    def measures(self) -> list[SpectralMeasure]:
        return [SpectralMeasure.of(op, st) for op, st in zip(self.operators, self.states)]

    def measure(self) -> SpectralMeasure:
        """The members' measures concatenated: its expectations are sums over the members."""
        return SpectralMeasure.concat(self.measures())


def ensemble_expectation(E: OperatorEnsemble, f: ScalarFunction) -> float:
    """sum_j <f(A_j) x_j, x_j>."""
    return E.measure().expect(f)


def ensemble_expectation_product(
    E: OperatorEnsemble, f: ScalarFunction, g: ScalarFunction
) -> float:
    """sum_j <f(A_j) g(A_j) x_j, x_j>."""
    return E.measure().expect(f, g)


def lift_ensemble(E: OperatorEnsemble) -> tuple[HermitianOperator, StateVector]:
    """Block-diagonal operator and stacked state equivalent to the summed checks.

    Only a sum-of-squares ensemble lifts to a unit state.
    """
    if E.normalization != SUM_OF_SQUARES:
        raise NormalizationViolation("only a sum_of_squares ensemble lifts to a unit state")
    return block_diagonal(list(E.operators), list(E.states))


def _ensemble_body(E: OperatorEnsemble) -> dict:
    return {
        "ensemble": {
            "operators": [_operator_doc(op) for op in E.operators],
            "states": [_state_doc(st) for st in E.states],
            "normalization": E.normalization,
        }
    }


def _summed(E: OperatorEnsemble) -> tuple[tuple[SpectralMeasure], SpectralInterval, dict]:
    """What a summed check reads of E, after checking its normalization: the
    concatenated measure (alone in a tuple), the interval to certify on, the inputs body."""
    if E.normalization != SUM_OF_SQUARES:
        raise NormalizationViolation("summed checks need sum_of_squares normalization")
    return (E.measure(),), E.interval, _ensemble_body(E)


def check_ensemble_sign_bound(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    E: OperatorEnsemble,
    direction: Optional[str] = None,
    *,
    theorem_id: str = "ensemble-pc-sign",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Summed form of the sign bound: S[h^2]S[fg] vs S[hg]S[hf] over the ensemble."""
    args = (direction, theorem_id, grid_n, tol_factor, gate_hypothesis)
    return _synchrony_bound(_sign_sides, *_summed(E), f, g, h, *args)


def check_ensemble_square_bound(
    f: ScalarFunction,
    h: ScalarFunction,
    E: OperatorEnsemble,
    *,
    theorem_id: str = "ensemble-pc-square",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
) -> InequalityReport:
    """Summed square bound S[hf]^2 <= S[h^2]S[f^2]; no synchrony gate needed."""
    return _square_bound(*_summed(E), f, h, theorem_id, grid_n, tol_factor)


def check_ensemble_mean_point(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    E: OperatorEnsemble,
    direction: Optional[str] = None,
    *,
    theorem_id: str = "ensemble-mean-point",
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
    auto_hypothesis: bool = False,
    extra_notes: tuple[str, ...] = (),
) -> InequalityReport:
    """Summed mean-point bound, anchored at sum_j <A_j x_j, x_j>."""
    args = (direction, theorem_id, grid_n, tol_factor, gate_hypothesis, auto_hypothesis)
    return _synchrony_bound(_mean_point_sides, *_summed(E), f, g, h, *args, extra_notes)


def similarly_ordered(
    a: Sequence[float], b: Sequence[float]
) -> tuple[bool, Optional[tuple[int, int]], float]:
    """Whether (a_i - a_j)(b_i - b_j) >= 0 for every pair: synchrony with h = 1
    on the indices, certified as classify_synchrony certifies it.

    Returns (ordered, witness pair or None, most negative pair product).
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1 or av.size == 0:
        raise ConfigInvalid("need two equal-length nonempty tuples")
    v = _synchrony(np.arange(av.size), av, bv, np.ones_like(av))
    return v.classification == SYNCHRONOUS, v.witness_neg, v.min_product


def _chebyshev_sides(a, b) -> tuple:
    """mean(a*b) and mean(a)*mean(b), the means taken along the last axis."""
    return np.mean(a * b, axis=-1), np.mean(a, axis=-1) * np.mean(b, axis=-1)


@_quiet
def discrete_chebyshev(
    a: Sequence[float], b: Sequence[float], *, tol_factor: float = 1.0, gate: bool = True
) -> InequalityReport:
    """mean(a*b) >= mean(a)*mean(b) for similarly ordered tuples.

    With ``gate`` false an unordered pair is evaluated anyway (for hypothesis-
    dropping searches) instead of raising.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    ordered, witness, worst = similarly_ordered(av, bv)
    if not ordered and gate:
        i, j = witness
        raise NotSimilarlyOrdered(
            f"pair (i={i}, j={j}) has (a_i-a_j)(b_i-b_j) = {fmt(worst)} < 0"
        )
    favored, other = _chebyshev_sides(av, bv)
    inputs = {
        "theorem": "discrete-chebyshev",
        "direction": GE,
        "tuples": {"a": [float(v) for v in av], "b": [float(v) for v in bv]},
    }
    if not gate:
        inputs["gate_hypothesis"] = False
    hypothesis = _evidence_doc("similarly-ordered", ordered=ordered, min_pair_product=worst)
    if witness is not None:
        hypothesis["witness"] = list(witness)
    return _build_report(
        "discrete-chebyshev",
        GE,
        favored,
        other,
        hypothesis=hypothesis,
        hypothesis_ok=True,
        inputs=inputs,
        tol_factor=tol_factor,
    )


def _member_means(measures: Sequence[SpectralMeasure]) -> tuple[np.ndarray, np.ndarray]:
    """a_j = E_j[s] and b_j = E_j[1/s] of each member, along the last axis."""
    a = np.asarray([mu.expect(identity()) for mu in measures]).T
    b = np.asarray([mu.expect(power(-1.0)) for mu in measures]).T
    return a, b


def _chain_sides(a: np.ndarray, b: np.ndarray, constants: Sequence[float]) -> tuple:
    """The three links' sides from the members' means and their interval constants:
    (mean(a)mean(b), 1), (mean(ab), mean(a)mean(b)) and (mean(K), mean(ab))."""
    mean_ab, product = _chebyshev_sides(a, b)
    return (product, 1.0), (mean_ab, product), (np.mean(constants), mean_ab)


@_quiet
def kantorovich_ensemble_chain(
    E: OperatorEnsemble,
    per_op_intervals: Optional[Sequence[tuple[float, float]]] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate: bool = True,
) -> tuple[InequalityReport, InequalityReport, InequalityReport]:
    """Averaged chain 1 <= mean(a)mean(b) <= mean(ab) <= mean(K) with
    a_j = <A_j x_j, x_j>, b_j = <A_j^{-1} x_j, x_j>, K_j the per-operator constant.

    Needs unit states per vector: under sum-of-squares normalization the first
    link is simply false (n scaled copies of the identity already break it).
    The middle link additionally needs (a, b) similarly ordered and is reported
    ``hypothesis-not-met`` when they are not.  ``gate=False`` skips the
    normalization and containment preconditions so hypothesis-dropping
    searches can evaluate the raw sides.
    """
    if gate and E.normalization != PER_VECTOR:
        raise NormalizationViolation(
            "the averaged chain needs per_vector normalization; "
            "its first link is false under sum_of_squares"
        )
    n = E.n
    if per_op_intervals is None:
        pairs = [(op.interval.lo, op.interval.hi) for op in E.operators]
    else:
        pairs = [(float(lo), float(hi)) for lo, hi in per_op_intervals]
        if len(pairs) != n:
            raise ConfigInvalid(f"need {n} per-operator intervals, got {len(pairs)}")
    for k, ((lo, hi), op) in enumerate(zip(pairs, E.operators)):
        if lo <= 0.0 or op.interval.lo <= 0.0:
            raise NonPositiveSpectrum(
                f"operator {k}: inversion needs 0 < lo "
                f"(declared {op.interval.as_pair()}, chain uses ({lo!r}, {hi!r}))"
            )
        if lo > hi:
            raise ConfigInvalid(f"operator {k}: interval ({lo!r}, {hi!r}) is inverted")
        if gate and per_op_intervals is not None:
            ev = op.eigenvalues
            if float(ev[0]) < lo - TOL_SPEC or float(ev[-1]) > hi + TOL_SPEC:
                raise SpectrumOutOfInterval(
                    f"operator {k}: spectrum [{fmt(float(ev[0]))}, {fmt(float(ev[-1]))}] "
                    f"outside chain interval ({fmt(lo)}, {fmt(hi)})"
                )
    a, b = _member_means(E.measures())
    constants = [kantorovich_constant(lo, hi) for lo, hi in pairs]
    lower_sides, middle_sides, upper_sides = _chain_sides(a, b, constants)
    ordered, witness, worst = similarly_ordered(a, b)

    body = _ensemble_body(E)
    if per_op_intervals is not None:
        body["per_op_intervals"] = [[lo, hi] for lo, hi in pairs]

    def doc(theorem_id: str) -> dict:
        return _inputs_doc(theorem_id, GE, body, {}, grid_n, gate)

    lower = _build_report(
        "ensemble-product-lower",
        GE,
        *lower_sides,
        hypothesis={"kind": "normalization", "mode": E.normalization, "required": PER_VECTOR},
        hypothesis_ok=True,
        inputs=doc("ensemble-product-lower"),
        tol_factor=tol_factor,
        notes=(
            "sum form: (sum a)(sum b) = "
            + fmt(lower_sides[0] * n * n)
            + " vs n^2 = "
            + fmt(float(n * n)),
            "stated for sum-of-squares normalization, where it fails; "
            "checked under per-vector normalization",
        ),
    )
    ordering_evidence = _evidence_doc("similarly-ordered", min_pair_product=worst, witness=witness)
    middle = _build_report(
        "ensemble-chebyshev-link",
        GE,
        *middle_sides,
        hypothesis=ordering_evidence,
        hypothesis_ok=ordered or not gate,
        inputs=doc("ensemble-chebyshev-link"),
        tol_factor=tol_factor,
    )
    diff_constants = [_square(hi - lo) / (4.0 * lo * hi) for lo, hi in pairs]
    upper = _build_report(
        "ensemble-kantorovich-upper",
        GE,
        *upper_sides,
        hypothesis=None,
        hypothesis_ok=True,
        inputs=doc("ensemble-kantorovich-upper"),
        tol_factor=tol_factor,
        notes=(
            "per-operator constants (lo+hi)^2/(4 lo hi): "
            + ", ".join(fmt(c) for c in constants),
            "difference-form values (hi-lo)^2/(4 lo hi): "
            + ", ".join(fmt(c) for c in diff_constants)
            + " (source discrepancy; not used)",
        ),
    )
    return lower, middle, upper
