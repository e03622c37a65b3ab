"""Families of (operator, state) pairs: summed inequality checks, the discrete
Chebyshev sum inequality, and the averaged Kantorovich chain.

A sum-of-squares ensemble's summed check is its single-operator check read off
the concatenation of the members' spectral measures.  It must agree with that
check on the block-diagonal lift; the test suite enforces that equivalence.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    NormalizationViolation,
    NotSimilarlyOrdered,
    SpectrumOutOfInterval,
)
from .functions import GE, SYNCHRONOUS, ScalarFunction, _evidence_doc, _synchrony
from .functionals import (
    InequalityReport,
    Outcome,
    ReadInputs,
    ReadPair,
    _IDENTITY,
    _INVERSE,
    _chain,
    _kantorovich_constants,
    _quiet,
    _run,
    fmt,
    kantorovich_constant,
)
from .spectral import (
    HermitianOperator,
    SpectralInterval,
    SpectralMeasure,
    StateVector,
    _check_pairs,
    _require_sum_of_squares,
    _require_unit_members,
    _shared_interval,
    block_diagonal,
)
from .tolerances import DEFAULT_GRID_N, MAX_GRID_N

__all__ = [
    "SUM_OF_SQUARES",
    "PER_VECTOR",
    "OperatorEnsemble",
    "ensemble_inputs",
    "read_ensemble",
    "tuples_inputs",
    "summed",
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
        _require_mode(self.normalization)
        _check_pairs(self.operators, self.states, self.normalization == SUM_OF_SQUARES)
        if self.normalization == PER_VECTOR:
            _require_unit_members([st.norm for st in self.states])

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


def _require_mode(normalization: str) -> None:
    if normalization not in _MODES:
        raise ConfigInvalid(f"normalization must be one of {_MODES}, got {normalization!r}")


def ensemble_inputs(pairs: Sequence[ReadPair], normalization: str) -> ReadInputs:
    """An ensemble's inputs: its members' measures on one interval, read under
    ``normalization``, whose rule their state norms must meet."""
    _require_mode(normalization)
    if not pairs:
        raise ConfigInvalid("need equally many operators and states, at least one pair")
    interval = _shared_interval([p.interval for p in pairs])
    norms = [p.norm for p in pairs]
    if normalization == SUM_OF_SQUARES:
        _require_sum_of_squares(norms)
    else:
        _require_unit_members(norms)
    body = {
        "ensemble": {
            "operators": [p.operator for p in pairs],
            "states": [p.state for p in pairs],
            "normalization": normalization,
        }
    }
    return ReadInputs(tuple(p.measure for p in pairs), interval, body, normalization)


def read_ensemble(E: OperatorEnsemble) -> ReadInputs:
    """What an ensemble check reads of E."""
    pairs = [ReadPair.of(op, st) for op, st in zip(E.operators, E.states)]
    return ensemble_inputs(pairs, E.normalization)


def summed(inputs: ReadInputs) -> ReadInputs:
    """A summed check's inputs: a sum-of-squares ensemble's members' measures
    concatenated, so that its expectations are sums over the members."""
    if inputs.normalization != SUM_OF_SQUARES:
        raise NormalizationViolation("summed checks need sum_of_squares normalization")
    return ReadInputs((SpectralMeasure.concat(inputs.measures),), inputs.interval, inputs.body)


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


def check_ensemble_sign_bound(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    E: OperatorEnsemble,
    direction: Optional[str] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Summed form of the sign bound: S[h^2]S[fg] vs S[hg]S[hf] over the ensemble."""
    functions = {"f": f, "g": g, "h": h}
    keys = dict(direction=direction, grid_n=grid_n, gate_hypothesis=gate_hypothesis)
    return _run("ensemble-pc-sign", read_ensemble(E), tol_factor, functions=functions, **keys)


def check_ensemble_square_bound(
    f: ScalarFunction,
    h: ScalarFunction,
    E: OperatorEnsemble,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
) -> InequalityReport:
    """Summed square bound S[hf]^2 <= S[h^2]S[f^2]; no synchrony gate needed."""
    keys = dict(functions={"f": f, "h": h}, grid_n=grid_n)
    return _run("ensemble-pc-square", read_ensemble(E), tol_factor, **keys)


def check_ensemble_mean_point(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    E: OperatorEnsemble,
    direction: Optional[str] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate_hypothesis: bool = True,
) -> InequalityReport:
    """Summed mean-point bound, anchored at sum_j <A_j x_j, x_j>."""
    functions = {"f": f, "g": g, "h": h}
    keys = dict(direction=direction, grid_n=grid_n, gate_hypothesis=gate_hypothesis)
    return _run("ensemble-mean-point", read_ensemble(E), tol_factor, functions=functions, **keys)


def similarly_ordered(
    a: Sequence[float], b: Sequence[float]
) -> tuple[bool, Optional[tuple[int, int]], float]:
    """Whether (a_i - a_j)(b_i - b_j) >= 0 for every pair: synchrony with h = 1
    on the indices, certified as classify_synchrony certifies it, on at most
    MAX_GRID_N entries, the bound its grid has.

    Returns (ordered, witness pair or None, most negative pair product).
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1 or av.size == 0:
        raise ConfigInvalid("need two equal-length nonempty tuples")
    if av.size > MAX_GRID_N:
        raise ConfigInvalid(
            f"a similarly-ordered certificate takes at most {MAX_GRID_N} entries, got {av.size}"
        )
    v = _synchrony(np.arange(av.size), av, bv, np.ones_like(av))
    return v.classification == SYNCHRONOUS, v.witness_neg, v.min_product


def _chebyshev_sides(a, b) -> tuple:
    """mean(a*b) and mean(a)*mean(b), the means taken along the last axis."""
    return np.mean(a * b, axis=-1), np.mean(a, axis=-1) * np.mean(b, axis=-1)


class ReadTuples(NamedTuple):
    """What the discrete Chebyshev check reads of two tuples: them as float
    arrays, and the inputs-document body that writes them."""

    a: np.ndarray
    b: np.ndarray
    body: dict


def tuples_inputs(a: Sequence[float], b: Sequence[float]) -> ReadTuples:
    """What the discrete Chebyshev check reads of the tuples a and b."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    return ReadTuples(av, bv, {"tuples": {"a": av.tolist(), "b": bv.tolist()}})


def discrete_chebyshev(
    a: Sequence[float], b: Sequence[float], *, tol_factor: float = 1.0, gate: bool = True
) -> InequalityReport:
    """mean(a*b) >= mean(a)*mean(b) for similarly ordered tuples.

    With ``gate`` false an unordered pair is evaluated anyway (for hypothesis-
    dropping searches) instead of raising.
    """
    return _run("discrete-chebyshev", tuples_inputs(a, b), tol_factor, gate_hypothesis=gate)


@_quiet
def _chebyshev(
    sides: Callable[..., tuple], inputs: ReadTuples, *, gate_hypothesis: bool = True
) -> Outcome:
    """discrete_chebyshev on read tuples, its sides as ``sides`` gives them."""
    ordered, witness, worst = similarly_ordered(inputs.a, inputs.b)
    if not ordered and gate_hypothesis:
        i, j = witness
        raise NotSimilarlyOrdered(
            f"pair (i={i}, j={j}) has (a_i-a_j)(b_i-b_j) = {fmt(worst)} < 0"
        )
    favored, other = sides(inputs.a, inputs.b)
    hypothesis = _evidence_doc("similarly-ordered", ordered=ordered, min_pair_product=worst)
    if witness is not None:
        hypothesis["witness"] = list(witness)
    return Outcome(GE, favored, other, hypothesis, True)


def _member_means(measures: Sequence[SpectralMeasure]) -> tuple[np.ndarray, np.ndarray]:
    """a_j = E_j[s] and b_j = E_j[1/s] of each member, along the last axis."""
    a = np.asarray([mu.expect(_IDENTITY) for mu in measures]).T
    b = np.asarray([mu.expect(_INVERSE) for mu in measures]).T
    return a, b


def _chain_sides(a: np.ndarray, b: np.ndarray, constants: Sequence[float]) -> tuple:
    """The three links' sides from the members' means and their interval constants:
    (mean(a)mean(b), 1), (mean(ab), mean(a)mean(b)) and (mean(K), mean(ab))."""
    mean_ab, product = _chebyshev_sides(a, b)
    return (product, 1.0), (mean_ab, product), (np.mean(constants), mean_ab)


def kantorovich_ensemble_chain(
    E: OperatorEnsemble,
    per_op_intervals: Optional[Sequence[tuple[float, float]]] = None,
    *,
    grid_n: int = DEFAULT_GRID_N,
    tol_factor: float = 1.0,
    gate: bool = True,
    link: Optional[int] = None,
) -> "tuple[InequalityReport, InequalityReport, InequalityReport] | InequalityReport":
    """Averaged chain 1 <= mean(a)mean(b) <= mean(ab) <= mean(K) with
    a_j = <A_j x_j, x_j>, b_j = <A_j^{-1} x_j, x_j>, K_j the per-operator constant.

    Needs unit states per vector: under sum-of-squares normalization the first
    link is simply false (n scaled copies of the identity already break it).
    The middle link additionally needs (a, b) similarly ordered and is reported
    ``hypothesis-not-met`` when they are not.  ``gate=False`` skips the
    normalization and containment preconditions so hypothesis-dropping
    searches can evaluate the raw sides.  Returns the three links' reports,
    or with ``link`` (0, 1 or 2) that one.
    """
    ids = ("ensemble-product-lower", "ensemble-chebyshev-link", "ensemble-kantorovich-upper")
    keys = dict(per_op_intervals=per_op_intervals, grid_n=grid_n, gate_hypothesis=gate)
    return _chain(ids, link, lambda: read_ensemble(E), tol_factor, **keys)


@_quiet
def _chain_links(
    sides: Callable[..., tuple],
    inputs: ReadInputs,
    per_op_intervals: Optional[Sequence[tuple[float, float]]] = None,
    *,
    gate_hypothesis: bool = True,
    link: int,
) -> Outcome:
    """kantorovich_ensemble_chain's link ``link`` on read inputs, its sides as
    ``sides`` gives them."""
    normalization = inputs.normalization
    if gate_hypothesis and normalization != PER_VECTOR:
        raise NormalizationViolation(
            "the averaged chain needs per_vector normalization; "
            "its first link is false under sum_of_squares"
        )
    measures = inputs.measures
    n = len(measures)
    if per_op_intervals is None:
        intervals = [inputs.interval] * n
    else:
        intervals = [SpectralInterval(*pair) for pair in per_op_intervals]
        if len(intervals) != n:
            raise ConfigInvalid(f"need {n} per-operator intervals, got {len(intervals)}")
    inputs.interval.require_positive()
    constants, diff_constants = zip(*(_kantorovich_constants(iv) for iv in intervals))
    if gate_hypothesis and per_op_intervals is not None:
        for k, (iv, mu) in enumerate(zip(intervals, measures)):
            if not iv.contains_spectrum(mu.atoms):
                ev = mu.atoms
                raise SpectrumOutOfInterval(
                    f"operator {k}: spectrum [{fmt(ev[0])}, {fmt(ev[-1])}] "
                    f"outside chain interval ({fmt(iv.lo)}, {fmt(iv.hi)})"
                )
    a, b = _member_means(measures)
    lower_sides, middle_sides, upper_sides = sides(a, b, constants)
    if link == 0:
        hypothesis = {"kind": "normalization", "mode": normalization, "required": PER_VECTOR}
        notes = (
            "sum form: (sum a)(sum b) = "
            + fmt(lower_sides[0] * n * n)
            + " vs n^2 = "
            + fmt(float(n * n)),
            "stated for sum-of-squares normalization, where it fails; "
            "checked under per-vector normalization",
        )
        return Outcome(GE, *lower_sides, hypothesis, True, notes)
    if link == 1:
        ordered, witness, worst = similarly_ordered(a, b)
        hypothesis = _evidence_doc("similarly-ordered", min_pair_product=worst, witness=witness)
        return Outcome(GE, *middle_sides, hypothesis, ordered or not gate_hypothesis)
    notes = (
        "per-operator constants (lo+hi)^2/(4 lo hi): " + ", ".join(fmt(c) for c in constants),
        "difference-form values (hi-lo)^2/(4 lo hi): "
        + ", ".join(fmt(c) for c in diff_constants)
        + " (source discrepancy; not used)",
    )
    return Outcome(GE, *upper_sides, None, True, notes)
