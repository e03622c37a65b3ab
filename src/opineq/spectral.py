"""Hermitian operators, states, and the eigendecomposition functional calculus.

An operator is stored by its eigendecomposition ``U diag(lam) U*``.  The
checkers read a pair ``(A, x)`` only through its spectral measure
``mu_x = sum_k |<u_k, x>|^2 delta_{lam_k}``, so ``<f(A)x, x> = w @ f(lam)``
is their single evaluation pathway.  The dense ``f(A) = U diag(f(lam)) U*``
(``apply_function``, ``expectation``, ``block_diagonal``) is kept as the
independent oracle the tests compare against.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    IntervalMismatch,
    NonPositiveSpectrum,
    NormalizationViolation,
    NotHermitian,
    NotUnitState,
    SpectrumOutOfInterval,
    all_finite,
    read_integer,
)
from .tolerances import (
    DEFAULT_GRID_N,
    GRID_N_RANGE,
    MAX_DIM,
    OPEN_INTERVAL_SHRINK,
    TOL_HERM,
    TOL_NORM,
    TOL_SPEC,
    TOL_UNITARY,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .functions import ScalarFunction

__all__ = [
    "SpectralInterval",
    "StateVector",
    "HermitianOperator",
    "from_dense",
    "apply_function",
    "expectation",
    "expectation_product",
    "block_diagonal",
    "eigenbasis_weights",
    "SpectralMeasure",
    "diagonal_measure",
]


def read_grid_n(value) -> int:
    """A grid size from GRID_N_RANGE as a Python int: an integer, numpy's too,
    never a float or a boolean."""
    if isinstance(value, np.integer):
        value = int(value)
    return read_integer(value, "grid_n", GRID_N_RANGE)


@dataclasses.dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lo, hi] declared to contain an operator's spectrum.

    Degenerate intervals (lo == hi) are allowed so scalar operators c*I can
    declare the exact point spectrum.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigInvalid(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ConfigInvalid(f"interval needs lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def contains_spectrum(self, lam: np.ndarray) -> bool:
        """Whether ascending eigenvalues ``lam`` lie in the interval up to TOL_SPEC."""
        return self.contains(float(lam[0]), TOL_SPEC) and self.contains(float(lam[-1]), TOL_SPEC)

    def require_positive(self) -> "SpectralInterval":
        """This interval, when 0 < lo, as inversion and the Kantorovich constant need."""
        if self.lo <= 0.0:
            raise NonPositiveSpectrum(f"inversion needs 0 < lo, interval is {self.as_pair()}")
        return self

    def grid(self, grid_n: int = DEFAULT_GRID_N) -> np.ndarray:
        """Uniform grid including both endpoints."""
        return np.linspace(self.lo, self.hi, read_grid_n(grid_n))

    def shrunk(self, frac: float = OPEN_INTERVAL_SHRINK) -> "SpectralInterval":
        """Endpoints pulled inward by frac*width; stands in for an open interval."""
        d = frac * self.width
        return SpectralInterval(self.lo + d, self.hi - d)

    def hull(self, other: "SpectralInterval") -> "SpectralInterval":
        return SpectralInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)


# The input rules, each written once: the spectrum rules HermitianOperator and
# diagonal_measure apply to eigenvalues or drawn atoms, and the mass rules on
# state norms, for one unit state, two unit states or an ensemble.


def _spectrum_array(values) -> np.ndarray:
    """Eigenvalues as a nonempty 1-d float64 array of at most MAX_DIM entries."""
    lam = np.array(values, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ConfigInvalid(f"eigenvalues must be a nonempty 1-d array, got shape {lam.shape}")
    if lam.size > MAX_DIM:
        raise ConfigInvalid(f"dimension {lam.size} exceeds the supported maximum {MAX_DIM}")
    return lam


def _sorting(lam: np.ndarray) -> Optional[np.ndarray]:
    """The stable permutation that sorts finite eigenvalues, or None when they
    ascend; at most MAX_DIM of them, compared as Python floats."""
    if not all_finite(lam):
        raise ConfigInvalid("eigenvalues must be finite")
    values = lam.tolist()
    if any(map(operator.lt, values[1:], values)):
        return np.argsort(lam, kind="stable")
    return None


def _contained(lam: np.ndarray, interval: "SpectralInterval") -> np.ndarray:
    """Ascending eigenvalues within ``interval`` up to TOL_SPEC, clipped into it,
    read-only; ``lam`` is a fresh array, as each rule above makes it."""
    lo, hi = interval.as_pair()
    first, last = float(lam[0]), float(lam[-1])
    if not (interval.contains(first, TOL_SPEC) and interval.contains(last, TOL_SPEC)):
        raise SpectrumOutOfInterval(
            f"spectrum [{first!r}, {last!r}] outside [{lo}, {hi}] by more than {TOL_SPEC}"
        )
    if first < lo or last > hi:
        lam = np.clip(lam, lo, hi)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=MAX_DIM)
def _standard_basis(d: int) -> np.ndarray:
    """The identity of dimension d as a read-only complex basis, shared by every
    operator on the standard basis."""
    vec = np.eye(d, dtype=np.complex128)
    vec.setflags(write=False)
    return vec


def _is_unit(norm: float) -> bool:
    return abs(norm - 1.0) <= TOL_NORM


def require_unit_norm(norm: float) -> None:
    """A state norm of 1 up to TOL_NORM, as every single-pair check needs."""
    if not _is_unit(norm):
        raise NotUnitState(f"state norm {norm!r} differs from 1 by more than {TOL_NORM}")


def _require_sum_of_squares(norms: Sequence[float]) -> None:
    """sum_j ||x_j||^2 = 1 up to TOL_NORM."""
    # numpy's square: a huge norm gives inf, where a Python float's ** raises
    total = float(sum(np.float64(norm) ** 2 for norm in norms))
    if abs(total - 1.0) > TOL_NORM:
        raise NormalizationViolation(f"sum of squared state norms is {total!r}, expected 1")


def _require_unit_members(norms: Sequence[float]) -> None:
    """||x_j|| = 1 up to TOL_NORM for every member."""
    for k, norm in enumerate(norms):
        if not _is_unit(norm):
            raise NormalizationViolation(f"state {k} has norm {norm!r}, expected 1")


def _shared_interval(intervals: Sequence["SpectralInterval"]) -> "SpectralInterval":
    """The one interval every operator declares."""
    interval = intervals[0]
    for other in intervals[1:]:
        if other != interval:
            raise IntervalMismatch(
                f"operators declare intervals {other.as_pair()} and {interval.as_pair()}"
            )
    return interval


@dataclasses.dataclass(frozen=True, eq=False)
class StateVector:
    """Vector in C^dim with its Euclidean norm cached at construction."""

    components: np.ndarray
    norm: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        comp = np.array(self.components, dtype=np.complex128)
        if comp.ndim != 1 or comp.size == 0:
            raise ConfigInvalid(f"state must be a nonempty 1-d vector, got shape {comp.shape}")
        if not all_finite(comp):
            raise ConfigInvalid("state components must be finite")
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)
        # np.linalg.norm's own formula for a complex vector, without its wrapper;
        # a huge state's norm is inf, which no check accepts
        re, im = comp.real, comp.imag
        with np.errstate(over="ignore"):
            sqnorm = float(re.dot(re)) + float(im.dot(im))
        object.__setattr__(self, "norm", math.sqrt(sqnorm))

    @property
    def dim(self) -> int:
        return self.components.size

    @property
    def is_unit(self) -> bool:
        return _is_unit(self.norm)

    def require_unit(self) -> "StateVector":
        require_unit_norm(self.norm)
        return self

    @staticmethod
    def unit(components: Sequence[complex]) -> "StateVector":
        """Construct from arbitrary components, normalized to unit norm.

        The components are first divided by their largest real or imaginary
        part, so the norm neither overflows nor underflows at extreme scales.
        """
        v = np.asarray(components, dtype=np.complex128)
        if not np.isfinite(v).all():
            raise ConfigInvalid("state components must be finite")
        scale = max(np.abs(v.real).max(initial=0.0), np.abs(v.imag).max(initial=0.0))
        if scale == 0.0:
            raise ConfigInvalid("cannot normalize the zero vector")
        v = v / scale
        return StateVector(v / np.linalg.norm(v))


@dataclasses.dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian operator held as eigenvalues (ascending) and a unitary eigenbasis.

    Eigenvalues are clamped into the declared interval when they stray by at
    most TOL_SPEC; anything further out is rejected.  ``eigenvectors=None``
    stands for the standard basis, as ``diagonal`` passes it; ``standard_basis``
    says that the basis is the standard basis itself, not a permutation of it:
    the diagonal already ascended.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    interval: SpectralInterval
    standard_basis: bool = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        lam = _spectrum_array(self.eigenvalues)
        d = lam.size
        standard = self.eigenvectors is None
        if standard:
            vec = _standard_basis(d)
        else:
            # C order whatever the source, so products with the basis take one BLAS path
            vec = np.array(self.eigenvectors, dtype=np.complex128, order="C")
        if vec.shape != (d, d):
            raise DimensionMismatch(f"eigenvector matrix shape {vec.shape} does not match dimension {d}")
        order = _sorting(lam)
        if order is not None:
            lam = lam[order]
            vec = np.ascontiguousarray(vec[:, order])
        if not standard:  # a permutation of the standard basis is exactly unitary
            residue = float(np.max(np.abs(vec.conj().T @ vec - np.eye(d))))
            if not residue <= TOL_UNITARY:  # NaN entries fail too
                raise ConfigInvalid(
                    f"eigenvector matrix is not unitary: max |U*U - I| = {residue:.3e}"
                )
        vec.setflags(write=False)
        object.__setattr__(self, "eigenvalues", _contained(lam, self.interval))
        object.__setattr__(self, "eigenvectors", vec)
        object.__setattr__(self, "standard_basis", standard and order is None)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense U diag(lam) U* reconstruction."""
        u = self.eigenvectors
        m = (u * self.eigenvalues) @ u.conj().T
        m.setflags(write=False)
        return m

    @staticmethod
    def diagonal(values: Sequence[float], interval: SpectralInterval) -> "HermitianOperator":
        """Diagonal operator with the given (not necessarily sorted) diagonal; its
        basis is the permutation of the standard basis that sorts it."""
        return HermitianOperator(values, None, interval)


def from_dense(matrix: Sequence[Sequence[complex]], interval: SpectralInterval) -> HermitianOperator:
    """Eigendecompose a dense Hermitian matrix against a declared spectral interval."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ConfigInvalid(f"expected a nonempty square matrix, got shape {m.shape}")
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if not deviation <= TOL_HERM:  # NaN entries fail too
        raise NotHermitian(f"max |M - M*| = {deviation:.3e} exceeds {TOL_HERM}")
    lam, vec = np.linalg.eigh(0.5 * (m + m.conj().T))
    return HermitianOperator(lam, vec, interval)


def apply_function(A: HermitianOperator, f: "ScalarFunction") -> np.ndarray:
    """f(A) = U diag(f(lam)) U* as a dense matrix."""
    vals = np.asarray(f.evaluate(A.eigenvalues), dtype=np.float64)
    u = A.eigenvectors
    return (u * vals) @ u.conj().T


def _quadratic_form(A: HermitianOperator, vals: np.ndarray, x: StateVector) -> float:
    """x* (U diag(vals) U*) x, asserted real to TOL_HERM."""
    if x.dim != A.dim:
        raise DimensionMismatch(f"state dim {x.dim} vs operator dim {A.dim}")
    u = A.eigenvectors
    b = (u * vals) @ u.conj().T
    val = complex(np.vdot(x.components, b @ x.components))
    if abs(val.imag) > TOL_HERM:
        raise NotHermitian(f"quadratic form has imaginary residue {val.imag:.3e}")
    return float(val.real)


def expectation(A: HermitianOperator, f: "ScalarFunction", x: StateVector) -> float:
    """<f(A)x, x> as a real number.  x need not be normalized."""
    return _quadratic_form(A, np.asarray(f.evaluate(A.eigenvalues), dtype=np.float64), x)


def expectation_product(
    A: HermitianOperator, f: "ScalarFunction", g: "ScalarFunction", x: StateVector
) -> float:
    """<f(A)g(A)x, x>, evaluated through the spectral mapping as (f*g)(A)."""
    lam = A.eigenvalues
    vals = np.asarray(f.evaluate(lam), dtype=np.float64) * np.asarray(g.evaluate(lam), dtype=np.float64)
    return _quadratic_form(A, vals, x)


def eigenbasis_weights(A: HermitianOperator, x: StateVector) -> np.ndarray:
    """|<u_k, x>|^2 for each eigenvector column u_k."""
    if x.dim != A.dim:
        raise DimensionMismatch(f"state dim {x.dim} vs operator dim {A.dim}")
    # the identity's product gives x's components, up to the sign of a zero
    y = x.components if A.standard_basis else A.eigenvectors.conj().T @ x.components
    with np.errstate(over="ignore"):  # a huge state's weights are inf, as its norm is
        return (y.conj() * y).real


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Point masses ``weights[..., k]`` at ``atoms[..., k]``: all a check reads of (A, x).

    For a unit state the weights sum to 1; an ensemble's measure is its
    members' measures concatenated, so sums over members are one ``expect``.
    Leading axes, when present, index a batch of measures with equally many
    atoms, and ``expect`` and ``sum`` then return one value per measure.
    """

    atoms: np.ndarray
    weights: np.ndarray

    @staticmethod
    def of(A: HermitianOperator, x: StateVector) -> "SpectralMeasure":
        """mu_x of A: its eigenvalues weighted by |<u_k, x>|^2.

        The weights are made C-contiguous, as a drawn measure's are: numpy's dot
        of a strided and of a contiguous vector may round differently.
        """
        return SpectralMeasure(A.eigenvalues, np.ascontiguousarray(eigenbasis_weights(A, x)))

    @staticmethod
    def concat(measures: Sequence["SpectralMeasure"]) -> "SpectralMeasure":
        return SpectralMeasure(
            np.concatenate([m.atoms for m in measures], axis=-1),
            np.concatenate([m.weights for m in measures], axis=-1),
        )

    def sum(self, vals) -> "float | np.ndarray":
        """sum_k w_k vals[..., k]: a float for one measure; for a batch, one value
        per measure, under any further leading axes of ``vals``."""
        if self.weights.ndim == 1:
            return float(self.weights @ vals)
        return (self.weights * vals).sum(axis=-1)

    def expect(self, *fns: "ScalarFunction") -> "float | np.ndarray":
        """sum_k w_k prod_i fn_i(lam_k), i.e. <fn_1(A)...fn_m(A)x, x>; an array for a batch."""
        vals = np.ones_like(self.weights)
        for fn in fns:  # 1.0 * v is v, -0.0 included
            vals = vals * fn.evaluate(self.atoms)
        return self.sum(vals)


def diagonal_measure(
    atoms: Sequence[float], components: np.ndarray, interval: SpectralInterval
) -> tuple[SpectralMeasure, np.ndarray]:
    """mu_x of (diag(atoms), x) for the real state ``components``, with neither
    built: the atoms held to HermitianOperator's spectrum rules and sorted with
    the components, the weights ``c * c``.  Returns the measure and the
    components in the order of its atoms."""
    lam = _spectrum_array(atoms)
    c = np.asarray(components, dtype=np.float64)
    if c.shape != lam.shape:
        raise DimensionMismatch(f"state shape {c.shape} vs operator dim {lam.size}")
    order = _sorting(lam)
    if order is not None:
        lam, c = lam[order], c[order]
    return SpectralMeasure(_contained(lam, interval), c * c), c


def _check_pairs(
    ops: Sequence[HermitianOperator], states: Sequence[StateVector], sum_of_squares: bool
) -> None:
    """At least one (A_j, x_j) pair, one shared interval, matching dimensions and,
    with ``sum_of_squares``, sum_j ||x_j||^2 = 1."""
    if len(ops) == 0 or len(ops) != len(states):
        raise ConfigInvalid("need equally many operators and states, at least one pair")
    _shared_interval([op.interval for op in ops])
    for k, (op, st) in enumerate(zip(ops, states)):
        if op.dim != st.dim:
            raise DimensionMismatch(f"pair {k}: operator dim {op.dim} vs state dim {st.dim}")
    if sum_of_squares:
        _require_sum_of_squares([st.norm for st in states])


def block_diagonal(
    ops: Sequence[HermitianOperator], states: Sequence[StateVector]
) -> tuple[HermitianOperator, StateVector]:
    """Stack (A_j, x_j) pairs into one operator on the direct sum.

    Requires a shared spectral interval and sum_j ||x_j||^2 = 1, so the stacked
    state is a unit vector and quadratic forms add up block by block.
    """
    _check_pairs(ops, states, sum_of_squares=True)
    interval = ops[0].interval
    dims = [op.dim for op in ops]
    n = int(sum(dims))
    if n > MAX_DIM:
        raise ConfigInvalid(f"stacked dimension {n} exceeds the supported maximum {MAX_DIM}")
    lam = np.concatenate([op.eigenvalues for op in ops])
    vec = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for op, d in zip(ops, dims):
        vec[pos : pos + d, pos : pos + d] = op.eigenvectors
        pos += d
    comp = np.concatenate([st.components for st in states])
    return HermitianOperator(lam, vec, interval), StateVector(comp)
