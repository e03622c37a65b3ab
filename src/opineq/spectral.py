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
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    IntervalMismatch,
    NormalizationViolation,
    NotHermitian,
    NotUnitState,
    SpectrumOutOfInterval,
)
from .tolerances import (
    DEFAULT_GRID_N,
    MAX_DIM,
    MAX_GRID_N,
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
]


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
        if not (np.isfinite(lo) and np.isfinite(hi)):
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

    def grid(self, grid_n: int = DEFAULT_GRID_N) -> np.ndarray:
        """Uniform grid including both endpoints."""
        n = int(grid_n)
        if not 2 <= n <= MAX_GRID_N:
            raise ConfigInvalid(f"grid needs 2 to {MAX_GRID_N} points, got {grid_n}")
        return np.linspace(self.lo, self.hi, n)

    def shrunk(self, frac: float = OPEN_INTERVAL_SHRINK) -> "SpectralInterval":
        """Endpoints pulled inward by frac*width; stands in for an open interval."""
        d = frac * self.width
        return SpectralInterval(self.lo + d, self.hi - d)

    def hull(self, other: "SpectralInterval") -> "SpectralInterval":
        return SpectralInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)


@dataclasses.dataclass(frozen=True, eq=False)
class StateVector:
    """Vector in C^dim with its Euclidean norm cached at construction."""

    components: np.ndarray
    norm: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        comp = np.array(self.components, dtype=np.complex128)
        if comp.ndim != 1 or comp.size == 0:
            raise ConfigInvalid(f"state must be a nonempty 1-d vector, got shape {comp.shape}")
        if not np.all(np.isfinite(comp.real)) or not np.all(np.isfinite(comp.imag)):
            raise ConfigInvalid("state components must be finite")
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)
        with np.errstate(over="ignore"):  # a huge state's norm is inf, which no check accepts
            object.__setattr__(self, "norm", float(np.linalg.norm(comp)))

    @property
    def dim(self) -> int:
        return self.components.size

    def require_unit(self, tol: float = TOL_NORM) -> "StateVector":
        if abs(self.norm - 1.0) > tol:
            raise NotUnitState(f"state norm {self.norm!r} differs from 1 by more than {tol}")
        return self

    @staticmethod
    def unit(components: Sequence[complex]) -> "StateVector":
        """Construct from arbitrary components, normalized to unit norm."""
        v = np.asarray(components, dtype=np.complex128)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ConfigInvalid("cannot normalize the zero vector")
        return StateVector(v / n)


@dataclasses.dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian operator held as eigenvalues (ascending) and a unitary eigenbasis.

    Eigenvalues are clamped into the declared interval when they stray by at
    most TOL_SPEC; anything further out is rejected.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    interval: SpectralInterval

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=np.float64)
        # C order whatever the source, so products with the basis take one BLAS path
        vec = np.array(self.eigenvectors, dtype=np.complex128, order="C")
        if lam.ndim != 1 or lam.size == 0:
            raise ConfigInvalid(f"eigenvalues must be a nonempty 1-d array, got shape {lam.shape}")
        d = lam.size
        if d > MAX_DIM:
            raise ConfigInvalid(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
        if vec.shape != (d, d):
            raise DimensionMismatch(f"eigenvector matrix shape {vec.shape} does not match dimension {d}")
        if not np.all(np.isfinite(lam)):
            raise ConfigInvalid("eigenvalues must be finite")
        if np.any(np.diff(lam) < 0.0):
            order = np.argsort(lam, kind="stable")
            lam = lam[order]
            vec = np.ascontiguousarray(vec[:, order])
        residue = float(np.max(np.abs(vec.conj().T @ vec - np.eye(d))))
        if not residue <= TOL_UNITARY:  # NaN entries fail too
            raise ConfigInvalid(f"eigenvector matrix is not unitary: max |U*U - I| = {residue:.3e}")
        lo, hi = self.interval.lo, self.interval.hi
        beyond = (lam < lo - TOL_SPEC) | (lam > hi + TOL_SPEC)
        if np.any(beyond):
            bad = float(lam[beyond][0])
            raise SpectrumOutOfInterval(
                f"eigenvalue {bad!r} outside [{lo}, {hi}] by more than {TOL_SPEC}"
            )
        lam = np.clip(lam, lo, hi)
        lam.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

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
        """Diagonal operator with the given (not necessarily sorted) diagonal."""
        lam = np.asarray(values, dtype=np.float64)
        return HermitianOperator(lam, np.eye(lam.size, dtype=np.complex128), interval)


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
    y = A.eigenvectors.conj().T @ x.components
    return (y.conj() * y).real


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Point masses ``weights[..., k]`` at ``atoms[..., k]``: all a check reads of (A, x).

    For a unit state the weights sum to 1; an ensemble's measure is its
    members' measures concatenated, so sums over members are one ``expect``.
    Leading axes, when present, index a batch of measures with equally many
    atoms, and ``expect`` then returns one value per measure.
    """

    atoms: np.ndarray
    weights: np.ndarray

    @staticmethod
    def of(A: HermitianOperator, x: StateVector) -> "SpectralMeasure":
        """mu_x of A: its eigenvalues weighted by |<u_k, x>|^2."""
        return SpectralMeasure(A.eigenvalues, eigenbasis_weights(A, x))

    @staticmethod
    def concat(measures: Sequence["SpectralMeasure"]) -> "SpectralMeasure":
        return SpectralMeasure(
            np.concatenate([m.atoms for m in measures], axis=-1),
            np.concatenate([m.weights for m in measures], axis=-1),
        )

    def expect(self, *fns: "ScalarFunction") -> "float | np.ndarray":
        """sum_k w_k prod_i fn_i(lam_k), i.e. <fn_1(A)...fn_m(A)x, x>; an array for a batch."""
        vals = np.ones_like(self.weights)
        for fn in fns:
            vals = vals * np.asarray(fn.evaluate(self.atoms), dtype=np.float64)
        if self.weights.ndim == 1:
            return float(self.weights @ vals)
        return (self.weights * vals).sum(axis=-1)


def _check_pairs(
    ops: Sequence[HermitianOperator], states: Sequence[StateVector], sum_of_squares: bool
) -> None:
    """At least one (A_j, x_j) pair, one shared interval, matching dimensions and,
    with ``sum_of_squares``, sum_j ||x_j||^2 = 1."""
    if len(ops) == 0 or len(ops) != len(states):
        raise ConfigInvalid("need equally many operators and states, at least one pair")
    interval = ops[0].interval
    for op in ops[1:]:
        if op.interval != interval:
            raise IntervalMismatch(
                f"operators declare intervals {op.interval.as_pair()} and {interval.as_pair()}"
            )
    for k, (op, st) in enumerate(zip(ops, states)):
        if op.dim != st.dim:
            raise DimensionMismatch(f"pair {k}: operator dim {op.dim} vs state dim {st.dim}")
    # numpy's square: a huge norm gives inf, where a Python float's ** raises
    total = float(sum(np.float64(st.norm) ** 2 for st in states))
    if sum_of_squares and abs(total - 1.0) > TOL_NORM:
        raise NormalizationViolation(f"sum of squared state norms is {total!r}, expected 1")


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
