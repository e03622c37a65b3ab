"""Exception taxonomy shared across the package, and the typed readers that
raise ``ConfigInvalid`` for a malformed document field."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .tolerances import MAX_DIM

__all__ = [
    "OpineqError",
    "NotHermitian",
    "SpectrumOutOfInterval",
    "DomainViolation",
    "DimensionMismatch",
    "IntervalMismatch",
    "NormalizationViolation",
    "NotUnitState",
    "NonPositiveSpectrum",
    "NotSimilarlyOrdered",
    "ArgumentOrder",
    "UnknownTheorem",
    "ConfigInvalid",
]


class OpineqError(Exception):
    """Base class for every package-specific error."""


class NotHermitian(OpineqError):
    """Matrix deviates from Hermitian symmetry beyond tolerance."""


class SpectrumOutOfInterval(OpineqError):
    """An eigenvalue lies outside the declared spectral interval by more than the slack."""


class DomainViolation(OpineqError):
    """A scalar function was evaluated outside its domain."""


class DimensionMismatch(OpineqError):
    """Operator and state dimensions disagree."""


class IntervalMismatch(OpineqError):
    """Operators expected to share a spectral interval do not."""


class NormalizationViolation(OpineqError):
    """A state collection does not satisfy the required normalization."""


class NotUnitState(OpineqError):
    """A unit-norm state was required."""


class NonPositiveSpectrum(OpineqError):
    """The operation needs a strictly positive spectral interval."""


class NotSimilarlyOrdered(OpineqError):
    """Tuples fail the similarly-ordered hypothesis; the message carries a witness pair."""


class ArgumentOrder(OpineqError):
    """Ordered arguments were passed in the wrong order."""


class UnknownTheorem(OpineqError):
    """No inequality is registered under the requested id."""


class ConfigInvalid(OpineqError):
    """A configuration value or input document is malformed."""


def read_number(value, what: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigInvalid(f"{what} must be finite, got {value!r}")
    return number


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float or complex array ``a`` is finite.

    An array of at most MAX_DIM entries is checked in one pass over its
    entries as Python numbers, which costs less than a numpy call: their sum
    is inf or NaN when an entry is, and finite otherwise unless it overflows,
    which numpy's reduction then decides.  A larger array takes that
    reduction alone.
    """
    if a.size <= MAX_DIM and cmath.isfinite(sum((a if a.ndim == 1 else a.ravel()).tolist())):
        return True
    return bool(np.isfinite(a).all())


_NUMBERS = {float, int}


def read_numbers(values: list, what: str) -> np.ndarray:
    """Finite JSON numbers (not booleans) as a float64 array, read in one pass.

    A list that holds anything but ``float`` and ``int`` items, an integer too
    large for a double, or a non-finite number is read again item by item
    with ``read_number``, so the error names the first bad entry.
    """
    if set(map(type, values)) <= _NUMBERS:
        try:
            row = np.array(values, dtype=np.float64)
        except OverflowError:
            pass
        else:
            if all_finite(row):
                return row
    return np.array([read_number(v, what) for v in values], dtype=np.float64)


def read_integer(value, what: str, bounds: tuple[int, int] | None = None) -> int:
    """A JSON integer (not a boolean), within the closed ``bounds`` when given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        lo, hi = bounds
        raise ConfigInvalid(f"{what} must be an integer from {lo} to {hi}, got {value!r}")
    return value


def read_list(value, what: str, length: int | None = None) -> list:
    """A JSON list, of exactly ``length`` items when given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length}"
        raise ConfigInvalid(f"{what} must be {shape}, got {value!r}")
    return list(value)


def read_object(value, what: str, fields: tuple[str, ...]) -> dict:
    """A JSON object holding no field but ``fields``; the first other one is named."""
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{what} must be an object, got {value!r}")
    for key in value:
        if key not in fields:
            raise ConfigInvalid(f"{what} takes only the fields {sorted(fields)}, got {key!r}")
    return value
