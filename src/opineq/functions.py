"""Scalar function catalog and the two-point synchrony / relative-monotonicity predicates.

Functions are immutable descriptors with vectorized, domain-checked
evaluation.  Classification runs over all ordered pairs of a uniform grid:
a verdict is evidence "on this grid", not a proof over the continuum.
Synchrony verdicts are memoized on the descriptors, the interval and the grid.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from functools import cached_property
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import ArgumentOrder, ConfigInvalid, DomainViolation, all_finite, quiet, read_list
from .errors import read_number, read_object
from .spectral import SpectralInterval, read_grid_n
from .tolerances import CERTIFY_MEMO_SIZE, DEFAULT_GRID_N, MAX_DIM, MAX_LITERAL_DEPTH
from .tolerances import MAX_R_VALUES, TOL_KNOT, tol_sync

__all__ = [
    "ScalarFunction",
    "SynchronyVerdict",
    "MonotonicityVerdict",
    "SYNCHRONOUS",
    "ASYNCHRONOUS",
    "MIXED",
    "H_INCREASING",
    "H_DECREASING",
    "GE",
    "LE",
    "constant",
    "identity",
    "power",
    "log_fn",
    "exp_fn",
    "affine",
    "neg_parabola",
    "tabulated",
    "pointwise_product",
    "linear_combination",
    "function_from_descriptor",
    "sync_product",
    "mono_defect",
    "classify_synchrony",
    "classify_monotonicity",
    "scan_tr_regions",
]

SYNCHRONOUS = "synchronous"
ASYNCHRONOUS = "asynchronous"
MIXED = "mixed"
H_INCREASING = "h-increasing"
H_DECREASING = "h-decreasing"

GE = ">="
LE = "<="

# Grid sizes whose index pairs are kept: the grids in use plus a few short tuples.
_PAIR_INDEX_CACHE_SIZE = 8


@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """One catalog function: a kind tag plus kind-specific parameters.

    ``domain`` optionally restricts evaluation beyond the kind's natural
    domain (used by tabulated data and scenario files).
    """

    kind: str
    params: tuple = ()
    label: str = dataclasses.field(default="", compare=False)
    domain: Optional[SpectralInterval] = None

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        scalar = pts.ndim == 0
        if scalar:
            pts = pts.reshape(1)
        if not all_finite(pts):
            raise DomainViolation(f"{self._name()} evaluated at non-finite points")
        self.check_domain(pts)
        out = self._eval(pts)
        if not all_finite(out):
            raise DomainViolation(f"{self._name()} produced non-finite values")
        return out[0] if scalar else out

    __call__ = evaluate

    def at(self, point: float) -> float:
        """Scalar evaluation with the same domain checks."""
        return float(self.evaluate(np.asarray([float(point)]))[0])

    def check_domain(self, pts: np.ndarray, span: Optional["_Span"] = None) -> None:
        """Raise DomainViolation unless every finite point in ``pts`` lies in the
        function's domain.  Each rule compares the points' least or greatest
        value, ``span``, made here when a rule first needs it; only a span
        that crosses the rule's boundary looks for the bad point itself."""
        if not self._restricted:
            return
        if span is None:
            span = _Span(pts)
        kind = self.kind
        if self.domain is not None and (span.lo < self.domain.lo or span.hi > self.domain.hi):
            raise DomainViolation(
                f"{self._name()} evaluated outside its declared domain "
                f"[{self.domain.lo}, {self.domain.hi}]"
            )
        if kind == "power":
            p = self.params[0]
            if p < 0.0 and span.lo <= 0.0 <= span.hi and (pts == 0.0).any():
                raise DomainViolation(f"{self._name()} is undefined at 0")
            if not float(p).is_integer() and span.lo < 0.0:
                bad = float(pts[pts < 0.0][0])
                raise DomainViolation(f"{self._name()} is undefined at negative point {bad!r}")
        elif kind == "log":
            if span.lo <= 0.0:
                bad = float(pts[pts <= 0.0][0])
                raise DomainViolation(f"log is undefined at point {bad!r} <= 0")
        elif kind == "tabulated":
            knots = self.params[0]
            slack = TOL_KNOT * (1.0 + max(abs(knots[0]), abs(knots[-1])))
            if span.lo < knots[0] - slack or span.hi > knots[-1] + slack:
                raise DomainViolation(
                    f"tabulated function evaluated outside its knot range "
                    f"[{knots[0]}, {knots[-1]}]"
                )
        for child in self._children():
            child.check_domain(pts, span)

    def _children(self) -> tuple:
        """A product's factors or a sum's terms' functions."""
        if self.kind == "product":
            return self.params
        if self.kind == "sum":
            return tuple(child for _, child in self.params[0])
        return ()

    @cached_property
    def _restricted(self) -> bool:
        """Whether a domain rule applies: a declared domain, a kind defined on
        less than the real line, or such a factor or term."""
        kind = self.kind
        if self.domain is not None or kind == "log" or kind == "tabulated":
            return True
        if kind == "power":
            p = self.params[0]
            return p < 0.0 or not float(p).is_integer()
        return any(child._restricted for child in self._children())

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind == "constant":
            return np.full(pts.shape, self.params[0])
        if kind == "identity":
            return pts + 0.0
        if kind == "power":
            return pts ** self.params[0]
        if kind == "log":
            return np.log(pts)
        if kind == "exp":
            return np.exp(pts)
        if kind == "affine":
            a, b = self.params
            return a * pts + b
        if kind == "neg_parabola":
            return pts * (1.0 - pts)
        if kind == "tabulated":
            knots, values = self.params
            return np.interp(pts, knots, values)
        if kind == "product":
            f, g = self.params
            return f._eval(pts) * g._eval(pts)
        if kind == "sum":
            out = np.zeros(pts.shape)
            for coef, child in self.params[0]:
                out = out + coef * child._eval(pts)
            return out
        raise ConfigInvalid(f"unknown function kind {self.kind!r}")

    def _name(self) -> str:
        return self.label or self.kind

    def descriptor(self) -> dict:
        """JSON-able literal; inverse of function_from_descriptor."""
        kind = self.kind
        doc: dict = {"kind": kind}
        if kind == "constant":
            doc["c"] = self.params[0]
        elif kind == "power":
            doc["p"] = self.params[0]
        elif kind == "affine":
            doc["a"], doc["b"] = self.params
        elif kind == "tabulated":
            doc["knots"] = list(self.params[0])
            doc["values"] = list(self.params[1])
        elif kind == "product":
            doc["factors"] = [child.descriptor() for child in self.params]
        elif kind == "sum":
            doc["terms"] = [{"coef": c, "fn": child.descriptor()} for c, child in self.params[0]]
        if self.domain is not None:
            doc["domain"] = [self.domain.lo, self.domain.hi]
        return doc


class _Span:
    """The least and the greatest of the finite points ``pts`` as Python floats:
    at most MAX_DIM points compared in Python at once, more by one numpy
    reduction for each bound a rule reads.  No points span (inf, -inf), which
    crosses no boundary."""

    __slots__ = ("_pts", "_lo", "_hi")

    def __init__(self, pts: np.ndarray) -> None:
        self._pts = pts
        self._lo = self._hi = None
        if pts.size <= MAX_DIM:
            values = (pts if pts.ndim == 1 else pts.ravel()).tolist()
            self._lo = min(values, default=math.inf)
            self._hi = max(values, default=-math.inf)

    @property
    def lo(self) -> float:
        if self._lo is None:
            self._lo = float(self._pts.min())
        return self._lo

    @property
    def hi(self) -> float:
        if self._hi is None:
            self._hi = float(self._pts.max())
        return self._hi


def constant(c: float) -> ScalarFunction:
    return ScalarFunction("constant", (float(c),), label=f"{float(c):g}")


def identity() -> ScalarFunction:
    return ScalarFunction("identity", (), label="s")


def power(p: float) -> ScalarFunction:
    return ScalarFunction("power", (float(p),), label=f"s^{float(p):g}")


def log_fn() -> ScalarFunction:
    return ScalarFunction("log", (), label="log(s)")


def exp_fn() -> ScalarFunction:
    return ScalarFunction("exp", (), label="exp(s)")


def affine(a: float, b: float) -> ScalarFunction:
    return ScalarFunction("affine", (float(a), float(b)), label=f"{float(a):g}*s{float(b):+g}")


def neg_parabola() -> ScalarFunction:
    return ScalarFunction("neg_parabola", (), label="s*(1-s)")


def tabulated(
    knots: Sequence[float], values: Sequence[float], domain: Optional[SpectralInterval] = None
) -> ScalarFunction:
    kn = tuple(float(k) for k in knots)
    va = tuple(float(v) for v in values)
    if len(kn) != len(va):
        raise ConfigInvalid(f"{len(kn)} knots vs {len(va)} values")
    if len(kn) < 2:
        raise ConfigInvalid("tabulated function needs at least 2 knots")
    if any(b <= a for a, b in zip(kn, kn[1:])):
        raise ConfigInvalid("tabulated knots must be strictly increasing")
    if domain is not None and (domain.lo < kn[0] or domain.hi > kn[-1]):
        raise ConfigInvalid("tabulated knots must span the declared domain")
    return ScalarFunction("tabulated", (kn, va), label="tabulated", domain=domain)


def pointwise_product(f: ScalarFunction, g: ScalarFunction) -> ScalarFunction:
    return ScalarFunction("product", (f, g), label=f"({f._name()})*({g._name()})")


def linear_combination(*terms: tuple[float, ScalarFunction]) -> ScalarFunction:
    tt = tuple((float(c), fn) for c, fn in terms)
    if not tt:
        raise ConfigInvalid("linear combination needs at least one term")
    label = " + ".join(f"{c:g}*({fn._name()})" for c, fn in tt)
    return ScalarFunction("sum", (tt,), label=label)


# Function kind -> the fields its literal takes beside "kind" and "domain".
_LITERAL_FIELDS = {
    "constant": ("c",),
    "identity": (),
    "power": ("p",),
    "log": (),
    "exp": (),
    "affine": ("a", "b"),
    "neg_parabola": (),
    "tabulated": ("knots", "values"),
    "product": ("factors",),
    "sum": ("terms",),
}


def function_from_descriptor(doc: dict) -> ScalarFunction:
    """Parse a function literal such as {"kind": "power", "p": 2.0}; product
    and sum literals nest at most ``MAX_LITERAL_DEPTH`` deep."""
    return _read_literal(doc, 0)


def _read_literal(doc, depth: int) -> ScalarFunction:
    """A function literal inside ``depth`` product and sum literals."""
    if depth > MAX_LITERAL_DEPTH:
        raise ConfigInvalid(
            f"product and sum literals nest at most {MAX_LITERAL_DEPTH} deep (MAX_LITERAL_DEPTH)"
        )
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigInvalid(f"function literal must be an object with a 'kind', got {doc!r}")
    kind = doc["kind"]
    fields = _LITERAL_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigInvalid(f"unknown function kind {kind!r}")
    read_object(doc, f"{kind} function literal", ("kind", "domain", *fields))

    def number(key: str) -> float:
        return read_number(doc[key], f"{kind} field {key!r}")

    def numbers(key: str, length: Optional[int] = None) -> list[float]:
        entries = read_list(doc[key], f"{kind} field {key!r}", length)
        return [read_number(v, f"entry of {kind} field {key!r}") for v in entries]

    domain = SpectralInterval(*numbers("domain", 2)) if "domain" in doc else None
    try:
        if kind == "constant":
            fn = constant(number("c"))
        elif kind == "identity":
            fn = identity()
        elif kind == "power":
            fn = power(number("p"))
        elif kind == "log":
            fn = log_fn()
        elif kind == "exp":
            fn = exp_fn()
        elif kind == "affine":
            fn = affine(number("a"), number("b"))
        elif kind == "neg_parabola":
            fn = neg_parabola()
        elif kind == "tabulated":
            return tabulated(numbers("knots"), numbers("values"), domain=domain)
        elif kind == "product":
            factors = read_list(doc["factors"], "product field 'factors'", 2)
            fn = pointwise_product(*(_read_literal(f, depth + 1) for f in factors))
        else:  # sum
            terms = read_list(doc["terms"], "sum field 'terms'")
            terms = [read_object(term, "sum term", ("coef", "fn")) for term in terms]
            coefs = [read_number(t["coef"], "sum term 'coef'") for t in terms]
            fn = linear_combination(*zip(coefs, (_read_literal(t["fn"], depth + 1) for t in terms)))
    except KeyError as exc:
        raise ConfigInvalid(f"function literal {doc!r} is missing field {exc}") from None
    if domain is not None:
        fn = dataclasses.replace(fn, domain=domain)
    return fn


def _evidence_doc(kind: str, **fields) -> dict:
    """A hypothesis-evidence document: tuples become lists and an overflowed
    extreme becomes null, as a canonical document holds finite numbers only."""
    doc: dict = {"kind": kind}
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, float) and not math.isfinite(value):
            value = None
        doc[key] = value
    return doc


@dataclasses.dataclass(frozen=True)
class SynchronyVerdict:
    """Grid evidence for the pairwise sign of sync_product over an interval."""

    kind: ClassVar[str] = "synchrony"
    signs: ClassVar[tuple[str, str]] = (SYNCHRONOUS, ASYNCHRONOUS)

    classification: str
    min_product: float
    max_product: float
    witness_pos: Optional[tuple[float, float]]
    witness_neg: Optional[tuple[float, float]]
    grid_size: int
    tol: float

    def supports(self, direction: str) -> bool:
        """Whether the evidence backs the >= (synchrony) or <= (asynchrony) conclusion."""
        if direction == GE:
            return self.min_product >= -self.tol
        if direction == LE:
            return self.max_product <= self.tol
        raise ConfigInvalid(f"direction must be '>=' or '<=', got {direction!r}")

    def implied_direction(self) -> Optional[str]:
        if self.classification == SYNCHRONOUS:
            return GE
        if self.classification == ASYNCHRONOUS:
            return LE
        return None

    def summary(self) -> dict:
        return _evidence_doc(self.kind, **vars(self))


@dataclasses.dataclass(frozen=True)
class MonotonicityVerdict:
    """Grid evidence for the sign of mono_defect over ordered pairs of an interval."""

    kind: ClassVar[str] = "monotonicity"
    signs: ClassVar[tuple[str, str]] = (H_INCREASING, H_DECREASING)

    classification: str
    min_defect: float
    max_defect: float
    witness_pos: Optional[tuple[float, float]]
    witness_neg: Optional[tuple[float, float]]
    grid_size: int
    tol: float

    summary = SynchronyVerdict.summary


def _defect(fv, hv, i, j):
    """h(x_i)f(x_j) - h(x_j)f(x_i), the relative-monotonicity defect of f/h at the
    index pairs (i, j), from the values fv of f and hv of h at the points x."""
    return hv[i] * fv[j] - hv[j] * fv[i]


@quiet
def sync_product(
    f: ScalarFunction, g: ScalarFunction, h: ScalarFunction, x: float, y: float
) -> float:
    """(h(y)f(x) - h(x)f(y)) * (h(y)g(x) - h(x)g(y)): the defects of f/h and g/h at (y, x)."""
    pts = np.asarray([float(x), float(y)])
    fv, gv, hv = f.evaluate(pts), g.evaluate(pts), h.evaluate(pts)
    return float(_defect(fv, hv, 1, 0) * _defect(gv, hv, 1, 0))


@quiet
def mono_defect(f: ScalarFunction, h: ScalarFunction, x: float, t: float) -> float:
    """h(x)f(t) - h(t)f(x) for x <= t; nonnegative across pairs means f/h grows."""
    if x > t:
        raise ArgumentOrder(f"expected x <= t, got x={x!r} > t={t!r}")
    pts = np.asarray([float(x), float(t)])
    return float(_defect(f.evaluate(pts), h.evaluate(pts), 0, 1))


@functools.lru_cache(maxsize=_PAIR_INDEX_CACHE_SIZE)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n points, as np.triu_indices gives them, read-only."""
    i, j = np.triu_indices(n, k=1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """_pair_indices, kept only for up to DEFAULT_GRID_N points: the pairs of
    MAX_GRID_N points take about 8 MB."""
    if n <= DEFAULT_GRID_N:
        return _pair_indices(n)
    return _pair_indices.__wrapped__(n)


def _certify(verdict: type, pts: np.ndarray, pair_values: Callable):
    """The one pair-sign certificate: ``pair_values(row, j)`` over the index
    pairs i < j of ``pts``, classified as ``verdict.signs`` (nonnegative,
    nonpositive) or MIXED, with the points of the pairs where the extremes
    occur.  ``row(v)`` is ``v[i]``, each value repeated once per pair in its
    row, a fresh array as the gather ``v[j]`` is.  The tolerance is set by the
    largest finite value, as an overflowing one carries no scale; a NaN value
    has no sign.  Its callers run it under ``quiet``."""
    i, j = _index_pairs(pts.size)
    if i.size == 0:
        return verdict(verdict.signs[0], 0.0, 0.0, None, None, int(pts.size), tol_sync(0.0))
    counts = np.arange(pts.size - 1, -1, -1)  # the pairs in row i: n - 1 - i
    values = pair_values(lambda v: v.repeat(counts), j)
    mn_idx = int(np.argmin(values))
    mx_idx = int(np.argmax(values))
    mn = float(values[mn_idx])
    mx = float(values[mx_idx])
    if math.isnan(mn):  # argmin stops at the first NaN
        raise DomainViolation("a pair value on the grid is NaN; its sign is undefined")
    scale = max(abs(mn), abs(mx))
    if math.isinf(scale):
        finite = np.abs(values[np.isfinite(values)])
        scale = float(finite.max()) if finite.size else 0.0
    tol = tol_sync(scale)
    first, second = verdict.signs
    cls = first if mn >= -tol else second if mx <= tol else MIXED
    pos = (pts[i[mx_idx]].item(), pts[j[mx_idx]].item()) if mx > tol else None
    neg = (pts[i[mn_idx]].item(), pts[j[mn_idx]].item()) if mn < -tol else None
    return verdict(cls, mn, mx, pos, neg, int(pts.size), tol)


def _synchrony(pts: np.ndarray, fv, gv, hv) -> SynchronyVerdict:
    """Certify the product of the defects of f/h and g/h from their values at pts,
    each at the swapped pair (j, i) as sync_product writes it: a zero keeps its sign."""

    def pair_values(row, j):
        # _defect(fv, hv, j, i) * _defect(gv, hv, j, i), the same roundings
        # taken in place on three repeated rows and three gathers
        fi, gi, hi = row(fv), row(gv), row(hv)
        fj, gj, hj = fv[j], gv[j], hv[j]
        fi *= hj
        fj *= hi
        fi -= fj
        gi *= hj
        gj *= hi
        gi -= gj
        fi *= gi
        return fi

    return _certify(SynchronyVerdict, pts, pair_values)


@functools.lru_cache(maxsize=CERTIFY_MEMO_SIZE)
@quiet  # under the memo: a hit enters no context
def _memo_synchrony(f, g, h, interval, grid_n) -> SynchronyVerdict:
    # + 0.0: an endpoint -0.0 shares its entry with 0.0, so both certify on 0.0
    pts = interval.grid(grid_n) + 0.0
    return _synchrony(pts, f.evaluate(pts), g.evaluate(pts), h.evaluate(pts))


def classify_synchrony(
    f: ScalarFunction,
    g: ScalarFunction,
    h: ScalarFunction,
    interval: SpectralInterval,
    grid_n: int = DEFAULT_GRID_N,
) -> SynchronyVerdict:
    """Evaluate sync_product on all grid pairs (i < j) and classify the sign pattern.

    Verdicts are kept in one process-wide memo of at most CERTIFY_MEMO_SIZE
    entries, keyed on (f, g, h, interval, grid_n) by value: labels are not part
    of a function's value, and ``grid_n`` is read as an integer first.  A call
    that raises is not kept.  ``classify_synchrony.cache_info()`` reports its
    hits and misses.
    """
    return _memo_synchrony(f, g, h, interval, read_grid_n(grid_n))


classify_synchrony.cache_info = _memo_synchrony.cache_info
classify_synchrony.cache_clear = _memo_synchrony.cache_clear


@quiet
def classify_monotonicity(
    f: ScalarFunction,
    h: ScalarFunction,
    interval: SpectralInterval,
    grid_n: int = DEFAULT_GRID_N,
) -> MonotonicityVerdict:
    """Evaluate mono_defect on all ordered grid pairs x <= t; requires h > 0 throughout."""
    pts = interval.grid(grid_n)
    fv, hv = f.evaluate(pts), h.evaluate(pts)
    if np.any(hv <= 0.0):
        bad = float(pts[hv <= 0.0][0])
        raise DomainViolation(
            f"relative monotonicity needs h > 0 on the interval; h({bad!r}) <= 0"
        )

    def pair_values(row, j):
        # _defect(fv, hv, i, j) taken in place on two repeated rows and two gathers
        hi, fi = row(hv), row(fv)
        fj, hj = fv[j], hv[j]
        hi *= fj
        fi *= hj
        hi -= fi
        return hi

    return _certify(MonotonicityVerdict, pts, pair_values)


def scan_tr_regions(
    f: ScalarFunction,
    g: ScalarFunction,
    r_values: Sequence[float],
    interval: SpectralInterval,
    grid_n: int = DEFAULT_GRID_N,
) -> list[tuple[float, SynchronyVerdict]]:
    """Classify (f, g) against the weight family h(s) = s^r for each requested r;
    at most ``MAX_R_VALUES`` of them."""
    if len(r_values) > MAX_R_VALUES:
        raise ConfigInvalid(
            f"r_values holds at most {MAX_R_VALUES} weights (MAX_R_VALUES), got {len(r_values)}"
        )
    return [
        (float(r), classify_synchrony(f, g, power(float(r)), interval, grid_n)) for r in r_values
    ]
