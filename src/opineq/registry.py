"""Registry of every checkable inequality: stable identifier, checker, input shape.

The registry order is canonical and never reordered: random suites derive
per-theorem substreams from each entry's ordinal, so adding ids at the end (or
selecting subsets) leaves existing trial streams unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Optional, Union

from .errors import ConfigInvalid, UnknownTheorem, quiet
from .functions import ScalarFunction, constant, identity
from .functionals import (
    InequalityReport,
    Outcome,
    _build_report,
    _inverse_pair_sides,
    _kantorovich_links,
    _kantorovich_sides,
    _sign_sides,
    _square_bound,
    _square_sides,
    _synchrony_bound,
    _two_operator_sides,
    mean_point_sides,
    read_pair,
    read_two,
)
from .ensembles import (
    PER_VECTOR,
    SUM_OF_SQUARES,
    _chain_links,
    _chain_sides,
    _chebyshev,
    _chebyshev_sides,
    read_ensemble,
    summed,
    tuples_inputs,
)
from .serialize import read_per_op_intervals
from .spectral import SpectralInterval, read_grid_n
from .tolerances import DEFAULT_GRID_N

__all__ = [
    "TheoremEntry",
    "REGISTRY",
    "REGISTRY_ORDER",
    "lookup",
    "run_scenario",
    "expectation_failures",
]

SINGLE = "single"
TWO_OP = "two_op"
ENSEMBLE = "ensemble"
TUPLES = "tuples"

# Inputs kind -> the document keys a check of that kind requires, the reader
# that turns their parsed values into what the check's core takes (ReadInputs,
# or ReadTuples), and whether its inputs document names the grid and the
# functions: a measure's check does, the tuples' check takes neither.
_INPUTS = {
    SINGLE: (("operator", "state"), read_pair, True),
    TWO_OP: (("operator", "operator_b", "state", "state_b"), read_two, True),
    ENSEMBLE: (("ensemble",), read_ensemble, True),
    TUPLES: (("tuples",), lambda tuples: tuples_inputs(tuples["a"], tuples["b"]), False),
}
# Document keys every check accepts beside its inputs and forwarded keys.
_UNIVERSAL = frozenset({"theorem", "name", "expect", "grid_n", "functions"})

DROP_SYNCHRONY = "synchrony"
DROP_CONTAINMENT = "spectral-containment"
DROP_NORMALIZATION = "normalization"
# every hypothesis some check may drop, in the order `opineq falsify --drop` lists them
DROPPABLE = (DROP_SYNCHRONY, DROP_CONTAINMENT, DROP_NORMALIZATION)

# How falsify constructs the one candidate that answers a dropped hypothesis:
# from the synchrony certificate's witness pair, by a sweep of two-atom measures
# at the draw interval's endpoints, or as the extremal measure in closed form.
WITNESS = "witness"
SWEEP = "sweep"
CLOSED_FORM = "closed-form"

CONVEXITY_NOTE = "stated for convex weight functions; convexity is unused and not enforced"

_ID = {"kind": "identity"}
_ONE = {"kind": "constant", "c": 1.0}
_SQ = {"kind": "power", "p": 2.0}
_CUBE = {"kind": "power", "p": 3.0}
_SQRT = {"kind": "power", "p": 0.5}
_INV = {"kind": "power", "p": -1.0}
_EXP = {"kind": "exp"}
_LOG = {"kind": "log"}


def _bound_interval(value, doc: dict):
    if value is not None:
        if not isinstance(value, SpectralInterval):
            raise ConfigInvalid(f"bound_interval must be a SpectralInterval, got {value!r}")
        doc["bound_interval"] = [value.lo, value.hi]
    return value


def _per_op_intervals(value, doc: dict):
    if value is not None:
        value = read_per_op_intervals(value)
        doc["per_op_intervals"] = [list(pair) for pair in value]
    return value


def _gate(value, doc: dict):
    if not value:
        doc["gate_hypothesis"] = False
    return value


# Document key a core takes -> its reader: given the key's value and the inputs
# document, it checks the value, writes what the document holds of it, and
# returns what the core takes.  run reads grid_n into the document first.
_KEYS = {
    "direction": lambda value, doc: value,
    "grid_n": lambda value, doc: doc["grid_n"],
    "gate_hypothesis": _gate,
    "bound_interval": _bound_interval,
    "per_op_intervals": _per_op_intervals,
}


# eq=False: entries are singletons, hashed by identity (their dict fields are unhashable)
@dataclasses.dataclass(frozen=True, eq=False)
class TheoremEntry:
    """One checkable inequality: its id, what inputs it takes, how to run it.

    ``run`` is the one assembly of a check: scenarios, suite trials, falsify's
    certificate and the public check functions all call it.  It calls the
    check's core with the entry's ``sides``, the read inputs (for a summed
    check, its members' measures concatenated), then the function slots in f,
    g, h order (the document's free ``slots`` plus the ``fixed`` ones), then
    every document key its core reads (``forwards``) as the keyword of that
    name, then the constant ``options``.  A check whose g is fixed to its f is
    synchronous by construction, so its core skips the certificate (the
    ``auto_hypothesis`` option).  A chain core's ``link`` option picks this
    entry's link, the only outcome it computes.  ``run`` alone writes the
    report's inputs document, from the keys it read.  The remaining fields
    steer sampling and ``falsify``.
    """

    theorem_id: str
    ordinal: int
    summary: str
    inputs_kind: str
    # free function slots a document supplies
    slots: tuple[str, ...]
    ensemble_mode: Optional[str]
    needs_positive: bool
    # the check's core: it computes the check's Outcome
    checker: Callable[..., Outcome]
    # the document keys the core reads, each taken as the keyword of its name
    forwards: tuple[str, ...]
    # slot -> the function it is fixed to, or the name of the slot it equals
    fixed: Mapping[str, Union[ScalarFunction, str]]
    options: Mapping[str, object]
    # each hypothesis a falsify search may drop -> how falsify constructs the
    # one candidate that answers it instead of a search (WITNESS, SWEEP or
    # CLOSED_FORM)
    constructed: Mapping[str, str]
    # (f, g, h) descriptor triples a falsify search scores with synchrony
    # dropped: asynchronous on every positive interval, so the forced >=
    # orientation fails (a check keeps only the slots it takes)
    sync_pool: tuple[tuple[dict, dict, dict], ...]
    # the *_sides function the core computes the check's sides with, reading function
    # slots through one values(points); falsify scores a batch's tuples in one call
    sides: Callable[..., tuple]
    # how many members a falsify candidate, a two-atom measure, splits into:
    # 2 is one atom per operator or ensemble member, or the two tuples
    members: int

    def __post_init__(self) -> None:
        # Derived once, for run: each function slot in f, g, h order with what
        # fills it (None: the document; an int: the argument at that index; else
        # the fixed function).
        filled = [s for s in ("f", "g", "h") if s in self.slots or s in self.fixed]
        plan = []
        for slot in filled:
            fixed = self.fixed.get(slot)
            plan.append((slot, filled.index(fixed) if isinstance(fixed, str) else fixed))
        object.__setattr__(self, "_slot_plan", tuple(plan))
        object.__setattr__(self, "_names_grid", _INPUTS[self.inputs_kind][2])
        if self.fixed.get("g") == "f":
            object.__setattr__(self, "options", {**self.options, "auto_hypothesis": True})

    @property
    def drops(self) -> frozenset[str]:
        """The hypotheses a falsify search may drop: those it constructs an answer for."""
        return frozenset(self.constructed)

    @property
    def hull(self) -> bool:
        """Whether hypotheses are certified on the hull of the interval and its inverse."""
        return bool(self.options.get("hull"))

    def functions(self, given: Mapping[str, ScalarFunction]) -> list[ScalarFunction]:
        """The checker's function arguments in f, g, h order: the free slots
        from ``given``, the fixed ones filled in."""
        args = []
        for slot, fixed in self._slot_plan:
            if fixed is None:
                fn = given.get(slot)
                if fn is None:
                    raise ConfigInvalid(f"{self.theorem_id} scenario needs function '{slot}'")
            elif type(fixed) is int:
                fn = args[fixed]
            else:
                fn = fixed
            args.append(fn)
        return args

    def read(self, parsed: dict):
        """What the check's core takes of a parsed scenario's inputs: the one
        reader from its operator, state or ensemble keys to ReadInputs, or
        from its tuples to ReadTuples."""
        keys, reader, _ = _INPUTS[self.inputs_kind]
        values = []
        for key in keys:
            value = parsed.get(key)
            if value is None:
                raise ConfigInvalid(f"{self.theorem_id} scenario needs '{key}'")
            values.append(value)
        return reader(*values)

    @quiet
    def run(self, parsed: dict, inputs, *, tol_factor: float = 1.0) -> InequalityReport:
        """Run one scenario or sampled trial through the check's core: ``inputs``
        as ``read`` gives them, or as a suite trial draws them, and the
        functions and forwarded keys of ``parsed``.  The report's inputs
        document holds the theorem, the inputs' body, the grid size and every
        filled slot's function (for a check that names them), and each key the
        core read as its reader writes it; the report adds the direction.
        It runs under ``quiet``, the package's numpy error policy."""
        args = self.functions(parsed.get("functions", {}))
        if self.ensemble_mode == SUM_OF_SQUARES:
            inputs = summed(inputs)
        doc = {"theorem": self.theorem_id, **inputs.body}
        if self._names_grid:
            doc["grid_n"] = read_grid_n(parsed.get("grid_n", DEFAULT_GRID_N))
            doc["functions"] = {
                slot: fn.descriptor() for (slot, _), fn in zip(self._slot_plan, args)
            }
        kwargs = dict(self.options)
        for key in self.forwards:
            if key in parsed:
                kwargs[key] = _KEYS[key](parsed[key], doc)
        return _build_report(doc, self.checker(self.sides, inputs, *args, **kwargs), tol_factor)


def _entries() -> tuple[TheoremEntry, ...]:
    identity_h = {"h": identity()}
    # defaults per checker family; each row overrides what differs
    sign = dict(
        inputs_kind=SINGLE,
        ensemble_mode=None,
        needs_positive=False,
        checker=_synchrony_bound,
        forwards=("direction", "grid_n", "gate_hypothesis"),
        fixed={},
        options={},
        constructed={DROP_SYNCHRONY: WITNESS},
        sync_pool=((_ONE, _ID, _SQRT), (_ID, _INV, _ONE), (_ID, _INV, _SQRT)),
        sides=_sign_sides,
        members=1,
    )
    square_case = dict(checker=_square_bound, forwards=(), constructed={}, sides=_square_sides)
    square = dict(sign, **square_case)
    kantorovich = dict(
        sign,
        needs_positive=True,
        checker=_kantorovich_links,
        forwards=("bound_interval",),
        constructed={},
        sides=_kantorovich_sides,
    )
    # mean-point bounds add the reversal note to their "<=" form
    mean_point = dict(
        sign,
        options={"notes": ()},
        sides=mean_point_sides,
        constructed={DROP_SYNCHRONY: SWEEP},
    )
    mean_point_square = dict(mean_point, fixed={"g": "f"}, constructed={})
    inverse_pair = dict(
        sign,
        needs_positive=True,
        options={"hull": True},
        sides=_inverse_pair_sides,
        constructed={DROP_SYNCHRONY: SWEEP},
    )
    ensemble = dict(sign, inputs_kind=ENSEMBLE, ensemble_mode=SUM_OF_SQUARES, members=2)
    ensemble_square = dict(ensemble, **square_case)
    ensemble_mean = dict(
        ensemble,
        options={"notes": ()},
        sides=mean_point_sides,
        constructed={DROP_SYNCHRONY: SWEEP},
    )
    ensemble_mean_square = dict(ensemble_mean, fixed={"g": "f"}, constructed={})
    chain = dict(
        ensemble,
        ensemble_mode=PER_VECTOR,
        needs_positive=True,
        checker=_chain_links,
        forwards=("per_op_intervals", "gate_hypothesis"),
        constructed={},
        sides=_chain_sides,
    )
    rows = [
        dict(
            sign,
            theorem_id="pc-sign",
            summary="weighted covariance product bound under grid-certified (a)synchrony",
            slots=("f", "g", "h"),
        ),
        dict(
            square,
            theorem_id="pc-square",
            summary="square case of the sign bound; holds for every continuous function",
            slots=("f", "h"),
        ),
        dict(
            sign,
            theorem_id="pc-sign-t",
            summary="sign bound with the identity weight",
            slots=("f", "g"),
            fixed=identity_h,
            sync_pool=((_ID, _INV, _ID), (_SQ, _SQRT, _ID)),
        ),
        dict(
            sign,
            theorem_id="pc-moment",
            summary="sign bound with the second factor fixed to one",
            slots=("f", "h"),
            fixed={"g": constant(1.0)},
            sync_pool=((_SQ, _ONE, _ID), (_CUBE, _ONE, _ID)),
        ),
        dict(
            sign,
            theorem_id="pc-moment-t",
            summary="sign bound with identity weight and second factor one",
            slots=("f",),
            fixed={"g": constant(1.0), **identity_h},
            sync_pool=((_SQ, _ONE, _ID), (_CUBE, _ONE, _ID), (_EXP, _ONE, _ID)),
        ),
        dict(
            kantorovich,
            theorem_id="kantorovich-lower",
            summary="product of mean and inverse mean is at least one",
            slots=(),
            options={"link": 0},
        ),
        dict(
            kantorovich,
            theorem_id="kantorovich-upper",
            summary="product of mean and inverse mean at most the interval constant",
            slots=(),
            options={"link": 1},
            constructed={DROP_CONTAINMENT: CLOSED_FORM},
        ),
        dict(
            sign,
            theorem_id="pc-two-op",
            summary="mixed bound over two operators and two states",
            inputs_kind=TWO_OP,
            slots=("f", "g", "h"),
            sides=_two_operator_sides,
            members=2,
        ),
        dict(
            mean_point,
            theorem_id="mean-point",
            summary="bound anchored at the operator mean with correction terms",
            slots=("f", "g", "h"),
        ),
        dict(
            mean_point_square,
            theorem_id="mean-point-square",
            summary="mean-point bound in its always-valid square case",
            slots=("f", "h"),
        ),
        dict(
            mean_point_square,
            theorem_id="mean-point-square-t",
            summary="square mean-point bound with the identity weight",
            slots=("f",),
            fixed={"g": "f", **identity_h},
        ),
        dict(
            inverse_pair,
            theorem_id="inverse-pair",
            summary="two-point bound at the mean and the inverse mean",
            slots=("f", "g", "h"),
        ),
        dict(
            inverse_pair,
            theorem_id="inverse-pair-square",
            summary="inverse-pair bound in its always-valid square case",
            slots=("f", "h"),
            fixed={"g": "f"},
            constructed={},
        ),
        dict(
            ensemble,
            theorem_id="ensemble-pc-sign",
            summary="summed covariance product bound over an operator family",
            slots=("f", "g", "h"),
        ),
        dict(
            ensemble_square,
            theorem_id="ensemble-pc-square",
            summary="summed square bound; holds for every continuous function",
            slots=("f", "h"),
        ),
        dict(
            ensemble_square,
            theorem_id="ensemble-pc-square-t",
            summary="summed square bound with the identity weight",
            slots=("f",),
            fixed=identity_h,
        ),
        dict(
            ensemble_mean,
            theorem_id="ensemble-mean-point",
            summary="summed mean-point bound over an operator family",
            slots=("f", "g", "h"),
        ),
        dict(
            ensemble_mean_square,
            theorem_id="ensemble-mean-point-square",
            summary="summed mean-point bound in its square case",
            slots=("f", "h"),
            options={"notes": (CONVEXITY_NOTE,)},
        ),
        dict(
            ensemble_mean_square,
            theorem_id="ensemble-mean-point-square-t",
            summary="summed square mean-point bound with the identity weight",
            slots=("f",),
            fixed={"g": "f", **identity_h},
        ),
        dict(
            chain,
            theorem_id="ensemble-product-lower",
            summary="averaged mean/inverse-mean product is at least one (unit states)",
            slots=(),
            options={"link": 0},
            constructed={DROP_NORMALIZATION: CLOSED_FORM},
        ),
        dict(
            chain,
            theorem_id="ensemble-chebyshev-link",
            summary="averaged pointwise products dominate the product of averages",
            slots=(),
            options={"link": 1},
            constructed={DROP_SYNCHRONY: SWEEP},
        ),
        dict(
            chain,
            theorem_id="ensemble-kantorovich-upper",
            summary="averaged interval constants dominate the averaged products",
            slots=(),
            options={"link": 2},
            constructed={DROP_CONTAINMENT: CLOSED_FORM},
            members=1,
        ),
        dict(
            sign,
            theorem_id="discrete-chebyshev",
            constructed={DROP_SYNCHRONY: CLOSED_FORM},
            summary="mean of products dominates product of means for similarly ordered tuples",
            inputs_kind=TUPLES,
            slots=(),
            checker=_chebyshev,
            forwards=("gate_hypothesis",),
            sides=_chebyshev_sides,
            members=2,
        ),
    ]
    return tuple(TheoremEntry(ordinal=k, **row) for k, row in enumerate(rows))


REGISTRY_ORDER: tuple[TheoremEntry, ...] = _entries()
REGISTRY: dict[str, TheoremEntry] = {e.theorem_id: e for e in REGISTRY_ORDER}


def lookup(theorem_id: str) -> TheoremEntry:
    entry = REGISTRY.get(theorem_id) if isinstance(theorem_id, str) else None
    if entry is None:
        known = ", ".join(e.theorem_id for e in REGISTRY_ORDER)
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    return entry


def run_scenario(parsed: dict, *, tol_factor: float = 1.0) -> InequalityReport:
    """Run one parsed scenario document through its theorem's checker."""
    entry = lookup(parsed["theorem"])
    given = parsed.get("functions", {})

    def fixed_value(slot: str):
        value = entry.fixed.get(slot)
        return given.get(value) if isinstance(value, str) else value

    # a fixed slot may appear, as run writes it, but only at its value
    extra = sorted(
        slot for slot, fn in given.items() if slot not in entry.slots and fn != fixed_value(slot)
    )
    if extra:
        raise ConfigInvalid(
            f"{entry.theorem_id} takes function slots {sorted(entry.slots) or 'none'}; "
            f"got unexpected {extra}"
        )
    # a field the check does not read may appear only at the value it uses anyway:
    # gate_hypothesis at true, direction at the one it reports (as its inputs document)
    takes = _UNIVERSAL | set(_INPUTS[entry.inputs_kind][0]) | set(entry.forwards)
    unread = sorted(
        key
        for key, value in parsed.items()
        if not (key in takes or key == "direction" or key == "gate_hypothesis" and value is True)
    )
    if unread:
        raise ConfigInvalid(f"{entry.theorem_id} does not take the fields {unread}")
    report = entry.run(parsed, entry.read(parsed), tol_factor=tol_factor)
    if parsed.get("direction") not in (None, report.direction):
        raise ConfigInvalid(
            f"{entry.theorem_id} reports direction {report.direction!r}, "
            f"not {parsed['direction']!r}"
        )
    return report


def expectation_failures(report: InequalityReport, expect: dict) -> list[str]:
    """Mismatches between a report and a scenario's 'expect' block."""
    failures: list[str] = []
    atol = expect.get("atol", 1e-9)
    if "verdict" in expect and report.verdict != expect["verdict"]:
        failures.append(f"verdict {report.verdict!r} != expected {expect['verdict']!r}")
    for key in ("lhs", "rhs", "gap"):
        if key in expect:
            got = getattr(report, key)
            if abs(got - expect[key]) > atol:
                failures.append(f"{key} {got!r} differs from expected {expect[key]!r} by more than {atol!r}")
    return failures
