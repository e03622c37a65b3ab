"""Registry of every checkable inequality: stable identifier, checker, input shape.

The registry order is canonical and never reordered: random suites derive
per-theorem substreams from each entry's ordinal, so adding ids at the end (or
selecting subsets) leaves existing trial streams unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Optional, Union

from .errors import ConfigInvalid, UnknownTheorem
from .functions import ScalarFunction, constant, identity

# The checkers are called by name through this module's globals (TheoremEntry.checker).
from .functionals import (
    InequalityReport,
    _inverse_pair_sides,
    _kantorovich_sides,
    _mean_point_sides,
    _sign_sides,
    _square_sides,
    _two_operator_sides,
    check_inverse_pair,
    check_mean_point,
    check_sign_bound,
    check_square_bound,
    check_two_operator,
    kantorovich_chain,
)
from .ensembles import (
    PER_VECTOR,
    SUM_OF_SQUARES,
    _chain_sides,
    _chebyshev_sides,
    check_ensemble_mean_point,
    check_ensemble_sign_bound,
    check_ensemble_square_bound,
    discrete_chebyshev,
    kantorovich_ensemble_chain,
)

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

# Inputs kind -> the document keys a check of that kind requires; "tuples.a"
# names a key inside one.
_INPUTS = {
    SINGLE: ("operator", "state"),
    TWO_OP: ("operator", "operator_b", "state", "state_b"),
    ENSEMBLE: ("ensemble",),
    TUPLES: ("tuples.a", "tuples.b"),
}
# Document keys every check accepts beside its inputs and forwarded keys.
_UNIVERSAL = frozenset({"theorem", "name", "expect", "grid_n", "functions"})

DROP_SYNCHRONY = "synchrony"
DROP_CONTAINMENT = "spectral-containment"
DROP_NORMALIZATION = "normalization"

CONVEXITY_NOTE = "stated for convex weight functions; convexity is unused and not enforced"

_ID = {"kind": "identity"}
_ONE = {"kind": "constant", "c": 1.0}
_SQ = {"kind": "power", "p": 2.0}
_CUBE = {"kind": "power", "p": 3.0}
_SQRT = {"kind": "power", "p": 0.5}
_INV = {"kind": "power", "p": -1.0}
_EXP = {"kind": "exp"}
_LOG = {"kind": "log"}

# Document key -> checker keyword, per checker family.
_SIGN_KEYS = {
    "theorem": "theorem_id",
    "direction": "direction",
    "grid_n": "grid_n",
    "gate_hypothesis": "gate_hypothesis",
}
_SQUARE_KEYS = {"theorem": "theorem_id", "grid_n": "grid_n"}
_KANTOROVICH_KEYS = {"bound_interval": "bound_interval", "grid_n": "grid_n"}
_CHAIN_KEYS = {
    "per_op_intervals": "per_op_intervals",
    "grid_n": "grid_n",
    "gate_hypothesis": "gate",
}


# eq=False: entries are singletons, hashed by identity (their dict fields are unhashable)
@dataclasses.dataclass(frozen=True, eq=False)
class TheoremEntry:
    """One checkable inequality: its id, what inputs it takes, how to run it.

    ``run`` calls the checker with the function slots in f, g, h order (the
    document's free ``slots`` plus the ``fixed`` ones), then the inputs its
    ``inputs_kind`` requires, positionally, then every ``forwards`` key the
    document carries as the keyword it maps to, then the constant
    ``options``.  A chain checker returns several reports; ``link`` picks
    this entry's.  The remaining fields steer sampling and ``falsify``.
    """

    theorem_id: str
    ordinal: int
    summary: str
    inputs_kind: str
    # free function slots a document supplies
    slots: tuple[str, ...]
    ensemble_mode: Optional[str]
    needs_positive: bool
    # name of the checker in this module, looked up at call time so that a
    # rebinding of the module attribute (a profiler's wrapper) is seen
    checker: str
    # slot -> the function it is fixed to, or the name of the slot it equals
    fixed: Mapping[str, Union[ScalarFunction, str]]
    forwards: Mapping[str, str]
    options: Mapping[str, object]
    link: Optional[int]
    # hypotheses are certified on the hull of the interval and its inverse
    hull: bool
    # hypotheses a falsify search may drop
    drops: frozenset[str]
    # (f, g, h) descriptor triples a falsify search scores with synchrony
    # dropped: asynchronous on every positive interval, so the forced >=
    # orientation fails (a check keeps only the slots it takes)
    sync_pool: tuple[tuple[dict, dict, dict], ...]
    # the *_sides function the checker computes its sides with; falsify
    # scores batches of candidates with it
    sides: Callable[..., tuple]
    # how many members a falsify candidate, a two-atom measure, splits into:
    # 2 is one atom per operator or ensemble member, or the two tuples
    members: int

    def __post_init__(self) -> None:
        # Derived once, for run: each function slot in f, g, h order with what
        # fills it (None: the document; an int: the argument at that index; else
        # the fixed function), and each required input split at its dot.
        filled = [s for s in ("f", "g", "h") if s in self.slots or s in self.fixed]
        plan = []
        for slot in filled:
            fixed = self.fixed.get(slot)
            plan.append((slot, filled.index(fixed) if isinstance(fixed, str) else fixed))
        object.__setattr__(self, "_slot_plan", tuple(plan))
        inputs = tuple(k.partition(".")[::2] for k in _INPUTS[self.inputs_kind])
        object.__setattr__(self, "_input_plan", inputs)

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

    def run(self, parsed: dict, *, tol_factor: float = 1.0) -> InequalityReport:
        """Run one parsed scenario or sampled trial through the checker."""
        args = self.functions(parsed.get("functions", {}))
        for name, part in self._input_plan:
            value = parsed.get(name)
            if value is None:
                raise ConfigInvalid(f"{self.theorem_id} scenario needs '{name}'")
            args.append(value[part] if part else value)
        kwargs = {**self.options, "tol_factor": tol_factor}
        for key, kw in self.forwards.items():
            if key in parsed:
                kwargs[kw] = parsed[key]
        report = globals()[self.checker](*args, **kwargs)
        return report if self.link is None else report[self.link]


def _entries() -> tuple[TheoremEntry, ...]:
    identity_h = {"h": identity()}
    # defaults per checker family; each row overrides what differs
    sign = dict(
        inputs_kind=SINGLE,
        ensemble_mode=None,
        needs_positive=False,
        checker="check_sign_bound",
        fixed={},
        forwards=_SIGN_KEYS,
        options={},
        link=None,
        hull=False,
        drops=frozenset({DROP_SYNCHRONY}),
        sync_pool=((_ONE, _ID, _SQRT), (_ID, _INV, _ONE), (_ID, _INV, _SQRT)),
        sides=_sign_sides,
        members=1,
    )
    square_case = dict(forwards=_SQUARE_KEYS, drops=frozenset(), sides=_square_sides)
    square = dict(sign, checker="check_square_bound", **square_case)
    kantorovich = dict(
        sign,
        needs_positive=True,
        checker="kantorovich_chain",
        forwards=_KANTOROVICH_KEYS,
        drops=frozenset(),
        sides=_kantorovich_sides,
    )
    mean_point = dict(sign, checker="check_mean_point", sides=_mean_point_sides)
    mean_point_square = dict(
        mean_point, fixed={"g": "f"}, options={"auto_hypothesis": True}, drops=frozenset()
    )
    inverse_pair = dict(
        sign,
        needs_positive=True,
        checker="check_inverse_pair",
        hull=True,
        sides=_inverse_pair_sides,
    )
    ensemble = dict(
        sign,
        inputs_kind=ENSEMBLE,
        ensemble_mode=SUM_OF_SQUARES,
        checker="check_ensemble_sign_bound",
        members=2,
    )
    ensemble_square = dict(ensemble, checker="check_ensemble_square_bound", **square_case)
    ensemble_mean = dict(ensemble, checker="check_ensemble_mean_point", sides=_mean_point_sides)
    ensemble_mean_square = dict(
        ensemble_mean, fixed={"g": "f"}, options={"auto_hypothesis": True}, drops=frozenset()
    )
    chain = dict(
        ensemble,
        ensemble_mode=PER_VECTOR,
        needs_positive=True,
        checker="kantorovich_ensemble_chain",
        forwards=_CHAIN_KEYS,
        drops=frozenset(),
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
            link=0,
        ),
        dict(
            kantorovich,
            theorem_id="kantorovich-upper",
            summary="product of mean and inverse mean at most the interval constant",
            slots=(),
            link=1,
            drops=frozenset({DROP_CONTAINMENT}),
        ),
        dict(
            sign,
            theorem_id="pc-two-op",
            summary="mixed bound over two operators and two states",
            inputs_kind=TWO_OP,
            slots=("f", "g", "h"),
            checker="check_two_operator",
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
            options={"auto_hypothesis": True},
            drops=frozenset(),
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
            options={"auto_hypothesis": True, "extra_notes": (CONVEXITY_NOTE,)},
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
            link=0,
            drops=frozenset({DROP_NORMALIZATION}),
        ),
        dict(
            chain,
            theorem_id="ensemble-chebyshev-link",
            summary="averaged pointwise products dominate the product of averages",
            slots=(),
            link=1,
            drops=frozenset({DROP_SYNCHRONY}),
        ),
        dict(
            chain,
            theorem_id="ensemble-kantorovich-upper",
            summary="averaged interval constants dominate the averaged products",
            slots=(),
            link=2,
            drops=frozenset({DROP_CONTAINMENT}),
            members=1,
        ),
        dict(
            sign,
            theorem_id="discrete-chebyshev",
            summary="mean of products dominates product of means for similarly ordered tuples",
            inputs_kind=TUPLES,
            slots=(),
            checker="discrete_chebyshev",
            forwards={"gate_hypothesis": "gate"},
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

    # a fixed slot may appear, as the checkers write it, but only at its value
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
    takes = _UNIVERSAL | {name for name, _ in entry._input_plan} | set(entry.forwards)
    unread = sorted(
        key
        for key, value in parsed.items()
        if not (key in takes or key == "direction" or key == "gate_hypothesis" and value is True)
    )
    if unread:
        raise ConfigInvalid(f"{entry.theorem_id} does not take the fields {unread}")
    report = entry.run(parsed, tol_factor=tol_factor)
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
