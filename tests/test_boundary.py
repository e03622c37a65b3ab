"""Input boundary: a malformed document fails with an OpineqError, never a raw exception.

Hypothesis draws function literals, scenario documents, suite configs and
``classify`` documents whose fields are either well formed or arbitrary JSON,
and feeds them through the path the CLI takes: ``scenario_from_doc`` then
``run_scenario`` for ``opineq check``, ``config_from_doc`` then ``run_suite``
for ``opineq suite``, and ``main`` itself for ``opineq classify``.  Every check
id also runs through ``run_suite`` and ``falsify`` on intervals at the ends of the
float range.
"""

import dataclasses
import itertools
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opineq import REGISTRY_ORDER, OpineqError, SpectralInterval, TrialConfig, canonical_json
from opineq import config_from_doc, falsify, function_from_descriptor, run_scenario, run_suite
from opineq import scenario_from_doc
from opineq.cli import main

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=4)
)
JSON = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.floats(min_value=-4.0, max_value=4.0) | st.integers(min_value=-3, max_value=3)

KINDS = ("constant", "identity", "power", "log", "exp", "affine", "neg_parabola", "tabulated")


def _literal(children):
    """A literal of any kind, each field well formed or arbitrary JSON."""
    field = NUMBERS | JSON
    knots = st.lists(NUMBERS, min_size=2, max_size=4).map(sorted) | JSON
    plain = st.fixed_dictionaries(
        {"kind": st.sampled_from(KINDS) | JSON},
        optional={
            "c": field,
            "p": field,
            "a": field,
            "b": field,
            "knots": knots,
            "values": knots,
            "domain": st.lists(NUMBERS, min_size=2, max_size=2).map(sorted) | JSON,
        },
    )
    product = st.fixed_dictionaries(
        {"kind": st.just("product"), "factors": st.lists(children, min_size=2, max_size=2) | JSON}
    )
    term = st.fixed_dictionaries({"coef": field, "fn": children}) | JSON
    total = st.fixed_dictionaries(
        {"kind": st.just("sum"), "terms": st.lists(term, min_size=1, max_size=3) | JSON}
    )
    return plain | product | total


LITERALS = st.recursive(st.just({"kind": "identity"}), _literal, max_leaves=4)

OPERATORS = st.fixed_dictionaries(
    {
        "diagonal": st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=1, max_size=2)
        | JSON,
        "interval": st.just([1.0, 2.0]) | JSON,
    }
) | st.fixed_dictionaries(
    {"matrix": st.just([[1.5, [0.0, 0.25]], [[0.0, -0.25], 1.5]]) | JSON, "interval": JSON}
) | st.fixed_dictionaries(
    {
        "eigenvalues": st.just([1.0, 2.0]) | JSON,
        "eigenvectors": st.just([[1.0, 0.0], [0.0, 1.0]]) | JSON,
        "interval": st.just([1.0, 2.0]),
    }
)
STATES = st.just([math.sqrt(0.5), math.sqrt(0.5)]) | st.just({"components": [1.0]}) | JSON
ENSEMBLES = st.fixed_dictionaries(
    {
        "operators": st.lists(OPERATORS, min_size=1, max_size=2) | JSON,
        "states": st.lists(STATES, min_size=1, max_size=2) | JSON,
        "normalization": st.sampled_from(["sum_of_squares", "per_vector"]) | JSON,
    }
)
SCENARIOS = st.fixed_dictionaries(
    {"theorem": st.sampled_from([e.theorem_id for e in REGISTRY_ORDER]) | JSON},
    optional={
        "operator": OPERATORS | JSON,
        "operator_b": OPERATORS,
        "state": STATES,
        "state_b": STATES,
        "ensemble": ENSEMBLES | JSON,
        "functions": st.dictionaries(st.sampled_from("fgh"), LITERALS, max_size=3) | JSON,
        "direction": st.sampled_from([">=", "<="]) | JSON,
        "grid_n": st.integers(min_value=-2, max_value=40) | JSON,
        "gate_hypothesis": st.booleans() | JSON,
        "per_op_intervals": st.lists(st.just([1.0, 2.0]) | JSON, max_size=2) | JSON,
        "tuples": st.fixed_dictionaries({"a": st.lists(NUMBERS) | JSON, "b": st.lists(NUMBERS)})
        | JSON,
        "bound_interval": st.just([1.0, 3.0]) | JSON,
        "expect": st.fixed_dictionaries({}, optional={"verdict": JSON, "gap": JSON}) | JSON,
    },
)


def _only_opineq_errors(doc) -> None:
    try:
        run_scenario(scenario_from_doc(doc))
    except OpineqError:
        pass


@FUZZ
@given(LITERALS)
def test_function_literals_fail_only_with_opineq_errors(literal):
    doc = {
        "theorem": "pc-square",
        "operator": {"diagonal": [1.0, 2.0], "interval": [1.0, 2.0]},
        "state": [math.sqrt(0.5), math.sqrt(0.5)],
        "functions": {"f": literal, "h": {"kind": "identity"}},
    }
    try:
        function_from_descriptor(literal)
    except OpineqError:
        pass
    _only_opineq_errors(doc)


@FUZZ
@given(SCENARIOS)
def test_scenario_documents_fail_only_with_opineq_errors(doc):
    _only_opineq_errors(doc)


THEOREM_IDS = [e.theorem_id for e in REGISTRY_ORDER]
# interval ends from negative through the ranges where squares and exp overflow
ENDS = st.floats(min_value=-2.0, max_value=500.0) | st.sampled_from([0.0, 1.0, 465.0, 1e200])
INTERVALS = st.lists(ENDS, min_size=2, max_size=2).map(sorted) | JSON
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(min_value=-1, max_value=2**64) | JSON,
        "trials": st.integers(min_value=-1, max_value=3) | JSON,
        "dim_range": st.lists(st.integers(min_value=0, max_value=17), min_size=2, max_size=2)
        | JSON,
        "interval": INTERVALS,
        "function_pool": st.lists(LITERALS, max_size=3) | JSON,
        "triple_pool": st.lists(st.lists(LITERALS, min_size=3, max_size=3), max_size=2) | JSON,
        "grid_n": st.integers(min_value=0, max_value=40) | JSON,
        "theorems": st.lists(st.sampled_from(THEOREM_IDS), max_size=3)
        | st.sampled_from(THEOREM_IDS)
        | JSON,
    },
)
CLASSIFY_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "f": LITERALS | JSON,
        "g": LITERALS | JSON,
        "h": LITERALS | JSON,
        "r_values": st.lists(NUMBERS, max_size=3) | JSON,
        "interval": INTERVALS,
        "grid_n": st.integers(min_value=0, max_value=40) | JSON,
        "mode": st.sampled_from(["synchrony", "monotonicity"]) | JSON,
    },
)


@FUZZ
@given(CONFIGS)
def test_suite_configs_fail_only_with_opineq_errors(doc):
    try:
        run_suite(dataclasses.replace(config_from_doc(doc), trials=1))
    except OpineqError:
        pass


@settings(FUZZ, max_examples=100)
@given(CLASSIFY_DOCS)
def test_classify_documents_exit_zero_or_two(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "functions.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        assert main(["classify", str(path)]) in (0, 2)


# a 4 lo hi that underflows to 0, a square that overflows, a subnormal lo
EXTREME_INTERVALS = [(1e-200, 1e-200), (1e-200, 1e200), (5e-324, 1.0)]


def test_extreme_intervals_raise_only_opineq_errors():
    """Every id, suite and falsify, on intervals at the ends of the float range."""
    for tid, (lo, hi) in itertools.product(THEOREM_IDS, EXTREME_INTERVALS):
        iv = SpectralInterval(lo, hi)
        try:
            run_suite(TrialConfig(seed=0, trials=2, interval=iv, theorem_ids=(tid,)))
        except OpineqError:
            pass
        try:
            falsify(tid, budget=10, interval=iv)
        except OpineqError:
            pass
