"""The one numpy error policy: every public entry point ends an overflowing
input in its typed error or its result, never in numpy's RuntimeWarning.

Tier-1 turns every RuntimeWarning into an error (``filterwarnings`` in
pyproject.toml), so each call below raises the warning if its entry point
lets one through.
"""

import pathlib
import re

import numpy as np
import pytest

from opineq import (
    ConfigInvalid,
    DomainViolation,
    HermitianOperator,
    NormalizationViolation,
    OperatorEnsemble,
    SpectralInterval,
    StateVector,
    TrialConfig,
    classify_monotonicity,
    classify_synchrony,
    constant,
    exp_fn,
    falsify,
    from_dense,
    identity,
    run_suite,
)
from opineq.functions import mono_defect, sync_product
from opineq.spectral import _require_sum_of_squares
from opineq.tolerances import TOL_NORM

IV12 = SpectralInterval(1.0, 2.0)
# hi - lo overflows, so numpy's linspace over it does too
WIDE = SpectralInterval(-1e308, 1e308)
# two states of norm 1.3e154: each squared norm is finite, their sum is not
HALF_HUGE = StateVector([1.3e154, 0.0])


def _suite_on_wide():
    return run_suite(TrialConfig(seed=0, trials=1, interval=WIDE, theorem_ids=("pc-sign",)))


OVERFLOWING_CALLS = {
    # the unitarity residue U*U - I of an eigenbasis with a 1e200 entry
    "HermitianOperator": (
        lambda: HermitianOperator([1.0, 2.0], [[1e200, 0.0], [0.0, 1.0]], IV12),
        ConfigInvalid,
    ),
    # M + M* of 1e308 entries
    "from_dense": (lambda: from_dense([[1e308, 1e308], [1e308, 1e308]], IV12), ConfigInvalid),
    "OperatorEnsemble": (
        lambda: OperatorEnsemble(
            [HermitianOperator.diagonal([1.0, 2.0], IV12)] * 2,
            [HALF_HUGE, HALF_HUGE],
            "sum_of_squares",
        ),
        NormalizationViolation,
    ),
    "sync_product": (
        lambda: sync_product(exp_fn(), identity(), constant(1.0), 800.0, 1.0),
        DomainViolation,
    ),
    "mono_defect": (lambda: mono_defect(exp_fn(), constant(1.0), 1.0, 800.0), DomainViolation),
    "classify_synchrony": (
        lambda: classify_synchrony(identity(), identity(), constant(1.0), WIDE),
        ConfigInvalid,
    ),
    "classify_monotonicity": (
        lambda: classify_monotonicity(identity(), constant(1.0), WIDE),
        ConfigInvalid,
    ),
    "run_suite": (_suite_on_wide, ConfigInvalid),
    "falsify": (lambda: falsify("pc-sign", budget=20, interval=WIDE), ConfigInvalid),
    # the perturbation rounds step past 1.7e308 and are clipped back
    "falsify-perturbation": (
        lambda: falsify("ensemble-pc-square", budget=20, interval=SpectralInterval(1.0, 1.7e308)),
        None,
    ),
}


@pytest.mark.parametrize("name", list(OVERFLOWING_CALLS))
def test_an_overflowing_input_ends_in_its_typed_error(name):
    call, error = OVERFLOWING_CALLS[name]
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


def test_the_package_holds_one_error_policy():
    """One np.errstate object, in errors.py, used only as a decorator: a second
    ``with`` of the object raises, and the decorator costs less."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "opineq"
    sites = {
        path.name: len(re.findall(r"np\.errstate\(", path.read_text(encoding="utf-8")))
        for path in package.glob("*.py")
    }
    assert {name: n for name, n in sites.items() if n} == {"errors.py": 1}
    for path in package.glob("*.py"):
        assert not re.search(r"with\s+(np\.errstate|quiet)\b", path.read_text(encoding="utf-8"))


def test_squared_norms_add_as_numpy_added_them():
    """The sum of squared norms is the float64 sum of numpy's squares, bit for
    bit, up to the ends of the float range."""
    rng = np.random.default_rng(7)
    cases = [[0.6, 0.8], [1.0], [1.3e154, 1.3e154], [np.inf, 0.5]]
    for scale in (1e-160, 1e-3, 1.0, 1e100, 1e154):
        for size in (1, 2, 3, 16):
            cases.append((rng.random(size) * scale).tolist())
    for norms in cases:
        with np.errstate(over="ignore"):
            want = float(sum(np.float64(norm) ** 2 for norm in norms))
        try:
            _require_sum_of_squares(norms)
        except NormalizationViolation as err:
            assert str(err) == f"sum of squared state norms is {want!r}, expected 1"
        else:
            assert abs(want - 1.0) <= TOL_NORM
