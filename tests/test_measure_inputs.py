"""Measure-native inputs: what a suite trial draws is what the operator/state
reader gives, bit for bit, and is held to the same input rules."""

import itertools
import math

import numpy as np
import pytest

from opineq import (
    MAX_DIM,
    PER_VECTOR,
    REGISTRY_ORDER,
    SUM_OF_SQUARES,
    TOL_NORM,
    ConfigInvalid,
    HermitianOperator,
    NormalizationViolation,
    NotUnitState,
    OpineqError,
    OperatorEnsemble,
    SpectralInterval,
    SpectralMeasure,
    SpectrumOutOfInterval,
    StateVector,
    TrialConfig,
    canonical_json,
    constant,
    exp_fn,
    identity,
    load_json,
    power,
    run_scenario,
    run_suite,
    scenario_from_doc,
    trial_rng,
)
from opineq.ensembles import ensemble_inputs, read_ensemble
from opineq.functionals import ReadPair, read_pair, read_two, single_inputs, two_inputs
from opineq.harness import _build_ctx, _random_blocks, _trial_parsed

IV12 = SpectralInterval(1.0, 2.0)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _same_measures(drawn, read) -> None:
    assert len(drawn) == len(read)
    for mu, nu in zip(drawn, read):
        for a, b in ((mu.atoms, nu.atoms), (mu.weights, nu.weights)):
            assert a.shape == b.shape
            assert _bits(a) == _bits(b)
            assert a.flags.c_contiguous and b.flags.c_contiguous


def _draw(rng, dims, interval, joint):
    """The draw of _random_blocks, step for step: atoms for every block, then the weights."""
    atoms = [np.sort(rng.uniform(interval.lo, interval.hi, d)) for d in dims]
    if joint:
        weights = np.split(rng.dirichlet(np.ones(sum(dims))), np.cumsum(dims)[:-1])
    else:
        weights = [rng.dirichlet(np.ones(d)) for d in dims]
    return atoms, weights


# ---------------------------------------------------------------------------
# parity with the operator/state path


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "per-block"])
@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
def test_drawn_measures_equal_those_of_the_diagonal_operator_and_state(blocks, joint):
    iv = SpectralInterval(0.5, 3.0)
    for t in range(40):
        dims = [1 + (t + 3 * k) % 8 for k in range(blocks)]
        drawn = _random_blocks(trial_rng(17, blocks, t), dims, iv, joint)
        pairs = [ReadPair.diagonal(lam, np.sqrt(w), iv) for lam, w in drawn]
        atoms, weights = _draw(trial_rng(17, blocks, t), dims, iv, joint)
        ops = [HermitianOperator.diagonal(lam, iv) for lam in atoms]
        states = [StateVector(np.sqrt(w)) for w in weights]
        expected = [SpectralMeasure.of(op, st) for op, st in zip(ops, states)]
        _same_measures([p.measure for p in pairs], expected)
        for pair, op, st in zip(pairs, ops, states):
            assert pair.norm == pytest.approx(st.norm, abs=TOL_NORM)
            reread = ReadPair.of(op, st)
            assert canonical_json([pair.operator, pair.state]) == canonical_json(
                [reread.operator, reread.state]
            )


@pytest.mark.parametrize("entry", [e for e in REGISTRY_ORDER if e.inputs_kind != "tuples"],
                         ids=lambda e: e.theorem_id)
def test_every_drawn_input_reads_back_from_its_document(entry):
    config = TrialConfig(interval=IV12, grid_n=16, function_pool=({"kind": "identity"},))
    ctx = _build_ctx(config, [entry.theorem_id])
    for t in range(25):
        parsed, drawn = _trial_parsed(entry, ctx, trial_rng(5, entry.ordinal, t))
        doc = {"theorem": entry.theorem_id, **drawn.body}
        doc["functions"] = {slot: fn.descriptor() for slot, fn in parsed["functions"].items()}
        read = entry.read(scenario_from_doc(doc))
        _same_measures(drawn.measures, read.measures)
        assert drawn.interval == read.interval
        assert drawn.normalization == read.normalization
        assert canonical_json(drawn.body) == canonical_json(read.body)


@pytest.mark.parametrize("entry", REGISTRY_ORDER, ids=lambda e: e.theorem_id)
def test_a_suite_document_replays_to_itself(entry):
    """A trial's inputs document writes its operators as diagonals, and replaying
    it gives the trial's gap and verdict and writes the document back unchanged."""
    reports = []
    config = TrialConfig(seed=11, trials=6, dim_range=(1, 6), theorem_ids=(entry.theorem_id,))
    run_suite(config, on_report=lambda _tid, _trial, report: reports.append(report))
    assert len(reports) == 6
    for report in reports:
        text = canonical_json(report.inputs_digest)
        assert '"eigenvectors"' not in text
        replayed = run_scenario(scenario_from_doc(load_json(text)))
        assert (replayed.gap, replayed.verdict) == (report.gap, report.verdict)
        assert canonical_json(replayed.inputs_digest) == text


# ---------------------------------------------------------------------------
# the same input rules


def _raised(fn) -> type:
    with pytest.raises(OpineqError) as info:
        fn()
    return type(info.value)


@pytest.mark.parametrize(
    "atoms, error",
    [
        ([1.0, math.nan], ConfigInvalid),
        ([1.0, math.inf], ConfigInvalid),
        ([1.0, 2.5], SpectrumOutOfInterval),
        ([0.5 - 1e-6, 1.5], SpectrumOutOfInterval),
        ([1.5] * (MAX_DIM + 1), ConfigInvalid),
        ([], ConfigInvalid),
    ],
    ids=["nan", "inf", "above", "below", "too-many", "empty"],
)
def test_drawn_spectrum_rules_raise_as_the_operator_does(atoms, error):
    iv = SpectralInterval(0.5, 2.0)
    c = np.full(len(atoms), 1.0 / math.sqrt(max(len(atoms), 1)))
    assert _raised(lambda: ReadPair.diagonal(atoms, c, iv)) is error
    assert _raised(lambda: HermitianOperator.diagonal(atoms, iv)) is error


def test_drawn_atoms_are_sorted_with_their_components_and_clipped():
    iv = SpectralInterval(1.0, 2.0)
    atoms, c = [2.0 + 1e-9, 1.5, 1.0 - 1e-9], np.sqrt([0.5, 0.3, 0.2])
    pair = ReadPair.diagonal(atoms, c, iv)
    expected = SpectralMeasure.of(HermitianOperator.diagonal(atoms, iv), StateVector(c))
    _same_measures([pair.measure], [expected])
    assert pair.measure.atoms.tolist() == [1.0, 1.5, 2.0]
    # the document reads back to the same measure
    reread = read_pair(HermitianOperator(pair.measure.atoms, np.eye(3), iv), StateVector(c[::-1]))
    _same_measures([pair.measure], reread.measures)


def _pairs_and_objects(components):
    atoms = [np.linspace(1.0, 2.0, len(c)) for c in components]
    pairs = [ReadPair.diagonal(lam, np.asarray(c), IV12) for lam, c in zip(atoms, components)]
    ops = [HermitianOperator.diagonal(lam, IV12) for lam in atoms]
    states = [StateVector(np.asarray(c)) for c in components]
    return pairs, ops, states


OFF = 1.0 + 10 * TOL_NORM


def test_drawn_unit_state_rule_raises_as_the_state_does():
    (pair,), (op,), (st,) = _pairs_and_objects([[0.6, 0.8 * OFF]])
    assert _raised(lambda: single_inputs(pair)) is NotUnitState
    assert _raised(lambda: read_pair(op, st)) is NotUnitState


def test_drawn_two_operator_rule_raises_as_the_states_do():
    pairs, ops, states = _pairs_and_objects([[1.0], [0.6 * OFF, 0.8]])
    assert _raised(lambda: two_inputs(*pairs)) is NotUnitState
    assert _raised(lambda: read_two(ops[0], ops[1], states[0], states[1])) is NotUnitState


def test_drawn_sum_of_squares_rule_raises_as_the_ensemble_does():
    pairs, ops, states = _pairs_and_objects([[0.6], [0.48, 0.64 * OFF]])
    assert _raised(lambda: ensemble_inputs(pairs, SUM_OF_SQUARES)) is NormalizationViolation
    assert _raised(lambda: OperatorEnsemble(ops, states, SUM_OF_SQUARES)) is NormalizationViolation


def test_drawn_per_vector_rule_raises_as_the_ensemble_does():
    pairs, ops, states = _pairs_and_objects([[1.0], [0.6, 0.8], [OFF]])
    assert _raised(lambda: ensemble_inputs(pairs, PER_VECTOR)) is NormalizationViolation
    assert _raised(lambda: OperatorEnsemble(ops, states, PER_VECTOR)) is NormalizationViolation
    # the unit members alone pass
    assert ensemble_inputs(pairs[:2], PER_VECTOR).normalization == PER_VECTOR


def test_read_ensemble_keeps_the_members_and_their_normalization():
    pairs, ops, states = _pairs_and_objects([[1.0], [0.6, 0.8]])
    drawn = ensemble_inputs(pairs, PER_VECTOR)
    read = read_ensemble(OperatorEnsemble(ops, states, PER_VECTOR))
    _same_measures(drawn.measures, read.measures)
    assert canonical_json(drawn.body) == canonical_json(read.body)


# ---------------------------------------------------------------------------
# expect


def _ones_product(mu: SpectralMeasure, fns) -> "float | np.ndarray":
    vals = np.ones_like(mu.weights)
    for fn in fns:
        vals = vals * np.asarray(fn.evaluate(mu.atoms), dtype=np.float64)
    if mu.weights.ndim == 1:
        return float(mu.weights @ vals)
    return (mu.weights * vals).sum(axis=-1)


MEASURES = [
    SpectralMeasure(np.array([-1.0, -0.0, 0.5, 2.0]), np.array([0.25, 0.25, 0.25, 0.25])),
    SpectralMeasure(np.array([0.0]), np.array([1.0])),
    SpectralMeasure(np.array([-0.0, 3.0]), np.array([0.0, 1.0])),
    SpectralMeasure(np.array([[-2.0, 0.0], [0.5, 1.5]]), np.array([[0.5, 0.5], [0.1, 0.9]])),
]
FUNCTIONS = [identity(), constant(-0.0), constant(0.0), power(2.0), exp_fn(), constant(-1.5)]


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_expect_equals_the_ones_product_bit_for_bit(count):
    for mu in MEASURES:
        for fns in itertools.product(FUNCTIONS, repeat=count):
            fresh = SpectralMeasure(mu.atoms, mu.weights)
            got = fresh.expect(*fns)
            again = fresh.expect(*fns)  # a second read of the same measure
            want = _ones_product(mu, fns)
            assert _bits(np.asarray(got)) == _bits(np.asarray(want)), fns
            assert _bits(np.asarray(again)) == _bits(np.asarray(want)), fns


def test_measure_of_has_contiguous_weights():
    u = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=np.complex128)
    A = HermitianOperator([1.0, 2.0], u, IV12)
    mu = SpectralMeasure.of(A, StateVector(np.array([1.0, 0.0])))
    assert mu.weights.flags.c_contiguous
    assert mu.weights.dtype == np.float64


def test_suite_trials_draw_no_operator_or_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an operator or a state was built")

    monkeypatch.setattr(HermitianOperator, "__post_init__", refuse)
    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    summary = run_suite(TrialConfig(seed=3, trials=3))
    assert sum(summary.totals().values()) == 3 * len(REGISTRY_ORDER)
