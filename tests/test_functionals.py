"""Single-operator inequality checkers and their report semantics."""

from functools import partial

import numpy as np
import pytest

from opineq import (
    ConfigInvalid,
    DomainViolation,
    GE,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    IntervalMismatch,
    OperatorEnsemble,
    PER_VECTOR,
    SUM_OF_SQUARES,
    LE,
    NonPositiveSpectrum,
    NotUnitState,
    SpectralInterval,
    HermitianOperator,
    StateVector,
    canonical_json,
    cebysev,
    check_ensemble_mean_point,
    check_ensemble_sign_bound,
    check_ensemble_square_bound,
    check_inverse_pair,
    check_mean_point,
    check_sign_bound,
    check_square_bound,
    check_two_operator,
    constant,
    discrete_chebyshev,
    exp_fn,
    from_dense,
    identity,
    inverse_pair_hull,
    kantorovich_chain,
    kantorovich_ensemble_chain,
    linear_combination,
    log_fn,
    lookup,
    mean_point_sides,
    neg_parabola,
    pompeiu_cebysev,
    power,
    random_operator,
    random_state,
    run_scenario,
    scenario_from_doc,
    tol_calc,
    trial_rng,
)
from opineq import StateVector as SV
from opineq.functionals import (
    _inverse_pair_sides,
    _operator_doc,
    _state_doc,
    _kantorovich_sides,
    _sign_sides,
    _square_sides,
    _slot_values,
    _two_operator_sides,
    read_pair,
)
from opineq.spectral import SpectralMeasure

IR2 = 1.0 / np.sqrt(2.0)
IV12 = SpectralInterval(1.0, 2.0)
DIAG12 = HermitianOperator.diagonal([1.0, 2.0], IV12)
EQ2 = StateVector(np.asarray([IR2, IR2]))
ONE = constant(1.0)
ID = identity()
SQ = power(2.0)
INV = power(-1.0)


def _unit_state(rng, dim):
    x = random_state(rng, dim)
    return StateVector(x.components / x.norm)


def _run_entry(theorem_id, functions, A, x):
    """Registry entry ``theorem_id`` run on (A, x), as ``opineq check`` runs it."""
    doc = {"theorem": theorem_id, "functions": functions}
    return lookup(theorem_id).run(doc, read_pair(A, x))


# ---------------------------------------------------------------------------
# sides on a batch of measures under several function tuples, as the falsifier
# scores candidates


def _tuple_values(tuples):
    """values(points) under several function tuples, as a falsify plan gives
    them: shape (slots, len(tuples), *points.shape)."""
    return lambda points: np.stack([[fn.evaluate(points) for fn in fns] for fns in tuples], axis=1)


# every function-taking sides function, how many measures it reads, and
# function tuples for its slots
FUNCTION_SIDES = {
    "sign": (_sign_sides, 1, [(SQ, exp_fn(), ID), (ID, INV, ONE), (exp_fn(), SQ, power(0.5))]),
    "square": (_square_sides, 1, [(SQ, ID), (exp_fn(), power(0.5)), (INV, INV)]),
    "mean-point": (mean_point_sides, 1, [(SQ, exp_fn(), ID), (log_fn(), ID, INV), (ID, ID, ONE)]),
    "inverse-pair": (_inverse_pair_sides, 1, [(SQ, log_fn(), exp_fn()), (ID, INV, power(0.5))]),
    "two-op": (_two_operator_sides, 2, [(SQ, exp_fn(), ID), (INV, ID, power(3.0))]),
}


def _float_bits(v) -> bytes:
    return np.float64(v).tobytes()


@pytest.mark.parametrize("name", list(FUNCTION_SIDES))
def test_sides_of_a_batch_are_each_measures_sides(name):
    sides, n_measures, tuples = FUNCTION_SIDES[name]
    rng = np.random.default_rng(0)
    measures = [
        SpectralMeasure(rng.uniform(1.0, 2.0, (6, 3)), rng.dirichlet(np.ones(3), 6))
        for _ in range(n_measures)
    ]
    batch = sides(*measures, _tuple_values(tuples))
    assert all(np.shape(v) == (len(tuples), 6) for v in batch)
    for t, fns in enumerate(tuples):
        for k in range(6):
            # the row on its own under the tuple on its own: the same reduction, bit for bit
            row = [SpectralMeasure(m.atoms[k : k + 1], m.weights[k : k + 1]) for m in measures]
            alone = sides(*row, _tuple_values([fns]))
            assert [_float_bits(v[t, k]) for v in batch] == [_float_bits(v[0, 0]) for v in alone]
            # one measure, as a check's core reads it, reduces by a dot product
            single = [SpectralMeasure(m.atoms[k], m.weights[k]) for m in measures]
            want = sides(*single, _slot_values(*fns))
            assert [float(v[t, k]) for v in batch] == pytest.approx(want, rel=1e-12)


def test_kantorovich_sides_of_a_batch_are_each_measures_sides():
    rng = np.random.default_rng(0)
    mu = SpectralMeasure(rng.uniform(1.0, 2.0, (6, 3)), rng.dirichlet(np.ones(3), 6))
    batch = [np.broadcast_to(v, (6,)) for link in _kantorovich_sides(mu, 2.0) for v in link]
    for k in range(6):
        row = SpectralMeasure(mu.atoms[k], mu.weights[k])
        single = [v for link in _kantorovich_sides(row, 2.0) for v in link]
        assert [float(v[k]) for v in batch] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("name", list(FUNCTION_SIDES))
def test_a_cores_values_evaluate_once_per_slot(monkeypatch, name):
    sides, n_measures, tuples = FUNCTION_SIDES[name]
    # the same function in every slot is evaluated for each
    fns = (SQ,) * len(tuples[0])
    mu = SpectralMeasure(np.asarray([1.25, 1.5, 2.0]), np.asarray([0.25, 0.5, 0.25]))
    evaluate = type(ID).evaluate
    calls = []
    monkeypatch.setattr(type(ID), "evaluate", lambda fn, pts: calls.append(fn) or evaluate(fn, pts))
    values, counts = _slot_values(*fns), []

    def counted(points):
        before = len(calls)
        out = values(points)
        counts.append(len(calls) - before)
        assert isinstance(out, list)
        return out

    sides(*[mu] * n_measures, counted)
    assert counts and counts == [len(fns)] * len(counts)


# ---------------------------------------------------------------------------
# scenario documents


def _pair_lists(z):
    """The writers' earlier element-by-element form."""
    if z.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in z]
    return [_pair_lists(row) for row in z]


def _hex(doc):
    """A document's floats in hex, so that -0.0 and 0.0 differ."""
    if isinstance(doc, list):
        return [_hex(v) for v in doc]
    if isinstance(doc, dict):
        return {k: _hex(v) for k, v in doc.items()}
    return (type(doc).__name__, doc.hex() if isinstance(doc, float) else doc)


S, S2, S3 = identity(), power(2.0), power(3.0)
ONE_BLOCK = OperatorEnsemble((DIAG12,), (EQ2,), SUM_OF_SQUARES)
ONE_UNIT = OperatorEnsemble((DIAG12,), (EQ2,), PER_VECTOR)
PUBLIC_CHECKS = {
    "pc-sign": (check_sign_bound, (S2, S3, S, DIAG12, EQ2)),
    "pc-square": (check_square_bound, (S2, S, DIAG12, EQ2)),
    "pc-two-op": (check_two_operator, (S2, S3, S, DIAG12, DIAG12, EQ2, EQ2)),
    "mean-point": (check_mean_point, (S2, S3, S, DIAG12, EQ2)),
    "inverse-pair": (check_inverse_pair, (S2, S3, S, DIAG12, EQ2)),
    "ensemble-pc-sign": (check_ensemble_sign_bound, (S2, S3, S, ONE_BLOCK)),
    "ensemble-pc-square": (check_ensemble_square_bound, (S2, S, ONE_BLOCK)),
    "ensemble-mean-point": (check_ensemble_mean_point, (S2, S3, S, ONE_BLOCK)),
    "kantorovich-lower": (partial(kantorovich_chain, link=0), (DIAG12, EQ2)),
    "kantorovich-upper": (partial(kantorovich_chain, link=1), (DIAG12, EQ2)),
    "ensemble-product-lower": (partial(kantorovich_ensemble_chain, link=0), (ONE_UNIT,)),
    "ensemble-chebyshev-link": (partial(kantorovich_ensemble_chain, link=1), (ONE_UNIT,)),
    "ensemble-kantorovich-upper": (partial(kantorovich_ensemble_chain, link=2), (ONE_UNIT,)),
    "discrete-chebyshev": (discrete_chebyshev, ([1.0, 2.0, 4.0], [1, 3, 3])),
}
# more inputs per id: the ungated discrete check on unordered tuples
MORE_PUBLIC_CHECKS = {
    "discrete-chebyshev": [(partial(discrete_chebyshev, gate=False), ([1.0, 2.0], [2.0, -1.0]))],
}


@pytest.mark.parametrize("theorem_id", list(PUBLIC_CHECKS))
def test_a_public_check_writes_a_document_of_its_own_id(theorem_id):
    """No public check takes a theorem id, nor claims the automatic hypothesis,
    so its inputs document replays to the report the check wrote, and is
    written back byte for byte."""
    for check, args in [PUBLIC_CHECKS[theorem_id], *MORE_PUBLIC_CHECKS.get(theorem_id, [])]:
        report = check(*args)
        assert report.theorem_id == report.inputs_digest["theorem"] == theorem_id
        replay = run_scenario(scenario_from_doc(report.inputs_digest))
        assert replay.to_record() == report.to_record()
        assert canonical_json(replay.inputs_digest) == canonical_json(report.inputs_digest)
        with pytest.raises(TypeError, match="theorem_id"):
            check(*args, theorem_id="mean-point")
        with pytest.raises(TypeError, match="auto_hypothesis"):
            check(*args, auto_hypothesis=True)


# (public check, arguments, the document fields the keywords write)
KEYWORD_CHECKS = {
    "numpy-grid": (
        partial(check_sign_bound, grid_n=np.int64(16)),
        (SQ, power(3.0), ID, DIAG12, EQ2),
        {"grid_n": 16},
    ),
    "numpy-grid-unread": (
        partial(check_ensemble_square_bound, grid_n=np.int32(9)),
        (SQ, ID, ONE_BLOCK),
        {"grid_n": 9},
    ),
    "reversed": (
        partial(check_mean_point, direction=LE),
        (SQ, INV, ID, DIAG12, EQ2),
        {"direction": LE},
    ),
    "gate-off": (
        partial(check_two_operator, direction=LE, gate_hypothesis=False),
        (SQ, power(3.0), ID, DIAG12, DIAG12, EQ2, EQ2),
        {"direction": LE, "gate_hypothesis": False},
    ),
    "bound-interval": (
        partial(kantorovich_chain, bound_interval=SpectralInterval(1, 1.5), link=1),
        (DIAG12, EQ2),
        {"bound_interval": [1.0, 1.5], "grid_n": 128, "functions": {}},
    ),
    "per-op-intervals": (
        partial(kantorovich_ensemble_chain, per_op_intervals=[(1, 3)], gate=False, link=2),
        (ONE_UNIT,),
        {"per_op_intervals": [[1.0, 3.0]], "gate_hypothesis": False},
    ),
    "per-op-intervals-array": (
        partial(kantorovich_ensemble_chain, per_op_intervals=np.array([[0.5, 2.5]]), link=0),
        (ONE_UNIT,),
        {"per_op_intervals": [[0.5, 2.5]]},
    ),
    "chebyshev-gate-off": (
        partial(discrete_chebyshev, gate=False, tol_factor=10.0),
        (np.array([3, 1, 2]), [1.0, 2.0, 3.0]),
        {"tuples": {"a": [3.0, 1.0, 2.0], "b": [1.0, 2.0, 3.0]}, "gate_hypothesis": False},
    ),
}


@pytest.mark.parametrize("case", list(KEYWORD_CHECKS))
def test_keywords_are_written_as_read_and_replay(case):
    """A keyword the check read is written to its inputs document in the form
    the document reader gives back, so the document replays to the report."""
    check, args, fields = KEYWORD_CHECKS[case]
    report = check(*args)
    for key, value in fields.items():
        assert report.inputs_digest[key] == value
        assert type(report.inputs_digest[key]) is type(value)
    # tol_factor is a replay's argument, not a document field
    tol_factor = check.keywords.get("tol_factor", 1.0)
    replay = run_scenario(scenario_from_doc(report.inputs_digest), tol_factor=tol_factor)
    assert replay.to_record() == report.to_record()


@pytest.mark.parametrize(
    "check, args",
    [
        (check_square_bound, (SQ, ID, DIAG12, EQ2)),
        (check_ensemble_square_bound, (SQ, ID, ONE_BLOCK)),
        (kantorovich_chain, (DIAG12, EQ2)),
        (kantorovich_ensemble_chain, (ONE_UNIT,)),
    ],
    ids=["square", "ensemble-square", "chain", "ensemble-chain"],
)
def test_a_fractional_grid_is_refused_where_no_core_reads_it(check, args):
    """Every check that writes grid_n reads it first, so a value its document
    could not replay is refused rather than written."""
    with pytest.raises(ConfigInvalid, match="grid_n must be an integer, got 9.5"):
        check(*args, grid_n=9.5)


def test_the_ensemble_mean_point_check_takes_no_extra_notes():
    with pytest.raises(TypeError, match="extra_notes"):
        check_ensemble_mean_point(S2, S3, S, ONE_BLOCK, extra_notes=("a note",))


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_document_writers_match_the_elementwise_form(dim):
    rng = trial_rng(5, 0, dim)
    A = random_operator(rng, dim, SpectralInterval(0.5, 3.0))
    dense = from_dense(A.matrix, A.interval)
    # -I: every entry's imaginary part and every off-diagonal real part is -0.0
    negated = HermitianOperator(A.eigenvalues, -np.eye(dim, dtype=np.complex128), A.interval)
    comps = random_state(rng, dim).components.copy()
    comps[0] = complex(-0.0, 0.0)
    states = [StateVector(comps), StateVector(np.abs(comps.real)), StateVector(-comps)]
    ascending = HermitianOperator.diagonal(A.eigenvalues, A.interval)
    descending = HermitianOperator.diagonal(A.eigenvalues[::-1], A.interval)
    # an explicit identity basis is a basis given, not the standard basis
    given_identity = HermitianOperator(A.eigenvalues, np.eye(dim), A.interval)
    eigenpairs = [A, dense, negated, given_identity] + ([descending] if dim > 1 else [])
    for op in eigenpairs:
        assert not op.standard_basis
        expected = {
            "dim": dim,
            "eigenvalues": [float(v) for v in op.eigenvalues],
            "eigenvectors": _pair_lists(op.eigenvectors),
            "interval": [op.interval.lo, op.interval.hi],
        }
        assert _hex(_operator_doc(op)) == _hex(expected)
    for op in [ascending] + ([] if dim > 1 else [descending]):
        assert op.standard_basis
        expected = {
            "diagonal": [float(v) for v in A.eigenvalues],
            "interval": [op.interval.lo, op.interval.hi],
        }
        assert _hex(_operator_doc(op)) == _hex(expected)
    for x in states:
        assert _hex(_state_doc(x)) == _hex({"components": _pair_lists(x.components)})
    assert "-0.0" in str(_operator_doc(negated)) and "-0.0" in str(_state_doc(states[0]))


@pytest.mark.parametrize("values", [[1.0 - 1e-9, 1.5, 2.0 + 1e-9], [2.0 + 1e-9, 2.0, 1.5]],
                         ids=["ascending", "out-of-order-tied-by-the-clip"])
def test_operator_documents_read_back_to_the_same_basis(values):
    iv = SpectralInterval(1.0, 2.0)
    A = HermitianOperator.diagonal(values, iv)
    x = SV.unit([0.5, 0.25, -1.0])
    doc = _operator_doc(A)
    assert ("diagonal" in doc) is A.standard_basis
    B = scenario_from_doc({"theorem": "pc-sign", "operator": doc})["operator"]
    assert B.eigenvectors.tobytes() == A.eigenvectors.tobytes()
    assert B.eigenvalues.tobytes() == A.eigenvalues.tobytes()
    mu, nu = SpectralMeasure.of(A, x), SpectralMeasure.of(B, x)
    assert mu.weights.tobytes() == nu.weights.tobytes()
    assert _operator_doc(B) == doc


# ---------------------------------------------------------------------------
# raw functionals


class TestCebysev:
    def test_identity_operator_gives_zero(self):
        A = HermitianOperator.diagonal([1.0, 1.0, 1.0], SpectralInterval(1.0, 1.0))
        x = SV.unit([1.0, 2.0, -1.0])
        assert cebysev(SQ, exp_fn(), A, x) == pytest.approx(0.0, abs=1e-14)

    def test_pinned_quarter(self):
        assert cebysev(ID, ID, DIAG12, EQ2) == pytest.approx(0.25, abs=1e-12)

    def test_pinned_inverse_pair(self):
        assert cebysev(ID, INV, DIAG12, EQ2) == pytest.approx(-0.125, abs=1e-12)

    def test_rejects_non_unit_state(self):
        with pytest.raises(NotUnitState):
            cebysev(ID, ID, DIAG12, StateVector(np.asarray([1.0, 1.0])))


class TestPompeiuCebysev:
    def test_equal_triple_gives_zero(self):
        for fn in (ID, SQ, exp_fn()):
            assert pompeiu_cebysev(fn, fn, fn, DIAG12, EQ2) == pytest.approx(
                0.0, abs=1e-13
            )

    def test_pinned_value(self):
        assert pompeiu_cebysev(SQ, SQ, ID, DIAG12, EQ2) == pytest.approx(1.0, abs=1e-12)

    def test_unit_weight_reduces_to_cebysev(self):
        for trial in range(25):
            rng = trial_rng(21, 0, trial)
            dim = int(rng.integers(1, 7))
            A = random_operator(rng, dim, IV12)
            x = _unit_state(rng, dim)
            a = pompeiu_cebysev(ID, INV, ONE, A, x)
            b = cebysev(ID, INV, A, x)
            assert abs(a - b) <= tol_calc(abs(b))

    def test_argument_symmetry(self):
        for trial in range(25):
            rng = trial_rng(21, 1, trial)
            dim = int(rng.integers(1, 7))
            A = random_operator(rng, dim, IV12)
            x = _unit_state(rng, dim)
            a = pompeiu_cebysev(SQ, log_fn(), ID, A, x)
            b = pompeiu_cebysev(log_fn(), SQ, ID, A, x)
            assert abs(a - b) <= tol_calc(abs(a))

    def test_sign_covariance(self):
        neg = linear_combination((-1.0, SQ))
        for trial in range(25):
            rng = trial_rng(21, 2, trial)
            dim = int(rng.integers(1, 7))
            A = random_operator(rng, dim, IV12)
            x = _unit_state(rng, dim)
            a = pompeiu_cebysev(SQ, log_fn(), ID, A, x)
            b = pompeiu_cebysev(neg, log_fn(), ID, A, x)
            assert abs(a + b) <= tol_calc(abs(a))

    def test_weight_scaling_is_quadratic(self):
        scaled = linear_combination((3.0, ID))
        base = pompeiu_cebysev(SQ, log_fn(), ID, DIAG12, EQ2)
        big = pompeiu_cebysev(SQ, log_fn(), scaled, DIAG12, EQ2)
        assert big == pytest.approx(9.0 * base, abs=tol_calc(abs(big)))

    def test_eigenvector_state_gives_zero(self):
        e1 = StateVector(np.asarray([1.0, 0.0]))
        assert pompeiu_cebysev(SQ, log_fn(), ID, DIAG12, e1) == pytest.approx(
            0.0, abs=1e-13
        )
        assert cebysev(SQ, log_fn(), DIAG12, e1) == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# sign-bound checker


class TestCheckSignBound:
    def test_synchronous_pinned_gap(self):
        r = check_sign_bound(SQ, SQ, ID, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.direction == GE
        assert r.gap == pytest.approx(1.0, abs=1e-12)
        assert r.lhs == pytest.approx(2.5 * 8.5, abs=1e-12)
        assert r.rhs == pytest.approx(4.5**2, abs=1e-12)

    def test_asynchronous_oriented_gap(self):
        r = check_sign_bound(ID, INV, ONE, DIAG12, EQ2, LE)
        assert r.verdict == HOLDS
        assert r.direction == LE
        assert r.gap == pytest.approx(0.125, abs=1e-12)

    def test_asynchronous_direction_implied(self):
        r = check_sign_bound(ID, INV, ONE, DIAG12, EQ2)
        assert r.direction == LE
        assert r.verdict == HOLDS

    def test_equal_triple_equality(self):
        r = check_sign_bound(ID, ID, ID, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.gap == pytest.approx(0.0, abs=1e-13)

    def test_mixed_pair_fails_hypothesis(self):
        A = HermitianOperator.diagonal([0.2, 0.8], SpectralInterval(0.1, 0.9))
        x = EQ2
        r = check_sign_bound(neg_parabola(), ID, ONE, A, x)
        assert r.verdict == HYPOTHESIS_NOT_MET
        assert r.hypothesis_evidence["classification"] == "mixed"

    def test_wrong_direction_fails_hypothesis(self):
        r = check_sign_bound(SQ, SQ, ID, DIAG12, EQ2, LE)
        assert r.verdict == HYPOTHESIS_NOT_MET

    def test_gate_override_scores_anyway(self):
        r = check_sign_bound(SQ, SQ, ID, DIAG12, EQ2, LE, gate_hypothesis=False)
        assert r.verdict != HYPOTHESIS_NOT_MET
        assert r.direction == LE
        assert r.gap == pytest.approx(-1.0, abs=1e-12)

    def test_report_coherence(self):
        r = check_sign_bound(SQ, exp_fn(), ID, DIAG12, EQ2)
        assert r.gap == pytest.approx(r.lhs - r.rhs, abs=1e-15)
        assert r.tolerance > 0.0
        rec = r.to_record()
        assert rec["theorem_id"] == "pc-sign"
        assert isinstance(rec["notes"], list)

    def test_inputs_digest_replays_to_same_gap(self):
        r = check_sign_bound(SQ, exp_fn(), ID, DIAG12, EQ2)
        replay = run_scenario(scenario_from_doc(r.inputs_digest))
        assert replay.verdict == r.verdict
        assert abs(replay.gap - r.gap) <= tol_calc(abs(r.gap))

    def test_overflowing_grid_still_dispatches_le(self):
        # exp and -exp are asynchronous; their grid products overflow on [1, 465]
        neg_exp = linear_combination((-1.0, exp_fn()))
        A = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1.0, 465.0))
        with np.errstate(over="ignore"):
            r = check_sign_bound(exp_fn(), neg_exp, ONE, A, EQ2, grid_n=32)
        assert r.direction == LE
        assert r.verdict == HOLDS

    def test_weight_scaling_keeps_verdict(self):
        base = check_sign_bound(SQ, log_fn(), ID, DIAG12, EQ2)
        scaled = check_sign_bound(
            SQ, log_fn(), linear_combination((5.0, ID)), DIAG12, EQ2
        )
        assert scaled.verdict == base.verdict == HOLDS
        assert scaled.gap == pytest.approx(25.0 * base.gap, abs=tol_calc(scaled.gap))


# ---------------------------------------------------------------------------
# square-bound checker


class TestCheckSquareBound:
    def test_pinned_sqrt_instance(self):
        r = check_square_bound(power(0.5), ID, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.direction == LE
        assert r.lhs == pytest.approx(3.75, abs=1e-12)
        assert r.rhs == pytest.approx(((1.0 + 2.0 * np.sqrt(2.0)) / 2.0) ** 2, abs=1e-12)

    def test_equal_pair_equality(self):
        r = check_square_bound(ID, ID, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.gap == pytest.approx(0.0, abs=1e-13)

    def test_eigenvector_state_equality(self):
        e2 = StateVector(np.asarray([0.0, 1.0]))
        r = check_square_bound(exp_fn(), SQ, DIAG12, e2)
        assert r.gap == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_is_automatic(self):
        r = check_square_bound(exp_fn(), log_fn(), DIAG12, EQ2)
        assert r.hypothesis_evidence["kind"] == "automatic"

    @pytest.mark.parametrize("lam", [[460.0, 465.0], [300.0, 400.0]])
    def test_non_finite_sides_raise_domain_violation(self, lam):
        A = HermitianOperator.diagonal(lam, SpectralInterval(lam[0], lam[1]))
        with pytest.raises(DomainViolation):
            check_square_bound(exp_fn(), exp_fn(), A, EQ2)

    def test_always_holds_on_random_draws(self):
        fns = [ID, SQ, INV, exp_fn(), log_fn(), power(0.5)]
        for trial in range(100):
            rng = trial_rng(22, 0, trial)
            dim = int(rng.integers(1, 7))
            A = random_operator(rng, dim, IV12)
            x = _unit_state(rng, dim)
            f = fns[int(rng.integers(len(fns)))]
            h = fns[int(rng.integers(len(fns)))]
            assert check_square_bound(f, h, A, x).verdict == HOLDS


# ---------------------------------------------------------------------------
# Kantorovich chain


class TestKantorovichChain:
    def test_pinned_extremal_state(self):
        lower, upper = kantorovich_chain(DIAG12, EQ2)
        assert lower.verdict == HOLDS and upper.verdict == HOLDS
        assert lower.lhs == pytest.approx(1.125, abs=1e-12)
        assert lower.rhs == 1.0
        assert upper.lhs == pytest.approx(9.0 / 8.0, abs=1e-15)
        assert upper.gap == pytest.approx(0.0, abs=1e-12)

    def test_eigenvector_state_lower_equality(self):
        e1 = StateVector(np.asarray([1.0, 0.0]))
        lower, _ = kantorovich_chain(DIAG12, e1)
        assert lower.lhs == pytest.approx(1.0, abs=1e-13)
        assert lower.gap == pytest.approx(0.0, abs=1e-13)

    def test_scalar_operator_both_equalities(self):
        c = 1.7
        A = HermitianOperator.diagonal([c, c], SpectralInterval(c, c))
        lower, upper = kantorovich_chain(A, EQ2)
        assert lower.gap == pytest.approx(0.0, abs=1e-13)
        assert upper.gap == pytest.approx(0.0, abs=1e-13)

    def test_nonpositive_interval_rejected(self):
        A = HermitianOperator.diagonal([0.5, 1.0], SpectralInterval(0.0, 1.0))
        with pytest.raises(NonPositiveSpectrum):
            kantorovich_chain(A, EQ2)

    def test_bound_interval_containment_evidence(self):
        _, upper = kantorovich_chain(DIAG12, EQ2, bound_interval=SpectralInterval(1.0, 3.0))
        ev = upper.hypothesis_evidence
        assert ev["kind"] == "spectral-containment"
        assert ev["contained"] is True
        _, lying = kantorovich_chain(DIAG12, EQ2, bound_interval=SpectralInterval(1.0, 1.5))
        assert lying.hypothesis_evidence["contained"] is False

    @pytest.mark.parametrize("bound", [(1.0, 2.0), [1.0, 2.0], "x", 2.0])
    def test_bound_interval_must_be_an_interval(self, bound):
        for link in (None, 0, 1):
            with pytest.raises(ConfigInvalid, match="bound_interval must be a SpectralInterval"):
                kantorovich_chain(DIAG12, EQ2, bound_interval=bound, link=link)

    def test_without_bound_interval_no_containment_evidence(self):
        lower, upper = kantorovich_chain(DIAG12, EQ2)
        assert lower.hypothesis_evidence is None
        assert upper.hypothesis_evidence is None

    def test_upper_notes_list_both_constants(self):
        _, upper = kantorovich_chain(DIAG12, EQ2)
        joined = "\n".join(upper.notes)
        assert "(lo+hi)^2/(4*lo*hi)" in joined
        assert "(hi-lo)^2/(4*lo*hi)" in joined
        assert "not used" in joined

    def test_link_builds_only_its_report(self):
        lower, upper = kantorovich_chain(DIAG12, EQ2)
        assert kantorovich_chain(DIAG12, EQ2, link=0) == lower
        assert kantorovich_chain(DIAG12, EQ2, link=1) == upper
        assert kantorovich_chain(DIAG12, EQ2, link=np.int64(1)) == upper
        # the upper constant overflows on [1e-200, 1e200]; the lower link never reads it
        wide = HermitianOperator.diagonal([1.0, 2.0], SpectralInterval(1e-200, 1e200))
        assert kantorovich_chain(wide, EQ2, link=0).verdict == HOLDS
        with pytest.raises(DomainViolation, match="kantorovich-upper: sides inf"):
            kantorovich_chain(wide, EQ2, link=1)
        with pytest.raises(DomainViolation, match="kantorovich-upper"):
            kantorovich_chain(wide, EQ2)

    def test_unknown_link_rejected(self):
        # a link is an integer index, refused before the inputs are read
        unread = StateVector(np.asarray([1.0, 1.0]))
        for link in (2, -1, True, 1.0):
            for x in (EQ2, unread):
                with pytest.raises(ConfigInvalid, match="link"):
                    kantorovich_chain(DIAG12, x, link=link)

    def test_random_positive_draws_hold(self):
        for trial in range(100):
            rng = trial_rng(23, 0, trial)
            dim = int(rng.integers(1, 7))
            A = random_operator(rng, dim, SpectralInterval(0.5, 3.0))
            x = _unit_state(rng, dim)
            lower, upper = kantorovich_chain(A, x)
            assert lower.verdict == HOLDS
            assert upper.verdict == HOLDS


# ---------------------------------------------------------------------------
# two-operator checker


class TestCheckTwoOperator:
    def test_collapse_to_doubled_functional(self):
        r = check_two_operator(SQ, log_fn(), ID, DIAG12, DIAG12, EQ2, EQ2)
        doubled = 2.0 * pompeiu_cebysev(SQ, log_fn(), ID, DIAG12, EQ2)
        assert r.gap == pytest.approx(doubled, abs=tol_calc(abs(doubled)))

    def test_pinned_power_instance_holds(self):
        B = HermitianOperator.diagonal([1.0, 1.5], IV12)
        r = check_two_operator(SQ, SQ, ID, DIAG12, B, EQ2, EQ2)
        assert r.verdict == HOLDS
        assert r.direction == GE

    def test_exp_pair_with_inverse_weight_holds(self):
        r = check_two_operator(
            exp_fn(),
            exp_fn(),
            INV,
            DIAG12,
            HermitianOperator.diagonal([1.2, 1.8], IV12),
            EQ2,
            EQ2,
        )
        assert r.verdict == HOLDS

    def test_interval_mismatch(self):
        B = HermitianOperator.diagonal([1.0, 1.5], SpectralInterval(1.0, 1.5))
        with pytest.raises(IntervalMismatch):
            check_two_operator(SQ, SQ, ID, DIAG12, B, EQ2, EQ2)

    def test_inputs_digest_replays(self):
        B = HermitianOperator.diagonal([1.0, 1.5], IV12)
        y = StateVector(np.asarray([0.6, 0.8]))
        r = check_two_operator(SQ, SQ, ID, DIAG12, B, EQ2, y)
        replay = run_scenario(scenario_from_doc(r.inputs_digest))
        assert abs(replay.gap - r.gap) <= tol_calc(abs(r.gap))


# ---------------------------------------------------------------------------
# mean-point checker


class TestCheckMeanPoint:
    def test_pinned_sides(self):
        r = check_mean_point(ID, ID, ONE, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.lhs == pytest.approx(0.25, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)

    def test_equal_triple_sides_match(self):
        r = check_mean_point(ID, ID, ID, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.lhs == pytest.approx(-0.625, abs=1e-12)
        assert r.rhs == pytest.approx(-0.625, abs=1e-12)
        assert r.gap == pytest.approx(0.0, abs=1e-13)

    def test_sides_helper_matches_checker(self):
        mu = SpectralMeasure(np.asarray([1.0, 2.0]), np.asarray([0.5, 0.5]))
        lhs, rhs = mean_point_sides(mu, _slot_values(ID, ID, ONE))
        assert lhs == pytest.approx(0.25)
        assert rhs == pytest.approx(0.0)

    def test_asynchronous_pair_dispatches_le(self):
        r = check_mean_point(ID, INV, ONE, DIAG12, EQ2)
        assert r.direction == LE
        assert r.verdict == HOLDS
        assert any("sign-reversed" in note for note in r.notes)

    def test_auto_hypothesis_skips_classification(self):
        r = _run_entry("mean-point-square", {"f": ID, "h": ONE}, DIAG12, EQ2)
        assert r.hypothesis_evidence["kind"] == "automatic"
        assert r.direction == GE
        assert r.verdict == HOLDS

    def test_mixed_pair_fails_hypothesis(self):
        A = HermitianOperator.diagonal([0.2, 0.8], SpectralInterval(0.1, 0.9))
        r = check_mean_point(neg_parabola(), ID, ONE, A, EQ2)
        assert r.verdict == HYPOTHESIS_NOT_MET


# ---------------------------------------------------------------------------
# inverse-pair checker


class TestCheckInversePair:
    def test_pinned_sides(self):
        r = check_inverse_pair(ID, ID, ONE, DIAG12, EQ2)
        assert r.verdict == HOLDS
        assert r.lhs == pytest.approx(2.8125, abs=1e-12)
        assert r.rhs == pytest.approx(2.25, abs=1e-12)

    def test_identity_operator_equality(self):
        A = HermitianOperator.diagonal([1.0, 1.0], SpectralInterval(1.0, 1.0))
        x = SV.unit([1.0, 1.0])
        r = check_inverse_pair(SQ, log_fn(), exp_fn(), A, x)
        assert r.gap == pytest.approx(0.0, abs=1e-12)

    def test_equal_functions_square_structure(self):
        for trial in range(50):
            rng = trial_rng(24, 0, trial)
            dim = int(rng.integers(1, 7))
            A = random_operator(rng, dim, IV12)
            x = _unit_state(rng, dim)
            r = _run_entry("inverse-pair-square", {"f": SQ, "h": ID}, A, x)
            assert r.gap >= -r.tolerance
            assert r.verdict == HOLDS

    def test_hull_constructor(self):
        hull = inverse_pair_hull(IV12)
        assert hull.as_pair() == (0.5, 2.0)
        with pytest.raises(NonPositiveSpectrum):
            inverse_pair_hull(SpectralInterval(0.0, 1.0))

    def test_hull_names_an_overflowing_inverse(self):
        # 1 / 5e-324 overflows; the message names 1/lo, not an interval [1.0, inf]
        with pytest.raises(ConfigInvalid, match=r"inverse 1/lo .* lo = 5e-324 overflows") as err:
            inverse_pair_hull(SpectralInterval(5e-324, 1.0))
        assert "inf" not in str(err.value)

    def test_hull_recorded_in_notes(self):
        r = check_inverse_pair(ID, ID, ONE, DIAG12, EQ2)
        assert any("hull" in note for note in r.notes)
        assert any("0.5" in note and "2" in note for note in r.notes)

    def test_nonpositive_interval_rejected(self):
        A = HermitianOperator.diagonal([0.5, 1.0], SpectralInterval(0.0, 1.0))
        with pytest.raises(NonPositiveSpectrum):
            check_inverse_pair(ID, ID, ONE, A, EQ2)

    def test_inputs_digest_replays(self):
        r = check_inverse_pair(ID, ID, ONE, DIAG12, EQ2)
        replay = run_scenario(scenario_from_doc(r.inputs_digest))
        assert abs(replay.gap - r.gap) <= tol_calc(abs(r.gap))
        assert replay.verdict == r.verdict
