"""Random generators, the property suite, and the counterexample search."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from opineq import (
    ConfigInvalid,
    DEFAULT_THEOREMS,
    DomainViolation,
    OpineqError,
    HOLDS,
    MAX_GRID_N,
    PER_VECTOR,
    REGISTRY_ORDER,
    SCENARIOS_BY_NAME,
    SUM_OF_SQUARES,
    SpectralInterval,
    TOL_NORM,
    TOL_UNITARY,
    TheoremTally,
    TrialConfig,
    UnknownTheorem,
    VIOLATION_FACTOR,
    canonical_json,
    classify_synchrony,
    config_from_doc,
    eigenbasis_weights,
    expectation_failures,
    falsify,
    load_json,
    operator_from_doc,
    random_ensemble,
    random_operator,
    random_state,
    run_scenario,
    run_suite,
    scenario_from_doc,
    state_from_doc,
    tol_calc,
    tol_ineq,
    trial_rng,
)
from opineq import harness
from opineq.harness import (
    ASYNC_TRIPLE_POOL,
    DROP_CONTAINMENT,
    DROP_NORMALIZATION,
    DROP_SYNCHRONY,
    SYNC_TRIPLE_POOL,
    _SEED_CHUNK,
    _NearestMiss,
    _flat_dirichlet,
    _random_blocks,
    _search_functions,
    _seed_words,
    _seed_words_type,
    _trial_parsed,
    _trial_rngs,
    _valid_entries,
)
from opineq.errors import quiet
from opineq.functionals import ReadPair
from opineq.functions import ScalarFunction, constant, power, sync_product
from opineq.registry import CLOSED_FORM, DROPPABLE, SWEEP, WITNESS, lookup
from opineq.tolerances import MAX_BUDGET, MAX_DIM, MAX_TRIALS, SEARCH_PLAN_MEMO_SIZE

IV12 = SpectralInterval(1.0, 2.0)

ID_DESC = {"kind": "identity"}
ONE_DESC = {"kind": "constant", "c": 1.0}
INV_DESC = {"kind": "power", "p": -1.0}
PARAB_DESC = {"kind": "neg_parabola"}


# ---------------------------------------------------------------------------
# RNG splitting


class TestTrialRng:
    def test_same_coordinates_same_stream(self):
        a = trial_rng(7, 3, 11).standard_normal(8)
        b = trial_rng(7, 3, 11).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "other", [(8, 3, 11), (7, 4, 11), (7, 3, 12)], ids=["seed", "ordinal", "trial"]
    )
    def test_any_coordinate_changes_the_stream(self, other):
        a = trial_rng(7, 3, 11).standard_normal(8)
        b = trial_rng(*other).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_42_operator_is_bit_stable(self):
        first = random_operator(trial_rng(42, 0, 0), 4, IV12)
        second = random_operator(trial_rng(42, 0, 0), 4, IV12)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


SEEDER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
SEEDER_TRIALS = [0, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1, MAX_TRIALS - 1]


class TestBatchSeeder:
    @pytest.mark.parametrize("seed", SEEDER_SEEDS)
    def test_words_and_generators_are_trial_rngs(self, seed):
        rows = [(e.ordinal, t) for e in REGISTRY_ORDER for t in SEEDER_TRIALS]
        ordinals, trials = (np.array(column) for column in zip(*rows))
        words = _seed_words(seed, ordinals, trials)
        assert words.shape == (len(rows), 4) and words.dtype == np.uint64
        for (ordinal, trial), row in zip(rows, words):
            want = np.random.SeedSequence([seed, ordinal, trial]).generate_state(4, np.uint64)
            assert row.tobytes() == want.tobytes(), (ordinal, trial)
            got = np.random.Generator(np.random.PCG64(_seed_words_type()(row)))
            oracle = trial_rng(seed, ordinal, trial)
            assert got.random(3).tobytes() == oracle.random(3).tobytes()
            assert got.integers(1, 9) == oracle.integers(1, 9)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_a_suites_generators_run_across_chunks_in_order(self, seed):
        ordinals, trials = [3, 11], _SEED_CHUNK // 2 + 1
        drawn = [rng.random() for rng in _trial_rngs(seed, ordinals, trials)]
        assert len(drawn) == len(ordinals) * trials == _SEED_CHUNK + 2
        for row in (0, trials - 1, trials, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1):
            ordinal, trial = ordinals[row // trials], row % trials
            assert drawn[row] == trial_rng(seed, ordinal, trial).random(), row

    @pytest.mark.parametrize(
        "n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64),
                           (4, np.int64), (4, np.float64)]
    )
    def test_the_stub_gives_only_pcg64s_words(self, n_words, dtype):
        words = _seed_words(7, np.array([0]), np.array([0]))[0]
        stub = _seed_words_type()(words)
        assert stub.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError, match="4 uint64 words"):
            stub.generate_state(n_words, dtype)


class TestFlatDirichlet:
    @pytest.mark.parametrize("blocks", [1, 2, 3, 4])
    def test_exponential_weights_are_numpys_dirichlet(self, blocks):
        # one block's weights, or up to four blocks' drawn jointly
        for d in range((blocks - 1) * MAX_DIM + 1, blocks * MAX_DIM + 1):
            for t in range(20):
                ours, numpys = trial_rng(9, d, t), trial_rng(9, d, t)
                w = _flat_dirichlet(ours, d)
                want = numpys.dirichlet(np.ones(d))
                assert w.tobytes() == want.tobytes(), (d, t)
                assert ours.random() == numpys.random(), (d, t)


# ---------------------------------------------------------------------------
# generators


class TestGenerators:
    def test_operator_soundness(self):
        for trial in range(300):
            rng = trial_rng(1, 0, trial)
            dim = int(rng.integers(1, 9))
            A = random_operator(rng, dim, IV12)
            assert A.eigenvalues.min() >= IV12.lo
            assert A.eigenvalues.max() <= IV12.hi
            residue = float(
                np.max(np.abs(A.eigenvectors.conj().T @ A.eigenvectors - np.eye(dim)))
            )
            assert residue <= TOL_UNITARY

    def test_dim_one_operator(self):
        A = random_operator(trial_rng(2, 0, 0), 1, IV12)
        assert A.dim == 1
        assert IV12.contains(float(A.eigenvalues[0]))

    def test_bad_dim_rejected(self):
        with pytest.raises(ConfigInvalid):
            random_operator(trial_rng(2, 0, 0), 0, IV12)
        with pytest.raises(ConfigInvalid):
            random_state(trial_rng(2, 0, 0), 0)

    def test_state_soundness(self):
        for trial in range(300):
            rng = trial_rng(1, 1, trial)
            dim = int(rng.integers(1, 9))
            x = random_state(rng, dim)
            assert abs(x.norm - 1.0) <= TOL_NORM

    def test_dim_one_state_has_unit_modulus(self):
        x = random_state(trial_rng(1, 2, 0), 1)
        assert abs(abs(x.components[0]) - 1.0) <= TOL_NORM

    @pytest.mark.parametrize("mode", [SUM_OF_SQUARES, PER_VECTOR])
    def test_ensemble_soundness(self, mode):
        for trial in range(100):
            rng = trial_rng(1, 3, trial)
            n = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 4)) for _ in range(n)]
            E = random_ensemble(rng, n, dims, IV12, mode)
            if mode == SUM_OF_SQUARES:
                total = sum(st.norm**2 for st in E.states)
                assert abs(total - 1.0) <= TOL_NORM
            else:
                for st in E.states:
                    assert abs(st.norm - 1.0) <= TOL_NORM

    def test_ensemble_dims_validated(self):
        with pytest.raises(ConfigInvalid):
            random_ensemble(trial_rng(1, 4, 0), 2, [2], IV12, PER_VECTOR)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda iv: random_operator(trial_rng(0, 0, 0), 2, iv),
            lambda iv: random_ensemble(trial_rng(0, 0, 0), 2, [2, 1], iv, PER_VECTOR),
        ],
        ids=["operator", "ensemble"],
    )
    def test_an_interval_whose_width_overflows_has_no_uniform_draw(self, draw):
        # the grid's rule: numpy's uniform would raise a raw OverflowError
        iv = SpectralInterval(-1e308, 1e308)
        want = "the interval [-1e+308, 1e+308] has no uniform draw: its width hi - lo overflows"
        with pytest.raises(ConfigInvalid) as err:
            draw(iv)
        assert str(err.value) == want
        with pytest.raises(ConfigInvalid, match="has no grid: its width hi - lo overflows"):
            iv.grid(9)


# ---------------------------------------------------------------------------
# suite draws: spectral measures drawn directly

MOMENT_DRAWS = 4000


def _moments(weights: np.ndarray) -> dict:
    """Sample means, with standard errors, of w_k, w_k^2 and w_j w_k (j != k),
    pooled over the exchangeable indices."""
    n = weights.shape[1]
    j, k = np.triu_indices(n, k=1)
    samples = {
        "w": weights.mean(axis=1),
        "w2": (weights**2).mean(axis=1),
        "wjwk": (weights[:, j] * weights[:, k]).mean(axis=1),
    }
    return {key: (v.mean(), v.std(ddof=1) / np.sqrt(v.size)) for key, v in samples.items()}


def _read_draw(rng, dims, interval, joint):
    """The blocks of _random_blocks read as a suite trial reads them."""
    blocks = _random_blocks(rng, dims, interval, joint)
    return [ReadPair.diagonal(atoms, np.sqrt(w), interval) for atoms, w in blocks]


class TestMeasureDraws:
    N = 5

    def _direct(self, seed: int) -> np.ndarray:
        rows = []
        for t in range(MOMENT_DRAWS):
            (pair,) = _read_draw(trial_rng(seed, 0, t), [self.N], IV12, joint=True)
            rows.append(pair.measure.weights)
        return np.asarray(rows)

    def _haar(self, seed: int) -> np.ndarray:
        rows = []
        for t in range(MOMENT_DRAWS):
            rng = trial_rng(seed, 1, t)
            A = random_operator(rng, self.N, IV12)
            rows.append(eigenbasis_weights(A, random_state(rng, self.N)))
        return np.asarray(rows)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dirichlet_moments_match_closed_forms_and_the_haar_path(self, seed):
        n = self.N
        exact = {"w": 1 / n, "w2": 2 / (n * (n + 1)), "wjwk": 1 / (n * (n + 1))}
        direct, haar = _moments(self._direct(seed)), _moments(self._haar(seed))
        for key, value in exact.items():
            mean, se = direct[key]
            assert abs(mean - value) <= 5 * se + 1e-15, key
            haar_mean, haar_se = haar[key]
            assert abs(mean - haar_mean) <= 5 * np.hypot(se, haar_se) + 1e-15, key

    def test_draws_are_diagonal_sorted_and_unit(self):
        for t in range(200):
            rng = trial_rng(3, 0, t)
            dims = [int(rng.integers(1, 9)) for _ in range(2)]
            pairs = _read_draw(rng, dims, IV12, joint=False)
            for pair, d in zip(pairs, dims):
                op, st = operator_from_doc(pair.operator), state_from_doc(pair.state)
                assert np.array_equal(op.eigenvalues, pair.measure.atoms)
                assert np.array_equal(op.eigenvectors, np.eye(d))
                assert np.all(np.diff(op.eigenvalues) >= 0.0)
                assert IV12.lo <= op.eigenvalues[0] and op.eigenvalues[-1] <= IV12.hi
                assert np.all(st.components.imag == 0.0)
                assert abs(st.norm - 1.0) <= TOL_NORM  # each per-block Dirichlet sums to 1

    def test_sum_of_squares_block_masses_have_mean_dims_over_total(self):
        dims = [1, 3, 4]
        masses = []
        for t in range(MOMENT_DRAWS):
            pairs = _read_draw(trial_rng(4, 0, t), dims, IV12, joint=True)
            block = [pair.norm**2 for pair in pairs]
            assert abs(sum(block) - 1.0) <= TOL_NORM
            masses.append(block)
        masses = np.asarray(masses)
        se = masses.std(axis=0, ddof=1) / np.sqrt(MOMENT_DRAWS)
        assert np.all(np.abs(masses.mean(axis=0) - np.asarray(dims) / sum(dims)) <= 5 * se)

    @pytest.mark.parametrize("mode", [SUM_OF_SQUARES, PER_VECTOR])
    def test_suite_ensembles_are_normalized_for_their_mode(self, mode):
        entry = next(e for e in REGISTRY_ORDER if e.ensemble_mode == mode)
        cfg = _small_config(trials=30, theorem_ids=(entry.theorem_id,))
        docs = []
        run_suite(cfg, on_report=lambda _t, _k, r: docs.append(r.inputs_digest["ensemble"]))
        for doc in docs:
            norms = [sum(re * re + im * im for re, im in st["components"]) for st in doc["states"]]
            if mode == PER_VECTOR:
                assert all(abs(v - 1.0) <= TOL_NORM for v in norms)
            else:
                assert abs(sum(norms) - 1.0) <= TOL_NORM


# ---------------------------------------------------------------------------
# configuration


class TestTrialConfig:
    def test_defaults_are_valid(self):
        cfg = TrialConfig()
        assert cfg.trials == 10_000
        assert cfg.dim_range == (1, 8)
        assert cfg.theorem_ids == DEFAULT_THEOREMS

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigInvalid):
            TrialConfig(trials=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigInvalid):
            TrialConfig(seed=-1)

    def test_dim_range_validated(self):
        with pytest.raises(ConfigInvalid):
            TrialConfig(dim_range=(0, 4))
        with pytest.raises(ConfigInvalid):
            TrialConfig(dim_range=(2, 32))
        with pytest.raises(ConfigInvalid):
            TrialConfig(dim_range=(5, 2))

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigInvalid):
            TrialConfig(function_pool=())

    def test_bad_pool_descriptor_rejected(self):
        with pytest.raises(ConfigInvalid):
            TrialConfig(function_pool=({"kind": "mystery"},))

    def test_unknown_theorem_rejected(self):
        with pytest.raises((ConfigInvalid, UnknownTheorem)):
            TrialConfig(theorem_ids=("not-a-check",))

    def test_grid_n_bounded(self):
        TrialConfig(grid_n=MAX_GRID_N)
        with pytest.raises(ConfigInvalid):
            TrialConfig(grid_n=MAX_GRID_N + 1)

    def test_trials_and_seed_bounded(self):
        TrialConfig(trials=MAX_TRIALS, seed=2**64 - 1)
        with pytest.raises(ConfigInvalid):
            TrialConfig(trials=MAX_TRIALS + 1)
        with pytest.raises(ConfigInvalid):
            TrialConfig(seed=2**64)

    def test_numpy_integer_grid_n_is_read_as_int(self):
        cfg = TrialConfig(seed=1, trials=1, grid_n=np.int64(64))
        assert cfg == TrialConfig(seed=1, trials=1, grid_n=64)
        assert type(cfg.grid_n) is int
        assert canonical_json(cfg.to_doc()) == canonical_json(
            TrialConfig(seed=1, trials=1, grid_n=64).to_doc()
        )

    @pytest.mark.parametrize("grid_n", [64.0, True])
    def test_float_or_bool_grid_n_rejected_by_value(self, grid_n):
        with pytest.raises(ConfigInvalid) as err:
            TrialConfig(seed=1, trials=1, grid_n=grid_n)
        assert repr(grid_n) in str(err.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": True},
            {"trials": True},
            {"grid_n": True},
            {"dim_range": (1.5, 3.7)},
            {"dim_range": (True, 3)},
            {"dim_range": (1, 2, 3)},
        ],
    )
    def test_mistyped_fields_rejected_in_code(self, kwargs):
        with pytest.raises(ConfigInvalid):
            TrialConfig(**kwargs)

    @pytest.mark.parametrize(
        "doc",
        [
            {"seed": "x"},
            {"seed": True},
            {"trials": 2.0},
            {"grid_n": "9"},
            {"grid_n": 9.0},
            {"dim_range": [1, "4"]},
            {"dim_range": 4},
            {"interval": ["a", 2]},
            {"interval": [1, True]},
            {"theorems": 5},
            {"function_pool": 3},
            {"triple_pool": [5]},
        ],
    )
    def test_mistyped_doc_fields_rejected(self, doc):
        with pytest.raises(ConfigInvalid):
            config_from_doc(doc)

    def test_doc_round_trip(self):
        cfg = TrialConfig(seed=5, trials=17, dim_range=(2, 4), theorem_ids=("pc-sign",))
        again = config_from_doc(cfg.to_doc())
        assert again == cfg
        assert canonical_json(again.to_doc()) == canonical_json(cfg.to_doc())

    def test_doc_round_trip_with_a_triple_pool(self):
        cfg = TrialConfig(seed=5, trials=3, triple_pool=(SYNC_TRIPLE_POOL[0], ASYNC_TRIPLE_POOL[0]))
        doc = cfg.to_doc()
        assert doc["triple_pool"] == [list(SYNC_TRIPLE_POOL[0]), list(ASYNC_TRIPLE_POOL[0])]
        again = config_from_doc(load_json(canonical_json(doc)))
        assert again == cfg
        assert canonical_json(again.to_doc()) == canonical_json(doc)

    def test_config_doc_accepts_comma_separated_theorems(self):
        cfg = config_from_doc({"theorems": "pc-sign, pc-square"})
        assert cfg.theorem_ids == ("pc-sign", "pc-square")

    def test_config_doc_rejects_unknown_fields(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_doc({"trial_count": 5})
        assert "trial_count" in str(err.value)


# ---------------------------------------------------------------------------
# suite runs


def _small_config(**overrides):
    kwargs = dict(seed=3, trials=8, dim_range=(1, 4))
    kwargs.update(overrides)
    return TrialConfig(**kwargs)


class TestTheoremTally:
    def test_a_violated_report_is_counted_and_kept_as_the_worst(self):
        def report(name):
            return run_scenario(scenario_from_doc(SCENARIOS_BY_NAME[name]))

        holds = report("pc-square/equal")
        violated = report("ensemble-product-lower/counterexample")
        assert (holds.verdict, violated.verdict) == (HOLDS, "violated")
        tally = TheoremTally()
        for trial, r in enumerate([holds, violated, holds]):
            tally.record(trial, r)
        assert (tally.holds, tally.violated, tally.hypothesis_not_met) == (2, 1, 0)
        assert (tally.worst_gap, tally.worst_trial) == (violated.gap, 1)
        assert tally.to_doc()["violated"] == 1


class TestRunSuite:
    def test_counts_sum_to_trials(self):
        cfg = _small_config()
        summary = run_suite(cfg)
        assert set(summary.tallies) == set(DEFAULT_THEOREMS)
        for theorem_id, tally in summary.tallies.items():
            total = tally.holds + tally.violated + tally.hypothesis_not_met
            assert total == cfg.trials, theorem_id

    def test_no_violations_on_default_pool(self):
        summary = run_suite(_small_config(trials=12))
        assert summary.totals()["violated"] == 0
        assert summary.exit_code() == 0

    def test_deterministic_documents(self):
        cfg = _small_config()
        a = run_suite(cfg).to_doc()
        b = run_suite(cfg).to_doc()
        assert canonical_json(a) == canonical_json(b)

    def test_cold_and_warm_memo_give_identical_artifacts(self):
        cfg = _small_config()
        classify_synchrony.cache_clear()
        runs, misses = [], []
        for _ in range(2):
            reports = []
            summary = run_suite(cfg, on_report=lambda _t, _k, r: reports.append(r.to_record()))
            runs.append((canonical_json(summary.to_doc()), [canonical_json(r) for r in reports]))
            misses.append(classify_synchrony.cache_info().misses)
        assert misses[0] > 0 and misses[1] == misses[0]  # the second run only hits
        assert runs[0] == runs[1]

    def test_doc_excludes_wall_time(self):
        summary = run_suite(_small_config(trials=2, theorem_ids=("pc-sign",)))
        assert summary.wall_time_s > 0.0
        assert "wall" not in canonical_json(summary.to_doc())

    def test_worst_bundle_replays_to_same_gap(self):
        summary = run_suite(_small_config(trials=20))
        worst = summary.worst
        assert worst is not None
        replay = run_scenario(scenario_from_doc(worst["scenario"]))
        assert abs(replay.gap - worst["gap"]) <= tol_calc(abs(worst["gap"]))

    def test_every_check_inputs_digest_replays(self):
        reports = {}
        run_suite(_small_config(trials=1), on_report=lambda tid, _k, r: reports.setdefault(tid, r))
        assert list(reports) == [e.theorem_id for e in REGISTRY_ORDER]
        unreplayable = []
        for tid, report in reports.items():
            doc = load_json(canonical_json(report.inputs_digest))
            try:
                replay = run_scenario(scenario_from_doc(doc), tol_factor=VIOLATION_FACTOR)
            except ConfigInvalid:
                unreplayable.append(tid)
                continue
            assert (replay.gap, replay.verdict) == (report.gap, report.verdict), tid
        assert unreplayable == []

    def test_identity_pool_gives_gap_zero_holds(self):
        cfg = _small_config(
            trials=10,
            function_pool=(ID_DESC,),
            theorem_ids=("pc-sign",),
        )
        summary = run_suite(cfg)
        tally = summary.tallies["pc-sign"]
        assert tally.holds == 10
        assert tally.violated == 0 and tally.hypothesis_not_met == 0
        assert abs(tally.worst_gap) <= 1e-9

    def test_asynchronous_triple_dispatches_le_and_holds(self):
        cfg = _small_config(
            trials=25,
            triple_pool=((ID_DESC, INV_DESC, ONE_DESC),),
            theorem_ids=("pc-sign",),
        )
        summary = run_suite(cfg)
        tally = summary.tallies["pc-sign"]
        assert tally.holds == 25
        assert tally.dispatched_le == 25
        assert tally.worst_gap >= -1e-9

    def test_mixed_triple_routes_to_hypothesis_not_met(self):
        cfg = _small_config(
            trials=10,
            interval=SpectralInterval(0.25, 2.0),
            triple_pool=((PARAB_DESC, ID_DESC, ONE_DESC),),
            theorem_ids=("pc-sign",),
        )
        summary = run_suite(cfg)
        tally = summary.tallies["pc-sign"]
        assert tally.hypothesis_not_met == 10
        assert tally.holds == 0 and tally.violated == 0
        assert summary.worst is None

    def test_theorem_subset_runs_in_registry_order(self):
        seen = []
        cfg = _small_config(
            trials=2, theorem_ids=("discrete-chebyshev", "pc-sign", "kantorovich-lower")
        )
        run_suite(cfg, on_report=lambda tid, trial, report: seen.append(tid))
        assert seen == (
            ["pc-sign"] * 2 + ["kantorovich-lower"] * 2 + ["discrete-chebyshev"] * 2
        )

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_each_trial_draws_from_its_trial_rng(self, seed):
        cfg = _small_config(seed=seed, trials=3)
        got = []
        run_suite(cfg, on_report=lambda _t, _k, r: got.append(canonical_json(r.to_record())))
        ctx = harness._build_ctx(cfg, DEFAULT_THEOREMS)
        want = []
        for entry in REGISTRY_ORDER:
            for trial in range(cfg.trials):
                parsed, inputs = _trial_parsed(entry, ctx, trial_rng(seed, entry.ordinal, trial))
                report = entry.run(parsed, inputs, tol_factor=VIOLATION_FACTOR)
                want.append(canonical_json(report.to_record()))
        assert got == want

    def test_on_report_receives_every_trial(self):
        count = [0]
        cfg = _small_config(trials=4, theorem_ids=("pc-square", "mean-point"))
        run_suite(cfg, on_report=lambda *args: count.__setitem__(0, count[0] + 1))
        assert count[0] == 8


# ---------------------------------------------------------------------------
# falsification


class TestFalsify:
    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            falsify("nope", None, budget=10)

    def test_inapplicable_drop_rejected(self):
        with pytest.raises(ConfigInvalid):
            falsify("pc-square", DROP_SYNCHRONY, budget=10)
        with pytest.raises(ConfigInvalid):
            falsify("pc-sign", DROP_CONTAINMENT, budget=10)

    def test_unknown_drop_rejected(self):
        with pytest.raises(ConfigInvalid):
            falsify("pc-sign", "unitarity", budget=10)

    def test_droppable_hypotheses_are_those_some_check_drops(self):
        assert set().union(*(e.drops for e in REGISTRY_ORDER)) == set(DROPPABLE)
        with pytest.raises(ConfigInvalid) as err:
            falsify("pc-sign", "unitarity", budget=10)
        assert str(err.value).startswith(f"drop must be one of {sorted(DROPPABLE)}")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": True},
            {"budget": MAX_BUDGET + 1},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": True},
        ],
    )
    def test_bad_budget_or_seed_rejected(self, kwargs):
        with pytest.raises(ConfigInvalid):
            falsify("pc-sign", **{"budget": 10, **kwargs})

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigInvalid):
            falsify("pc-sign", None, budget=0)

    def test_interval_other_than_a_spectral_interval_rejected(self):
        with pytest.raises(ConfigInvalid, match="interval must be a SpectralInterval"):
            falsify("pc-sign", interval=(1.0, 4.0), budget=10)

    def test_numpy_integer_grid_n_gives_the_same_result(self):
        got = falsify("pc-sign", budget=10, grid_n=np.int64(64))
        assert got == falsify("pc-sign", budget=10, grid_n=64)
        assert type(got.scenario["grid_n"]) is int

    @pytest.mark.parametrize("grid_n", [64.0, True])
    def test_float_or_bool_grid_n_rejected_by_value(self, grid_n):
        with pytest.raises(ConfigInvalid) as err:
            falsify("pc-sign", budget=10, grid_n=grid_n)
        assert repr(grid_n) in str(err.value)

    def test_drop_synchrony_finds_negative_gap(self):
        result = falsify("pc-sign", DROP_SYNCHRONY, budget=20_000, seed=0)
        assert result.found
        assert result.gap < 0.0
        assert result.verdict == "violated"
        replay = run_scenario(scenario_from_doc(result.scenario), tol_factor=10.0)
        assert replay.verdict == "violated"
        assert abs(replay.gap - result.gap) <= tol_calc(abs(result.gap))

    def test_intact_search_finds_nothing(self):
        result = falsify("pc-sign", None, budget=20_000, seed=0)
        assert not result.found
        # the nearest miss is reported for diagnostics, never as a violation
        assert result.verdict != "violated"
        assert result.gap >= -1e-9
        assert result.examined > 0

    def test_drop_containment_finds_violation(self):
        result = falsify("kantorovich-upper", DROP_CONTAINMENT, budget=5_000, seed=0)
        assert result.found
        assert result.gap < 0.0
        replay = run_scenario(scenario_from_doc(result.scenario), tol_factor=10.0)
        assert replay.verdict == "violated"

    def test_drop_normalization_finds_pinned_counterexample(self):
        result = falsify(
            "ensemble-product-lower", DROP_NORMALIZATION, budget=5_000, seed=0
        )
        assert result.found
        assert result.gap == pytest.approx(-0.75, abs=1e-6)
        replay = run_scenario(scenario_from_doc(result.scenario), tol_factor=10.0)
        assert replay.verdict == "violated"

    @pytest.mark.parametrize("budget", [1, 50, 1000])
    @pytest.mark.parametrize(
        "theorem_id, drop",
        [(e.theorem_id, drop) for e in REGISTRY_ORDER for drop in [None, *sorted(e.drops)]],
    )
    def test_vectorised_search_examines_exactly_the_budget(self, theorem_id, drop, budget):
        # a search answered by a constructed candidate examines one candidate
        constructed = drop in lookup(theorem_id).constructed
        seeds = range(5) if budget == 50 else range(1)
        for seed in seeds:
            result = falsify(theorem_id, drop, budget=budget, seed=seed)
            assert result.examined == (1 if constructed else budget)
            if budget == 50:
                # a dropped hypothesis always yields a counterexample, an intact one never
                assert result.found == (drop is not None)
            # the scenario is the document certified: it replays to the same gap and verdict
            doc = load_json(canonical_json(result.scenario))
            replay = run_scenario(scenario_from_doc(doc), tol_factor=VIOLATION_FACTOR)
            assert (replay.gap, replay.verdict) == (result.gap, result.verdict)

    @pytest.mark.parametrize("interval", [(1.0, 4.0), (-1.0, 2.0)])
    def test_every_scenario_is_the_inputs_document_it_replays_to(self, interval):
        """The scenario is the certified check's own inputs document: replaying
        it gives the same gap and verdict and writes it back byte for byte."""
        iv, searched = SpectralInterval(*interval), 0
        for entry in REGISTRY_ORDER:
            for drop in [None, *sorted(entry.drops)]:
                for budget in (1, 7, 50, 1000):
                    try:
                        result = falsify(entry.theorem_id, drop, budget=budget, interval=iv)
                    except OpineqError:
                        continue
                    searched += 1
                    text = canonical_json(result.scenario)
                    parsed = scenario_from_doc(load_json(text))
                    replay = run_scenario(parsed, tol_factor=VIOLATION_FACTOR)
                    assert (replay.gap, replay.verdict) == (result.gap, result.verdict)
                    assert canonical_json(replay.inputs_digest) == text
        assert searched == {(1.0, 4.0): 148, (-1.0, 2.0): 56}[interval]

    def test_nearest_miss_is_the_first_within_tolerance_of_the_least(self):
        kept = _NearestMiss()
        tol = 1e-9
        scores = np.array([0.0, 0.5 * tol, 3.0])
        kept.offer(scores, scores - tol, lambda j: ("a", j))
        assert kept.best() == ("a", 0)
        # a later score lower by less than the tolerance does not displace it
        scores = np.array([-0.5 * tol])
        kept.offer(scores, scores - tol, lambda j: ("b", j))
        assert kept.best() == ("a", 0)
        # one lower by more does, and the first examined within tolerance of it wins
        scores = np.array([7.0, -2.0 * tol, -2.5 * tol])
        kept.offer(scores, scores - tol, lambda j: ("c", j))
        assert kept.best() == ("c", 1)

    def test_nearest_miss_keeps_the_first_candidate_when_none_is_finite(self):
        kept = _NearestMiss()
        kept.offer(np.full(3, np.inf), np.full(3, np.inf), lambda j: j)
        kept.offer(np.full(2, np.inf), np.full(2, np.inf), lambda j: 10 + j)
        assert kept.best() == 0

    def test_deterministic_given_seed(self):
        a = falsify("pc-sign", DROP_SYNCHRONY, budget=3_000, seed=9)
        b = falsify("pc-sign", DROP_SYNCHRONY, budget=3_000, seed=9)
        assert canonical_json(a.to_doc()) == canonical_json(b.to_doc())

    def test_result_doc_shape(self):
        result = falsify("pc-sign", None, budget=500, seed=1)
        doc = result.to_doc()
        assert doc["theorem"] == "pc-sign"
        assert doc["drop"] is None
        assert doc["budget"] == 500
        assert isinstance(doc["examined"], int)


@pytest.fixture
def cold_plans():
    falsify.cache_clear()
    yield falsify.cache_info
    falsify.cache_clear()


def _per_triple_search_functions(entry, drop, interval, grid_n):
    """_search_functions as it resolved each pool triple on its own."""
    pool = entry.sync_pool
    if drop != DROP_SYNCHRONY:
        pool = SYNC_TRIPLE_POOL + ASYNC_TRIPLE_POOL + pool
    domain = harness.inverse_pair_hull(interval) if entry.hull else interval
    classify = drop != DROP_SYNCHRONY and DROP_SYNCHRONY in entry.drops
    classify = classify and "direction" in entry.forwards
    out, seen = [], []
    for triple in pool:
        free = {slot: d for slot, d in zip(("f", "g", "h"), triple) if slot in entry.slots}
        if free in seen:
            continue
        seen.append(free)
        resolved = _valid_entries(list(free.values()), domain)
        if len(resolved) != len(free):
            continue
        given = {slot: fn for slot, (_, fn) in zip(free, resolved)}
        fns = entry.functions(given)
        sign = 1.0
        if classify:
            implied = classify_synchrony(*fns, domain, grid_n).implied_direction()
            if implied is None:
                continue
            sign = 1.0 if implied == ">=" else -1.0
        out.append((given, fns, sign))
    if not out:
        where = domain.as_pair()
        raise ConfigInvalid(f"no search triple on {where} is defined everywhere and not mixed")
    return out


class TestSearchFunctions:
    def _count_resolutions(self, monkeypatch) -> list:
        calls = []
        resolve = harness.function_from_descriptor

        def counting(desc):
            calls.append(desc)
            return resolve(desc)

        monkeypatch.setattr(harness, "function_from_descriptor", counting)
        return calls

    def test_pool_descriptors_are_resolved_once_per_search(self, monkeypatch, cold_plans):
        calls = self._count_resolutions(monkeypatch)
        falsify("pc-sign", None, budget=50)
        # 11 distinct triples over 12 distinct descriptors, each resolved once
        assert len(calls) == 12
        assert all(d not in calls[:i] for i, d in enumerate(calls))
        # a repeat search, on another seed too, reads the memo's plan
        falsify("pc-sign", None, budget=50)
        falsify("pc-sign", None, budget=50, seed=1)
        assert len(calls) == 12

    def test_a_search_without_free_slots_resolves_nothing(self, monkeypatch):
        calls = self._count_resolutions(monkeypatch)
        falsify("kantorovich-lower", None, budget=50)
        assert calls == []

    def test_a_pole_inside_the_interval_leaves_the_pool(self):
        pool = harness.DEFAULT_FUNCTION_POOL
        inside = harness._resolve_pools(pool, None, SpectralInterval(-1.0, 2.0), "[-1, 2]")[0]
        outside = harness._resolve_pools(pool, None, SpectralInterval(1.0, 4.0), "[1, 4]")[0]
        assert INV_DESC not in [d for d, _ in inside]
        assert INV_DESC in [d for d, _ in outside]

    @pytest.mark.parametrize(
        "theorem_id, drop",
        [(e.theorem_id, drop) for e in REGISTRY_ORDER for drop in [None, *sorted(e.drops)]],
    )
    def test_no_search_tuple_has_a_pole_inside_the_interval(self, theorem_id, drop):
        try:
            tuples = _search_functions(lookup(theorem_id), drop, SpectralInterval(-1.0, 2.0), 64)
        except OpineqError:
            return
        assert all(power(-1.0) not in given.values() for given, _, _ in tuples)

    @pytest.mark.parametrize("grid_n", [64, 128])
    def test_pc_sign_on_an_interval_with_a_pole_stops_at_every_grid(self, grid_n):
        with pytest.raises(ConfigInvalid) as err:
            falsify("pc-sign", budget=50, interval=SpectralInterval(-1.0, 2.0), grid_n=grid_n)
        assert str(err.value).startswith("no search triple on (-1.0, 2.0)")

    @pytest.mark.parametrize("interval", [(1.0, 4.0), (0.0, 3.0), (-1.0, 2.0)])
    @pytest.mark.parametrize(
        "theorem_id, drop",
        [(e.theorem_id, drop) for e in REGISTRY_ORDER for drop in [None, *sorted(e.drops)]],
    )
    def test_tuples_match_per_triple_resolution(self, theorem_id, drop, interval):
        entry, iv = lookup(theorem_id), SpectralInterval(*interval)
        try:
            want = _per_triple_search_functions(entry, drop, iv, 64)
        except OpineqError as exc:
            # no tuple, a hull of a nonpositive interval, or a classification
            # that meets a pole: the search stops with the same error
            with pytest.raises(type(exc)) as err:
                _search_functions(entry, drop, iv, 64)
            assert str(err.value) == str(exc)
            return
        assert _search_functions(entry, drop, iv, 64) == want


# ---------------------------------------------------------------------------
# the search-plan memo


def _search_doc(*args, **kwargs) -> str:
    """A search's result document, or its error's type and message."""
    try:
        return canonical_json(falsify(*args, **kwargs).to_doc())
    except OpineqError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSearchPlanMemo:
    @pytest.mark.parametrize(
        "theorem_id, drop",
        [(e.theorem_id, drop) for e in REGISTRY_ORDER for drop in [None, *sorted(e.drops)]],
    )
    def test_warm_search_matches_cold_search(self, cold_plans, theorem_id, drop):
        cold = _search_doc(theorem_id, drop, budget=50)
        assert _search_doc(theorem_id, drop, budget=50) == cold
        assert cold_plans()[:2] == (1, 1)  # hits, misses

    def test_equal_keys_share_a_plan(self, cold_plans):
        falsify("pc-sign", None, budget=10)
        falsify("pc-sign", None, budget=10, interval=SpectralInterval(1, 4))
        falsify("pc-sign", None, budget=10, grid_n=np.int64(128), seed=3)
        assert cold_plans()[:2] == (2, 1)
        falsify("pc-sign", None, budget=10, grid_n=64)
        falsify("pc-sign", "synchrony", budget=10)
        falsify("pc-sign", None, budget=10, interval=SpectralInterval(1.0, 3.0))
        falsify("pc-sign-t", None, budget=10)
        assert cold_plans()[:2] == (2, 5)

    @pytest.mark.parametrize(
        "theorem_id, drop",
        [("pc-sign", None), ("pc-two-op", "synchrony"), ("ensemble-pc-sign", None),
         ("discrete-chebyshev", None)],
    )
    def test_signed_zero_endpoints_share_a_plan(self, cold_plans, theorem_id, drop):
        negative, positive = SpectralInterval(-0.0, 3.0), SpectralInterval(0.0, 3.0)
        for first, second in ((negative, positive), (positive, negative)):
            falsify.cache_clear()
            _search_doc(theorem_id, drop, budget=60, interval=first)
            warm = _search_doc(theorem_id, drop, budget=60, interval=second)
            assert cold_plans()[:2] == (1, 1)
            falsify.cache_clear()
            assert _search_doc(theorem_id, drop, budget=60, interval=second) == warm

    def test_a_plan_that_raises_is_not_kept(self, cold_plans):
        for _ in range(2):
            with pytest.raises(ConfigInvalid, match="no search triple on"):
                falsify("pc-sign", budget=50, interval=SpectralInterval(-1.0, 2.0))
        info = cold_plans()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_memo_never_exceeds_its_bound(self, cold_plans):
        for k in range(SEARCH_PLAN_MEMO_SIZE + 10):
            falsify("kantorovich-lower", budget=1, interval=SpectralInterval(1.0, 2.0 + k))
            assert cold_plans().currsize <= SEARCH_PLAN_MEMO_SIZE
        info = cold_plans()
        assert info.maxsize == SEARCH_PLAN_MEMO_SIZE
        assert info.currsize == SEARCH_PLAN_MEMO_SIZE
        assert info.misses == SEARCH_PLAN_MEMO_SIZE + 10

    def test_a_plan_is_immutable(self, cold_plans):
        plan = harness._search_plan(lookup("pc-sign"), None, SpectralInterval(1.0, 4.0), 128)
        assert isinstance(plan.given, tuple) and len(plan.given) == 11
        for given in plan.given:
            assert isinstance(given, tuple)
            assert all(isinstance(item, tuple) for item in given)
        assert isinstance(plan.functions, tuple)
        assert plan.index.shape == (3, 11) and plan.signs.shape == (11,)
        for array in (plan.index, plan.signs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert plan.link is None and plan.constant is None


# ---------------------------------------------------------------------------
# a plan's values: every tuple of a batch scored in one call


def _plan_with(monkeypatch, tuples):
    """pc-sign's plan on [1, 4] built from the (given, functions, sign) ``tuples``."""
    monkeypatch.setattr(harness, "_search_functions", lambda *args: tuples)
    plan = harness._search_plan.__wrapped__  # unmemoized
    return plan(lookup("pc-sign"), None, SpectralInterval(1.0, 4.0), 128)


def test_a_plans_values_keep_each_zeros_sign(monkeypatch):
    # constant(0.0) == constant(-0.0) as values, but not as bits
    plus, minus, s = constant(0.0), constant(-0.0), power(1.0)
    assert plus == minus
    tuples = [({"f": plus}, [plus, s, s], 1.0), ({"f": minus}, [minus, s, s], -1.0)]
    plan = _plan_with(monkeypatch, tuples)
    assert len(plan.functions) == 3
    f, g, h = plan.values(range(2))(np.ones((4, 2)))
    assert f.shape == (2, 4, 2)
    assert not np.signbit(f[0]).any() and np.signbit(f[1]).all()
    f, _, _ = plan.values([1])(np.ones((4, 2)))
    assert np.signbit(f).all()


def test_a_plans_values_stack_its_tuples(monkeypatch):
    a, b, c = power(2.0), power(3.0), power(0.5)
    tuples = [[a, b, c], [c, c, a], [b, a, a]]
    plan = _plan_with(monkeypatch, [({}, fns, 1.0) for fns in tuples])
    points = np.asarray([[1.0, 2.0], [1.5, 4.0]])
    for ks in ([0, 1, 2], [2], [2, 0]):
        got = plan.values(ks)(points)
        want = np.stack([[fn.evaluate(points) for fn in tuples[k]] for k in ks], axis=1)
        assert got.tobytes() == want.tobytes()


def _values_calls(monkeypatch, theorem_id, drop) -> tuple:
    """The plan of a search at budget 300 and seed 0, and for each of its
    scoring calls, the functions each call of its values evaluated."""
    plan = harness._search_plan(lookup(theorem_id), drop, SpectralInterval(1.0, 4.0), 128)
    evaluate, plan_values = ScalarFunction.evaluate, harness._SearchPlan.values
    calls, per_score = [], []
    monkeypatch.setattr(
        ScalarFunction, "evaluate", lambda fn, pts: calls.append(fn) or evaluate(fn, pts)
    )

    def counting(plan, ks):
        values, per_call = plan_values(plan, ks), []
        per_score.append(per_call)

        def counted(points):
            before = len(calls)
            out = values(points)
            per_call.append(calls[before:])
            return out

        return counted

    monkeypatch.setattr(harness._SearchPlan, "values", counting)
    falsify(theorem_id, drop, budget=300)
    # the first batch scores all the plan's tuples in one sides call, each of
    # its values calls evaluating every plan function once
    assert per_score[0]
    assert all(sorted(map(id, c)) == sorted(map(id, plan.functions)) for c in per_score[0])
    # each round scoring call scores one tuple and evaluates only its functions
    assert all(len(c) == len(set(map(id, c))) <= 3 for s in per_score[1:] for c in s)
    return plan, per_score


def test_a_batch_evaluates_each_plan_function_once_per_values_call(monkeypatch, cold_plans):
    plan, per_score = _values_calls(monkeypatch, "pc-sign", None)
    assert len(plan.functions) == 12
    # no round before the last moves the kept candidate: one call scores all
    # eight, and pc-sign's sides make one values call per scoring call
    assert [len(s) for s in per_score] == [1, 1]


def test_rounds_are_scored_again_each_time_the_kept_candidate_moves(monkeypatch, cold_plans):
    plan, per_score = _values_calls(monkeypatch, "mean-point-square", None)
    assert len(plan.functions) == 10
    # the rounds left are scored again after each round that moves the candidate
    assert len(per_score) == 1 + 4
    # mean-point's sides read the functions at the atoms and at the mean
    assert all(len(s) == 2 for s in per_score)


# ---------------------------------------------------------------------------
# searches answered by a constructed candidate: the synchrony certificate's
# witness, the endpoint sweep, or a closed-form extremal measure

# Dropped synchrony answered from the certificate's witness pair, and, last,
# discrete-chebyshev's tuples, whose endpoints against (1, 0) are a closed form.
WITNESS_IDS = (
    "pc-sign",
    "pc-sign-t",
    "pc-moment",
    "pc-moment-t",
    "pc-two-op",
    "ensemble-pc-sign",
    "discrete-chebyshev",
)

# Dropped synchrony answered by the sweep of two atoms at the interval's
# endpoints, where the anchor (E[s], E[1/s]) moves with the weights.
SWEEP_IDS = ("mean-point", "inverse-pair", "ensemble-mean-point", "ensemble-chebyshev-link")

# Dropped containment and normalization, answered by a closed-form extremal
# candidate, and the intervals it is checked on.
CLOSED_FORM_PAIRS = (
    ("kantorovich-upper", DROP_CONTAINMENT),
    ("ensemble-kantorovich-upper", DROP_CONTAINMENT),
    ("ensemble-product-lower", DROP_NORMALIZATION),
)
CLOSED_FORM_INTERVALS = [
    (1.0, 4.0),
    (0.5, 2.0),
    (1.0, 1.5),
    (2.0, 100.0),
    (3.0, 3.0),
    (1e-3, 1e3),
    (1e-300, 1e-300),
]

# The random search each witness replaces, before it did: the median and the
# least gap over seeds 0-19 at budget 300 on [1, 4].
SEARCHED_GAPS = {
    "pc-sign": (-0.8560346437563435, -0.8749998228578071),
    "pc-sign-t": (-7.028003306351508, -7.142162382575435),
    "pc-moment": (-50.24757035884234, -51.63472297405377),
    "pc-moment-t": (-51.10831741173132, -51.631355293403885),
    "pc-two-op": (-3.5, -3.5),
    "ensemble-pc-sign": (-0.821216511049486, -0.8727444936023523),
    "discrete-chebyshev": (-0.7499999985, -0.7499999985000001),
}

# Searches that find no usable witness and run as before it was added, with the
# digest of their results at budgets 1, 50 and 300 from before then: no grid
# pair makes D negative (a degenerate or a very narrow interval), a certificate
# meets a NaN, or the witness's sides overflow.
FALLBACK_SEARCHES = (
    ((1.0, 1.0), WITNESS_IDS),
    ((1.0, 1.0 + 1e-13), WITNESS_IDS[:-1]),
    ((1.0, 1e200), ("pc-sign", "pc-two-op", "ensemble-pc-sign")),
    ((1.0, 1e100), ("pc-sign-t", "pc-moment", "pc-moment-t")),
    ((1.0, 700.0), ("pc-moment-t",)),
)
FALLBACK_DIGEST = "01d30c95bccaa87fb220c0a91b3dfa90ebae4aa103a39c7d85b3eee4c2a92f58"

# Searches whose witness makes D negative with finite sides, but whose gap lies
# within the violation tolerance of 0 on a narrow interval, so it certifies no
# violation and the search runs; digested as above, from before the witness.
UNCERTIFIED_SEARCHES = (
    ((1.0, 1.0 + 1e-13), WITNESS_IDS[-1:]),
    ((1.0, 1.0 + 1e-8), WITNESS_IDS[-1:]),
    ((1.0, 1.0 + 1e-6), ("pc-moment", "pc-moment-t")),
    ((1.0, 1.0 + 1e-5), WITNESS_IDS[:-1]),
)
UNCERTIFIED_DIGEST = "574d3b1e077ac9bb8f636f83a68671b88c380078bd046e8b7d9146302a2d18fb"


def test_every_constructed_drop_is_one_of_its_rows_drops():
    kinds = {(e.theorem_id, d): kind for e in REGISTRY_ORDER for d, kind in e.constructed.items()}
    assert kinds == {
        **{(tid, DROP_SYNCHRONY): WITNESS for tid in WITNESS_IDS[:-1]},
        ("discrete-chebyshev", DROP_SYNCHRONY): CLOSED_FORM,
        **{(tid, DROP_SYNCHRONY): SWEEP for tid in SWEEP_IDS},
        **{pair: CLOSED_FORM for pair in CLOSED_FORM_PAIRS},
    }
    assert all(e.drops == set(e.constructed) for e in REGISTRY_ORDER)


def test_every_dropped_pair_is_answered_by_one_constructed_candidate(cold_plans):
    iv = SpectralInterval(1.0, 4.0)
    pairs = [(e, drop) for e in REGISTRY_ORDER for drop in sorted(e.drops)]
    assert len(pairs) == 14
    for entry, drop in pairs:
        result = falsify(entry.theorem_id, drop, budget=1, interval=iv)
        assert (result.examined, result.found, result.verdict) == (1, True, "violated")
        # answered by the plan's candidate, not by a search of budget 1
        assert harness._search_plan(entry, drop, iv, 128).constructed is not None


@pytest.mark.parametrize(
    "theorem_id, drop, interval",
    [
        *[
            (tid, DROP_SYNCHRONY, interval)
            for tid in WITNESS_IDS
            for interval in [(1.0, 4.0), (0.5, 2.0), (1.0, 1.5), (2.0, 100.0)]
        ],
        *[(*pair, interval) for pair in CLOSED_FORM_PAIRS for interval in CLOSED_FORM_INTERVALS],
    ],
)
def test_a_constructed_candidate_answers_the_search_with_one_candidate(theorem_id, drop, interval):
    iv = SpectralInterval(*interval)
    result = falsify(theorem_id, drop, budget=1, interval=iv)
    assert (result.examined, result.found, result.verdict) == (1, True, "violated")
    doc = load_json(canonical_json(result.scenario))
    replay = run_scenario(scenario_from_doc(doc), tol_factor=VIOLATION_FACTOR)
    assert (replay.gap, replay.verdict) == (result.gap, result.verdict)
    # neither the seed nor the budget moves it
    answer = result.to_doc()
    for seed in range(5):
        for budget in (1, 1000):
            other = falsify(theorem_id, drop, budget=budget, seed=seed, interval=iv)
            assert {**other.to_doc(), "budget": 1, "seed": 0} == answer


@pytest.mark.parametrize("interval", [(1.0, 4.0), (0.5, 2.0), (2.0, 100.0)])
@pytest.mark.parametrize("theorem_id", WITNESS_IDS)
def test_a_witness_gap_is_its_defect_product(theorem_id, interval):
    """D(s, t)/4 for a two-atom measure, D(s, t) for one atom per operator, and
    -(hi - lo)/4 for tuples, at the pair of the most negative certificate."""
    entry, iv = lookup(theorem_id), SpectralInterval(*interval)
    gap = falsify(theorem_id, DROP_SYNCHRONY, budget=1, interval=iv).gap
    if entry.inputs_kind == "tuples":
        assert gap == -(iv.hi - iv.lo) / 4
        return
    plan = harness._search_plan(entry, DROP_SYNCHRONY, iv, 128)
    s, t, w, k = plan.constructed
    verdicts = [classify_synchrony(*entry.functions(dict(g)), iv, 128) for g in plan.given]
    assert verdicts[k].min_product == min(v.min_product for v in verdicts)
    assert ((s, t), w) == (verdicts[k].witness_neg, 0.5)
    product = sync_product(*entry.functions(dict(plan.given[k])), s, t)
    assert gap == pytest.approx(product if entry.inputs_kind == "two_op" else product / 4)


def test_the_first_of_equally_negative_certificates_wins(monkeypatch):
    entry, iv = lookup("pc-sign"), SpectralInterval(1.0, 4.0)
    tuples = _search_functions(entry, DROP_SYNCHRONY, iv, 128)
    least = [classify_synchrony(*fns, iv, 128).min_product for _, fns, _ in tuples]
    for order in (tuples + tuples, tuples[::-1] + tuples):
        monkeypatch.setattr(harness, "_search_functions", lambda *args: order)
        plan = harness._search_plan.__wrapped__(entry, DROP_SYNCHRONY, iv, 128)
        products = [least[tuples.index(t)] for t in order]
        assert plan.constructed[3] == products.index(min(products))


@pytest.mark.parametrize("theorem_id", WITNESS_IDS)
def test_a_witness_is_as_strong_as_the_search_it_replaces(theorem_id):
    median, best = SEARCHED_GAPS[theorem_id]
    gap = falsify(theorem_id, DROP_SYNCHRONY, budget=1).gap
    assert gap <= median
    # short of the least by at most 1e-3 of it
    assert gap <= best + 1e-3 * abs(best)


def _searches_digest(searches) -> str:
    """The digest of each search's results at budgets 1, 50 and 300, each
    check dropping its constructed hypothesis."""
    digest = hashlib.sha256()
    for interval, theorems in searches:
        for theorem in theorems:
            (drop,) = lookup(theorem).constructed
            for budget in (1, 50, 300):
                iv = SpectralInterval(*interval)
                doc = _search_doc(theorem, drop, budget=budget, interval=iv)
                digest.update(doc.encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_a_search_without_a_usable_witness_runs_as_before():
    assert _searches_digest(FALLBACK_SEARCHES) == FALLBACK_DIGEST


def test_a_witness_that_certifies_no_violation_leaves_the_search_as_before():
    for interval, theorems in UNCERTIFIED_SEARCHES:
        iv = SpectralInterval(*interval)
        for theorem in theorems:
            entry = lookup(theorem)
            plan = harness._search_plan(entry, DROP_SYNCHRONY, iv, 128)
            assert plan.constructed is None
            if entry.inputs_kind != "tuples":
                # the certificates do name a pair of negative D
                fns = [entry.functions(dict(g)) for g in plan.given]
                assert any(classify_synchrony(*f, iv, 128).witness_neg is not None for f in fns)
            result = falsify(theorem, DROP_SYNCHRONY, budget=50, interval=iv)
            assert (result.examined, result.found) == (50, False)
    assert _searches_digest(UNCERTIFIED_SEARCHES) == UNCERTIFIED_DIGEST


# ---------------------------------------------------------------------------
# searches answered by a closed-form extremal candidate

# The random search each closed form replaces, before it did: the median and
# the least gap over seeds 0-19 at budget 1000 on [1, 4].
CLOSED_FORM_SEARCHED_GAPS = {
    "kantorovich-upper": (-2.953115894980468, -2.9531249984967793),
    "ensemble-kantorovich-upper": (-2.9531148663645466, -2.953124998096162),
    "ensemble-product-lower": (-0.7499999989924226, -0.75),
}

# Searches whose closed-form candidate raises or certifies no violation, so
# the search runs, with the digest of their results (or errors) at budgets 1,
# 50 and 300 from before the construction: the containment candidate's
# 1/(lo/2) overflows ([1e-308, 1] reports "holds"), its sides overflow (the
# search's raise DomainViolation too), or 1/hi overflows.  On [5e-324, 1] lo/2
# is 0, and the search refuses the interval before it plans (ConfigInvalid).
_CONTAINMENT_IDS = ("kantorovich-upper", "ensemble-kantorovich-upper")
CLOSED_FORM_FALLBACKS = (
    ((1e-308, 1.0), _CONTAINMENT_IDS),
    ((5e-324, 1.0), _CONTAINMENT_IDS),
    ((1e-300, 1e300), _CONTAINMENT_IDS),
    ((1e-200, 1e200), _CONTAINMENT_IDS),
    ((1e-320, 1e-320), (*_CONTAINMENT_IDS, "ensemble-product-lower")),
)
CLOSED_FORM_FALLBACK_DIGEST = "8fb550c07985f2662f1974ce4e0c9645359cd70e84e4acb083c1fc2adae6519f"


def _kantorovich(lo: float, hi: float) -> Fraction:
    """(m + M)^2 / (4 m M), exactly."""
    m, big = Fraction(lo), Fraction(hi)
    return (m + big) ** 2 / (4 * m * big)


@pytest.mark.parametrize("interval", CLOSED_FORM_INTERVALS)
@pytest.mark.parametrize("theorem_id, drop", CLOSED_FORM_PAIRS)
def test_a_closed_form_gap_is_its_extremal_value(theorem_id, drop, interval):
    """K(lo, hi) - K(lo/2, 2 hi) with containment dropped: the measure
    (lo/2, 2 hi; 1/2, 1/2) attains Kantorovich's bound on the draw interval;
    -3/4 with normalization dropped: two one-atom members at one point."""
    lo, hi = interval
    gap = falsify(theorem_id, drop, budget=1, interval=SpectralInterval(lo, hi)).gap
    if drop == DROP_CONTAINMENT:
        favored, other = _kantorovich(lo, hi), _kantorovich(lo / 2, 2 * hi)
    else:
        favored, other = Fraction(1, 4), Fraction(1)
    assert abs(gap - float(favored - other)) <= tol_ineq(float(favored), float(other))


@pytest.mark.parametrize("theorem_id, drop", CLOSED_FORM_PAIRS)
def test_a_closed_form_is_as_strong_as_the_search_it_replaces(theorem_id, drop):
    median, best = CLOSED_FORM_SEARCHED_GAPS[theorem_id]
    gap = falsify(theorem_id, drop, budget=1).gap
    assert gap <= median
    # short of the least by at most 1e-12 of it
    assert gap <= best + 1e-12 * abs(best)


def test_normalization_is_constructed_at_hi_where_an_atom_at_lo_would_overflow():
    iv = SpectralInterval(5e-324, 1.0)
    result = falsify("ensemble-product-lower", DROP_NORMALIZATION, budget=50, interval=iv)
    assert (result.examined, result.verdict) == (1, "violated")
    assert abs(result.gap + 0.75) <= tol_ineq(0.25, 1.0)


def test_a_closed_form_that_raises_or_certifies_nothing_leaves_the_search_as_before():
    iv = SpectralInterval(1e-308, 1.0)
    for theorem_id in _CONTAINMENT_IDS:
        plan = harness._search_plan(lookup(theorem_id), DROP_CONTAINMENT, iv, 128)
        assert plan.constructed is None
        result = falsify(theorem_id, DROP_CONTAINMENT, budget=50, interval=iv)
        assert (result.examined, result.found, result.verdict) == (50, False, HOLDS)
    huge = SpectralInterval(1e-300, 1e300)
    with pytest.raises(DomainViolation):
        falsify("kantorovich-upper", DROP_CONTAINMENT, budget=50, interval=huge)
    assert _searches_digest(CLOSED_FORM_FALLBACKS) == CLOSED_FORM_FALLBACK_DIGEST


# On [1e-308, 1] with containment dropped, 1/s of a drawn atom near lo/2 can
# overflow.  Such a candidate scores +inf and the search goes on (at seed 3 for
# kantorovich-upper, 5 for its ensemble form).  Seed 0 draws no such atom, and
# CLOSED_FORM_FALLBACK_DIGEST keeps its results as they were.


@pytest.mark.parametrize(
    "theorem_id, seed", [("kantorovich-upper", 3), ("ensemble-kantorovich-upper", 5)]
)
def test_a_candidate_whose_values_overflow_scores_inf_and_the_search_goes_on(theorem_id, seed):
    iv = SpectralInterval(1e-308, 1.0)
    result = falsify(theorem_id, DROP_CONTAINMENT, budget=50, seed=seed, interval=iv)
    assert (result.examined, result.found, result.verdict) == (50, False, HOLDS)
    doc = load_json(canonical_json(result.scenario))
    replay = run_scenario(scenario_from_doc(doc), tol_factor=VIOLATION_FACTOR)
    assert (replay.gap, replay.verdict) == (result.gap, result.verdict)


@pytest.mark.parametrize("theorem_id", _CONTAINMENT_IDS)
def test_only_the_candidates_whose_values_overflow_score_inf(theorem_id):
    entry, iv = lookup(theorem_id), SpectralInterval(1e-308, 1.0)
    plan = harness._search_plan(entry, DROP_CONTAINMENT, iv, 128)
    # 1/1e-309 overflows; the other two candidates' values are finite
    l1, l2, w = np.array([0.5, 1e-309, 0.25]), np.array([1.0, 0.5, 2.0]), np.full(3, 0.5)
    scores_of = quiet(harness._scores)  # as falsify runs it
    scores, thresholds = scores_of(entry, DROP_CONTAINMENT, plan, [0], l1, l2, w, 3)
    assert np.isinf(scores[1]) and np.isinf(thresholds[1])
    rest = [0, 2]
    alone = scores_of(entry, DROP_CONTAINMENT, plan, [0], l1[rest], l2[rest], w[rest], 2)
    assert scores[rest].tobytes() == alone[0].tobytes()
    assert thresholds[rest].tobytes() == alone[1].tobytes()
    # certifying such a candidate still raises
    with pytest.raises(DomainViolation, match="non-finite values"):
        quiet(harness._certify)(entry, DROP_CONTAINMENT, plan, iv, 128, (1e-309, 0.5, 0.5, 0))


# ---------------------------------------------------------------------------
# searches answered by the endpoint sweep

# The random search the sweep replaces, before it did: the median and the
# least gap over seeds 0-19 at budget 300 on [1, 4].
SWEEP_SEARCHED_GAPS = {
    "mean-point": (-0.7918103582586288, -0.8111966800787509),
    "inverse-pair": (-14.06249999794316, -14.0625),
    "ensemble-mean-point": (-0.7670090510612801, -0.8111974218646578),
    "ensemble-chebyshev-link": (-0.5625, -0.5625),
}

# Searches whose sweep certifies no violation, its gap within the violation
# tolerance of 0, so the search runs, with the digest of their results at
# budgets 1, 50 and 300 from before the sweep.
SWEEP_FALLBACKS = (((1.0, 1.0), SWEEP_IDS), ((1.0, 1.0 + 1e-13), SWEEP_IDS))
SWEEP_FALLBACK_DIGEST = "5a795522211ae98642dcd61d896e3782fa1f53c48cae4e5f662ffd572c7ad984"


@pytest.mark.parametrize("theorem_id", SWEEP_IDS)
def test_a_sweep_is_as_strong_as_the_search_it_replaces(theorem_id):
    median, best = SWEEP_SEARCHED_GAPS[theorem_id]
    gap = falsify(theorem_id, DROP_SYNCHRONY, budget=1).gap
    # at or below the median, up to the violation tolerance of the sweep's
    # sides: inverse-pair's least is the point mass at hi, which the search's
    # rounds reach by clipping both atoms there, and the sweep's weight 1e-9
    # at lo comes within 5.8e-8 of it, where the tolerance is 1.9e-7
    plan = harness._search_plan(lookup(theorem_id), DROP_SYNCHRONY, SpectralInterval(1, 4), 128)
    report = plan.certified[1]
    assert gap <= median + VIOLATION_FACTOR * tol_ineq(report.lhs, report.rhs)
    # short of the least by at most 1e-3 of it
    assert gap <= best + 1e-3 * abs(best)


@pytest.mark.parametrize("interval", [(1.0, 4.0), (0.5, 2.0), (2.0, 100.0)])
@pytest.mark.parametrize("theorem_id", SWEEP_IDS)
def test_a_sweep_keeps_the_least_gap_of_its_family(theorem_id, interval):
    """The kept candidate is two atoms at the interval's endpoints with one of
    the sweep's weights, and no candidate of the family, certified on its own,
    has a gap lower than its by more than the tolerance."""
    entry, iv = lookup(theorem_id), SpectralInterval(*interval)
    plan = harness._search_plan(entry, DROP_SYNCHRONY, iv, 128)
    lo, hi, w, k = plan.constructed
    weights = harness._SWEEP_WEIGHTS.tolist()
    assert len(weights) == 257 and weights[0] == 1e-9 and weights[-1] == 1.0 - 1e-9
    assert (lo, hi) == (iv.lo, iv.hi) and w in weights
    if theorem_id == "ensemble-chebyshev-link":
        # unit per-vector states do not read the weights: the first candidate stands
        assert (w, k) == (1e-9, 0)
    reports = [
        harness._certify(entry, DROP_SYNCHRONY, plan, iv, 128, (lo, hi, v, j))
        for j in range(len(plan.given))
        for v in weights
    ]
    least = min(reports, key=lambda report: report.gap)
    gap = falsify(theorem_id, DROP_SYNCHRONY, budget=1, interval=iv).gap
    assert gap <= least.gap + 2.0 * tol_ineq(least.lhs, least.rhs)


@pytest.mark.parametrize(
    "theorem_id, interval",
    [
        *[(tid, iv) for tid in SWEEP_IDS for iv in [(1.0, 1e200), (1e-300, 1.0)]],
        *[
            (tid, iv)
            for tid in ("mean-point", "ensemble-mean-point")
            for iv in [(0.0, 3.0), (-0.0, 3.0)]
        ],
    ],
)
def test_a_sweep_answers_on_extreme_intervals(theorem_id, interval):
    iv = SpectralInterval(*interval)
    result = falsify(theorem_id, DROP_SYNCHRONY, budget=1, interval=iv)
    assert (result.examined, result.found, result.verdict) == (1, True, "violated")
    doc = load_json(canonical_json(result.scenario))
    replay = run_scenario(scenario_from_doc(doc), tol_factor=VIOLATION_FACTOR)
    assert (replay.gap, replay.verdict) == (result.gap, result.verdict)


def test_a_sweep_that_certifies_no_violation_leaves_the_search_as_before():
    for interval, theorems in SWEEP_FALLBACKS:
        iv = SpectralInterval(*interval)
        for theorem in theorems:
            plan = harness._search_plan(lookup(theorem), DROP_SYNCHRONY, iv, 128)
            assert plan.constructed is None
    assert _searches_digest(SWEEP_FALLBACKS) == SWEEP_FALLBACK_DIGEST


@pytest.mark.parametrize("theorem_id", ["mean-point", "ensemble-mean-point"])
def test_a_sweep_on_a_zero_endpoint_does_not_depend_on_the_memo(cold_plans, theorem_id):
    # the atoms are lo + 0.0 and hi + 0.0, and each result writes the interval
    # it was given: cold or warm, in either order, one document per interval
    docs: dict = {}
    intervals = (SpectralInterval(-0.0, 3.0), SpectralInterval(0.0, 3.0))
    for order in (intervals, intervals[::-1]):
        falsify.cache_clear()
        for iv in (*order, *order):
            result = falsify(theorem_id, DROP_SYNCHRONY, budget=1, interval=iv)
            assert (result.examined, result.verdict) == (1, "violated")
            docs.setdefault(bool(np.signbit(iv.lo)), set()).add(canonical_json(result.to_doc()))
    assert [len(d) for d in docs.values()] == [1, 1]


# ---------------------------------------------------------------------------
# a constructed answer is certified once per plan

CONSTRUCTED_PAIRS = (
    [(tid, DROP_SYNCHRONY) for tid in WITNESS_IDS + SWEEP_IDS] + list(CLOSED_FORM_PAIRS)
)


def _counting_certify(monkeypatch) -> list:
    """The arguments of every ``_certify`` call from here on."""
    calls, certify = [], harness._certify

    def counting(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(harness, "_certify", counting)
    return calls


def _certified_doc(theorem_id, drop, iv, budget, seed) -> str:
    """The result document of certifying the plan's constructed candidate on
    ``iv`` afresh, as every call did before the plan kept its report."""
    entry = lookup(theorem_id)
    plan = harness._search_plan(entry, drop, iv, 128)
    report = harness._certify(entry, drop, plan, iv, 128, plan.constructed)
    found = report.verdict == "violated"
    args = (budget, seed, 1, found, report.gap, report.verdict, report.inputs_digest)
    return canonical_json(harness.FalsifyResult(theorem_id, drop, *args).to_doc())


def _scribble(doc) -> None:
    """Edit a JSON tree in place at every level: each dict and list gains an entry."""
    for child in list(doc.values() if isinstance(doc, dict) else doc):
        if isinstance(child, (dict, list)):
            _scribble(child)
    if isinstance(doc, dict):
        doc["scribbled"] = True
    else:
        doc.append("scribbled")


@pytest.mark.parametrize("theorem_id, drop", CONSTRUCTED_PAIRS)
def test_a_warm_constructed_search_answers_from_its_plan(monkeypatch, cold_plans, theorem_id, drop):
    for seed, budget in [(0, 1), (1, 50), (7, 1000), (2**64 - 1, MAX_BUDGET)]:
        falsify.cache_clear()
        fresh = _certified_doc(theorem_id, drop, SpectralInterval(1.0, 4.0), budget, seed)
        falsify.cache_clear()
        calls = _counting_certify(monkeypatch)
        cold = canonical_json(falsify(theorem_id, drop, budget=budget, seed=seed).to_doc())
        assert len(calls) == 1  # the plan's, when it is built
        warm = canonical_json(falsify(theorem_id, drop, budget=budget, seed=seed).to_doc())
        assert len(calls) == 1
        assert warm == cold == fresh
        monkeypatch.undo()


@pytest.mark.parametrize("theorem_id, drop", CONSTRUCTED_PAIRS)
def test_editing_a_returned_scenario_leaves_later_results_alone(cold_plans, theorem_id, drop):
    first = falsify(theorem_id, drop, budget=1)
    want = canonical_json(first.to_doc())
    second = falsify(theorem_id, drop, budget=1)
    assert second.scenario is not first.scenario
    for result in (first, second):
        _scribble(result.scenario)
    assert "scribbled" in first.scenario
    assert canonical_json(falsify(theorem_id, drop, budget=1).to_doc()) == want


@pytest.mark.parametrize("theorem_id", ["pc-two-op", "discrete-chebyshev"])
def test_a_zero_endpoint_of_the_other_sign_is_certified_again(monkeypatch, cold_plans, theorem_id):
    negative, positive = SpectralInterval(-0.0, 3.0), SpectralInterval(0.0, 3.0)
    for ivs in ((negative, positive), (positive, negative)):
        first, second = ivs
        falsify.cache_clear()
        calls = _counting_certify(monkeypatch)
        results = [falsify(theorem_id, DROP_SYNCHRONY, budget=1, interval=iv) for iv in ivs]
        assert len(calls) == 2  # the plan's on ``first``, and ``second``'s own
        again = [falsify(theorem_id, DROP_SYNCHRONY, budget=1, interval=iv) for iv in ivs]
        assert len(calls) == 3  # ``first`` answers from the plan
        monkeypatch.undo()
        for iv, result, repeat in zip(ivs, results, again):
            doc = canonical_json(result.to_doc())
            assert canonical_json(repeat.to_doc()) == doc
            assert doc == _certified_doc(theorem_id, DROP_SYNCHRONY, iv, 1, 0)
            if theorem_id == "pc-two-op":
                # each writes the interval it was given
                for key in ("operator", "operator_b"):
                    lo, hi = result.scenario[key]["interval"]
                    assert (np.signbit(lo), hi) == (np.signbit(iv.lo), 3.0)


@pytest.mark.parametrize(
    "intervals", [((-0.0, 3.0), (0.0, 3.0)), ((-3.0, -0.0), (-3.0, 0.0))], ids=["lo", "hi"]
)
def test_constructed_tuples_of_a_zero_endpoint_do_not_depend_on_the_memo(cold_plans, intervals):
    # a = (lo + 0.0, hi + 0.0): either signed zero writes 0, cold or warm,
    # whichever of the two built the plan they share
    docs = set()
    for order in (intervals, intervals[::-1]):
        falsify.cache_clear()
        for interval in (*order, *order):
            iv = SpectralInterval(*interval)
            result = falsify("discrete-chebyshev", DROP_SYNCHRONY, budget=1, interval=iv)
            zeros = [x for x in result.scenario["tuples"]["a"] if x == 0.0]
            assert zeros == [0.0] and not np.signbit(zeros[0])
            docs.add(canonical_json(result.to_doc()))
    assert len(docs) == 1


@pytest.mark.parametrize(
    "theorem_id, drop, interval",
    [
        *[(tid, DROP_CONTAINMENT, (1e-308, 1.0)) for tid in _CONTAINMENT_IDS],
        *[(tid, DROP_SYNCHRONY, (1.0, 1.0)) for tid in WITNESS_IDS + SWEEP_IDS],
    ],
)
def test_a_construction_that_falls_back_searches_and_certifies_every_call(
    monkeypatch, cold_plans, theorem_id, drop, interval
):
    iv = SpectralInterval(*interval)
    plan = harness._search_plan(lookup(theorem_id), drop, iv, 128)
    assert plan.constructed is None and plan.certified is None
    calls = _counting_certify(monkeypatch)
    for n in range(1, 4):
        result = falsify(theorem_id, drop, budget=50, seed=n - 1, interval=iv)
        assert (result.examined, result.found) == (50, False)
        assert len(calls) == n


@pytest.mark.parametrize("theorem_id", _CONTAINMENT_IDS)
@pytest.mark.parametrize("interval", [(1.0, 1e308), (5e-324, 1.0)])
def test_a_containment_draw_interval_out_of_range_names_the_given_interval(
    cold_plans, theorem_id, interval
):
    iv = SpectralInterval(*interval)
    for _ in range(2):
        with pytest.raises(ConfigInvalid) as err:
            falsify(theorem_id, DROP_CONTAINMENT, budget=50, interval=iv)
        message = str(err.value)
        assert f"[{iv.lo}, {iv.hi}]" in message and "not finite and positive" in message
        assert "inf" not in message.replace("finite", "")
    assert cold_plans().currsize == 0
