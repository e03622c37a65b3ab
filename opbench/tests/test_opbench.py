"""Tests of the benchmark itself: a tiny pass over each workload, the traced
pass, the command line, and one case per correctness check showing that it
rejects a deliberately corrupted output.

    python3 -m pytest opbench/tests -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import opineq
from opbench import tracing, verify, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SUITE_TRIALS", 2)
    monkeypatch.setattr(workloads, "SUITE_SAMPLE_EVERY", 1)


def one_round(name: str, seed: int = 3, tracer=None) -> workloads.Tally:
    work = workloads.WORKLOADS[name](seed, tracer)
    work.prepare()
    tally = workloads.Tally()
    try:
        work.run_round(0, tally)
    finally:
        work.close()
    return tally


# ---------------------------------------------------------------------------
# tiny passes


def test_suite_round_is_correct(tiny):
    tally = one_round("suite")
    assert tally.problems == []
    assert tally.attempted == 2 * len(opineq.REGISTRY_ORDER)
    assert tally.failed == 0
    assert len(tally.latencies) == tally.attempted


def test_replay_round_fails_exactly_the_fixed_slot_documents(monkeypatch):
    failing = []
    check_failure = verify.check_failure
    monkeypatch.setattr(verify, "check_failure", lambda tid, exc: failing.append(tid) or check_failure(tid, exc))
    tally = one_round("replay")
    assert tally.problems == []
    per_id = workloads.REPLAY_DOCS_PER_ID
    assert tally.attempted == per_id * len(opineq.REGISTRY_ORDER) + len(opineq.SCENARIOS)
    assert tally.failed == per_id * len(verify.FIXED_SLOT_IDS) == 18
    assert set(failing) == verify.FIXED_SLOT_IDS


def test_replay_writes_no_document_in_the_replaying_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_suite called in the replaying process")

    monkeypatch.setattr(opineq, "run_suite", refuse)
    tally = one_round("replay")
    assert tally.problems == []
    assert tally.attempted > len(opineq.SCENARIOS)


def test_replay_writer_gives_the_documents_of_write_round():
    work = workloads.Replay(3)
    work.prepare()
    try:
        docs = work.round_docs(1)
    finally:
        work.close()
    written = workloads.write_round(3, 1)
    assert [d.text for d in docs[: len(written)]] == [d["text"] for d in written]
    assert [(d.gap, d.verdict) for d in docs[: len(written)]] == [(d["gap"], d["verdict"]) for d in written]


def test_replay_documents_are_fresh_each_round_and_failing_ones_ignore_the_seed():
    def texts(seed, r, failing):
        return [d["text"] for d in workloads.write_round(seed, r) if (d["theorem"] in verify.FIXED_SLOT_IDS) == failing]

    assert texts(1, 0, True) == texts(2, 0, True)
    assert texts(1, 0, False) != texts(2, 0, False)
    for failing in (True, False):
        assert not set(texts(1, 0, failing)) & set(texts(1, 1, failing))


def test_falsify_round_is_correct():
    tally = one_round("falsify")
    assert tally.problems == []
    assert tally.attempted == len(workloads.SEARCHES)


def test_inputs_repeat_for_a_seed():
    assert workloads.write_round(5, 0) == workloads.write_round(5, 0)


# ---------------------------------------------------------------------------
# tracing


@pytest.mark.parametrize("name", ["suite", "replay", "falsify"])
def test_traced_counts_repeat_and_cover_every_layer(tiny, name):
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        work = workloads.WORKLOADS[name](4, tracer)
        work.prepare()
        tracer.install()
        try:
            tally = workloads.Tally()
            work.run_round(0, tally)
            work.run_round(1, tally)
        finally:
            work.close()
            tracer.uninstall()
        assert tally.problems == []
        runs.append(tracer.metrics())
    declared = {m["name"] for m in SPEC["per_layer"]} - {"traced.ops_per_s"}
    assert set(runs[0]) == declared
    counts = [n for n, (_, unit) in runs[0].items() if unit in ("count", "bytes")]
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}


def test_uninstall_restores_every_binding():
    before = (
        opineq.expectation,
        opineq.functionals.expectation_product,
        opineq.harness.random_operator,
        opineq.registry.REGISTRY_ORDER[0].run,
        opineq.ScalarFunction.__call__,
        opineq.HermitianOperator.__post_init__,
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert opineq.functionals.expectation_product is not before[1]
    tracer.uninstall()
    after = (
        opineq.expectation,
        opineq.functionals.expectation_product,
        opineq.harness.random_operator,
        opineq.registry.REGISTRY_ORDER[0].run,
        opineq.ScalarFunction.__call__,
        opineq.HermitianOperator.__post_init__,
    )
    assert all(x is y for x, y in zip(before, after))


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: inner())
    outer()
    (_, _, _, start, end), = [s for s in tracer.spans if s[2] == "outer"]
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(end - start)
    assert tracer.self_s["outer"] < end - start


# ---------------------------------------------------------------------------
# command line


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "opbench/run.py", "--workload", "falsify", "--seed", "1",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "opbench", tmp_path / "opbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "opbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def _suite_tallies():
    summary = opineq.run_suite(opineq.TrialConfig(seed=1, trials=3))
    return {tid: t.to_doc() for tid, t in summary.tallies.items()}


def test_suite_tally_check_rejects_a_violation():
    tallies = _suite_tallies()
    assert verify.check_suite_tallies(tallies, 3) == []
    bad = copy.deepcopy(tallies)
    bad["pc-sign"]["holds"] -= 1
    bad["pc-sign"]["violated"] += 1
    assert verify.check_suite_tallies(bad, 3)


def test_suite_tally_check_rejects_a_gated_square_case():
    bad = _suite_tallies()
    bad["pc-square"]["holds"] -= 1
    bad["pc-square"]["hypothesis_not_met"] += 1
    assert any("square" in p for p in verify.check_suite_tallies(bad, 3))


def test_suite_tally_check_rejects_a_lost_trial():
    bad = _suite_tallies()
    bad["kantorovich-lower"]["holds"] -= 1
    assert verify.check_suite_tallies(bad, 3)


def _record(tid: str) -> dict:
    written = []
    opineq.run_suite(
        opineq.TrialConfig(seed=2, trials=1, theorem_ids=(tid,)),
        on_report=lambda _t, _k, report: written.append(report),
    )
    return written[0].to_record()


@pytest.mark.parametrize("tid", sorted(verify.RECOMPUTED_IDS))
def test_recomputation_rejects_a_perturbed_side(tid):
    record = _record(tid)
    assert verify.check_recomputed(record) == []
    record["lhs"] *= 1.0 + 1e-6
    assert verify.check_recomputed(record)


def test_pinned_check_rejects_a_flipped_verdict():
    scenario = opineq.SCENARIOS[0]
    record = opineq.run_scenario(opineq.scenario_from_doc(scenario)).to_record()
    assert verify.check_expect(scenario["name"], record, scenario["expect"]) == []
    record["verdict"] = "violated"
    assert verify.check_expect(scenario["name"], record, scenario["expect"])


def test_pinned_check_rejects_a_perturbed_gap():
    scenario = opineq.SCENARIOS[0]
    record = opineq.run_scenario(opineq.scenario_from_doc(scenario)).to_record()
    record["gap"] += 1e-6
    assert verify.check_expect(scenario["name"], record, scenario["expect"])


def test_replay_check_rejects_a_perturbed_gap_and_a_flipped_verdict():
    record = _record("pc-sign")
    assert verify.check_replayed("pc-sign", record, record["gap"], record["verdict"]) == []
    assert verify.check_replayed("pc-sign", record, record["gap"] + 1e-15, record["verdict"])
    assert verify.check_replayed("pc-sign", record, record["gap"], "violated")


def test_emitted_check_rejects_a_perturbed_gap():
    record = _record("pc-sign")
    text = opineq.canonical_json(record)
    assert verify.check_emitted(text, record["gap"], record["verdict"]) == []
    assert verify.check_emitted(text, record["gap"] * 2 + 1, record["verdict"])


def test_roundtrip_check_rejects_non_canonical_text():
    text = opineq.canonical_json(_record("pc-sign")["inputs_digest"])
    assert verify.check_roundtrip(text) == []
    assert verify.check_roundtrip(text.replace(",", ", ", 1))


def test_failure_check_accepts_only_the_known_fault():
    err = opineq.ConfigInvalid("pc-sign-t takes function slots ['f', 'g']; got unexpected ['h']")
    assert verify.check_failure("pc-sign-t", err) == []
    assert verify.check_failure("pc-sign", err)
    assert verify.check_failure("pc-sign-t", ValueError("unexpected"))


@pytest.mark.parametrize("search", [s for s in workloads.SEARCHES if s.drop], ids=lambda s: s.theorem)
def test_search_check_rejects_a_perturbed_counterexample(search):
    result = opineq.falsify(search.theorem, search.drop, budget=search.budget, seed=1).to_doc()
    assert verify.check_search(search.drop, result) == []
    missed = dict(result, found=False)
    assert verify.check_search(search.drop, missed)
    perturbed = dict(result, gap=result["gap"] + 1.0)
    assert verify.check_search(search.drop, perturbed)


def test_search_check_rejects_a_counterexample_with_hypotheses_intact():
    result = opineq.falsify("pc-sign", None, budget=100, seed=1).to_doc()
    assert verify.check_search(None, result) == []
    assert verify.check_search(None, dict(result, found=True))


def test_search_check_rejects_a_nonnegative_recomputed_gap():
    result = opineq.falsify("discrete-chebyshev", "synchrony", budget=16, seed=1).to_doc()
    fixed = copy.deepcopy(result)
    fixed["scenario"]["tuples"]["b"] = sorted(fixed["scenario"]["tuples"]["b"])
    fixed["scenario"]["tuples"]["a"] = sorted(fixed["scenario"]["tuples"]["a"])
    assert any("not negative" in p for p in verify.check_search("synchrony", fixed))


def test_two_point_check_rejects_a_larger_document():
    doc = {"theorem": "pc-sign", "operator": {"diagonal": [1.0, 2.0, 3.0], "interval": [1.0, 4.0]}}
    assert workloads._check_two_point(doc)
    doc["operator"]["diagonal"] = [1.0, 2.0]
    assert workloads._check_two_point(doc) == []
