"""The three workloads: ``suite``, ``replay`` and ``falsify``.

Each workload runs one operation at a time in a closed loop on one thread.
Work is done in whole rounds of the same operations; ``prepare`` is the
one-time set-up before the first timed operation, and ``run_round`` executes
one round, timing each operation and checking its output outside the timed
region.  Inputs come from the workload seed, except replay's failing
documents (see ``REPLAY_FAILING_SEED``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
import subprocess
import sys
from time import perf_counter
from typing import Optional

import numpy as np

import opineq

from . import verify

SUITE_TRIALS = 20  # trials per check id in one suite round (23 ids -> 460 trials)
SUITE_SAMPLE_EVERY = 5  # recompute every 5th trial of the sign and Kantorovich ids

REPLAY_DOCS_PER_ID = 2
REPLAY_DIMS = (1, 16)
# The fixed-slot documents fail on replay whatever they hold.  They are drawn
# from this constant instead of the workload seed, so the inputs of the only
# operations that fail never depend on the seed.
REPLAY_FAILING_SEED = 0
WRITER = pathlib.Path(__file__).resolve().parent / "run.py"


@dataclasses.dataclass(frozen=True)
class Search:
    """One falsification search of the fixed list."""

    theorem: str
    drop: Optional[str]
    budget: int
    path: str  # "scalar" (vectorised 2x2 search) or "generic" (full check per candidate)


# Dropped-hypothesis budgets are large enough that a miss is below 1e-9 per
# search at the per-candidate hit rates measured on this list.
SEARCHES: tuple[Search, ...] = (
    Search("pc-sign", "synchrony", 300, "scalar"),
    Search("pc-sign", None, 300, "scalar"),
    Search("kantorovich-upper", "spectral-containment", 1000, "scalar"),
    Search("kantorovich-lower", None, 1000, "scalar"),
    Search("ensemble-product-lower", "normalization", 1000, "scalar"),
    Search("inverse-pair", "synchrony", 8, "generic"),
    Search("inverse-pair", None, 8, "generic"),
    Search("pc-two-op", "synchrony", 8, "generic"),
    Search("pc-two-op", None, 8, "generic"),
    Search("ensemble-pc-sign", "synchrony", 8, "generic"),
    Search("ensemble-pc-sign", None, 8, "generic"),
    Search("discrete-chebyshev", "synchrony", 16, "generic"),
    Search("discrete-chebyshev", None, 16, "generic"),
)


@dataclasses.dataclass
class Tally:
    """What a run measured: completed-op latencies, failures, timed time, problems."""

    latencies: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    problems: list = dataclasses.field(default_factory=list)

    def completed(self, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.busy_s += seconds

    def failure(self, seconds: float) -> None:
        self.attempted += 1
        self.failed += 1
        self.busy_s += seconds


def _derived(seed: int, *parts: int) -> int:
    """A 64-bit integer seed for the program, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(2, np.uint32).view(np.uint64)[0])


class Workload:
    """Seeded inputs plus an optional tracer that checks and input building pause."""

    name = ""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def close(self) -> None:
        """Stop whatever the workload started."""


class Suite(Workload):
    """``run_suite`` over all check ids at the default config; one op is one trial."""

    name = "suite"

    def prepare(self) -> None:
        self.config = opineq.TrialConfig(seed=0, trials=SUITE_TRIALS)

    def run_round(self, r: int, tally: Tally) -> None:
        config = dataclasses.replace(self.config, seed=_derived(self.seed, r))
        state = {"last": 0.0}

        def on_report(tid: str, trial: int, report) -> None:
            now = perf_counter()
            tally.completed(now - state["last"])
            if tid in verify.RECOMPUTED_IDS and trial % SUITE_SAMPLE_EVERY == 0:
                with self.untraced():
                    tally.problems.extend(verify.check_recomputed(report.to_record()))
            state["last"] = perf_counter()

        state["last"] = perf_counter()
        summary = opineq.run_suite(config, on_report=on_report)
        tally.busy_s += perf_counter() - state["last"]
        tallies = {tid: t.to_doc() for tid, t in summary.tallies.items()}
        if len(tallies) != len(opineq.REGISTRY_ORDER):
            tally.problems.append(f"suite ran {len(tallies)} check ids")
        tally.problems.extend(verify.check_suite_tallies(tallies, SUITE_TRIALS))


@dataclasses.dataclass(frozen=True)
class ReplayDoc:
    """A canonical scenario document and what replaying it must give back."""

    theorem: str
    text: str
    gap: Optional[float] = None  # writer's gap, for random documents
    verdict: Optional[str] = None
    name: Optional[str] = None  # pinned scenario name
    expect: Optional[dict] = None


def write_round(seed: int, r: int) -> list[dict]:
    """Round ``r``'s random documents, in registry order, with the writer's gap and verdict.

    Each is the ``inputs_digest`` of one ``run_suite`` trial on its own random
    positive interval.  The fixed-slot ids draw from ``REPLAY_FAILING_SEED``
    instead of ``seed``; every id draws anew in every round.
    """
    docs = []
    for entry in opineq.REGISTRY_ORDER:
        tid = entry.theorem_id
        base = REPLAY_FAILING_SEED if tid in verify.FIXED_SLOT_IDS else seed
        for k in range(REPLAY_DOCS_PER_ID):
            rng = np.random.default_rng([base, r, entry.ordinal, k])
            lo = float(rng.uniform(0.25, 2.0))
            hi = lo + float(rng.uniform(0.25, 3.0))
            config = opineq.TrialConfig(
                seed=int(rng.integers(2**63)),
                trials=1,
                dim_range=REPLAY_DIMS,
                interval=opineq.SpectralInterval(lo, hi),
                theorem_ids=(tid,),
            )
            written = []
            opineq.run_suite(config, on_report=lambda _t, _k, report: written.append(report))
            report = written[0]
            text = opineq.canonical_json(report.inputs_digest)
            docs.append({"theorem": tid, "text": text, "gap": report.gap, "verdict": report.verdict})
    return docs


def serve_documents(seed: int, requests, out) -> None:
    """The document writer: for each round number read, print that round's documents as one JSON line."""
    for line in requests:
        out.write(json.dumps(write_round(seed, int(line))) + "\n")
        out.flush()


class Replay(Workload):
    """``opineq check`` without the process start; one op is one document.

    A round replays, in a fixed order: two random documents for each check
    id, each on its own random positive interval with dims 1-16, and the 49
    pinned scenarios.  The random documents are fresh in every round, so none
    of their certification keys ever repeats.  They are written by a separate
    process (``run.py --write-docs``), so nothing the program keeps from
    writing them is left in the process that replays them.
    """

    name = "replay"
    writer = None

    def prepare(self) -> None:
        self.pinned = [
            ReplayDoc(s["theorem"], opineq.canonical_json(s), name=s["name"], expect=s["expect"])
            for s in opineq.SCENARIOS
        ]

    def round_docs(self, r: int) -> list[ReplayDoc]:
        """This round's documents, asked of the writer outside the timed region."""
        if self.writer is None:
            command = [sys.executable, str(WRITER), "--workload", self.name]
            command += ["--seed", str(self.seed), "--write-docs"]
            self.writer = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.writer.stdin.write(f"{r}\n")
        self.writer.stdin.flush()
        line = self.writer.stdout.readline()
        if not line:
            raise RuntimeError(f"document writer exited with {self.writer.wait()}")
        return [ReplayDoc(**d) for d in json.loads(line)] + self.pinned

    def close(self) -> None:
        if self.writer is not None:
            self.writer.stdin.close()
            self.writer.stdout.close()
            try:
                self.writer.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.writer.kill()
                self.writer.wait()
            self.writer = None

    def run_round(self, r: int, tally: Tally) -> None:
        for doc in self.round_docs(r):
            start = perf_counter()
            try:
                parsed = opineq.scenario_from_doc(opineq.load_json(doc.text))
                report = opineq.run_scenario(parsed)
                out = opineq.canonical_json(report.to_record())
            except Exception as exc:  # counted and checked: only the known fault may fail
                tally.failure(perf_counter() - start)
                with self.untraced():
                    tally.problems.extend(verify.check_failure(doc.theorem, exc))
                    tally.problems.extend(verify.check_roundtrip(doc.text))
                continue
            tally.completed(perf_counter() - start)
            self._check(doc, report, out, tally)

    def _check(self, doc: ReplayDoc, report, out: str, tally: Tally) -> None:
        """Checked after the op, so the round trip parses each text only once it has been replayed."""
        with self.untraced():
            record = report.to_record()
            if doc.expect is not None:
                tally.problems.extend(verify.check_expect(doc.name, record, doc.expect))
            else:
                tally.problems.extend(verify.check_replayed(doc.theorem, record, doc.gap, doc.verdict))
            tally.problems.extend(verify.check_emitted(out, report.gap, report.verdict))
            tally.problems.extend(verify.check_roundtrip(doc.text))


class Falsify(Workload):
    """The fixed search list; one op is one ``falsify`` search."""

    name = "falsify"

    def prepare(self) -> None:
        for search in SEARCHES:
            opineq.lookup(search.theorem)

    def run_round(self, r: int, tally: Tally) -> None:
        for k, search in enumerate(SEARCHES):
            seed = _derived(self.seed, r, k)
            start = perf_counter()
            result = opineq.falsify(search.theorem, search.drop, budget=search.budget, seed=seed)
            tally.completed(perf_counter() - start)
            if self.tracer is not None:
                self.tracer.count(f"harness.search.{search.path}.examined", result.examined)
            with self.untraced():
                tally.problems.extend(verify.check_search(search.drop, result.to_doc()))
                if search.path == "scalar" and result.found:
                    tally.problems.extend(_check_two_point(result.scenario))


def _check_two_point(doc: dict) -> list[str]:
    """Vectorised searches return 2x2 diagonal documents (or two 1x1 blocks)."""
    ops = doc["ensemble"]["operators"] if "ensemble" in doc else [doc["operator"]]
    if sum(len(op.get("diagonal", ())) for op in ops) != 2:
        return [f"falsify {doc['theorem']}: vectorised search returned a non-2x2 document"]
    return []


WORKLOADS = {cls.name: cls for cls in (Suite, Replay, Falsify)}
