"""opineq benchmark: one workload, one closed loop, one thread.

    python3 opbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, measured for ``--seconds``.  ``--trace 1`` wraps the
package's layers and reports the per-layer metrics over a fixed number of
rounds, so that its counts repeat exactly for a given seed; it also writes
the spans to ``opbench/results/``.
"""

from __future__ import annotations

import os

# numpy links a threaded OpenBLAS; the matrices here are at most 16x16, so one
# thread per process keeps the 2-core machine from oversubscribing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "opbench" / "results"

SETUP_STARTS = 7  # fresh interpreters per run; setup_s is their median
TRACE_ROUNDS = {"suite": 12, "replay": 30, "falsify": 40}
READY = "opbench-ready"


def _import_program():
    """Import opineq from this checkout's ``src/``, or exit 2 if it is not there."""
    package = SRC / "opineq" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"error: {package} not found; run from the root of a source checkout\n")
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import opineq

    if pathlib.Path(opineq.__file__).resolve() != package.resolve():
        sys.stderr.write(f"error: imported opineq from {opineq.__file__}, not {package}\n")
        raise SystemExit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("suite", "replay", "falsify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and prepare, print a ready line and exit (one set-up sample)",
    )
    parser.add_argument(
        "--write-docs",
        action="store_true",
        help="replay's document writer: for each round number on stdin, print its documents",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _setup_once(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its ready line."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload]
    command += ["--seed", str(seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"set-up start exited {code} without a ready line")
    return seconds


def _p99(lat: list) -> float:
    """The 99th percentile of all completed ops of the run."""
    if len(lat) < 1000:
        sys.stderr.write(f"warning: {len(lat)} completed ops; op_p99_us has < 10 samples beyond it\n")
    return statistics.quantiles(lat, n=100, method="inclusive")[98]


def _end_to_end(tally, setup_s: float) -> dict:
    lat = tally.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / tally.busy_s, "ops/s"),
        "op_p50_us": (statistics.median(lat) * 1e6, "us"),
        "op_p99_us": (_p99(lat) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from opbench import tracing, workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed).prepare()
        print(READY, flush=True)
        return 0
    if args.write_docs:
        workloads.serve_documents(args.seed, sys.stdin, sys.stdout)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    work = cls(args.seed, tracer)
    work.prepare()
    tally = workloads.Tally()
    setup = []  # fresh-start samples, spread over the run so they see its whole span
    probe_s = 0.0
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        rounds = 0
        while True:
            measured = perf_counter() - start - probe_s
            if tracer is None and len(setup) < SETUP_STARTS and measured >= len(setup) * args.seconds / SETUP_STARTS:
                probe_start = perf_counter()
                setup.append(_setup_once(args.workload, args.seed))
                probe_s += perf_counter() - probe_start
                continue
            done = rounds >= TRACE_ROUNDS[args.workload] if tracer is not None else measured >= args.seconds
            if done:
                break
            work.run_round(rounds, tally)
            rounds += 1
    finally:
        work.close()
        if tracer is not None:
            tracer.uninstall()
    while tracer is None and len(setup) < SETUP_STARTS:
        setup.append(_setup_once(args.workload, args.seed))

    if tracer is None:
        metrics = _end_to_end(tally, statistics.median(setup))
    else:
        metrics = tracer.metrics()
        metrics["traced.ops_per_s"] = (len(tally.latencies) / tally.busy_s, "ops/s")
        RESULTS.mkdir(parents=True, exist_ok=True)
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.trace_doc()) + "\n", encoding="utf-8")
    for problem in tally.problems[:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    sys.stderr.write(f"{args.workload}: {rounds} rounds, {tally.attempted} ops\n")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
