"""Steadiness of the end-to-end metrics on one commit.

    python3 opbench/steadiness.py --runs 10

Runs ``opbench/run.py`` once per seed (1..N) on every workload of
``BENCHMARK.json``, untraced and for its ``run_seconds``, and
prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile spread as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.  A
spread below a third of its bound is marked ``ok``.  It also checks that the
failed share is identical in every run.  The table and the raw runs are
written to ``opbench/results/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "opbench" / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread of each metric over runs of one workload."""
    table = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        table[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "ok": spread < bound / 3.0,
        }
    shares = [(r["failed"], r["attempted"]) for r in runs]
    exact = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
    return {
        "metrics": table,
        "failed_share_exact": exact,
        "correct": all(r["correct"] for r in runs),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, seconds))
            sys.stderr.write(f"{workload} seed {seed} done\n")
        summary = summarize(runs, bounds)
        summary["raw"] = runs
        report["workloads"][workload] = summary
        print(f"\n{workload}: correct={summary['correct']} "
              f"failed share exact={summary['failed_share_exact']} "
              f"(failed/attempted of run 1: {runs[0]['failed']}/{runs[0]['attempted']})")
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, row in summary["metrics"].items():
            mark = "ok" if row["ok"] else "WIDE"
            print(f"  {name:12s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['spread']:7.2%} {row['bound']:6.0%} {mark}")
    out = ROOT / "opbench" / "results" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
