"""Command-line interface.

Subcommands: ``check`` (one scenario file), ``suite`` (random property suite),
``classify`` (synchrony / relative-monotonicity scan), ``falsify``
(hypothesis-dropping counterexample search), ``pinned`` (the full pinned
scenario library).

Exit status: 0 when every verdict is as expected, 1 when a violation appears
where the inequality promised none (or a pinned expectation fails), 2 on input
errors.  All machine output on stdout is canonically serialized (sorted keys,
17-significant-digit floats), so identical runs are byte-identical; wall-clock
timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys
import time
from typing import Optional

from .errors import ConfigInvalid, OpineqError, read_list, read_number
from .functionals import VIOLATED
from .functions import classify_monotonicity, classify_synchrony, function_from_descriptor
from .functions import scan_tr_regions
from .harness import TheoremTally, config_from_doc, falsify, run_suite
from .registry import DROPPABLE, expectation_failures, run_scenario
from .scenarios import SCENARIOS, coverage_gaps
from .serialize import canonical_json, csv_writer, interval_from_doc, load_json, rows_to_csv
from .serialize import scenario_from_doc
from .spectral import SpectralInterval, read_grid_n
from .tolerances import DEFAULT_GRID_N

__all__ = ["main"]

# argparse takes only -1 and -1.5 for negative numbers and reads any other
# token with a leading minus, such as the lower bound in "--interval -1e-3 2",
# as an option; a subcommand that takes --interval reads every float literal
# with a leading minus as a number (none of its options looks like one)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

_REPORT_CSV_FIELDS = (
    "theorem",
    "trial",
    "direction",
    "lhs",
    "rhs",
    "gap",
    "tolerance",
    "verdict",
)
_SUMMARY_CSV_FIELDS = ("theorem", *(f.name for f in dataclasses.fields(TheoremTally)))
_CLASSIFY_CSV_FIELDS = (
    "r",
    "kind",
    "classification",
    "min_product",
    "max_product",
    "min_defect",
    "max_defect",
    "witness_pos",
    "witness_neg",
    "grid_size",
    "tol",
)


def _emit(doc) -> None:
    sys.stdout.write(canonical_json(doc) + "\n")


def _read_doc(path: str):
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"{path} is not UTF-8 text: {exc}") from None
    return load_json(text)


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _read_doc(args.scenario)
    parsed = scenario_from_doc(doc)
    report = run_scenario(parsed)
    _emit(report.to_record())
    failures = []
    expect = parsed.get("expect")
    if expect is not None:
        failures = expectation_failures(report, expect)
    for msg in failures:
        sys.stderr.write(f"expectation mismatch: {msg}\n")
    if failures:
        return 1
    if report.verdict == VIOLATED and not (expect and expect.get("verdict") == VIOLATED):
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.format == "csv" and not args.out:
        raise ConfigInvalid("--format csv writes reports.csv into the --out directory; give --out")
    doc = _read_doc(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigInvalid("suite config must be an object")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.dim_min is not None or args.dim_max is not None:
        base = read_list(doc.get("dim_range", [1, 8]), "dim_range [min, max]", 2)
        lo = args.dim_min if args.dim_min is not None else base[0]
        hi = args.dim_max if args.dim_max is not None else base[1]
        doc["dim_range"] = [lo, hi]
    if args.interval is not None:
        doc["interval"] = [args.interval[0], args.interval[1]]
    if args.grid is not None:
        doc["grid_n"] = args.grid
    if args.theorems is not None:
        doc["theorems"] = args.theorems
    config = config_from_doc(doc)

    out_dir: Optional[pathlib.Path] = None
    reports = write_csv = None
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.format == "csv":
            reports = (out_dir / "reports.csv").open("w", encoding="utf-8")
            write_csv = csv_writer(reports, _REPORT_CSV_FIELDS)
        else:
            reports = (out_dir / "reports.jsonl").open("w", encoding="utf-8")

    def on_report(tid: str, trial: int, report) -> None:
        row = {**report.to_record(), "trial": trial}
        if write_csv is None:
            reports.write(canonical_json(row) + "\n")
        else:
            write_csv({**row, "theorem": tid})

    start = time.monotonic()
    try:
        summary = run_suite(config, on_report=on_report if out_dir else None)
    finally:
        if reports is not None:
            reports.close()
    _emit(summary.to_doc())
    sys.stderr.write(f"wall time: {time.monotonic() - start:.3f}s\n")

    if out_dir is not None:
        (out_dir / "summary.json").write_text(
            canonical_json(summary.to_doc()) + "\n", encoding="utf-8"
        )
        rows = []
        for tid, tally in summary.tallies.items():
            row = {"theorem": tid}
            row.update(tally.to_doc())
            rows.append(row)
        (out_dir / "summary.csv").write_text(
            rows_to_csv(_SUMMARY_CSV_FIELDS, rows), encoding="utf-8"
        )
    return summary.exit_code()


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = _read_doc(args.functions)
    if not isinstance(doc, dict):
        raise ConfigInvalid("classify input must be an object")
    unknown = set(doc) - {"f", "g", "h", "r_values", "interval", "grid_n", "mode"}
    if unknown:
        raise ConfigInvalid(f"unknown classify fields: {sorted(unknown)}")
    if "interval" not in doc or "f" not in doc:
        raise ConfigInvalid("classify needs at least 'f' and 'interval'")
    interval = interval_from_doc(doc["interval"])
    grid_n = read_grid_n(doc.get("grid_n", DEFAULT_GRID_N))
    mode = doc.get("mode", "synchrony")
    f = function_from_descriptor(doc["f"])

    rows: list[dict] = []
    if mode == "monotonicity":
        if "h" not in doc:
            raise ConfigInvalid("monotonicity mode needs 'f' and 'h'")
        unread = sorted({"g", "r_values"} & set(doc))
        if unread:
            raise ConfigInvalid(f"monotonicity mode does not read the fields {unread}")
        h = function_from_descriptor(doc["h"])
        rows.append(classify_monotonicity(f, h, interval, grid_n).summary())
    elif mode == "synchrony":
        if "g" not in doc:
            raise ConfigInvalid("synchrony mode needs 'f' and 'g'")
        g = function_from_descriptor(doc["g"])
        if "r_values" in doc:
            if "h" in doc:
                raise ConfigInvalid("synchrony mode takes either 'h' or 'r_values', not both")
            entries = read_list(doc["r_values"], "r_values")
            r_values = [read_number(r, "r_values entry") for r in entries]
            for r, verdict in scan_tr_regions(f, g, r_values, interval, grid_n):
                row = {"r": r}
                row.update(verdict.summary())
                rows.append(row)
        elif "h" in doc:
            h = function_from_descriptor(doc["h"])
            rows.append(classify_synchrony(f, g, h, interval, grid_n).summary())
        else:
            raise ConfigInvalid("synchrony mode needs either 'h' or 'r_values'")
    else:
        raise ConfigInvalid(f"mode must be 'synchrony' or 'monotonicity', got {mode!r}")

    for row in rows:
        _emit(row)
    if args.out:
        csv_rows = []
        for row in rows:
            flat = dict(row)
            for key in ("witness_pos", "witness_neg"):
                if flat.get(key) is not None:
                    flat[key] = "(" + ", ".join(str(v) for v in flat[key]) + ")"
            csv_rows.append(flat)
        pathlib.Path(args.out).write_text(
            rows_to_csv(_CLASSIFY_CSV_FIELDS, csv_rows), encoding="utf-8"
        )
    return 0


def _cmd_falsify(args: argparse.Namespace) -> int:
    interval = None
    if args.interval is not None:
        interval = SpectralInterval(args.interval[0], args.interval[1])
    start = time.monotonic()
    result = falsify(
        args.theorem,
        args.drop,
        budget=args.budget,
        seed=args.seed if args.seed is not None else 0,
        interval=interval,
        grid_n=args.grid if args.grid is not None else DEFAULT_GRID_N,
    )
    _emit(result.to_doc())
    sys.stderr.write(f"wall time: {time.monotonic() - start:.3f}s\n")
    if args.out:
        pathlib.Path(args.out).write_text(
            canonical_json(result.to_doc()) + "\n", encoding="utf-8"
        )
    if result.found and args.drop is None:
        return 1
    return 0


def _cmd_pinned(args: argparse.Namespace) -> int:
    gaps = coverage_gaps()
    if gaps:
        sys.stderr.write(f"coverage gaps: {gaps}\n")
        return 1
    lines = []
    failed = 0
    for scenario in SCENARIOS:
        parsed = scenario_from_doc(scenario)
        report = run_scenario(parsed)
        failures = expectation_failures(report, parsed.get("expect") or {})
        row = {
            "scenario": scenario["name"],
            "theorem": report.theorem_id,
            "verdict": report.verdict,
            "gap": report.gap,
            "ok": not failures,
        }
        if failures:
            failed += 1
            row["failures"] = failures
        line = canonical_json(row)
        lines.append(line)
        sys.stdout.write(line + "\n")
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "pinned.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if failed:
        sys.stderr.write(f"{failed} of {len(SCENARIOS)} pinned scenarios failed\n")
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Check spectral-order inequalities on concrete operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one scenario file and print its report")
    p_check.add_argument("scenario", help="path to a scenario document")
    p_check.set_defaults(fn=_cmd_check)

    p_suite = sub.add_parser("suite", help="run the random property suite")
    p_suite._negative_number_matcher = _NEGATIVE_NUMBER
    p_suite.add_argument("config", nargs="?", help="optional suite-config document")
    p_suite.add_argument("--seed", type=int)
    p_suite.add_argument("--trials", type=int)
    p_suite.add_argument("--dim-min", type=int, dest="dim_min")
    p_suite.add_argument("--dim-max", type=int, dest="dim_max")
    p_suite.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    p_suite.add_argument("--grid", type=int)
    p_suite.add_argument("--theorems", help="comma-separated check ids")
    p_suite.add_argument("--out", help="directory for reports.jsonl / summary.json / summary.csv")
    p_suite.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="the per-trial file --out writes: reports.jsonl (json) or reports.csv (csv)",
    )
    p_suite.set_defaults(fn=_cmd_suite)

    p_classify = sub.add_parser(
        "classify", help="grid-classify synchrony or relative monotonicity"
    )
    p_classify.add_argument("functions", help="path to a functions document")
    p_classify.add_argument("--out", help="optional CSV output path")
    p_classify.set_defaults(fn=_cmd_classify)

    p_falsify = sub.add_parser(
        "falsify", help="search for counterexamples, optionally dropping a hypothesis"
    )
    p_falsify._negative_number_matcher = _NEGATIVE_NUMBER
    p_falsify.add_argument("theorem", help="check id to attack")
    p_falsify.add_argument("--drop", choices=DROPPABLE, default=None)
    p_falsify.add_argument(
        "--budget",
        type=int,
        default=100_000,
        help="candidates to examine (default 100000); a dropped hypothesis is answered by "
        "one constructed candidate where it certifies a violation, and examines one",
    )
    p_falsify.add_argument("--seed", type=int)
    p_falsify.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    p_falsify.add_argument("--grid", type=int)
    p_falsify.add_argument("--out", help="optional path for the result document")
    p_falsify.set_defaults(fn=_cmd_falsify)

    p_pinned = sub.add_parser("pinned", help="run the full pinned scenario library")
    p_pinned.add_argument("--out", help="optional directory for pinned.jsonl")
    p_pinned.set_defaults(fn=_cmd_pinned)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OpineqError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
