"""Command-line interface: exit codes, output formats, determinism."""

import json

import pytest

from opineq import SCENARIOS, SCENARIOS_BY_NAME, canonical_json, load_json
from opineq.cli import main

CHECK_DOC = {
    "theorem": "pc-sign",
    "operator": {"diagonal": [1.0, 2.0], "interval": [1.0, 2.0]},
    "state": [0.7071067811865476, 0.7071067811865476],
    "functions": {
        "f": {"kind": "identity"},
        "g": {"kind": "identity"},
        "h": {"kind": "constant", "c": 1.0},
    },
    "expect": {"verdict": "holds", "gap": 0.25, "atol": 1e-9},
}

# f = exp against g = -exp under h = 1: asynchronous, and on [1, 465] the
# pair products -(e^x - e^y)^2 overflow to -inf
EXP = {"kind": "exp"}
NEG_EXP = {"kind": "sum", "terms": [{"coef": -1.0, "fn": EXP}]}
ONE = {"kind": "constant", "c": 1.0}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# check


class TestCheck:
    def test_passing_scenario_exits_zero(self, tmp_path, capsys):
        code = main(["check", _write(tmp_path, "s.json", CHECK_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        record = load_json(out)
        assert record["verdict"] == "holds"
        assert record["theorem_id"] == "pc-sign"

    def test_output_is_canonical(self, tmp_path, capsys):
        main(["check", _write(tmp_path, "s.json", CHECK_DOC)])
        out = capsys.readouterr().out.rstrip("\n")
        assert out == canonical_json(load_json(out))

    def test_expectation_mismatch_exits_one(self, tmp_path, capsys):
        doc = dict(CHECK_DOC)
        doc["expect"] = {"verdict": "holds", "gap": 99.0, "atol": 1e-9}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert "expectation mismatch" in captured.err

    def test_unexpected_violation_exits_one(self, tmp_path, capsys):
        doc = dict(CHECK_DOC)
        doc["direction"] = "<="
        doc["gate_hypothesis"] = False
        del doc["expect"]
        code = main(["check", _write(tmp_path, "s.json", doc)])
        record = load_json(capsys.readouterr().out)
        assert record["verdict"] == "violated"
        assert code == 1

    def test_expected_violation_exits_zero(self, tmp_path, capsys):
        doc = dict(CHECK_DOC)
        doc["direction"] = "<="
        doc["gate_hypothesis"] = False
        doc["expect"] = {"verdict": "violated"}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        capsys.readouterr()
        assert code == 0

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "not valid JSON" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_boolean_gate_exits_two(self, tmp_path, capsys):
        doc = dict(CHECK_DOC)
        doc["gate_hypothesis"] = "no"
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert "gate_hypothesis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "literal",
        [
            {"kind": "power", "p": "x"},
            {"kind": "constant", "c": "q"},
            {"kind": "affine", "a": "q", "b": 1},
            {"kind": "tabulated", "knots": ["a", "b"], "values": [1.0, 2.0]},
            {"kind": "product", "factors": 3},
            {"kind": "sum", "terms": [1]},
            {"kind": "power", "p": 10**400},
            {"kind": "identity", "domain": 5},
        ],
    )
    def test_malformed_function_literal_exits_two(self, tmp_path, capsys, literal):
        doc = {
            "theorem": "pc-square",
            "operator": CHECK_DOC["operator"],
            "state": CHECK_DOC["state"],
            "functions": {"f": literal, "h": {"kind": "identity"}},
        }
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_oversized_grid_exits_two(self, tmp_path, capsys):
        doc = dict(CHECK_DOC, grid_n=1_000_000)
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_unknown_scenario_field_exits_two(self, tmp_path, capsys):
        doc = dict(CHECK_DOC)
        doc["surprise"] = 1
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert "surprise" in capsys.readouterr().err

    def test_overflowed_evidence_is_written_as_null(self, tmp_path, capsys):
        doc = {
            "theorem": "pc-sign",
            "operator": {"diagonal": [1.0, 2.0], "interval": [1.0, 465.0]},
            "state": CHECK_DOC["state"],
            "grid_n": 32,
            "functions": {"f": EXP, "g": NEG_EXP, "h": ONE},
        }
        code = main(["check", _write(tmp_path, "s.json", doc)])
        record = load_json(capsys.readouterr().out)
        assert code == 0
        assert (record["direction"], record["verdict"]) == ("<=", "holds")
        assert record["hypothesis_evidence"]["min_product"] is None

    def test_overflowing_opposite_tuples_are_not_similarly_ordered(self, tmp_path, capsys):
        # (a_0 - a_1)(b_0 - b_1) = -(1.6e154)^2 overflows; it is still a negative pair
        tuples = {"a": [8e153, -8e153], "b": [-8e153, 8e153]}
        doc = {"theorem": "discrete-chebyshev", "tuples": tuples}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert "(a_i-a_j)(b_i-b_j) = -inf < 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,field",
        [
            ("pc-square/equal", {"direction": ">="}),
            ("ensemble-kantorovich-upper/shared", {"bound_interval": [1.0, 1.5]}),
            ("kantorovich-upper/equal-weight", {"per_op_intervals": [[1.0, 3.0]]}),
        ],
        ids=["direction", "bound_interval", "per_op_intervals"],
    )
    def test_field_the_check_does_not_take_exits_two(self, tmp_path, capsys, name, field):
        doc = {**SCENARIOS_BY_NAME[name], **field}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert next(iter(field)) in capsys.readouterr().err

    def test_field_at_the_value_the_check_uses_is_accepted(self, tmp_path, capsys):
        doc = {**SCENARIOS_BY_NAME["pc-square/equal"], "direction": "<=", "gate_hypothesis": True}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        capsys.readouterr()
        assert code == 0


# ---------------------------------------------------------------------------
# suite


SUITE_ARGS = ["suite", "--seed", "7", "--trials", "3", "--dim-max", "4"]


class TestSuite:
    def test_runs_and_exits_zero(self, capsys):
        code = main(SUITE_ARGS)
        captured = capsys.readouterr()
        assert code == 0
        doc = load_json(captured.out)
        assert doc["totals"]["violated"] == 0
        assert "wall time" in captured.err

    def test_stdout_byte_identical_across_runs(self, capsys):
        main(SUITE_ARGS)
        first = capsys.readouterr().out
        main(SUITE_ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_summary_excludes_wall_time(self, capsys):
        main(SUITE_ARGS)
        assert "wall" not in capsys.readouterr().out

    def test_out_directory_artifacts(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(SUITE_ARGS + ["--theorems", "pc-sign,pc-square", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        summary = load_json((out / "summary.json").read_text(encoding="utf-8"))
        assert summary == load_json(stdout)
        lines = (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3 * 2  # trials x selected checks
        for line in lines:
            row = load_json(line)
            assert {"theorem_id", "trial", "verdict", "gap"} <= set(row)
        csv_lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("theorem,holds,violated")
        assert len(csv_lines) == 3  # header + one row per check

    def test_csv_format_writes_reports_table(self, tmp_path, capsys):
        out = tmp_path / "csvout"
        code = main(
            SUITE_ARGS + ["--theorems", "pc-sign", "--format", "csv", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        lines = (out / "reports.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "theorem,trial,direction,lhs,rhs,gap,tolerance,verdict"
        assert len(lines) == 4  # header + 3 trials

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", {"trials": 2, "theorems": ["pc-square"]})
        code = main(["suite", cfg, "--seed", "11"])
        doc = load_json(capsys.readouterr().out)
        assert code == 0
        assert doc["config"]["seed"] == 11
        assert doc["config"]["trials"] == 2
        assert list(doc["theorems"]) == ["pc-square"]

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", {"theorems": ["no-such-check"], "trials": 1})
        code = main(["suite", cfg])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", [{"seed": "x"}, {"interval": ["a", 2]}, {"grid_n": "9"}, {"trials": True}]
    )
    def test_mistyped_config_exits_two(self, tmp_path, capsys, doc):
        code = main(["suite", _write(tmp_path, "cfg.json", {"trials": 1, **doc})])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            # exp * exp overflows on the atoms: both sides inf, the gap nan
            ["--interval", "1", "465", "--theorems", "pc-square"],
            # a square of a Python float beyond 1e154 overflows
            ["--interval", "300", "400", "--theorems", "pc-square"],
            ["--interval", "300", "400", "--theorems", "mean-point-square"],
            ["--interval", "300", "400", "--theorems", "ensemble-pc-square"],
            ["--interval", "1e200", "2e200", "--theorems", "kantorovich-upper"],
        ],
    )
    def test_non_finite_sides_exit_two(self, capsys, args):
        code = main(["suite", "--trials", "10", *args])
        assert code == 2
        assert "not both finite" in capsys.readouterr().err

    def test_oversized_trials_exit_two(self, capsys):
        code = main(["suite", "--trials", "1000001"])
        assert code == 2
        assert "trials" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify


class TestClassify:
    def test_r_scan_rows(self, tmp_path, capsys):
        doc = {
            "f": {"kind": "constant", "c": 1.0},
            "g": {"kind": "identity"},
            "interval": [1.0, 2.0],
            "r_values": [-1.0, 0.5, 2.0],
        }
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        rows = [load_json(line) for line in out]
        assert [row["r"] for row in rows] == [-1.0, 0.5, 2.0]
        assert [row["classification"] for row in rows] == [
            "synchronous",
            "asynchronous",
            "synchronous",
        ]

    def test_single_weight_classification(self, tmp_path, capsys):
        doc = {
            "f": {"kind": "power", "p": 2.0},
            "g": {"kind": "power", "p": 3.0},
            "h": {"kind": "identity"},
            "interval": [1.0, 2.0],
        }
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        rows = [load_json(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert len(rows) == 1
        assert rows[0]["classification"] == "synchronous"
        assert rows[0]["kind"] == "synchrony"

    def test_monotonicity_mode(self, tmp_path, capsys):
        doc = {
            "mode": "monotonicity",
            "f": {"kind": "constant", "c": 1.0},
            "h": {"kind": "power", "p": 2.0},
            "interval": [1.0, 2.0],
        }
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        rows = [load_json(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert rows[0]["classification"] == "h-decreasing"
        assert rows[0]["kind"] == "monotonicity"

    def test_missing_g_exits_two(self, tmp_path, capsys):
        doc = {"f": {"kind": "identity"}, "interval": [1.0, 2.0], "h": {"kind": "identity"}}
        del doc["h"]
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", [{"r_values": 2.0}, {"r_values": ["a"]}, {"interval": ["a", 2]}, {"grid_n": "9"}]
    )
    def test_mistyped_field_exits_two(self, tmp_path, capsys, field):
        doc = {"f": {"kind": "identity"}, "g": {"kind": "identity"}, "interval": [1.0, 2.0]}
        code = main(["classify", _write(tmp_path, "fns.json", {"r_values": [1.0], **doc, **field})])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_field_exits_two(self, tmp_path, capsys):
        doc = {"f": {"kind": "identity"}, "interval": [1.0, 2.0], "weights": []}
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        assert code == 2
        assert "weights" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        doc = {
            "f": {"kind": "neg_parabola"},
            "g": {"kind": "identity"},
            "h": {"kind": "constant", "c": 1.0},
            "interval": [0.1, 0.9],
        }
        out_csv = tmp_path / "rows.csv"
        code = main(
            ["classify", _write(tmp_path, "fns.json", doc), "--out", str(out_csv)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("r,kind,classification")
        assert "mixed" in lines[1]
        assert "(" in lines[1]  # witness tuples are stringified

    def test_overflowed_extreme_is_null(self, tmp_path, capsys):
        doc = {"f": EXP, "g": NEG_EXP, "h": ONE, "interval": [1.0, 465.0], "grid_n": 32}
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        rows = [load_json(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert rows[0]["classification"] == "asynchronous"
        assert rows[0]["min_product"] is None


# ---------------------------------------------------------------------------
# falsify


class TestFalsifyCommand:
    def test_drop_synchrony_reports_found(self, capsys):
        code = main(
            ["falsify", "pc-sign", "--drop", "synchrony", "--budget", "20000", "--seed", "0"]
        )
        captured = capsys.readouterr()
        assert code == 0  # a drop-mode find is the expected outcome
        doc = load_json(captured.out)
        assert doc["found"] is True
        assert doc["gap"] < 0.0

    def test_intact_search_exits_zero_without_find(self, capsys):
        code = main(["falsify", "pc-sign", "--budget", "2000", "--seed", "0"])
        doc = load_json(capsys.readouterr().out)
        assert code == 0
        assert doc["found"] is False

    def test_inapplicable_drop_exits_two(self, capsys):
        code = main(["falsify", "pc-square", "--drop", "synchrony", "--budget", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_two(self, capsys, seed):
        code = main(["falsify", "pc-sign", "--budget", "10", "--seed", seed])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_oversized_budget_exits_two(self, capsys):
        code = main(["falsify", "pc-sign", "--budget", "10000001"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_non_finite_constant_exits_two(self, capsys):
        args = ["falsify", "kantorovich-lower", "--interval", "1e200", "2e200", "--budget", "50"]
        assert main(args) == 2
        assert "not both finite" in capsys.readouterr().err

    def test_non_finite_candidates_are_skipped(self, capsys):
        # exp overflows in the sides on [1, 465]; those candidates score +inf
        args = ["falsify", "pc-square", "--interval", "1", "465", "--budget", "50"]
        assert main(args) == 0
        doc = load_json(capsys.readouterr().out)
        assert doc["examined"] == 50
        assert doc["found"] is False
        assert doc["verdict"] == "holds"
        assert abs(doc["gap"]) < float("inf")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        main(
            [
                "falsify",
                "ensemble-product-lower",
                "--drop",
                "normalization",
                "--budget",
                "2000",
                "--out",
                str(out),
            ]
        )
        stdout = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == stdout


# ---------------------------------------------------------------------------
# pinned


class TestPinned:
    def test_exits_zero_with_one_row_per_scenario(self, capsys):
        code = main(["pinned"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == len(SCENARIOS)
        for line in out:
            row = load_json(line)
            assert row["ok"] is True
            assert "failures" not in row

    def test_out_directory(self, tmp_path, capsys):
        out = tmp_path / "pinout"
        code = main(["pinned", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert (out / "pinned.jsonl").read_text(encoding="utf-8") == stdout
