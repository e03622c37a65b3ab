"""Command-line interface: exit codes, output formats, determinism."""

import json
import sys
import warnings

import pytest

from opineq import (
    SCENARIOS,
    SCENARIOS_BY_NAME,
    canonical_json,
    load_json,
    rows_to_csv,
    run_scenario,
    scenario_from_doc,
)
from opineq.cli import main
from opineq.errors import NotUnitState
from opineq.tolerances import MAX_DIM, MAX_GRID_N, MAX_LITERAL_DEPTH, MAX_R_VALUES

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

# operator, state and ensemble documents the nested-field cases extend
DIAG = {"diagonal": [1.0, 2.0], "interval": [1.0, 2.0]}
EYE = [[1.0, 0.0], [0.0, 1.0]]
EIGEN = {"eigenvalues": [1.0, 2.0], "eigenvectors": EYE, "interval": [1.0, 2.0]}
ID = {"kind": "identity"}
ENSEMBLE = {
    "operators": [DIAG],
    "states": [{"components": [0.6, 0.8]}],
    "normalization": "sum_of_squares",
}

# f = exp against g = -exp under h = 1: asynchronous, and on [1, 465] the
# pair products -(e^x - e^y)^2 overflow to -inf
EXP = {"kind": "exp"}
NEG_EXP = {"kind": "sum", "terms": [{"coef": -1.0, "fn": EXP}]}
ONE = {"kind": "constant", "c": 1.0}

# a state whose norm and eigenbasis weights overflow to inf
HUGE_STATE = {"components": [[1e300, 0.0], [1e300, 0.0]]}
HUGE_STATE_DOCS = {
    "pc-sign": {
        "theorem": "pc-sign",
        "functions": CHECK_DOC["functions"],
        "operator": DIAG,
        "state": HUGE_STATE,
    },
    "pc-two-op": {
        "theorem": "pc-two-op",
        "functions": CHECK_DOC["functions"],
        "operator": DIAG,
        "operator_b": DIAG,
        "state": HUGE_STATE,
        "state_b": CHECK_DOC["state"],
    },
}


# operators whose reading overflows: the unitarity residue U*U - I of an
# eigenbasis with a 1e200 entry, and M + M* of 1e308 entries
OVERFLOWING_OPERATORS = {
    "eigenvectors": (
        {**EIGEN, "eigenvectors": [[1e200, 0.0], [0.0, 1.0]]},
        "eigenvector matrix is not unitary: max |U*U - I| = inf",
    ),
    "matrix": (
        {"matrix": [[1e308, 1e308], [1e308, 1e308]], "interval": [1.0, 2.0]},
        "eigenvalues must be finite",
    ),
}

# [-1e308, 1e308]: hi - lo overflows, so it has no grid and no uniform draw;
# [0, -0]: the endpoints' signs descend
WIDE = ["--interval", "-1e308", "1e308"]
NO_GRID = "the interval [-1e+308, 1e+308] has no grid: its width hi - lo overflows"
SIGNED_ZEROS = ["--interval", "0", "-0"]
DESCENDING = "interval needs lo <= hi, got [0.0, -0.0]"
SUITE_PC_SIGN = ["suite", "--trials", "1", "--theorems", "pc-sign"]


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning to stderr, as Python does where no test runner records it."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _run_showing_warnings(argv, warning_action, capsys):
    """main(argv) with numpy's RuntimeWarning printed ("always") or raised
    ("error"): its exit code, stdout and stderr lines."""
    with warnings.catch_warnings():
        warnings.simplefilter(warning_action, RuntimeWarning)
        warnings.showwarning = _print_warning
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return str(path)


def _nested_literal(kind, depth):
    """The identity inside ``depth`` nested product (times the identity) or sum literals."""
    literal = ID
    for _ in range(depth):
        if kind == "product":
            literal = {"kind": "product", "factors": [literal, ID]}
        else:
            literal = {"kind": "sum", "terms": [{"coef": 1.0, "fn": literal}]}
    return literal


# ---------------------------------------------------------------------------
# documents every command reads


@pytest.mark.parametrize("command", ["check", "suite", "classify"])
def test_undecodable_document_exits_two(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(path) in err and "UTF-8" in err


@pytest.mark.parametrize("command", ["check", "suite", "classify"])
def test_too_deeply_nested_document_exits_two(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


# ---------------------------------------------------------------------------
# the interval option


@pytest.mark.parametrize(
    "written, plain",
    [
        (("-1e-3", "2"), ("-0.001", "2")),
        (("-1E-3", "2"), ("-0.001", "2")),
        (("-.1e-2", "2"), ("-0.001", "2")),
        (("-1.e-3", "2e0"), ("-0.001", "2")),
        (("-2e0", "-1e-3"), ("-2", "-0.001")),
    ],
)
@pytest.mark.parametrize(
    "command",
    [["suite", "--trials", "1", "--theorems", "pc-sign"], ["falsify", "pc-sign", "--budget", "20"]],
    ids=["suite", "falsify"],
)
def test_negative_bound_with_an_exponent_reads_as_a_number(capsys, command, written, plain):
    assert main([*command, "--interval", *plain]) == 0
    want = capsys.readouterr().out
    assert main([*command, "--interval", *written]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("warning_action", ["always", "error"])
@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SUITE_PC_SIGN, *WIDE], NO_GRID),
        ([*SUITE_PC_SIGN, *SIGNED_ZEROS], DESCENDING),
        (["falsify", "pc-sign", "--budget", "20", *WIDE], NO_GRID),
        (["falsify", "pc-sign", "--budget", "20", *SIGNED_ZEROS], DESCENDING),
        (["falsify", "discrete-chebyshev", "--budget", "20", *WIDE], NO_GRID),
        (["falsify", "discrete-chebyshev", "--drop", "synchrony", *WIDE], NO_GRID),
    ],
    ids=[
        "suite-wide",
        "suite-signed-zeros",
        "falsify-wide",
        "falsify-signed-zeros",
        "falsify-tuples-wide",
        "falsify-tuples-synchrony-wide",
    ],
)
def test_interval_without_a_grid_prints_only_its_error(capsys, argv, message, warning_action):
    # numpy can neither grid nor draw from these: each is refused by name,
    # with numpy's RuntimeWarning neither printed nor raised
    code, out, lines = _run_showing_warnings(argv, warning_action, capsys)
    assert (code, out) == (2, "")
    assert lines == [f"error: {message}"]


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

    @pytest.mark.parametrize(
        "kind, depth, code",
        [
            ("product", MAX_LITERAL_DEPTH, 0),
            ("sum", MAX_LITERAL_DEPTH, 0),
            ("product", MAX_LITERAL_DEPTH + 1, 2),
            ("sum", MAX_LITERAL_DEPTH + 1, 2),
            ("product", 300, 2),
        ],
    )
    def test_function_literal_nesting_is_bounded(self, tmp_path, capsys, kind, depth, code):
        """A literal at the bound is checked and its report written; a deeper
        one, even one too deep for a report to be written, is refused as read."""
        f = _nested_literal(kind, depth)
        doc = {**CHECK_DOC, "functions": {**CHECK_DOC["functions"], "f": f}}
        del doc["expect"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert load_json(out)["inputs_digest"]["functions"]["f"] == f
        else:
            assert out == "" and "MAX_LITERAL_DEPTH" in err

    @pytest.mark.parametrize("theorem", list(HUGE_STATE_DOCS))
    def test_huge_state_raises_its_typed_error(self, theorem):
        with pytest.raises(NotUnitState):
            run_scenario(scenario_from_doc(HUGE_STATE_DOCS[theorem]))

    @pytest.mark.parametrize("warning_action", ["always", "error"])
    @pytest.mark.parametrize("theorem", list(HUGE_STATE_DOCS))
    def test_huge_state_prints_only_its_error(self, tmp_path, capsys, theorem, warning_action):
        # the weights overflow as the norm does: the norm error alone reaches
        # stderr, with numpy's RuntimeWarning neither printed nor raised
        argv = ["check", _write(tmp_path, "s.json", HUGE_STATE_DOCS[theorem])]
        code, out, lines = _run_showing_warnings(argv, warning_action, capsys)
        assert code == 2
        assert out == ""
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "state norm inf" in lines[0]

    @pytest.mark.parametrize("warning_action", ["always", "error"])
    @pytest.mark.parametrize("kind", list(OVERFLOWING_OPERATORS))
    def test_overflowing_operator_prints_only_its_error(
        self, tmp_path, capsys, kind, warning_action
    ):
        operator, message = OVERFLOWING_OPERATORS[kind]
        path = _write(tmp_path, "s.json", {**CHECK_DOC, "operator": operator})
        code, out, lines = _run_showing_warnings(["check", path], warning_action, capsys)
        assert (code, out) == (2, "")
        assert lines == [f"error: {message}"]

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

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("theorem", ["kantorovich-upper", "ensemble-kantorovich-upper"])
    def test_constant_at_extreme_scales_holds(self, tmp_path, capsys, theorem, scale):
        # 4 lo hi underflows to 0 at 1e-300 and overflows at 1e300, so the
        # constant is read off the ratio hi/lo = 1
        op = {"diagonal": [scale, scale], "interval": [scale, scale]}
        state = [0.7071067811865476, 0.7071067811865476]
        doc = {"theorem": theorem, "operator": op, "state": state}
        if theorem.startswith("ensemble-"):
            members = {"operators": [op], "states": [state], "normalization": "per_vector"}
            doc = {"theorem": theorem, "ensemble": members}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        report = load_json(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "holds" and report["lhs"] == 1.0

    def test_constant_whose_ratio_squared_overflows_holds(self, tmp_path, capsys):
        # (1 + r)^2 overflows for r = 1e160, though the constant is about r / 4
        op = {"diagonal": [1.0, 1e160], "interval": [1.0, 1e160]}
        doc = {"theorem": "kantorovich-upper", "operator": op, "state": [0.7071067811865476] * 2}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        report = load_json(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "holds" and report["lhs"] == pytest.approx(2.5e159, rel=1e-15)

    @pytest.mark.parametrize(
        "theorem,reports",
        [
            ("kantorovich-lower", True),
            ("kantorovich-upper", False),
            ("ensemble-product-lower", True),
            ("ensemble-chebyshev-link", True),
            ("ensemble-kantorovich-upper", False),
        ],
    )
    def test_chain_link_is_built_on_its_own_sides(self, tmp_path, capsys, theorem, reports):
        # (lo + hi)^2 / (4 lo hi) overflows on [1e-200, 1e200]; only the upper links read it
        op = {"diagonal": [1.0, 2.0], "interval": [1e-200, 1e200]}
        state = [0.7071067811865476, 0.7071067811865476]
        doc = {"theorem": theorem, "operator": op, "state": state}
        if theorem.startswith("ensemble-"):
            members = {"operators": [op], "states": [state], "normalization": "per_vector"}
            doc = {"theorem": theorem, "ensemble": members}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        captured = capsys.readouterr()
        if reports:
            assert code == 0
            assert load_json(captured.out)["theorem_id"] == theorem
        else:
            assert code == 2
            assert captured.err.startswith(f"error: {theorem}: sides inf")

    @pytest.mark.parametrize(
        "name,grid_n",
        [("pc-square/equal", -7), ("kantorovich-lower/equal-weight", 99999999999)],
        ids=["negative", "huge"],
    )
    def test_out_of_range_grid_n_exits_two(self, tmp_path, capsys, name, grid_n):
        doc = {**SCENARIOS_BY_NAME[name], "grid_n": grid_n}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert "grid_n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [
            {"state": [10**400, 0.0]},
            {"operator": {"matrix": [[10**400, 0.0], [0.0, 1.0]], "interval": [1.0, 2.0]}},
        ],
        ids=["state", "matrix"],
    )
    def test_bare_number_too_large_for_a_double_exits_two(self, tmp_path, capsys, field):
        # a 401-digit integer: float() of it raises OverflowError
        doc = {**CHECK_DOC, **field}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "must be finite, got 1000" in err

    def test_missing_function_exits_two(self, tmp_path, capsys):
        functions = {"f": {"kind": "identity"}, "h": {"kind": "constant", "c": 1.0}}
        doc = {**CHECK_DOC, "functions": functions}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert capsys.readouterr().err == "error: pc-sign scenario needs function 'g'\n"

    @pytest.mark.parametrize("doc", ["tuples", "ensemble"])
    def test_similarly_ordered_points_are_bounded(self, tmp_path, capsys, doc):
        n = MAX_GRID_N + 1
        if doc == "tuples":
            doc = {"theorem": "discrete-chebyshev", "tuples": {"a": [1.0] * n, "b": [2.0] * n}}
            message = f"takes at most {MAX_GRID_N} entries, got {n}\n"
        else:
            op = {"diagonal": [1.5], "interval": [1.0, 2.0]}
            members = {"operators": [op] * n, "states": [[1.0]] * n, "normalization": "per_vector"}
            doc = {"theorem": "ensemble-chebyshev-link", "ensemble": members}
            # a document holds at most MAX_DIM members, far fewer than the certificate takes
            message = f"has {n} members, more than the supported maximum {MAX_DIM}\n"
        code = main(["check", _write(tmp_path, "s.json", doc)])
        assert code == 2
        assert capsys.readouterr().err.endswith(message)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("operator", {**DIAG, "matrix": [[1.0, 0.0], [0.0, 2.0]]}, "'matrix'"),
            ("operator", {**DIAG, "eigenvalues": [1.0, 2.0], "eigenvectors": EYE}, "'eigenvalues'"),
            ("operator", {**EIGEN, "matrix": EYE}, "'matrix'"),
            ("operator", {**EIGEN, "dim": 7}, "'dim' 7"),
            ("operator", {**EIGEN, "dim": True}, "'dim'"),
            ("operator", {**DIAG, "intervall": [1.0, 2.0]}, "'intervall'"),
            ("state", {"components": [0.6, 0.8], "norm": 1.0}, "'norm'"),
            ("f", {"kind": "power", "p": 2, "q": 5}, "'q'"),
            ("f", {"kind": "identity", "p": 5}, "'p'"),
            ("f", {"kind": "sum", "terms": [{"coef": 1.0, "fn": ID, "c": 2.0}]}, "'c'"),
            ("f", {"kind": ["power"], "p": 2}, "kind ['power']"),
            ("tuples", {"a": [1.0, 2.0], "b": [1.0, 2.0], "c": [3.0]}, "'c'"),
            ("ensemble", {**ENSEMBLE, "weights": [1.0]}, "'weights'"),
            ("ensemble", {**ENSEMBLE, "operators": [{**DIAG, "dim": 2}]}, "'dim'"),
            ("ensemble", {**ENSEMBLE, "states": [{"components": [0.6, 0.8], "x": 0}]}, "'x'"),
            ("expect", {"verdict": "holds", "atol": -1}, "atol"),
        ],
    )
    def test_nested_field_it_does_not_read_exits_two(self, tmp_path, capsys, field, value, named):
        """Every object of a document refuses what it does not read, naming it."""
        base = {
            "tuples": {"theorem": "discrete-chebyshev"},
            "ensemble": {"theorem": "ensemble-pc-sign", "functions": CHECK_DOC["functions"]},
        }.get(field, CHECK_DOC)
        if field == "f":
            doc = {**base, "functions": {**base["functions"], "f": value}}
        else:
            doc = {**base, field: value}
        code = main(["check", _write(tmp_path, "s.json", doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and named in err

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

    def test_csv_format_streams_the_only_per_trial_file(self, tmp_path, capsys):
        """--format picks the one per-trial file: reports.csv holds the CSV
        columns of the records reports.jsonl would hold, row for row."""
        args = SUITE_ARGS + ["--theorems", "pc-sign,ensemble-pc-sign"]
        assert main(args + ["--out", str(tmp_path / "json")]) == 0
        assert main(args + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in (tmp_path / "json").iterdir()) == [
            "reports.jsonl", "summary.csv", "summary.json"
        ]
        assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == [
            "reports.csv", "summary.csv", "summary.json"
        ]
        for name in ("summary.csv", "summary.json"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "json" / name).read_bytes()
        jsonl = (tmp_path / "json" / "reports.jsonl").read_text(encoding="utf-8")
        records = [load_json(line) for line in jsonl.splitlines()]
        rows = [{**record, "theorem": record["theorem_id"]} for record in records]
        fields = ["theorem", "trial", "direction", "lhs", "rhs", "gap", "tolerance", "verdict"]
        assert len(rows) == 6
        want = rows_to_csv(fields, rows)
        assert (tmp_path / "csv" / "reports.csv").read_text(encoding="utf-8") == want

    def test_csv_format_without_out_exits_two(self, capsys):
        assert main(SUITE_ARGS + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err

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
            # hi / lo overflows, so the constant does too
            ["--interval", "1e-200", "1e200", "--theorems", "kantorovich-upper"],
        ],
    )
    def test_non_finite_sides_exit_two(self, capsys, args):
        code = main(["suite", "--trials", "10", *args])
        assert code == 2
        assert "not both finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "theorem,lo,hi",
        [("kantorovich-lower", "1e-200", "1e200"), ("ensemble-product-lower", "5e-324", "1")],
    )
    def test_lower_chain_link_ignores_the_overflowing_constant(self, capsys, theorem, lo, hi):
        code = main(["suite", "--trials", "2", "--interval", lo, hi, "--theorems", theorem])
        doc = load_json(capsys.readouterr().out)
        assert code == 0
        assert doc["theorems"][theorem]["holds"] == 2

    def test_overflowing_inverse_endpoint_is_named(self, capsys):
        args = ["--interval", "5e-324", "1", "--theorems", "inverse-pair-square"]
        assert main(["suite", "--trials", "1", *args]) == 2
        err = capsys.readouterr().err
        assert "1/lo" in err and "5e-324" in err
        assert "inf" not in err

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

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("h", {"g": {"kind": "identity"}, "r_values": [1.0], "h": {"kind": "identity"}}),
            ("g", {"mode": "monotonicity", "h": {"kind": "identity"}, "g": {"kind": "identity"}}),
            ("r_values", {"mode": "monotonicity", "h": {"kind": "identity"}, "r_values": [1.0]}),
        ],
    )
    def test_field_the_mode_does_not_read_exits_two(self, tmp_path, capsys, field, fields):
        doc = {"f": {"kind": "identity"}, "interval": [1.0, 2.0], **fields}
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        assert code == 2
        assert repr(field) in capsys.readouterr().err

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

    def test_r_values_past_the_bound_exit_two(self, tmp_path, capsys):
        doc = {"f": {"kind": "identity"}, "g": {"kind": "identity"}, "interval": [1.0, 2.0]}
        doc["r_values"] = [float(k) for k in range(MAX_R_VALUES + 1)]
        code = main(["classify", _write(tmp_path, "fns.json", doc)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "MAX_R_VALUES" in err

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

    @pytest.mark.parametrize("warning_action", ["always", "error"])
    @pytest.mark.parametrize("mode", ["synchrony", "monotonicity"])
    def test_overflowing_grid_prints_only_its_error(self, tmp_path, capsys, mode, warning_action):
        # exp overflows on the grid of [1, 800]: the domain error alone reaches
        # stderr, with numpy's RuntimeWarning neither printed nor raised
        doc = {"f": EXP, "g": {"kind": "identity"}, "h": ONE, "interval": [1.0, 800.0]}
        if mode == "monotonicity":
            doc = {"f": EXP, "h": ONE, "interval": [1.0, 800.0], "mode": mode}
        argv = ["classify", _write(tmp_path, "fns.json", doc)]
        code, out, lines = _run_showing_warnings(argv, warning_action, capsys)
        assert code == 2
        assert out == ""
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "non-finite" in lines[0]

    @pytest.mark.parametrize("warning_action", ["always", "error"])
    @pytest.mark.parametrize("mode", ["synchrony", "monotonicity"])
    def test_interval_without_a_grid_prints_only_its_error(
        self, tmp_path, capsys, mode, warning_action
    ):
        doc = {"f": ID, "g": ID, "h": ONE, "interval": [-1e308, 1e308], "mode": mode}
        if mode == "monotonicity":
            del doc["g"]
        argv = ["classify", _write(tmp_path, "fns.json", doc)]
        code, out, lines = _run_showing_warnings(argv, warning_action, capsys)
        assert (code, out) == (2, "")
        assert lines == [f"error: {NO_GRID}"]


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

    @pytest.mark.parametrize(
        "theorem,lo,hi",
        [
            ("kantorovich-upper", "1e-200", "1e200"),
            ("ensemble-kantorovich-upper", "1e-200", "1e200"),
        ],
        ids=["kantorovich-upper", "ensemble-kantorovich-upper"],
    )
    def test_non_finite_constant_exits_two(self, capsys, theorem, lo, hi):
        # hi / lo overflows, so the constant does too
        args = ["falsify", theorem, "--interval", lo, hi, "--budget", "50"]
        assert main(args) == 2
        assert "not both finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lo,hi", [("1e200", "2e200"), ("1e-200", "1e-200")])
    def test_constant_at_extreme_scales_is_searched(self, capsys, lo, hi):
        args = ["falsify", "kantorovich-upper", "--interval", lo, hi, "--budget", "50"]
        assert main(args) == 0
        doc = load_json(capsys.readouterr().out)
        assert doc["found"] is False and doc["verdict"] == "holds"

    def test_chain_link_search_reads_only_its_own_link(self, capsys):
        # the upper link's constant is inf on [1e-200, 1e200]; the lower link's sides are finite
        args = ["falsify", "ensemble-product-lower", "--drop", "normalization"]
        args += ["--interval", "1e-200", "1e200", "--budget", "10"]
        assert main(args) == 0
        doc = load_json(capsys.readouterr().out)
        assert doc["found"] is True
        assert doc["verdict"] == "violated"

    def test_overflowing_inverse_endpoint_is_named(self, capsys):
        args = ["falsify", "inverse-pair", "--interval", "5e-324", "1", "--budget", "10"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "1/lo" in err and "5e-324" in err
        assert "inf" not in err

    @pytest.mark.parametrize("theorem", ["kantorovich-upper", "ensemble-kantorovich-upper"])
    @pytest.mark.parametrize(
        "lo, hi, given", [("1", "1e308", "[1.0, 1e+308]"), ("5e-324", "1", "[5e-324, 1.0]")]
    )
    def test_a_containment_draw_interval_out_of_range_names_the_given_one(
        self, capsys, theorem, lo, hi, given
    ):
        # [lo/2, 2 hi] is [0.5, inf] or [0.0, 2.0], neither of which was given
        args = ["falsify", theorem, "--drop", "spectral-containment", "--interval", lo, hi]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert given in err and "not finite and positive" in err
        assert "[0.5, inf]" not in err and "(0.0, 2.0)" not in err

    def test_pole_inside_the_interval_exits_two(self, capsys):
        # s^-1 is undefined at 0; no other pool triple is defined and not mixed on [-1, 2]
        args = ["falsify", "pc-sign", "--interval", "-1", "2", "--budget", "50"]
        assert main(args) == 2
        assert "no search triple on (-1.0, 2.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("warning_action", ["always", "error"])
    def test_overflowing_perturbation_prints_no_warning(self, capsys, warning_action):
        # the perturbation rounds step past 1.7e308 and are clipped back to it
        argv = ["falsify", "ensemble-pc-square", "--budget", "20", "--interval", "1", "1.7e308"]
        code, out, lines = _run_showing_warnings(argv, warning_action, capsys)
        assert code == 0
        assert load_json(out)["examined"] == 20
        assert len(lines) == 1 and lines[0].startswith("wall time:")

    def test_grid_below_two_exits_two(self, capsys):
        assert main(["falsify", "pc-square", "--grid", "1", "--budget", "10"]) == 2
        assert "grid_n" in capsys.readouterr().err

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
