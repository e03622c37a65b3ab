"""Canonical JSON, document parsing, and CSV rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    ConfigInvalid,
    SpectralInterval,
    canonical_json,
    ensemble_from_doc,
    fmt,
    identity,
    interval_from_doc,
    load_json,
    operator_from_doc,
    rows_to_csv,
    run_scenario,
    scenario_from_doc,
    state_from_doc,
)

DIAG_DOC = {"diagonal": [1.0, 2.0], "interval": [1.0, 2.0]}
EQ_STATE = [0.7071067811865476, 0.7071067811865476]


# ---------------------------------------------------------------------------
# canonical JSON


class TestCanonicalJson:
    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_insertion_order_irrelevant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})

    def test_scalars(self):
        assert canonical_json(True) == "true"
        assert canonical_json(False) == "false"
        assert canonical_json(None) == "null"
        assert canonical_json(3) == "3"
        assert canonical_json("s") == '"s"'

    def test_floats_use_17_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json([1.0]) == "[1]"

    def test_numpy_scalars_accepted(self):
        assert canonical_json(np.float64(0.5)) == "0.5"
        assert canonical_json(np.int64(4)) == "4"

    def test_nested_structures(self):
        doc = {"a": [1, {"c": 2.5, "b": None}], "z": (True,)}
        assert canonical_json(doc) == '{"a":[1,{"b":null,"c":2.5}],"z":[true]}'

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigInvalid):
            canonical_json(float("nan"))
        with pytest.raises(ConfigInvalid):
            canonical_json({"x": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            canonical_json({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigInvalid):
            canonical_json({"f": identity()})

    def test_round_trips_through_loader(self):
        doc = {"gap": -0.125, "notes": ["a", "b"], "n": 3, "flag": False}
        assert load_json(canonical_json(doc)) == doc

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_fmt_round_trips_doubles(self, x):
        assert float(fmt(x)) == x

    def test_deterministic_across_calls(self):
        doc = {"a": 0.1 + 0.2, "b": [1e-300, 1e300]}
        assert canonical_json(doc) == canonical_json(dict(doc))


class TestLoadJson:
    def test_valid(self):
        assert load_json('{"a": 1}') == {"a": 1}

    def test_malformed_reports_config_error(self):
        with pytest.raises(ConfigInvalid) as err:
            load_json("{nope")
        assert "not valid JSON" in str(err.value)


# ---------------------------------------------------------------------------
# document parsing


class TestIntervalFromDoc:
    def test_pair(self):
        assert interval_from_doc([1.0, 2.0]).as_pair() == (1.0, 2.0)

    def test_rejects_non_pairs(self):
        with pytest.raises(ConfigInvalid):
            interval_from_doc([1.0])
        with pytest.raises(ConfigInvalid):
            interval_from_doc({"lo": 1.0, "hi": 2.0})
        with pytest.raises(ConfigInvalid):
            interval_from_doc([1.0, True])


class TestOperatorFromDoc:
    def test_diagonal(self):
        A = operator_from_doc(DIAG_DOC)
        np.testing.assert_array_equal(A.eigenvalues, [1.0, 2.0])

    def test_matrix(self):
        A = operator_from_doc(
            {"matrix": [[2.0, 1.0], [1.0, 2.0]], "interval": [0.0, 4.0]}
        )
        np.testing.assert_allclose(A.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_complex_matrix_entries(self):
        A = operator_from_doc(
            {"matrix": [[2.0, [0.0, -1.0]], [[0.0, 1.0], 2.0]], "interval": [0.0, 4.0]}
        )
        np.testing.assert_allclose(A.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_eigendecomposition(self):
        A = operator_from_doc(
            {
                "eigenvalues": [1.0, 2.0],
                "eigenvectors": [[1.0, 0.0], [0.0, 1.0]],
                "interval": [1.0, 2.0],
            }
        )
        np.testing.assert_array_equal(A.eigenvalues, [1.0, 2.0])

    def test_missing_interval_rejected(self):
        with pytest.raises(ConfigInvalid):
            operator_from_doc({"diagonal": [1.0, 2.0]})

    def test_no_recognized_form_rejected(self):
        with pytest.raises(ConfigInvalid):
            operator_from_doc({"interval": [1.0, 2.0]})

    def test_eigenvector_row_count_checked(self):
        with pytest.raises(ConfigInvalid):
            operator_from_doc(
                {
                    "eigenvalues": [1.0, 2.0],
                    "eigenvectors": [[1.0, 0.0]],
                    "interval": [1.0, 2.0],
                }
            )


class TestStateFromDoc:
    def test_bare_list(self):
        x = state_from_doc([1.0, 0.0])
        assert x.dim == 2

    def test_components_dict(self):
        x = state_from_doc({"components": [[0.0, 1.0], 0.0]})
        assert x.components[0] == 1j

    def test_empty_rejected(self):
        with pytest.raises(ConfigInvalid):
            state_from_doc([])
        with pytest.raises(ConfigInvalid):
            state_from_doc({"wrong": [1.0]})


class TestEnsembleFromDoc:
    def test_round_trip(self):
        E = ensemble_from_doc(
            {
                "operators": [DIAG_DOC, DIAG_DOC],
                "states": [[0.5, 0.5], [0.5, 0.5]],
                "normalization": "sum_of_squares",
            }
        )
        assert E.n == 2

    def test_missing_field_named(self):
        with pytest.raises(ConfigInvalid) as err:
            ensemble_from_doc({"operators": [DIAG_DOC], "states": [[1.0, 0.0]]})
        assert "normalization" in str(err.value)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigInvalid):
            ensemble_from_doc(
                {"operators": [DIAG_DOC], "states": [[1.0, 0.0]], "normalization": "x"}
            )


# ---------------------------------------------------------------------------
# scenario documents


def _scenario_doc(**overrides):
    doc = {
        "theorem": "pc-sign",
        "operator": DIAG_DOC,
        "state": EQ_STATE,
        "functions": {
            "f": {"kind": "identity"},
            "g": {"kind": "identity"},
            "h": {"kind": "constant", "c": 1.0},
        },
    }
    doc.update(overrides)
    return doc


class TestScenarioFromDoc:
    def test_parses_and_runs(self):
        parsed = scenario_from_doc(_scenario_doc())
        report = run_scenario(parsed)
        assert report.theorem_id == "pc-sign"
        assert report.gap == pytest.approx(0.25, abs=1e-12)

    def test_defaults(self):
        parsed = scenario_from_doc(_scenario_doc())
        assert parsed["direction"] is None
        assert parsed["grid_n"] == 128
        assert parsed["gate_hypothesis"] is True

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(["pc-sign"])

    def test_theorem_must_be_string(self):
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(_scenario_doc(theorem=7))

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            scenario_from_doc(_scenario_doc(extra_field=1))
        assert "extra_field" in str(err.value)

    def test_unknown_function_slot_rejected(self):
        doc = _scenario_doc()
        doc["functions"]["k"] = {"kind": "identity"}
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(doc)

    def test_fixed_slot_only_at_its_value(self):
        # pc-moment fixes g = 1; mean-point-square fixes g = f
        base = _scenario_doc(theorem="pc-moment")
        base["functions"]["h"] = {"kind": "identity"}
        base["functions"]["g"] = {"kind": "constant", "c": 1}
        assert run_scenario(scenario_from_doc(base)).theorem_id == "pc-moment"
        for theorem, g in (
            ("pc-moment", {"kind": "power", "p": 2.0}),
            ("mean-point-square", {"kind": "power", "p": 2.0}),
        ):
            doc = _scenario_doc(theorem=theorem)
            doc["functions"]["h"] = {"kind": "identity"}
            doc["functions"]["g"] = g
            with pytest.raises(ConfigInvalid) as err:
                run_scenario(scenario_from_doc(doc))
            assert "unexpected ['g']" in str(err.value)
        same = _scenario_doc(theorem="mean-point-square")
        same["functions"]["h"] = {"kind": "identity"}
        assert run_scenario(scenario_from_doc(same)).theorem_id == "mean-point-square"

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(_scenario_doc(direction="=>"))

    def test_boolean_grid_rejected(self):
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(_scenario_doc(grid_n=True))

    def test_expect_block_validated(self):
        parsed = scenario_from_doc(
            _scenario_doc(expect={"verdict": "holds", "gap": 0.25, "atol": 1e-12})
        )
        assert parsed["expect"]["verdict"] == "holds"
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(_scenario_doc(expect={"verdict": "maybe"}))
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(_scenario_doc(expect={"margin": 1.0}))
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(_scenario_doc(expect={"gap": "big"}))

    def test_tuples_block(self):
        parsed = scenario_from_doc(
            {"theorem": "discrete-chebyshev", "tuples": {"a": [1, 2], "b": [3, 4]}}
        )
        assert parsed["tuples"] == {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        with pytest.raises(ConfigInvalid):
            scenario_from_doc({"theorem": "discrete-chebyshev", "tuples": [1, 2]})
        with pytest.raises(ConfigInvalid):
            scenario_from_doc({"theorem": "discrete-chebyshev", "tuples": {"a": [1]}})

    def test_per_op_intervals_block(self):
        parsed = scenario_from_doc(
            {
                "theorem": "ensemble-kantorovich-upper",
                "ensemble": {
                    "operators": [DIAG_DOC],
                    "states": [EQ_STATE],
                    "normalization": "per_vector",
                },
                "per_op_intervals": [[1.0, 2.0]],
            }
        )
        assert parsed["per_op_intervals"] == [(1.0, 2.0)]
        with pytest.raises(ConfigInvalid):
            scenario_from_doc(
                _scenario_doc(theorem="ensemble-product-lower", per_op_intervals=7)
            )

    def test_bound_interval_block(self):
        parsed = scenario_from_doc(
            _scenario_doc(theorem="kantorovich-upper", functions={}, bound_interval=[1.0, 3.0])
        )
        assert isinstance(parsed["bound_interval"], SpectralInterval)


# ---------------------------------------------------------------------------
# CSV


class TestRowsToCsv:
    def test_header_and_cells(self):
        text = rows_to_csv(
            ["name", "gap", "n", "ok", "note"],
            [
                {"name": "a", "gap": 0.5, "n": 3, "ok": True, "note": None},
                {"name": "b", "gap": -1.0, "n": 0, "ok": False},
            ],
        )
        lines = text.splitlines()
        assert lines[0] == "name,gap,n,ok,note"
        assert lines[1] == "a,0.5,3,true,"
        assert lines[2] == "b,-1,0,false,"

    def test_floats_use_canonical_format(self):
        text = rows_to_csv(["x"], [{"x": 0.1}])
        assert "0.10000000000000001" in text

    def test_missing_fields_render_empty(self):
        text = rows_to_csv(["a", "b"], [{"a": 1}])
        assert text.splitlines()[1] == "1,"
