"""Canonical JSON, document parsing, and CSV rendering."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opineq import serialize
from opineq.errors import read_number, read_numbers
from opineq import (
    MAX_DIM,
    ConfigInvalid,
    HermitianOperator,
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


# The item-by-item writer canonical_json replaced, kept as the oracle its
# one-pass rows are held to.


def _reference_write(obj, out: list) -> None:
    if obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ConfigInvalid("non-finite number in a canonical document")
        out.append(fmt(x))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in obj:  # before sorting, which raises TypeError on mixed key types
            if not isinstance(key, str):
                raise ConfigInvalid(f"document keys must be strings, got {key!r}")
        for key in sorted(obj):
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key))
            out.append(":")
            _reference_write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _reference_write(item, out)
        out.append("]")
    else:
        raise ConfigInvalid(f"cannot serialize a {type(obj).__name__}")


def _reference_json(obj) -> str:
    out: list = []
    _reference_write(obj, out)
    return "".join(out)


def _outcome(write, obj):
    """What ``write`` makes of ``obj``: its text, or its error's type and message."""
    try:
        return write(obj)
    except Exception as exc:  # compared, type and message, against the oracle's
        return (type(exc), str(exc))


FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
BIG_INTS = st.integers(min_value=-(2**80), max_value=2**80)
NUMPY = FLOATS.map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
PAIRS = st.lists(FLOATS, min_size=2, max_size=2)
ROWS = (
    st.lists(FLOATS, max_size=6)
    | st.lists(PAIRS, max_size=4)
    | st.lists(FLOATS | st.booleans(), max_size=6)
    | st.lists(FLOATS | PAIRS | BIG_INTS | NUMPY | st.none(), max_size=6)
    | st.lists(FLOATS, max_size=4).map(tuple)
    | st.lists(PAIRS.map(tuple), max_size=3)
)
SCALARS = st.none() | st.booleans() | FLOATS | BIG_INTS | NUMPY | st.text(max_size=6)


def _nested(scalars, rows, keys):
    return st.recursive(
        scalars | rows,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(keys, inner, max_size=4),
        max_leaves=12,
    )


DOCUMENTS = _nested(SCALARS, ROWS, st.text(max_size=6))
# rows with a non-finite number, non-string keys and unserializable values
BAD_ROWS = ROWS | st.lists(FLOATS | NON_FINITE, max_size=5) | st.lists(
    st.lists(FLOATS | NON_FINITE, min_size=2, max_size=2), max_size=3
)
BAD_SCALARS = SCALARS | NON_FINITE | st.just({1.0}) | st.just(frozenset())
BAD_DOCUMENTS = _nested(BAD_SCALARS, BAD_ROWS, st.text(max_size=3) | st.integers(0, 3))


class TestWriterOracle:
    @FUZZ
    @given(DOCUMENTS)
    def test_same_bytes_as_the_item_by_item_writer(self, doc):
        assert canonical_json(doc) == _reference_json(doc)

    @FUZZ
    @given(BAD_DOCUMENTS)
    def test_same_text_or_error_as_the_item_by_item_writer(self, doc):
        assert _outcome(canonical_json, doc) == _outcome(_reference_json, doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [1.0, math.nan],
            [math.inf, 2.0],
            [[1.0, 2.0], [-math.inf, 0.0]],
            [[1.0, math.nan]],
            {"a": [0.5, math.nan]},
            {3: [1.0]},
            {1.5},
            [1.0, {2.0}],
            (0.5, object()),
        ],
    )
    def test_errors_match_the_item_by_item_writer(self, doc):
        got = _outcome(canonical_json, doc)
        assert got == _outcome(_reference_json, doc)
        assert got[0] is ConfigInvalid

    @pytest.mark.parametrize(
        "doc, key",
        [({1: 2}, 1), ({1: 2, "a": 3}, 1), ({"a": 3, 2: 4}, 2), ({"b": {"a": 1, None: 2}}, None)],
    )
    def test_non_string_keys_are_refused_mixed_or_not(self, doc, key):
        with pytest.raises(ConfigInvalid) as err:
            canonical_json(doc)
        assert str(err.value) == f"document keys must be strings, got {key!r}"

    def test_quoted_keys_are_kept_in_a_bounded_memo(self):
        from opineq.serialize import _key_text

        canonical_json({f"k{n}": n for n in range(3 * _key_text.cache_info().maxsize)})
        info = _key_text.cache_info()
        assert info.currsize <= info.maxsize == 256
        assert canonical_json({"é": 1, "a\nb": 2}) == '{"a\\nb":2,"\\u00e9":1}'

    def test_rows_are_written_as_before(self):
        doc = {
            "row": [-0.0, 5e-324, 1.7976931348623157e308, 0.1],
            "pairs": [[1.0, -0.0], [0.5, 2.0]],
            "mixed": [1.0, True, [2.0, 3.0], 4, None, "é"],
            "big": [2**64, np.int64(-3), np.float64(0.25)],
        }
        assert canonical_json(doc) == _reference_json(doc)
        assert canonical_json(doc["row"]) == "[-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001]"
        assert canonical_json(doc["pairs"]) == "[[1,-0],[0.5,2]]"
        assert canonical_json(["é", "\u2603"]) == '["\\u00e9","\\u2603"]'


class TestLoadJson:
    def test_valid(self):
        assert load_json('{"a": 1}') == {"a": 1}

    def test_malformed_reports_config_error(self):
        with pytest.raises(ConfigInvalid) as err:
            load_json("{nope")
        assert "not valid JSON" in str(err.value)

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")])
    def test_too_deeply_nested_reports_config_error(self, opener, closer):
        with pytest.raises(ConfigInvalid, match="nested too deeply"):
            load_json(opener * 100_000 + closer * 100_000)


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

    def test_matrix_without_rows_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            operator_from_doc({"matrix": [], "interval": [1.0, 2.0]})
        assert str(err.value) == "matrix must be a nonempty list of rows"

    def test_square_eigenvectors_of_another_size_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            operator_from_doc(
                {"eigenvalues": [1.0, 2.0], "eigenvectors": [[1.0]], "interval": [1.0, 2.0]}
            )
        assert str(err.value) == "'eigenvectors' must list one row per eigenvalue"

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
# one-pass readers against entry-by-entry reading


def _per_entry_numbers(values, what="x"):
    return np.array([read_number(v, what) for v in values], dtype=np.float64)


def _per_entry_complex(values, what="x"):
    return np.array([serialize._complex_entry(v, what) for v in values], dtype=np.complex128)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


INTS = st.integers(-(2**70), 2**70) | st.sampled_from([2**1000, -(2**1023), 0])
NUMBER_ROWS = st.lists(FLOATS | INTS, min_size=1, max_size=16)
PAIR_ROWS = st.lists(st.lists(FLOATS | INTS, min_size=2, max_size=2), min_size=1, max_size=16)
MIXED_ROWS = st.lists(FLOATS | INTS | st.lists(FLOATS, min_size=2, max_size=2), min_size=1, max_size=8)
COMPLEX_ROWS = NUMBER_ROWS | PAIR_ROWS | MIXED_ROWS
SPECTRA = st.lists(
    st.floats(min_value=-4.0, max_value=4.0) | st.integers(-4, 4) | st.just(-0.0),
    min_size=1,
    max_size=MAX_DIM,
)


@st.composite
def _square_docs(draw):
    n = draw(st.integers(1, 5))
    pair = st.lists(FLOATS | INTS, min_size=2, max_size=2)
    # rows of pairs, as the writers make them, rows of numbers, and mixed rows
    row = st.lists(pair, min_size=n, max_size=n) | st.lists(FLOATS | INTS | pair, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


class TestOnePassReaders:
    @FUZZ
    @given(NUMBER_ROWS)
    def test_numbers_match_per_entry_reading(self, values):
        assert _same_bits(read_numbers(values, "x"), _per_entry_numbers(values))

    @FUZZ
    @given(COMPLEX_ROWS)
    def test_complex_rows_match_per_entry_reading(self, values):
        assert _same_bits(serialize._complex_row(values, "x"), _per_entry_complex(values))

    @FUZZ
    @given(_square_docs())
    def test_matrices_match_per_entry_reading(self, rows):
        want = np.array([_per_entry_complex(row) for row in rows])
        assert _same_bits(serialize._matrix(rows, "matrix"), want)

    @FUZZ
    @given(COMPLEX_ROWS)
    def test_states_match_per_entry_reading(self, values):
        got = state_from_doc({"components": values}).components
        assert _same_bits(got, _per_entry_complex(values, "state component"))

    @FUZZ
    @given(SPECTRA)
    def test_diagonals_match_per_entry_reading(self, values):
        interval = SpectralInterval(-4.0, 4.0)
        got = operator_from_doc({"diagonal": values, "interval": [-4.0, 4.0]})
        want = HermitianOperator.diagonal([read_number(v, "x") for v in values], interval)
        assert _same_bits(got.eigenvalues, want.eigenvalues)
        assert _same_bits(got.eigenvectors, want.eigenvectors)

    @FUZZ
    @given(SPECTRA)
    def test_eigenvalues_match_per_entry_reading(self, values):
        d = len(values)
        basis = np.eye(d, dtype=np.complex128).view(np.float64).reshape(d, d, 2).tolist()
        doc = {"eigenvalues": values, "eigenvectors": basis, "interval": [-4.0, 4.0]}
        got = operator_from_doc(doc)
        want = HermitianOperator(_per_entry_numbers(values), np.eye(d), SpectralInterval(-4.0, 4.0))
        assert _same_bits(got.eigenvalues, want.eigenvalues)
        assert _same_bits(got.eigenvectors, want.eigenvectors)

    @FUZZ
    @given(NUMBER_ROWS, NUMBER_ROWS)
    def test_tuples_match_per_entry_reading(self, a, b):
        parsed = scenario_from_doc({"theorem": "discrete-chebyshev", "tuples": {"a": a, "b": b}})
        for key, values in (("a", a), ("b", b)):
            got = parsed["tuples"][key]
            assert all(type(v) is float for v in got)
            assert _same_bits(np.array(got), _per_entry_numbers(values))

    def test_negative_zero_survives(self):
        x = state_from_doc([[-0.0, -0.0], -0.0])
        assert np.signbit(x.components.real).all() and np.signbit(x.components.imag[0])
        assert not np.signbit(x.components.imag[1])  # a bare number's imaginary part is +0
        m = serialize._matrix([[[-0.0, 1.0]]], "matrix")
        assert np.signbit(m.real[0, 0]) and m.imag[0, 0] == 1.0
        assert np.signbit(read_numbers([-0.0, 1], "x")[0])
        parsed = scenario_from_doc({"theorem": "discrete-chebyshev", "tuples": {"a": [-0.0], "b": [1]}})
        assert math.copysign(1.0, parsed["tuples"]["a"][0]) == -1.0

    def test_tuple_pairs_are_read_as_pairs(self):
        rows = [[(0.5, 0.25), 1], [(0.5, -0.25), (2.0, 0.0)]]
        want = np.array([_per_entry_complex(row) for row in rows])
        assert _same_bits(serialize._matrix(rows, "matrix"), want)


BIG = 10**400
PAIR_ROW_2 = [[0.5, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "read, entries, message",
    [
        ("diagonal", [0.5, True], "diagonal entry must be a number, got True"),
        ("diagonal", [0.5, "1"], "diagonal entry must be a number, got '1'"),
        ("diagonal", [BIG], f"diagonal entry must be finite, got {BIG!r}"),
        ("diagonal", [0.5, math.nan], "diagonal entry must be finite, got nan"),
        ("diagonal", [-math.inf], "diagonal entry must be finite, got -inf"),
        ("diagonal", [[0.5, 0.0]], "diagonal entry must be a number, got [0.5, 0.0]"),
        ("diagonal", [(0.5, 0.0)], "diagonal entry must be a number, got (0.5, 0.0)"),
        ("eigenvalues", [True], "eigenvalue must be a number, got True"),
        ("eigenvalues", [BIG], f"eigenvalue must be finite, got {BIG!r}"),
        ("eigenvalues", [math.nan], "eigenvalue must be finite, got nan"),
        ("eigenvalues", [[0.5, 0.0]], "eigenvalue must be a number, got [0.5, 0.0]"),
        ("tuples", [1.0, False], "tuple entry must be a number, got False"),
        ("tuples", [1.0, BIG], f"tuple entry must be finite, got {BIG!r}"),
        ("tuples", [math.inf], "tuple entry must be finite, got inf"),
        ("tuples", ["2"], "tuple entry must be a number, got '2'"),
        ("matrix", [[[0.5, 0.0], [0.0, True]], PAIR_ROW_2], "matrix entry must be a number, got True"),
        ("matrix", [[[0.5, 0.0], [0.0, "x"]], PAIR_ROW_2], "matrix entry must be a number, got 'x'"),
        ("matrix", [[[0.5, 0.0], [BIG, 0.0]], PAIR_ROW_2], f"matrix entry must be finite, got {BIG!r}"),
        ("matrix", [[[0.5, 0.0], [math.nan, 0.0]], PAIR_ROW_2], "matrix entry must be finite, got nan"),
        ("matrix", [[[0.5, 0.0], [[0.5], 0.0]], PAIR_ROW_2], "matrix entry must be a number, got [0.5]"),
        (
            "matrix",
            [[[0.5, 0.0], [0.0]], PAIR_ROW_2],
            "matrix entry must be a number or an [re, im] pair, got [0.0]",
        ),
        (
            "matrix",
            [[[0.5, 0.0, 1.0], [0.0, 0.0]], PAIR_ROW_2],
            "matrix entry must be a number or an [re, im] pair, got [0.5, 0.0, 1.0]",
        ),
        (
            "matrix",
            [[True, 0.0], [0.0, 0.5]],
            "matrix entry must be a number or an [re, im] pair, got True",
        ),
        ("matrix", [[0.5, [0.0, True]], [0.0, 0.5]], "matrix entry must be a number, got True"),
        ("state", [[1.0, True]], "state component must be a number, got True"),
        ("state", [[1.0, 0.0], [math.nan, 0.0]], "state component must be finite, got nan"),
        ("state", [[BIG, 0.0]], f"state component must be finite, got {BIG!r}"),
        ("state", [[1.0]], "state component must be a number or an [re, im] pair, got [1.0]"),
        ("state", [True, 0.0], "state component must be a number or an [re, im] pair, got True"),
        ("state", ["1", 0.0], "state component must be a number or an [re, im] pair, got '1'"),
        ("state", [math.nan, 1.0], "state component must be finite, got nan"),
        ("state", [BIG, 0.0], f"state component must be finite, got {BIG!r}"),
        ("matrix", [[BIG, 0.0], [0.0, 0.5]], f"matrix entry must be finite, got {BIG!r}"),
    ],
)
def test_malformed_entries_keep_their_messages(read, entries, message):
    with pytest.raises(ConfigInvalid) as err:
        if read == "diagonal":
            operator_from_doc({"diagonal": entries, "interval": [0.0, 1.0]})
        elif read == "eigenvalues":
            operator_from_doc({"eigenvalues": entries, "eigenvectors": [[1.0]], "interval": [0.0, 1.0]})
        elif read == "tuples":
            scenario_from_doc({"theorem": "discrete-chebyshev", "tuples": {"a": [1.0], "b": entries}})
        elif read == "matrix":
            operator_from_doc({"matrix": entries, "interval": [0.0, 1.0]})
        else:
            state_from_doc({"components": entries})
    assert str(err.value) == message


OVERSIZE = 400


class TestDimensionBound:
    def _refuse_entry_reads(self, monkeypatch):
        def unread(*_args):
            raise AssertionError("an entry was read")

        for name in ("read_number", "read_numbers", "_complex_entry", "_complex_row"):
            monkeypatch.setattr(serialize, name, unread)
        # the interval is read before the operator, with read_number
        monkeypatch.setattr(serialize, "interval_from_doc", lambda _doc: SpectralInterval(0.0, 2.0))

    @pytest.mark.parametrize(
        "doc",
        [
            {"diagonal": [1.0] * OVERSIZE},
            {"matrix": [[0.0] * OVERSIZE for _ in range(OVERSIZE)]},
            {"eigenvalues": [1.0] * OVERSIZE, "eigenvectors": [[1.0]]},
        ],
        ids=["diagonal", "matrix", "eigenvalues"],
    )
    def test_oversized_operator_is_refused_before_any_entry_is_read(self, monkeypatch, doc):
        self._refuse_entry_reads(monkeypatch)
        with pytest.raises(ConfigInvalid) as err:
            operator_from_doc({**doc, "interval": [0.0, 2.0]})
        assert str(err.value) == f"dimension {OVERSIZE} exceeds the supported maximum {MAX_DIM}"

    def test_oversized_eigenvectors_are_refused_before_any_entry_is_read(self, monkeypatch):
        self._refuse_entry_reads(monkeypatch)
        rows = [[[0.0, 0.0]] * OVERSIZE for _ in range(OVERSIZE)]
        with pytest.raises(ConfigInvalid) as err:
            serialize._matrix(rows, "eigenvectors")
        assert str(err.value) == f"dimension {OVERSIZE} exceeds the supported maximum {MAX_DIM}"

    @pytest.mark.parametrize("wrap", [list, lambda c: {"components": c}], ids=["bare", "components"])
    def test_oversized_state_is_refused_before_any_entry_is_read(self, monkeypatch, wrap):
        self._refuse_entry_reads(monkeypatch)
        with pytest.raises(ConfigInvalid) as err:
            state_from_doc(wrap([1.0] * OVERSIZE))
        assert str(err.value) == f"dimension {OVERSIZE} exceeds the supported maximum {MAX_DIM}"

    def test_oversized_ensemble_state_is_refused(self):
        doc = {
            "operators": [{"diagonal": [1.0], "interval": [0.0, 2.0]}],
            "states": [["x"] * OVERSIZE],
            "normalization": "per_vector",
        }
        with pytest.raises(ConfigInvalid) as err:
            ensemble_from_doc(doc)
        assert str(err.value) == f"dimension {OVERSIZE} exceeds the supported maximum {MAX_DIM}"

    @staticmethod
    def _ensemble(operators: int, states: int) -> dict:
        return {
            "operators": [{"diagonal": [1.5], "interval": [1.0, 2.0]}] * operators,
            "states": [[1.0]] * states,
            "normalization": "per_vector",
        }

    @pytest.mark.parametrize("operators, states", [(MAX_DIM + 1, MAX_DIM), (MAX_DIM, MAX_DIM + 1)],
                             ids=["operators", "states"])
    def test_oversized_ensemble_is_refused_before_any_member_is_read(
        self, monkeypatch, operators, states
    ):
        def unread(_doc):
            raise AssertionError("a member was read")

        monkeypatch.setattr(serialize, "operator_from_doc", unread)
        monkeypatch.setattr(serialize, "state_from_doc", unread)
        what = "operators" if operators > MAX_DIM else "states"
        with pytest.raises(ConfigInvalid) as err:
            ensemble_from_doc(self._ensemble(operators, states))
        limit = f"more than the supported maximum {MAX_DIM}"
        assert str(err.value) == f"ensemble '{what}' has {MAX_DIM + 1} members, {limit}"

    def test_the_largest_supported_ensemble_is_read(self):
        E = ensemble_from_doc(self._ensemble(MAX_DIM, MAX_DIM))
        assert len(E.operators) == len(E.states) == MAX_DIM

    def test_the_largest_supported_state_is_read(self):
        assert state_from_doc([0.25] * MAX_DIM).dim == MAX_DIM
        with pytest.raises(ConfigInvalid) as err:
            state_from_doc([0.25] * (MAX_DIM + 1))
        assert str(err.value) == f"dimension {MAX_DIM + 1} exceeds the supported maximum {MAX_DIM}"

    def test_the_largest_supported_operator_is_read(self):
        A = operator_from_doc({"diagonal": [1.0] * MAX_DIM, "interval": [0.0, 2.0]})
        assert A.dim == MAX_DIM
        with pytest.raises(ConfigInvalid) as err:
            operator_from_doc({"diagonal": [1.0] * (MAX_DIM + 1), "interval": [0.0, 2.0]})
        assert str(err.value) == f"dimension {MAX_DIM + 1} exceeds the supported maximum {MAX_DIM}"


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

    def test_expect_must_be_an_object(self):
        with pytest.raises(ConfigInvalid) as err:
            scenario_from_doc(_scenario_doc(expect=["holds"]))
        assert str(err.value) == "'expect' must be an object"

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
