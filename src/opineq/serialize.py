"""Canonical text forms: deterministic JSON, scenario documents, CSV tables.

All numbers render as decimal with 17 significant digits, which round-trips
IEEE doubles exactly, so identical data always produces identical bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted  # json.dumps of a str
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .errors import ConfigInvalid, read_integer, read_list, read_number, read_numbers, read_object
from .functions import GE, LE, ScalarFunction, function_from_descriptor
from .functionals import fmt
from .ensembles import OperatorEnsemble
from .spectral import HermitianOperator, SpectralInterval, StateVector, from_dense, read_grid_n
from .tolerances import DEFAULT_GRID_N, MAX_DIM

__all__ = [
    "canonical_json",
    "interval_from_doc",
    "operator_from_doc",
    "state_from_doc",
    "ensemble_from_doc",
    "scenario_from_doc",
    "load_json",
    "csv_writer",
    "rows_to_csv",
]


# Sets of item types and lengths that mark a row of floats or of [re, im] pairs.
_FLOATS = {float}
_LISTS = {list}
_PAIRS = {2}


def _finite(text: str) -> str:
    """Number text, refused when it holds "inf" or "nan": no 17-digit decimal
    holds the letter n."""
    if "n" in text:
        raise ConfigInvalid("non-finite number in a canonical document")
    return text


def _row(items) -> Optional[str]:
    """A list of floats, or of [re, im] lists of floats, written in one pass;
    None for any other list."""
    kinds = set(map(type, items))
    if kinds == _FLOATS:
        text = ("%.17g," * len(items))[:-1] % tuple(items)
    elif kinds == _LISTS and set(map(len, items)) == _PAIRS:
        flat = [*chain.from_iterable(items)]
        if set(map(type, flat)) != _FLOATS:
            return None
        # a tuple of the list's known size: one grown from the chain raised the
        # peak RSS of a process that writes many rows by about 1.5 MB
        text = ("[%.17g,%.17g]," * len(items))[:-1] % tuple(flat)
    else:
        return None
    return f"[{_finite(text)}]"


def _write_list(obj, out: list) -> None:
    row = _row(obj)
    if row is not None:
        out.append(row)
        return
    out.append("[")
    for k, item in enumerate(obj):
        if k:
            out.append(",")
        _write(item, out)
    out.append("]")


# Quoted keys kept by _key_text: documents use a few dozen distinct keys.
_KEY_TEXT_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_KEY_TEXT_MEMO_SIZE)
def _key_text(key: str) -> str:
    """A key as it opens its member: quoted, then a colon."""
    return _quoted(key) + ":"


def _write_dict(obj: dict, out: list) -> None:
    # the key types are checked before sorting, which raises TypeError on
    # keys of mixed types
    for key in obj:
        if type(key) is not str and not isinstance(key, str):
            raise ConfigInvalid(f"document keys must be strings, got {key!r}")
    keys = sorted(obj)
    sep = "{"  # opens the object at its first member, then separates the rest
    for key in keys:
        out.append(sep)
        out.append(_key_text(key))
        sep = ","
        _write(obj[key], out)
    out.append("}" if keys else "{}")


def _write(obj, out: list) -> None:
    # the kinds documents are made of first, by exact type
    kind = type(obj)
    if kind is float:
        out.append(_finite("%.17g" % obj))
    elif kind is dict:
        _write_dict(obj, out)
    elif kind is list or kind is tuple:
        _write_list(obj, out)
    elif kind is str:
        out.append(_quoted(obj))
    else:
        _write_other(obj, out)


def _write_other(obj, out: list) -> None:
    """The subclasses of the kinds above, and the constants, integers and numpy
    scalars; a bool is an int, not a float."""
    if isinstance(obj, float):
        out.append(_finite("%.17g" % obj))
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out)
    elif isinstance(obj, dict):
        _write_dict(obj, out)
    elif isinstance(obj, str):
        out.append(_quoted(obj))
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, np.floating):
        out.append(_finite("%.17g" % float(obj)))
    else:
        raise ConfigInvalid(f"cannot serialize a {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Compact JSON with sorted keys and 17-significant-digit numbers.

    A list of floats, or of ``[re, im]`` float pairs, is written with one
    ``%`` format over the row; every other value is written item by item.
    Either way the text is the same: ``%.17g`` is ``format(x, ".17g")``, and
    strings are quoted as ``json.dumps`` quotes them.
    """
    out: list = []
    _write(obj, out)
    return "".join(out)


def load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigInvalid(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigInvalid("not valid JSON: nested too deeply to read") from None


def _complex_entry(value, what: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(read_number(value, what), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(read_number(value[0], what), read_number(value[1], what))
    raise ConfigInvalid(f"{what} must be a number or an [re, im] pair, got {value!r}")


def interval_from_doc(doc, what: str = "interval") -> SpectralInterval:
    lo, hi = read_list(doc, f"{what} [lo, hi]", 2)
    return SpectralInterval(read_number(lo, f"{what} lo"), read_number(hi, f"{what} hi"))


def _complex_row(values: list, what: str) -> np.ndarray:
    """Numbers or [re, im] pairs as a complex128 row.

    A row of pairs is read as the flat row of their parts and viewed as
    complex.  Any other row is read entry by entry, which raises the entry's
    error.
    """
    if set(map(type, values)) == _LISTS and set(map(len, values)) == _PAIRS:
        return read_numbers(list(chain.from_iterable(values)), what).view(np.complex128)
    return np.array([_complex_entry(v, what) for v in values], dtype=np.complex128)


def _dimension(values: list) -> list:
    """The entries of an operator's rows or spectrum, or a state's components,
    refused before any is read when there are more than MAX_DIM of them."""
    if len(values) > MAX_DIM:
        raise ConfigInvalid(f"dimension {len(values)} exceeds the supported maximum {MAX_DIM}")
    return values


def _matrix(doc, what: str) -> np.ndarray:
    """A nonempty square list of at most MAX_DIM rows of numbers or [re, im]
    pairs, its entries read in one pass as one row (``_complex_row``)."""
    rows = read_list(doc, what)
    if not rows:
        raise ConfigInvalid(f"{what} must be a nonempty list of rows")
    n = len(rows)
    entries = [entry for row in _dimension(rows) for entry in read_list(row, f"{what} row", n)]
    return _complex_row(entries, f"{what} entry").reshape(n, n)


def operator_from_doc(doc) -> HermitianOperator:
    """Accepts a diagonal, dense-matrix, or eigendecomposition document."""
    if not isinstance(doc, dict) or "interval" not in doc:
        raise ConfigInvalid("operator document needs an 'interval'")
    interval = interval_from_doc(doc["interval"])
    if "diagonal" in doc:
        read_object(doc, "diagonal operator document", ("diagonal", "interval"))
        values = _dimension(read_list(doc["diagonal"], "diagonal"))
        return HermitianOperator.diagonal(read_numbers(values, "diagonal entry"), interval)
    if "matrix" in doc:
        read_object(doc, "matrix operator document", ("matrix", "interval"))
        return from_dense(_matrix(doc["matrix"], "matrix"), interval)
    if "eigenvalues" in doc and "eigenvectors" in doc:
        fields = ("dim", "eigenvalues", "eigenvectors", "interval")
        read_object(doc, "eigenpair operator document", fields)
        eigenvalues = _dimension(read_list(doc["eigenvalues"], "eigenvalues"))
        values = read_numbers(eigenvalues, "eigenvalue")
        dim = read_integer(doc.get("dim", len(values)), "operator 'dim'")
        if dim != len(values):
            raise ConfigInvalid(f"operator 'dim' {dim} differs from its {len(values)} eigenvalues")
        u = _matrix(doc["eigenvectors"], "eigenvectors")
        if len(u) != len(values):
            raise ConfigInvalid("'eigenvectors' must list one row per eigenvalue")
        return HermitianOperator(values, u, interval)
    raise ConfigInvalid(
        "operator document needs 'diagonal', 'matrix', or 'eigenvalues'+'eigenvectors'"
    )


def state_from_doc(doc) -> StateVector:
    """A bare list of at most MAX_DIM components, or ``{"components": [...]}``;
    a list of [re, im] pairs is read in one pass, bare numbers entry by entry
    (``_complex_row``)."""
    if isinstance(doc, dict):
        doc = read_object(doc, "state document", ("components",)).get("components")
    if not isinstance(doc, (list, tuple)) or not doc:
        raise ConfigInvalid("state document needs a nonempty 'components' list")
    return StateVector(_complex_row(_dimension(doc), "state component"))


def _members(doc, what: str) -> list:
    """An ensemble's operators or states, refused before any is read when there
    are more than MAX_DIM of them."""
    members = read_list(doc, what)
    if len(members) > MAX_DIM:
        raise ConfigInvalid(
            f"{what} has {len(members)} members, more than the supported maximum {MAX_DIM}"
        )
    return members


def ensemble_from_doc(doc) -> OperatorEnsemble:
    read_object(doc, "ensemble document", ("operators", "states", "normalization"))
    try:
        operators = doc["operators"]
        states = doc["states"]
        normalization = doc["normalization"]
    except KeyError as exc:
        raise ConfigInvalid(f"ensemble document needs {exc.args[0]!r}") from None
    operators = _members(operators, "ensemble 'operators'")
    states = _members(states, "ensemble 'states'")
    return OperatorEnsemble(
        tuple(operator_from_doc(d) for d in operators),
        tuple(state_from_doc(d) for d in states),
        normalization,
    )


def _functions_from_doc(doc) -> dict[str, ScalarFunction]:
    if not isinstance(doc, dict):
        raise ConfigInvalid("'functions' must map slot names to function literals")
    out: dict[str, ScalarFunction] = {}
    for name, literal in doc.items():
        if name not in ("f", "g", "h"):
            raise ConfigInvalid(f"unknown function slot {name!r} (expected f, g, h)")
        out[name] = function_from_descriptor(literal)
    return out


def _expect_from_doc(doc) -> dict:
    if not isinstance(doc, dict):
        raise ConfigInvalid("'expect' must be an object")
    out: dict = {}
    for key, value in doc.items():
        if key == "verdict":
            if value not in ("holds", "violated", "hypothesis-not-met"):
                raise ConfigInvalid(f"unknown expected verdict {value!r}")
            out[key] = value
        elif key in ("lhs", "rhs", "gap", "atol"):
            out[key] = read_number(value, f"expect {key}")
            if key == "atol" and out[key] < 0.0:
                raise ConfigInvalid(f"expect atol must not be negative, got {value!r}")
        else:
            raise ConfigInvalid(f"unknown expect field {key!r}")
    return out


def _direction_from_doc(value) -> Optional[str]:
    if value is not None and value not in (GE, LE):
        raise ConfigInvalid(f"direction must be '>=' or '<=', got {value!r}")
    return value


def _gate_from_doc(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigInvalid(f"gate_hypothesis must be true or false, got {value!r}")
    return value


def read_per_op_intervals(rows) -> list[tuple[float, float]]:
    """per_op_intervals as a chain takes it, from a document or a caller: a list
    of [lo, hi] pairs of numbers (a numpy array's rows too), each an interval."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    rows = read_list(rows, "'per_op_intervals'")
    entries = (interval_from_doc(r, "'per_op_intervals' entry") for r in rows)
    return [(iv.lo, iv.hi) for iv in entries]


def _tuples_from_doc(doc) -> dict[str, list[float]]:
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise ConfigInvalid("'tuples' must be an object with lists 'a' and 'b'")
    read_object(doc, "'tuples'", ("a", "b"))
    return {
        key: [read_number(v, "tuple entry") for v in read_list(doc[key], f"tuple {key!r}")]
        for key in ("a", "b")
    }


# Scenario field -> reader of its value; a field without one is accepted and not kept.
_SCENARIO_READERS: dict[str, Optional[Callable]] = {
    "theorem": None,
    "name": None,
    "direction": _direction_from_doc,
    "grid_n": read_grid_n,
    "gate_hypothesis": _gate_from_doc,
    "functions": _functions_from_doc,
    "operator": operator_from_doc,
    "operator_b": operator_from_doc,
    "state": state_from_doc,
    "state_b": state_from_doc,
    "ensemble": ensemble_from_doc,
    "per_op_intervals": read_per_op_intervals,
    "tuples": _tuples_from_doc,
    "bound_interval": lambda v: interval_from_doc(v, "bound_interval"),
    "expect": _expect_from_doc,
}
_SCENARIO_DEFAULTS = {
    "direction": None,
    "grid_n": DEFAULT_GRID_N,
    "gate_hypothesis": True,
    "functions": {},
}


def scenario_from_doc(doc) -> dict:
    """Validate a scenario document and build the typed objects it describes.

    Returns a dict with keys: theorem, direction, grid_n, gate_hypothesis,
    functions, and whichever of operator/operator_b/state/state_b/ensemble/
    per_op_intervals/tuples/bound_interval/expect the document carries.
    """
    if not isinstance(doc, dict):
        raise ConfigInvalid("scenario must be a JSON object")
    theorem = doc.get("theorem")
    if not isinstance(theorem, str):
        raise ConfigInvalid("scenario needs a 'theorem' identifier string")
    for key in doc:
        if key not in _SCENARIO_READERS:
            raise ConfigInvalid(f"unknown scenario field {key!r}")
    parsed: dict = {"theorem": theorem}
    for key, value in {**_SCENARIO_DEFAULTS, **doc}.items():
        read = _SCENARIO_READERS[key]
        if read is not None:
            parsed[key] = read(value)
    return parsed


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return fmt(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_writer(out: TextIO, fieldnames: Sequence[str]) -> Callable[[dict], None]:
    """Write a header row to ``out`` and return the writer of one row, its
    numbers formatted like the JSON documents."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    return lambda row: writer.writerow([_cell(row.get(name)) for name in fieldnames])


def rows_to_csv(fieldnames: Sequence[str], rows: Sequence[dict]) -> str:
    """CSV text with a header row, written by ``csv_writer``."""
    buf = io.StringIO()
    write = csv_writer(buf, fieldnames)
    for row in rows:
        write(row)
    return buf.getvalue()
