"""README's "Check registry" and "Function literals" tables agree with the package."""

import pathlib
import re

import pytest

from opineq import REGISTRY_ORDER, ConfigInvalid, function_from_descriptor
from opineq.functions import _LITERAL_FIELDS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the inputs column's words for each inputs kind
KINDS = {"single": "single", "two operators": "two_op", "ensemble": "ensemble", "number tuples": "tuples"}


def _table_rows(heading: str) -> list[list[str]]:
    """The cells of each row of the table under ``heading`` (a "## " or "### " line)."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    section = re.split(r"\n##+ ", section, maxsplit=1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]


def _names(cell: str) -> tuple[str, ...]:
    return () if cell == "—" else tuple(cell.split(", "))


def test_check_registry_table_matches_the_registry():
    rows = _table_rows("## Check registry")
    assert [row[0] for row in rows] == [f"`{e.theorem_id}`" for e in REGISTRY_ORDER]
    for entry, (_, inputs, slots, droppable, summary) in zip(REGISTRY_ORDER, rows):
        assert KINDS[inputs] == entry.inputs_kind, entry.theorem_id
        free, _, fixed = slots.partition(" (")
        assert _names(free) == entry.slots, entry.theorem_id
        fixed_slots = tuple(part.split(" = ")[0] for part in fixed.rstrip(")").split("; ") if part)
        assert fixed_slots == tuple(entry.fixed), entry.theorem_id
        assert set(_names(droppable)) == entry.drops, entry.theorem_id
        assert summary == entry.summary, entry.theorem_id


# a well-formed value for each field a function literal may take
ID = {"kind": "identity"}
FIELD_VALUES = {
    "c": 1.0,
    "p": 2.0,
    "a": 1.0,
    "b": 0.5,
    "knots": [1.0, 2.0],
    "values": [1.0, 3.0],
    "factors": [ID, ID],
    "terms": [{"coef": 1.0, "fn": ID}],
    "domain": [1.0, 2.0],
}


def _literal_rows() -> list[tuple[str, tuple[str, ...]]]:
    """(kind, its fields) for every kind named in the "Function literals" table:
    the fields are the backticked names before a note in parentheses or after a colon."""
    out = []
    for kinds, fields in _table_rows("### Function literals"):
        names = tuple(re.findall(r"`(\w+)`", re.split(r" \(|:", fields, maxsplit=1)[0]))
        out.extend((kind, names) for kind in re.findall(r"`(\w+)`", kinds))
    return out


def test_function_literals_table_names_every_kind():
    assert sorted(kind for kind, _ in _literal_rows()) == sorted(_LITERAL_FIELDS)


@pytest.mark.parametrize("kind, fields", _literal_rows(), ids=lambda v: str(v))
def test_a_literal_takes_exactly_the_fields_the_table_lists(kind, fields):
    literal = {"kind": kind, "domain": FIELD_VALUES["domain"]}
    literal.update((name, FIELD_VALUES[name]) for name in fields)
    assert function_from_descriptor(literal).kind == kind
    with pytest.raises(ConfigInvalid, match="'extra'"):
        function_from_descriptor({**literal, "extra": 1.0})
    for name in fields:
        with pytest.raises(ConfigInvalid, match=name):
            function_from_descriptor({key: v for key, v in literal.items() if key != name})
