"""README's "Check registry" table agrees with the registry."""

import pathlib

from opineq import REGISTRY_ORDER

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the inputs column's words for each inputs kind
KINDS = {"single": "single", "two operators": "two_op", "ensemble": "ensemble", "number tuples": "tuples"}


def _registry_rows() -> list[list[str]]:
    """The cells of each row of the table under the "Check registry" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Check registry\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]


def _names(cell: str) -> tuple[str, ...]:
    return () if cell == "—" else tuple(cell.split(", "))


def test_check_registry_table_matches_the_registry():
    rows = _registry_rows()
    assert [row[0] for row in rows] == [f"`{e.theorem_id}`" for e in REGISTRY_ORDER]
    for entry, (_, inputs, slots, droppable, summary) in zip(REGISTRY_ORDER, rows):
        assert KINDS[inputs] == entry.inputs_kind, entry.theorem_id
        free, _, fixed = slots.partition(" (")
        assert _names(free) == entry.slots, entry.theorem_id
        fixed_slots = tuple(part.split(" = ")[0] for part in fixed.rstrip(")").split("; ") if part)
        assert fixed_slots == tuple(entry.fixed), entry.theorem_id
        assert set(_names(droppable)) == entry.drops, entry.theorem_id
        assert summary == entry.summary, entry.theorem_id
