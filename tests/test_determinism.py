"""Byte-determinism guard: the sha256 of fixed CLI outputs.

The digests are those of the outputs as they stood when this test was
added.  Any drift, down to the last bit of one float, fails it.  A change
that alters an artifact on purpose (a versioned change to sampling, say)
updates the digests here and says so, with the reason, in CHANGES.md.
"""

import hashlib

import pytest

from opineq.cli import main

SUITE_DIGESTS = {
    "stdout": "f03a52d048c11a8f398957c0b79ff4c4d85067facc266ab9f30932cbd8de1822",
    "summary.json": "f03a52d048c11a8f398957c0b79ff4c4d85067facc266ab9f30932cbd8de1822",
    "summary.csv": "95bf9291cea48b64f5d8b5535762c14e5b53005db1cd3d3916d6fdeb9437f5a8",
    "reports.jsonl": "8caf238cb1f76198c7a968eb263ef57bfc2d0dc13d42dfc4c6583e91342c7374",
}

PINNED_DIGEST = "6e20578f43b432e4a77bf1e77d20e8b1c0b8c71c49d3a4010afee283bc4d4e0f"

# one (check id, dropped hypothesis) pair for each kind of inputs
FALSIFY_DIGESTS = {
    ("pc-sign", "synchrony"): "b24bd0a663282f522542e3e2c56628439b87f3fdd47ee94a562e12468087dd10",
    ("pc-two-op", "synchrony"): "3a591455dbd897f047e4609348608f1532fb2fb25319b053bf3e52974d6f73f9",
    ("ensemble-product-lower", "normalization"): (
        "284be09eb0abb1e5a2a347c3d1139c9042b0fd04dc04d0fdd3174c6cd7fe7ab1"
    ),
    ("discrete-chebyshev", "synchrony"): (
        "612a37587c1ac37c5de0a215bda83d2a1df8174e608ba1e4d512fe1ed2d384a7"
    ),
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _stdout(capsys, argv: list[str]) -> str:
    main(argv)
    return capsys.readouterr().out


def test_suite_outputs_are_pinned(tmp_path, capsys):
    out = _stdout(capsys, ["suite", "--seed", "7", "--trials", "5", "--out", str(tmp_path)])
    got = {"stdout": _sha(out)}
    for name in ("summary.json", "summary.csv", "reports.jsonl"):
        got[name] = _sha((tmp_path / name).read_text(encoding="utf-8"))
    assert got == SUITE_DIGESTS


def test_pinned_output_is_pinned(capsys):
    assert _sha(_stdout(capsys, ["pinned"])) == PINNED_DIGEST


@pytest.mark.parametrize("theorem, drop", list(FALSIFY_DIGESTS))
def test_falsify_output_is_pinned(capsys, theorem, drop):
    argv = ["falsify", theorem, "--drop", drop, "--budget", "50", "--seed", "0"]
    assert _sha(_stdout(capsys, argv)) == FALSIFY_DIGESTS[(theorem, drop)]
