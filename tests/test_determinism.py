"""Byte-determinism guard: the sha256 of fixed CLI outputs.

The digests are those of the outputs as they stood when this test was
added.  Any drift, down to the last bit of one float, fails it.  A change
that alters an artifact on purpose (a versioned change to sampling, say)
updates the digests here and says so, with the reason, in CHANGES.md.
"""

import hashlib

import pytest

from opineq.cli import main
from opineq.errors import OpineqError
from opineq.harness import falsify
from opineq.registry import REGISTRY_ORDER
from opineq.serialize import canonical_json
from opineq.spectral import SpectralInterval

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

# every (check id, dropped hypothesis) pair, intact included, at budgets 1, 7,
# 50 and 1000 with seed 0, on [1, 4] and on [-1, 2]; an id that rejects
# [-1, 2] contributes its error's type and message
ALL_PAIRS_FALSIFY_DIGEST = "dd015b8a21419ff6ee7995efa80ada468e4938a84ebc4b4bbe6d4719b9b1b5a3"
# the [1, 4] half of the digest above on its own
POSITIVE_PAIRS_FALSIFY_DIGEST = "ac83db1a2f94cef95f747b904876a3cb263f632a78c2d23b4a3c3aecdcf137b8"


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


def _every_pair_digest(*intervals: SpectralInterval) -> str:
    pairs = [(e.theorem_id, d) for e in REGISTRY_ORDER for d in (None, *sorted(e.drops))]
    assert len(pairs) == 37
    digest = hashlib.sha256()
    for interval in intervals:
        for theorem, drop in pairs:
            for budget in (1, 7, 50, 1000):
                try:
                    result = falsify(theorem, drop, budget=budget, seed=0, interval=interval)
                except OpineqError as exc:
                    doc = {"error": type(exc).__name__, "message": str(exc)}
                else:
                    assert result.examined == budget
                    doc = result.to_doc()
                digest.update(canonical_json(doc).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_every_falsify_pair_is_pinned():
    got = _every_pair_digest(SpectralInterval(1.0, 4.0), SpectralInterval(-1.0, 2.0))
    assert got == ALL_PAIRS_FALSIFY_DIGEST


def test_every_falsify_pair_on_a_positive_interval_is_pinned():
    assert _every_pair_digest(SpectralInterval(1.0, 4.0)) == POSITIVE_PAIRS_FALSIFY_DIGEST
