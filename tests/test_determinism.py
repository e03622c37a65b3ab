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
from opineq.harness import TrialConfig, falsify, run_suite
from opineq.registry import REGISTRY_ORDER
from opineq.serialize import canonical_json
from opineq.spectral import SpectralInterval

SUITE_DIGESTS = {
    "stdout": "2160779c2f6604eda2c3e7343056de6591fdc7c2eafc20485d0178ad12837dfc",
    "summary.json": "2160779c2f6604eda2c3e7343056de6591fdc7c2eafc20485d0178ad12837dfc",
    "summary.csv": "95bf9291cea48b64f5d8b5535762c14e5b53005db1cd3d3916d6fdeb9437f5a8",
    "reports.jsonl": "b0f82613dd9ffdf7e9fd0ce55c33f5f3ad91389c0d3a3c9c04190566c4df101a",
}

# the same run at a seed of two SeedSequence words, 2**64 - 1, and at 0
OTHER_SEED_SUITE_DIGESTS = {
    "18446744073709551615": {
        "stdout": "12668fd82e82471c7b01131c7eb16fb0dc2ae5d979de8c570be44d60ad95b63d",
        "summary.json": "12668fd82e82471c7b01131c7eb16fb0dc2ae5d979de8c570be44d60ad95b63d",
        "summary.csv": "9b686d956e7db5e9e4bd848171de783444427134929d4f7190444c560e42749b",
        "reports.jsonl": "840dbd6c9d3ff7d5c489574afa6ed02567abaa860ef2196a0d20cd36411052e4",
    },
    "0": {
        "stdout": "4d0a73bda416972da0104cf5f8a903f68e7709edd4ab045aff4df90394488737",
        "summary.json": "4d0a73bda416972da0104cf5f8a903f68e7709edd4ab045aff4df90394488737",
        "summary.csv": "9003ffd4f913870756621ff5ac7406a7c8bfb7f46ad10a0e68cd01a009ed4f52",
        "reports.jsonl": "ed2869ed66100c30025a4e1eb21ec6b00add2012786d11d45cff48fef1330914",
    },
}

# reports.csv of the same run with `--format csv`
REPORTS_CSV_DIGEST = "a99b58861514a0ecc5ebd896e4da1035f5de50dff28b59291c4d46a3fae72aa3"

# `opineq check` of the first document `suite --seed 7` writes for one check id
# of each kind of inputs
SUITE_DOCUMENT_CHECK_DIGESTS = {
    "pc-sign": "25678231a03ed5102cf4b264fd567f0a1dece022309cb57b91e077e72c41a4e4",
    "pc-two-op": "f0ef85acd37a624533ea2bb6a274198734879df7e87ca5f572f094c78fef406f",
    "ensemble-product-lower": "a794209ce62026c8711b81e8eae7653607573baf0f5961446cdd713fa534b6bb",
    "discrete-chebyshev": "5b576198b904cbbbe1dc3478e8f3c86e64eb5bfc96ae04482877e6862ba83a08",
}

PINNED_DIGEST = "6e20578f43b432e4a77bf1e77d20e8b1c0b8c71c49d3a4010afee283bc4d4e0f"

# one (check id, dropped hypothesis) pair for each kind of inputs
FALSIFY_DIGESTS = {
    ("pc-sign", "synchrony"): "53c0cd98f0e987b48d9eacf6413a34f23bd2e8f905f2dc70386ac9ad59199620",
    ("pc-two-op", "synchrony"): "9821476a7c258c5691379d8e9ec5e994039a86b5f673baf50d7c30bd7e482757",
    ("ensemble-product-lower", "normalization"): (
        "a8c72feed7feec749ea1bfc7886b4b94207a76350476f66b12daaec3bdf33c52"
    ),
    ("discrete-chebyshev", "synchrony"): (
        "c0bf720a3f5562a1bb4cee404ef46f5724effd4332cdf9d839fdfa170b9f9cc3"
    ),
}

# every (check id, dropped hypothesis) pair, intact included, at budgets 1, 7,
# 50 and 1000 with seed 0, on [1, 4] and on [-1, 2]; an id that rejects
# [-1, 2] contributes its error's type and message
ALL_PAIRS_FALSIFY_DIGEST = "efece77144cf39db880a6c88117c7f90702a22815bef96383b023f96b963d0e4"
# the [1, 4] half of the digest above on its own
POSITIVE_PAIRS_FALSIFY_DIGEST = "71505bc0e464633c90a25c9c8049a3f3a3f9ed861abd2ab92b980bbcb38568bb"
# every pair on [1, 4] at budgets 80, 300 and 2560 (a reserve of 256, eight
# perturbation rounds of 32) with seeds 1, 2 and 3
ROUNDS_FALSIFY_DIGEST = "879bc94fdbd3b5a11c13cffb5eb3740ee2672a993404e4636a527481640ed79c"

# The pairs falsify answers with a constructed candidate, examining one: the
# synchrony certificate's witness, or the closed-form extremal measure with
# spectral containment or normalization dropped.  The three digests above over
# every other pair, taken before either construction was added: the pairs still
# searched are searched as before.
CONSTRUCTED_PAIRS = frozenset(
    {
        *(
            (theorem, "synchrony")
            for theorem in (
                "pc-sign",
                "pc-sign-t",
                "pc-moment",
                "pc-moment-t",
                "pc-two-op",
                "ensemble-pc-sign",
                "discrete-chebyshev",
            )
        ),
        ("kantorovich-upper", "spectral-containment"),
        ("ensemble-kantorovich-upper", "spectral-containment"),
        ("ensemble-product-lower", "normalization"),
    }
)
SEARCHED_PAIRS_FALSIFY_DIGESTS = {
    "all": "e1da06256b689e922b1be365ef9f0c2ca2fe2332ce065c8584acac018b8f7e02",
    "positive": "f22c4e3e3c95c1ef4fe4900cbabd4cedd98acc7b99c22bf66739867ef4415270",
    "rounds": "888b78fe81775ec2bb84af4e512fc330740e13e3ae21d7865ec41466b80f1368",
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _stdout(capsys, argv: list[str]) -> str:
    main(argv)
    return capsys.readouterr().out


def _suite_digests(tmp_path, capsys, seed: str) -> dict:
    out = _stdout(capsys, ["suite", "--seed", seed, "--trials", "5", "--out", str(tmp_path)])
    got = {"stdout": _sha(out)}
    for name in ("summary.json", "summary.csv", "reports.jsonl"):
        got[name] = _sha((tmp_path / name).read_text(encoding="utf-8"))
    return got


def test_suite_outputs_are_pinned(tmp_path, capsys):
    assert _suite_digests(tmp_path, capsys, "7") == SUITE_DIGESTS


@pytest.mark.parametrize("seed", list(OTHER_SEED_SUITE_DIGESTS))
def test_suite_outputs_at_other_seeds_are_pinned(tmp_path, capsys, seed):
    assert _suite_digests(tmp_path, capsys, seed) == OTHER_SEED_SUITE_DIGESTS[seed]


def test_suite_csv_outputs_are_pinned(tmp_path, capsys):
    argv = ["suite", "--seed", "7", "--trials", "5", "--format", "csv", "--out", str(tmp_path)]
    got = {"stdout": _sha(_stdout(capsys, argv))}
    for name in ("summary.json", "summary.csv", "reports.csv"):
        got[name] = _sha((tmp_path / name).read_text(encoding="utf-8"))
    assert not (tmp_path / "reports.jsonl").exists()
    want = {**SUITE_DIGESTS, "reports.csv": REPORTS_CSV_DIGEST}
    del want["reports.jsonl"]
    assert got == want


@pytest.mark.parametrize("theorem", list(SUITE_DOCUMENT_CHECK_DIGESTS))
def test_check_of_a_suite_document_is_pinned(tmp_path, capsys, theorem):
    reports = []
    config = TrialConfig(seed=7, trials=1, theorem_ids=(theorem,))
    run_suite(config, on_report=lambda _tid, _trial, report: reports.append(report))
    path = tmp_path / "inputs.json"
    path.write_text(canonical_json(reports[0].inputs_digest), encoding="utf-8")
    assert _sha(_stdout(capsys, ["check", str(path)])) == SUITE_DOCUMENT_CHECK_DIGESTS[theorem]


def test_pinned_output_is_pinned(capsys):
    assert _sha(_stdout(capsys, ["pinned"])) == PINNED_DIGEST


@pytest.mark.parametrize("theorem, drop", list(FALSIFY_DIGESTS))
def test_falsify_output_is_pinned(capsys, theorem, drop):
    argv = ["falsify", theorem, "--drop", drop, "--budget", "50", "--seed", "0"]
    assert _sha(_stdout(capsys, argv)) == FALSIFY_DIGESTS[(theorem, drop)]


def _every_pair_digest(
    *intervals: SpectralInterval,
    budgets: tuple = (1, 7, 50, 1000),
    seeds: tuple = (0,),
    skip: frozenset = frozenset(),
) -> str:
    pairs = [(e.theorem_id, d) for e in REGISTRY_ORDER for d in (None, *sorted(e.drops))]
    assert len(pairs) == 37
    pairs = [pair for pair in pairs if pair not in skip]
    digest = hashlib.sha256()
    for interval in intervals:
        for theorem, drop in pairs:
            for budget in budgets:
                for seed in seeds:
                    try:
                        result = falsify(theorem, drop, budget=budget, seed=seed, interval=interval)
                    except OpineqError as exc:
                        doc = {"error": type(exc).__name__, "message": str(exc)}
                    else:
                        constructed = (theorem, drop) in CONSTRUCTED_PAIRS
                        assert result.examined == (1 if constructed else budget)
                        doc = result.to_doc()
                    digest.update(canonical_json(doc).encode("utf-8") + b"\n")
    return digest.hexdigest()


# the configurations of the all-pairs digests: intervals, budgets and seeds
_PAIR_DIGEST_CONFIGS = {
    "all": ((SpectralInterval(1.0, 4.0), SpectralInterval(-1.0, 2.0)), {}),
    "positive": ((SpectralInterval(1.0, 4.0),), {}),
    "rounds": ((SpectralInterval(1.0, 4.0),), {"budgets": (80, 300, 2560), "seeds": (1, 2, 3)}),
}


def _config_digest(config: str, skip: frozenset = frozenset()) -> str:
    intervals, kwargs = _PAIR_DIGEST_CONFIGS[config]
    return _every_pair_digest(*intervals, skip=skip, **kwargs)


def test_every_falsify_pair_is_pinned():
    assert _config_digest("all") == ALL_PAIRS_FALSIFY_DIGEST


def test_every_falsify_pair_on_a_positive_interval_is_pinned():
    assert _config_digest("positive") == POSITIVE_PAIRS_FALSIFY_DIGEST


def test_every_falsify_pair_with_full_perturbation_rounds_is_pinned():
    assert _config_digest("rounds") == ROUNDS_FALSIFY_DIGEST


@pytest.mark.parametrize("config", list(SEARCHED_PAIRS_FALSIFY_DIGESTS))
def test_every_searched_falsify_pair_is_as_before_the_construction(config):
    got = _config_digest(config, skip=CONSTRUCTED_PAIRS)
    assert got == SEARCHED_PAIRS_FALSIFY_DIGESTS[config]
