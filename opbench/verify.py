"""Correctness checks for the benchmark's outputs.

Every check returns a list of problems (empty when the output is right).  The
checks compare against independent computations, never against a stored copy
of earlier output: expectations are recomputed in plain numpy from a
document's eigenpairs (``w = |U* x|^2``, ``E[f] = sum w f(lambda)``), pinned
scenarios against their hand-computed ``expect`` blocks, and suite tallies
against properties the method must have.
"""

from __future__ import annotations

import json

import numpy as np

import opineq

# Square-case ids hold for every continuous function, so their hypothesis is
# automatic and a suite trial of them can never read ``hypothesis-not-met``.
SQUARE_IDS = frozenset(
    {
        "pc-square",
        "mean-point-square",
        "mean-point-square-t",
        "inverse-pair-square",
        "ensemble-pc-square",
        "ensemble-pc-square-t",
        "ensemble-mean-point-square",
        "ensemble-mean-point-square-t",
    }
)

# Ids whose suite trials are recomputed from their documents.
SIGN_IDS = frozenset({"pc-sign", "pc-sign-t", "pc-moment", "pc-moment-t"})
KANTOROVICH_IDS = frozenset({"kantorovich-lower", "kantorovich-upper"})
RECOMPUTED_IDS = SIGN_IDS | KANTOROVICH_IDS | {"pc-square"}

# Ids whose inputs documents carry function slots the registry rejects on
# replay (every f/g/h slot is written, fixed ones included).
FIXED_SLOT_IDS = frozenset(
    {
        "pc-sign-t",
        "pc-moment",
        "pc-moment-t",
        "mean-point-square",
        "mean-point-square-t",
        "inverse-pair-square",
        "ensemble-pc-square-t",
        "ensemble-mean-point-square",
        "ensemble-mean-point-square-t",
    }
)


def tolerance(lhs: float, rhs: float) -> float:
    """Gap tolerance of the package's policy: 1e-9 * (1 + |lhs| + |rhs|)."""
    return 1e-9 * (1.0 + abs(lhs) + abs(rhs))


# ---------------------------------------------------------------------------
# plain-numpy evaluation of documents


def eval_fn(desc: dict, x: np.ndarray) -> np.ndarray:
    """Evaluate a function literal of the kinds the benchmark's inputs use."""
    kind = desc["kind"]
    if kind == "identity":
        return np.asarray(x, dtype=np.float64)
    if kind == "constant":
        return np.full(np.shape(x), float(desc["c"]))
    if kind == "power":
        return np.asarray(x, dtype=np.float64) ** float(desc["p"])
    if kind == "exp":
        return np.exp(x)
    if kind == "log":
        return np.log(x)
    raise ValueError(f"no independent evaluator for function kind {kind!r}")


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def measure(op_doc: dict, state_doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the spectral measure of (A, x): lambda_k and |<u_k, x>|^2."""
    comps = state_doc["components"] if isinstance(state_doc, dict) else state_doc
    x = np.asarray([_complex(v) for v in comps])
    if "diagonal" in op_doc:
        return np.asarray(op_doc["diagonal"], dtype=np.float64), np.abs(x) ** 2
    lam = np.asarray(op_doc["eigenvalues"], dtype=np.float64)
    u = np.asarray([[_complex(v) for v in row] for row in op_doc["eigenvectors"]])
    return lam, np.abs(u.conj().T @ x) ** 2


class Moments:
    """E[phi] = sum_k w_k phi(lambda_k), summed over one or more (A, x) blocks."""

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]], functions: dict):
        self.blocks = blocks
        self.functions = functions

    def e(self, *names: str) -> float:
        """Expectation of the pointwise product of the named slots ("s" is the identity, "1/s" its inverse)."""
        total = 0.0
        for lam, w in self.blocks:
            vals = np.ones_like(lam)
            for name in names:
                if name == "s":
                    vals = vals * lam
                elif name == "1/s":
                    vals = vals / lam
                else:
                    vals = vals * eval_fn(self.functions[name], lam)
            total += float(np.sum(w * vals))
        return total

    def at(self, name: str, point: float) -> float:
        return float(eval_fn(self.functions[name], np.asarray([point]))[0])


def _single(doc: dict) -> Moments:
    return Moments([measure(doc["operator"], doc["state"])], doc.get("functions", {}))


def _ensemble(doc: dict) -> Moments:
    ens = doc["ensemble"]
    return Moments(
        [measure(op, st) for op, st in zip(ens["operators"], ens["states"])],
        doc.get("functions", {}),
    )


def _oriented(doc: dict, main: float, cross: float) -> tuple[float, float]:
    return (main, cross) if doc.get("direction", ">=") == ">=" else (cross, main)


def sides(doc: dict) -> tuple[float, float]:
    """(favored, other) sides of a scenario document, recomputed in plain numpy."""
    tid = doc["theorem"]
    if tid in SIGN_IDS:
        m = _single(doc)
        return _oriented(doc, m.e("h", "h") * m.e("f", "g"), m.e("h", "g") * m.e("h", "f"))
    if tid == "pc-square":
        m = _single(doc)
        return m.e("h", "h") * m.e("f", "f"), m.e("h", "f") ** 2
    if tid in KANTOROVICH_IDS:
        m = _single(doc)
        product = m.e("s") * m.e("1/s")
        if tid == "kantorovich-lower":
            return product, 1.0
        lo, hi = doc.get("bound_interval", doc["operator"]["interval"])
        return (lo + hi) ** 2 / (4.0 * lo * hi), product
    if tid == "inverse-pair":
        m = _single(doc)
        a, b = m.e("s"), m.e("1/s")
        fa, fb, ga, gb, ha, hb = (m.at(n, p) for n in "fgh" for p in (a, b))
        lhs = ha**2 * fb * gb + hb**2 * fa * ga
        rhs = ha * hb * (fb * ga + fa * gb)
        return _oriented(doc, lhs, rhs)
    if tid == "pc-two-op":
        fns = doc["functions"]
        a = Moments([measure(doc["operator"], doc["state"])], fns)
        b = Moments([measure(doc["operator_b"], doc["state_b"])], fns)
        main = b.e("h", "h") * a.e("f", "g") + a.e("h", "h") * b.e("f", "g")
        cross = b.e("h", "g") * a.e("h", "f") + a.e("h", "g") * b.e("h", "f")
        return _oriented(doc, main, cross)
    if tid == "ensemble-pc-sign":
        m = _ensemble(doc)
        return _oriented(doc, m.e("h", "h") * m.e("f", "g"), m.e("h", "g") * m.e("h", "f"))
    if tid == "ensemble-product-lower":
        m = _ensemble(doc)
        n = len(m.blocks)
        mean_a = sum(float(np.sum(w * lam)) for lam, w in m.blocks) / n
        mean_b = sum(float(np.sum(w / lam)) for lam, w in m.blocks) / n
        return mean_a * mean_b, 1.0
    if tid == "discrete-chebyshev":
        a = np.asarray(doc["tuples"]["a"], dtype=np.float64)
        b = np.asarray(doc["tuples"]["b"], dtype=np.float64)
        return float(np.mean(a * b)), float(np.mean(a)) * float(np.mean(b))
    raise ValueError(f"no independent recomputation for {tid!r}")


# ---------------------------------------------------------------------------
# suite


def check_suite_tallies(tallies: dict, trials: int) -> list[str]:
    """No violation, no gated square case, and every trial counted once.

    ``tallies`` maps check ids to ``TheoremTally.to_doc()`` documents.
    """
    problems = []
    for tid, t in tallies.items():
        if t["violated"]:
            problems.append(f"suite {tid}: {t['violated']} violated trials")
        if tid in SQUARE_IDS and t["hypothesis_not_met"]:
            problems.append(f"suite {tid}: square case reported hypothesis-not-met")
        if t["holds"] + t["violated"] + t["hypothesis_not_met"] != trials:
            problems.append(f"suite {tid}: verdict tallies do not sum to {trials}")
        if t["dispatched_ge"] + t["dispatched_le"] != trials:
            problems.append(f"suite {tid}: direction tallies do not sum to {trials}")
    return problems


def check_recomputed(record: dict) -> list[str]:
    """lhs and rhs of a report record agree with a plain-numpy recomputation."""
    lhs, rhs = sides(record["inputs_digest"])
    tol = tolerance(lhs, rhs)
    problems = []
    for name, want in (("lhs", lhs), ("rhs", rhs)):
        if not abs(record[name] - want) <= tol:
            problems.append(
                f"{record['theorem_id']}: {name} {record[name]!r} differs from "
                f"recomputed {want!r} by more than {tol:.3g}"
            )
    return problems


# ---------------------------------------------------------------------------
# replay


def check_roundtrip(text: str) -> list[str]:
    """A canonical document survives canonical_json(load_json(text)) == text."""
    if opineq.canonical_json(opineq.load_json(text)) != text:
        return ["document text changed on a parse/emit round trip"]
    return []


def check_expect(name: str, record: dict, expect: dict) -> list[str]:
    """A pinned scenario's report matches its hand-computed expect block."""
    problems = []
    if "verdict" in expect and record["verdict"] != expect["verdict"]:
        problems.append(f"pinned {name}: verdict {record['verdict']!r} != {expect['verdict']!r}")
    atol = expect.get("atol", 1e-9)
    for key in ("lhs", "rhs", "gap"):
        if key in expect and not abs(record[key] - expect[key]) <= atol:
            problems.append(f"pinned {name}: {key} {record[key]!r} != {expect[key]!r} (atol {atol})")
    return problems


def check_replayed(tid: str, record: dict, gap: float, verdict: str) -> list[str]:
    """A replayed random document gives back exactly the writer's gap and verdict."""
    if record["gap"] != gap or record["verdict"] != verdict:
        return [
            f"replay {tid}: got ({record['gap']!r}, {record['verdict']}) "
            f"but the writing run had ({gap!r}, {verdict})"
        ]
    return []


def check_emitted(text: str, gap: float, verdict: str) -> list[str]:
    """The emitted report text carries the report's gap and verdict exactly."""
    doc = json.loads(text)
    if doc["gap"] != gap or doc["verdict"] != verdict:
        return [f"emitted record reads ({doc['gap']!r}, {doc['verdict']}) not ({gap!r}, {verdict})"]
    return []


def check_failure(tid: str, exc: Exception) -> list[str]:
    """Only fixed-slot documents may fail, and only by rejecting their extra slots."""
    if tid in FIXED_SLOT_IDS and isinstance(exc, opineq.ConfigInvalid) and "unexpected" in str(exc):
        return []
    return [f"replay {tid}: unexpected {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# falsify


def check_search(drop, result: dict) -> list[str]:
    """Dropped-hypothesis searches find a counterexample whose recomputed gap is
    negative; searches with their hypotheses intact find none."""
    tid = result["theorem"]
    if drop is None:
        return [f"falsify {tid}: intact search reported a counterexample"] if result["found"] else []
    if not result["found"] or result["verdict"] != "violated":
        return [f"falsify {tid} drop {drop}: no counterexample found"]
    favored, other = sides(result["scenario"])
    gap = favored - other
    problems = []
    if not gap < 0.0:
        problems.append(f"falsify {tid} drop {drop}: recomputed gap {gap!r} is not negative")
    if not abs(gap - result["gap"]) <= tolerance(favored, other):
        problems.append(f"falsify {tid} drop {drop}: gap {result['gap']!r} != recomputed {gap!r}")
    return problems
