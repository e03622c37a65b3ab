"""Random instance generation, property suites, and hypothesis-dropping search.

Reproducibility contract: every suite trial draws from a fresh
``Generator(PCG64(SeedSequence([seed, check_ordinal, trial_index])))`` where
``check_ordinal`` is the registry ordinal of the check being exercised.  The
stream therefore depends only on (seed, check, trial): adding checks, selecting
subsets, or changing trial counts never perturbs other trials.  Falsification
searches use the fixed stream tag ``[seed, check_ordinal, FALSIFY_STREAM]``.
``trial_rng`` builds that generator; ``run_suite`` computes the SeedSequence
words of a chunk of trials in one numpy pass instead, equal to ``trial_rng``'s
bit for bit, and seeds each trial's PCG64 with its row.

Within one trial the draw order is fixed: structural sizes first (dimensions,
block counts, tuple lengths), then function-pool indices, then the inputs.  A
check reads ``(A, x)`` only through the spectral measure ``mu_x``, so a trial
draws that measure directly (sampling version 2): each block's atoms
(eigenvalues), sorted uniform on the interval, for every block in turn, then
the weights, Dirichlet(1, ..., 1) over all atoms of a single operator or a
sum-of-squares ensemble, or one Dirichlet per block for two operators and
per-vector ensembles, drawn as normalised exponentials, bit for bit as
numpy's ``Generator.dirichlet`` draws them.  That is the law of a Haar-random
eigenbasis with a complex-Gaussian state.  The check reads the measure of
``diag(atoms)`` with the real state ``c = sqrt(weights)``, weighted ``c * c``,
and its inputs document writes that operator and state, but neither is built.
``random_operator``, ``random_state`` and ``random_ensemble`` still sample the
eigenbasis itself.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .ensembles import PER_VECTOR, SUM_OF_SQUARES, OperatorEnsemble, _member_means, ensemble_inputs
from .ensembles import tuples_inputs
from .errors import ConfigInvalid, DomainViolation, OpineqError, quiet, read_integer, read_list
from .functionals import (
    HYPOTHESIS_NOT_MET,
    VIOLATED,
    InequalityReport,
    ReadPair,
    inverse_pair_hull,
    kantorovich_constant,
    single_inputs,
    two_inputs,
)
from .functions import GE, ScalarFunction, classify_synchrony, function_from_descriptor
from .registry import (
    _CUBE,
    _EXP,
    _ID,
    _INV,
    _LOG,
    _ONE,
    _SQ,
    _SQRT,
    DROP_CONTAINMENT,
    DROP_NORMALIZATION,
    DROP_SYNCHRONY,
    DROPPABLE,
    ENSEMBLE,
    REGISTRY,
    REGISTRY_ORDER,
    SINGLE,
    TUPLES,
    TWO_OP,
    TheoremEntry,
    lookup,
)
from .serialize import interval_from_doc
from .spectral import HermitianOperator, SpectralInterval, SpectralMeasure, StateVector, read_grid_n
from .tolerances import (
    DEFAULT_GRID_N,
    MAX_BUDGET,
    MAX_DIM,
    MAX_TRIALS,
    SEARCH_PLAN_MEMO_SIZE,
    VIOLATION_FACTOR,
    tol_ineq,
)

__all__ = [
    "ASYNC_TRIPLE_POOL",
    "DEFAULT_FUNCTION_POOL",
    "DEFAULT_THEOREMS",
    "FalsifyResult",
    "SuiteSummary",
    "SYNC_TRIPLE_POOL",
    "TheoremTally",
    "TrialConfig",
    "config_from_doc",
    "falsify",
    "random_ensemble",
    "random_operator",
    "random_state",
    "run_suite",
    "trial_rng",
]

DEFAULT_THEOREMS: tuple[str, ...] = tuple(e.theorem_id for e in REGISTRY_ORDER)

FALSIFY_STREAM = 0x5EEDFA15

# seeds are 64-bit unsigned, as numpy's SeedSequence needs
_SEED_RANGE = (0, 2**64 - 1)

DEFAULT_FUNCTION_POOL: tuple[dict, ...] = (_ID, _ONE, _SQ, _CUBE, _SQRT, _INV, _EXP, _LOG)

# Triples (f, g, h) whose quotients f/h and g/h are monotone in the same
# direction on every positive interval, so grid certification always says
# "synchronous"; ASYNC lists the opposite-direction counterparts.
SYNC_TRIPLE_POOL: tuple[tuple[dict, dict, dict], ...] = (
    (_SQ, _CUBE, _ID),
    (_ID, _SQ, _SQRT),
    (_EXP, _EXP, _INV),
    (_SQRT, {"kind": "power", "p": 1.5}, {"kind": "power", "p": 0.25}),
    (_ONE, _SQ, _INV),
    (_INV, {"kind": "power", "p": -2.0}, {"kind": "power", "p": -3.0}),
)
ASYNC_TRIPLE_POOL: tuple[tuple[dict, dict, dict], ...] = (
    (_ID, _INV, _ONE),
    (_CUBE, _ID, _SQ),
    (_ONE, _ID, _SQRT),
    (_ONE, _INV, {"kind": "power", "p": -0.5}),
    (_ID, _INV, _SQRT),
)


# ---------------------------------------------------------------------------
# random generators


def trial_rng(seed: int, ordinal: int, trial: int) -> np.random.Generator:
    """The per-trial generator; see the module docstring for the splitting rule."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, ordinal, trial])))


# numpy's SeedSequence (O'Neill's seed_seq mixing): a pool of four uint32
# words, and the multipliers of its two running hash constants and its mix
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Most suite trials one seeding pass covers.  Its rows run on across check
# ids, so the pass's cost falls on one trial in 4096 and its arrays stay small.
_SEED_CHUNK = 4096


def _hash_run(init: int, mult: int, n: int) -> list[int]:
    """A hash constant before each of n hashes, and after the last."""
    run = [init]
    for _ in range(n):
        run.append(run[-1] * mult & _MASK32)
    return run


# the pool's 4 + 12 hashes, and the 8 uint32 words of generate_state(4, uint64)
_HASH_A = _hash_run(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_run(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _seed_words(seed: int, ordinals: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, ordinal, trial]).generate_state(4, np.uint64)`` of
    every row (ordinal, trial), of shape (rows, 4), in one pass over uint32 columns.

    The seed is one uint32 word, or two from 2**32 on, and an ordinal and a
    trial one each, so the entropy fits the pool and no word is mixed in after it.
    """
    rows = len(ordinals)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(rows, w, np.uint32) for w in words]
    entropy += [np.asarray(ordinals, np.uint32), np.asarray(trials, np.uint32)]
    entropy += [np.zeros(rows, np.uint32)] * (_POOL_SIZE - len(entropy))
    hashes = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    pool = [hashmix(value) for value in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    state = np.empty((rows, 2 * _POOL_SIZE), np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = (pool[i % _POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1]
        state[:, i] = value ^ (value >> 16)
    # pairs of words as little-endian uint64, as SeedSequence reads them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence that holds PCG64's four seeding words, and gives nothing
    else.  Its base loads numpy.random, which importing opineq does not, so it
    is made on first use."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                asked = f"{n_words} {np.dtype(dtype)}"
                raise ValueError(f"holds only 4 uint64 words, asked for {asked}")
            return self.words

    return SeedWords


def _trial_rngs(seed: int, ordinals: Sequence[int], trials: int) -> Iterator[np.random.Generator]:
    """``trial_rng(seed, ordinal, trial)`` for every ordinal in turn and each of
    its trials, their seeding words computed a chunk of rows at a time."""
    seed_words = _seed_words_type()
    total = len(ordinals) * trials
    for start in range(0, total, _SEED_CHUNK):
        rows = np.arange(start, min(start + _SEED_CHUNK, total))
        chunk = _seed_words(seed, np.asarray(ordinals)[rows // trials], rows % trials)
        for words in chunk:
            yield np.random.Generator(np.random.PCG64(seed_words(words)))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-style random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    mag = np.abs(d)
    phases = np.where(mag > 1e-300, d / np.where(mag > 1e-300, mag, 1.0), 1.0)
    return q * phases.conj()[None, :]


def random_operator(
    rng: np.random.Generator, dim: int, interval: SpectralInterval
) -> HermitianOperator:
    """Eigenvalues uniform on the interval, eigenbasis Haar-random."""
    if dim < 1:
        raise ConfigInvalid(f"dim must be >= 1, got {dim}")
    lam = rng.uniform(interval.lo, interval.hi, size=dim)
    return HermitianOperator(lam, _haar_unitary(rng, dim), interval)


def _gaussian_vector(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, float]:
    """Complex-Gaussian vector and its norm, redrawn until the norm is clear of 0."""
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-6:
            return z, norm


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    """Unit vector with complex-Gaussian direction."""
    if dim < 1:
        raise ConfigInvalid(f"dim must be >= 1, got {dim}")
    z, norm = _gaussian_vector(rng, dim)
    return StateVector(z / norm)


def random_ensemble(
    rng: np.random.Generator,
    n: int,
    dims: Sequence[int],
    interval: SpectralInterval,
    mode: str,
) -> OperatorEnsemble:
    """Random operators plus states normalized for the requested mode."""
    if n < 1 or len(dims) != n:
        raise ConfigInvalid(f"need n >= 1 block dims, got n={n}, dims={list(dims)!r}")
    ops = tuple(random_operator(rng, d, interval) for d in dims)
    raw = [_gaussian_vector(rng, d) for d in dims]
    if mode == PER_VECTOR:
        states = tuple(StateVector(z / norm) for z, norm in raw)
    else:
        total = math.sqrt(sum(norm**2 for _, norm in raw))
        states = tuple(StateVector(z / total) for z, _ in raw)
    return OperatorEnsemble(ops, states, mode)


def _random_blocks(
    rng: np.random.Generator, dims: Sequence[int], interval: SpectralInterval, joint: bool
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (atoms, weights) block per dimension, a diagonal operator's spectrum
    and its real state's squared components: sorted uniform atoms on the
    interval, then weights Dirichlet(1, ..., 1), over all blocks' atoms together
    when ``joint`` (their squared norms add to 1), else per block."""
    atoms = [np.sort(rng.uniform(interval.lo, interval.hi, d)) for d in dims]
    if joint:
        w = _flat_dirichlet(rng, sum(dims))
        weights = [w[end - d : end] for d, end in zip(dims, itertools.accumulate(dims))]
    else:
        weights = [_flat_dirichlet(rng, d) for d in dims]
    return list(zip(atoms, weights))


def _flat_dirichlet(rng: np.random.Generator, d: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(d))`` bit for bit, as numpy draws it: d standard
    exponentials (its gamma(1) draws), times the inverse of their sum from left to right."""
    e = rng.standard_exponential(d)
    return e * (1.0 / np.add.accumulate(e)[-1])


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class TrialConfig:
    """Deterministic description of one property-suite run."""

    seed: int = 0
    trials: int = 10_000
    dim_range: tuple[int, int] = (1, 8)
    interval: SpectralInterval = SpectralInterval(1.0, 2.0)
    function_pool: tuple[dict, ...] = DEFAULT_FUNCTION_POOL
    triple_pool: Optional[tuple[tuple[dict, dict, dict], ...]] = None
    grid_n: int = DEFAULT_GRID_N
    theorem_ids: tuple[str, ...] = DEFAULT_THEOREMS

    def __post_init__(self) -> None:
        read_integer(self.seed, "seed", _SEED_RANGE)
        read_integer(self.trials, "trials", (1, MAX_TRIALS))
        dr = read_list(self.dim_range, "dim_range [min, max]", 2)
        dr = tuple(read_integer(v, "dim_range entry") for v in dr)
        if not 1 <= dr[0] <= dr[1] <= MAX_DIM:
            raise ConfigInvalid(
                f"dim_range must satisfy 1 <= min <= max <= {MAX_DIM}, got {self.dim_range!r}"
            )
        object.__setattr__(self, "dim_range", dr)
        if not isinstance(self.interval, SpectralInterval):
            raise ConfigInvalid("interval must be a SpectralInterval")
        pool = tuple(read_list(self.function_pool, "function_pool"))
        if not pool:
            raise ConfigInvalid("function_pool must not be empty")
        for desc in pool:
            function_from_descriptor(desc)
        object.__setattr__(self, "function_pool", pool)
        if self.triple_pool is not None:
            triples = read_list(self.triple_pool, "triple_pool")
            triples = tuple(tuple(read_list(t, "triple_pool entry", 3)) for t in triples)
            if not triples:
                raise ConfigInvalid("triple_pool must be a nonempty list of (f, g, h) triples")
            for t in triples:
                for desc in t:
                    function_from_descriptor(desc)
            object.__setattr__(self, "triple_pool", triples)
        object.__setattr__(self, "grid_n", read_grid_n(self.grid_n))
        ids = tuple(read_list(self.theorem_ids, "theorems"))
        if not ids:
            raise ConfigInvalid("theorem_ids must not be empty")
        for tid in ids:
            lookup(tid)
        object.__setattr__(self, "theorem_ids", ids)

    def to_doc(self) -> dict:
        doc = {
            "seed": self.seed,
            "trials": self.trials,
            "dim_range": [self.dim_range[0], self.dim_range[1]],
            "interval": [self.interval.lo, self.interval.hi],
            "function_pool": [dict(d) for d in self.function_pool],
            "grid_n": self.grid_n,
            "theorems": list(self.theorem_ids),
        }
        if self.triple_pool is not None:
            doc["triple_pool"] = [[dict(d) for d in t] for t in self.triple_pool]
        return doc


# Suite-config field -> the TrialConfig field it sets; TrialConfig checks every
# value.  A document names each field as TrialConfig does, theorem_ids as "theorems".
_CONFIG_FIELDS = {
    {"theorem_ids": "theorems"}.get(f.name, f.name): f.name
    for f in dataclasses.fields(TrialConfig)
}


def config_from_doc(doc: dict) -> TrialConfig:
    """Parse a suite-configuration document (the file ``opineq suite`` reads)."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("suite config must be an object")
    unknown = set(doc) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    kwargs = {_CONFIG_FIELDS[key]: value for key, value in doc.items()}
    if "interval" in doc:
        kwargs["interval"] = interval_from_doc(doc["interval"])
    if isinstance(doc.get("theorems"), str):
        kwargs["theorem_ids"] = [s.strip() for s in doc["theorems"].split(",") if s.strip()]
    return TrialConfig(**kwargs)


# ---------------------------------------------------------------------------
# pools and per-trial sampling


def _valid_entries(
    descriptors: Sequence[dict], interval: SpectralInterval
) -> list[tuple[dict, ScalarFunction]]:
    """Resolve descriptors and keep only those finite on the interval: on its
    grid of 9 points and, for an interval that contains it, on 0, where a
    negative power has its pole."""
    probe = interval.grid(9)
    if interval.lo < 0.0 < interval.hi:
        probe = np.append(probe, 0.0)
    out: list[tuple[dict, ScalarFunction]] = []
    for desc in descriptors:
        fn = function_from_descriptor(desc)
        try:
            vals = np.asarray(fn(probe), dtype=np.float64)
        except (OpineqError, ValueError, FloatingPointError, ZeroDivisionError):
            continue
        if vals.shape == probe.shape and bool(np.all(np.isfinite(vals))):
            out.append((desc, fn))
    return out


def _valid_triples(
    triples: Sequence[tuple[dict, dict, dict]], interval: SpectralInterval
) -> list[tuple[tuple[dict, dict, dict], tuple[ScalarFunction, ScalarFunction, ScalarFunction]]]:
    out = []
    for t in triples:
        resolved = _valid_entries(t, interval)
        if len(resolved) == 3:
            out.append((tuple(t), tuple(fn for _, fn in resolved)))
    return out


# The function pool and the triple pool (None when the config has none) resolved
# on one interval.
_Pools = tuple[list[tuple[dict, ScalarFunction]], Optional[list]]


def _resolve_pools(
    function_pool: Sequence[dict],
    triple_pool: Optional[Sequence[tuple[dict, dict, dict]]],
    interval: SpectralInterval,
    where: str,
) -> _Pools:
    functions = _valid_entries(function_pool, interval)
    if not functions:
        raise ConfigInvalid(f"no pool function is defined everywhere on {where}")
    triples = None
    if triple_pool is not None:
        triples = _valid_triples(triple_pool, interval)
        if not triples:
            raise ConfigInvalid(f"no pool triple is defined everywhere on {where}")
    return functions, triples


@dataclasses.dataclass
class _SamplerCtx:
    """A suite's config and its pools, resolved once for every trial."""

    config: TrialConfig
    pools: _Pools
    # the pools on inverse_pair_hull(interval), resolved only for a hull check
    hull_pools: Optional[_Pools]


def _build_ctx(config: TrialConfig, theorem_ids: Sequence[str]) -> _SamplerCtx:
    """The sampling context of the checks ``theorem_ids``, in registry order."""
    interval, pool = config.interval, (config.function_pool, config.triple_pool)
    needs_positive = [tid for tid in theorem_ids if REGISTRY[tid].needs_positive]
    if needs_positive and interval.lo <= 0.0:
        raise ConfigInvalid(
            f"checks {needs_positive} need a positive interval, got {interval.as_pair()}"
        )
    pools = _resolve_pools(*pool, interval, str(interval.as_pair()))
    hull_pools = None
    if any(REGISTRY[tid].hull for tid in theorem_ids):
        hull = inverse_pair_hull(interval)
        hull_pools = _resolve_pools(*pool, hull, f"the hull {hull.as_pair()}")
    return _SamplerCtx(config, pools, hull_pools)


def _draw_functions(
    entry: TheoremEntry, ctx: _SamplerCtx, rng: np.random.Generator
) -> dict[str, ScalarFunction]:
    if not entry.slots:
        return {}
    functions, triples = ctx.hull_pools if entry.hull else ctx.pools
    if triples is not None and set(entry.slots) == {"f", "g", "h"}:
        _, fns = triples[int(rng.integers(len(triples)))]
        return {"f": fns[0], "g": fns[1], "h": fns[2]}
    return {slot: functions[int(rng.integers(len(functions)))][1] for slot in entry.slots}


# Measure inputs kind -> the blocks a suite trial draws (0: one to four), and
# its inputs from their read pairs and an ensemble mode.
_DRAWS = {
    SINGLE: (1, lambda pairs, mode: single_inputs(*pairs)),
    TWO_OP: (2, lambda pairs, mode: two_inputs(*pairs)),
    ENSEMBLE: (0, ensemble_inputs),
}


def _drawn_inputs(
    entry: TheoremEntry, mode: Optional[str], blocks: Sequence, interval: SpectralInterval
):
    """A check's inputs from its drawn blocks, as its core reads them: tuples
    (a, b) read as tuples; else each block (atoms, weights) read as diag(atoms)
    on the interval with the real state sqrt(weights), neither built, and the
    read pairs put together for the entry's kind under the ensemble ``mode``."""
    if entry.inputs_kind == TUPLES:
        return tuples_inputs(*blocks)
    pairs = [ReadPair.diagonal(atoms, np.sqrt(w), interval) for atoms, w in blocks]
    return _DRAWS[entry.inputs_kind][1](pairs, mode)


def _trial_parsed(
    entry: TheoremEntry, ctx: _SamplerCtx, rng: np.random.Generator
) -> tuple[dict, object]:
    """Draw one random instance for the entry's run: a parsed scenario holding
    its functions, and its inputs as the check reads them."""
    config = ctx.config
    dmin, dmax = config.dim_range
    parsed: dict = {"grid_n": config.grid_n}
    if entry.inputs_kind == TUPLES:
        n = int(rng.integers(dmin, dmax + 1))
        lo, hi = config.interval.lo, config.interval.hi
        a = np.sort(rng.uniform(lo, hi, n))
        b = np.sort(rng.uniform(lo, hi, n))
        perm = rng.permutation(n)
        return parsed, _drawn_inputs(entry, None, (a[perm], b[perm]), config.interval)
    blocks = _DRAWS[entry.inputs_kind][0] or int(rng.integers(1, 5))
    dims = [int(rng.integers(dmin, dmax + 1)) for _ in range(blocks)]
    parsed["functions"] = _draw_functions(entry, ctx, rng)
    # one block's weights are the same drawn jointly or not
    joint = entry.ensemble_mode == SUM_OF_SQUARES
    drawn = _random_blocks(rng, dims, config.interval, joint)
    return parsed, _drawn_inputs(entry, entry.ensemble_mode, drawn, config.interval)


# ---------------------------------------------------------------------------
# suite execution


@dataclasses.dataclass
class TheoremTally:
    """Per-check verdict counts for one suite run."""

    holds: int = 0
    violated: int = 0
    hypothesis_not_met: int = 0
    dispatched_ge: int = 0
    dispatched_le: int = 0
    worst_gap: Optional[float] = None
    worst_trial: Optional[int] = None

    def record(self, trial: int, report: InequalityReport) -> None:
        if report.direction == ">=":
            self.dispatched_ge += 1
        else:
            self.dispatched_le += 1
        if report.verdict == HYPOTHESIS_NOT_MET:
            self.hypothesis_not_met += 1
            return
        if report.verdict == VIOLATED:
            self.violated += 1
        else:
            self.holds += 1
        if self.worst_gap is None or report.gap < self.worst_gap:
            self.worst_gap = report.gap
            self.worst_trial = trial

    def to_doc(self) -> dict:
        """The counts, one key per field in field order."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SuiteSummary:
    """Counts, the globally worst reproduction bundle, and the config that ran.

    Wall time is kept on the object for operators but deliberately left out of
    ``to_doc`` so serialized summaries are byte-stable across reruns.  The
    worst-gap bundle tracks verdicts that actually counted (gated-out trials
    carry no oriented claim).
    """

    config: TrialConfig
    tallies: dict[str, TheoremTally]
    worst: Optional[dict]
    wall_time_s: float

    def totals(self) -> dict:
        return {
            "holds": sum(t.holds for t in self.tallies.values()),
            "violated": sum(t.violated for t in self.tallies.values()),
            "hypothesis_not_met": sum(t.hypothesis_not_met for t in self.tallies.values()),
        }

    def to_doc(self) -> dict:
        return {
            "config": self.config.to_doc(),
            "theorems": {tid: tally.to_doc() for tid, tally in self.tallies.items()},
            "totals": self.totals(),
            "worst": self.worst,
        }

    def exit_code(self) -> int:
        return 1 if self.totals()["violated"] > 0 else 0


@quiet
def run_suite(
    config: TrialConfig,
    *,
    on_report: Optional[Callable[[str, int, InequalityReport], None]] = None,
) -> SuiteSummary:
    """Run ``config.trials`` random trials against every selected check.

    Checks execute in registry order regardless of the order ids were listed.
    Violation verdicts use the 10x roundoff separation factor, so a "violated"
    row is a genuine counterexample candidate, never numerical noise.
    """
    start = time.monotonic()
    selected = [e for e in REGISTRY_ORDER if e.theorem_id in set(config.theorem_ids)]
    ctx = _build_ctx(config, [e.theorem_id for e in selected])
    tallies: dict[str, TheoremTally] = {}
    worst: Optional[dict] = None
    rngs = _trial_rngs(config.seed, [e.ordinal for e in selected], config.trials)
    for entry in selected:
        tally = TheoremTally()
        tallies[entry.theorem_id] = tally
        for trial, rng in zip(range(config.trials), rngs):
            parsed, inputs = _trial_parsed(entry, ctx, rng)
            report = entry.run(parsed, inputs, tol_factor=VIOLATION_FACTOR)
            tally.record(trial, report)
            if report.verdict != HYPOTHESIS_NOT_MET and (
                worst is None or report.gap < worst["gap"]
            ):
                worst = {
                    "theorem": entry.theorem_id,
                    "trial": trial,
                    "gap": report.gap,
                    "scenario": report.inputs_digest,
                }
            if on_report is not None:
                on_report(entry.theorem_id, trial, report)
    return SuiteSummary(
        config=config,
        tallies=tallies,
        worst=worst,
        wall_time_s=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# falsification search


@dataclasses.dataclass(frozen=True)
class FalsifyResult:
    """Outcome of a hypothesis-dropping (or intact) counterexample search."""

    theorem_id: str
    drop: Optional[str]
    budget: int
    seed: int
    examined: int
    found: bool
    gap: Optional[float]
    verdict: Optional[str]
    scenario: Optional[dict]

    def to_doc(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "drop": self.drop,
            "budget": self.budget,
            "seed": self.seed,
            "examined": self.examined,
            "found": self.found,
            "gap": self.gap,
            "verdict": self.verdict,
            "scenario": self.scenario,
        }


# Most candidates one batch scores per function tuple, and most perturbation
# rounds, among which the refining candidates are split evenly.
_BATCH = 4096
_ROUNDS = 8


def _search_functions(
    entry: TheoremEntry, drop: Optional[str], interval: SpectralInterval, grid_n: int
) -> list[tuple[dict, list[ScalarFunction], float]]:
    """The function tuples a search scores: (free-slot functions, the checker's
    function arguments, the sign that orients its sides as the checker will).

    With synchrony dropped they come from the entry's asynchronous pool under
    the forced ``>=``; otherwise from both triple pools and that pool, each
    reduced to the slots the check takes, once each.  The pool's distinct
    descriptors are resolved once, and a tuple with a function not defined
    everywhere on the domain is skipped.  A check that dispatches its
    direction from the grid classification (its core takes a direction and
    does not claim the automatic hypothesis) is oriented the same way, and
    skips a mixed triple, which it would gate out.
    """
    pool = entry.sync_pool
    if drop != DROP_SYNCHRONY:
        pool = SYNC_TRIPLE_POOL + ASYNC_TRIPLE_POOL + pool
    domain = inverse_pair_hull(interval) if entry.hull else interval
    classify = drop != DROP_SYNCHRONY and "direction" in entry.forwards
    classify = classify and not entry.options.get("auto_hypothesis")
    frees: list[dict] = []
    for triple in pool:
        free = {slot: d for slot, d in zip(("f", "g", "h"), triple) if slot in entry.slots}
        if free not in frees:
            frees.append(free)
    distinct: list[dict] = []
    for desc in (d for free in frees for d in free.values()):
        if desc not in distinct:
            distinct.append(desc)
    valid = _valid_entries(distinct, domain)
    out: list[tuple[dict, list[ScalarFunction], float]] = []
    for free in frees:
        resolved = [fn for desc in free.values() for d, fn in valid if d == desc]
        if len(resolved) != len(free):
            continue
        given = dict(zip(free, resolved))
        fns = entry.functions(given)
        sign = 1.0
        if classify:
            implied = classify_synchrony(*fns, domain, grid_n).implied_direction()
            if implied is None:
                continue
            sign = 1.0 if implied == GE else -1.0
        out.append((given, fns, sign))
    if not out:
        where = domain.as_pair()
        raise ConfigInvalid(f"no search triple on {where} is defined everywhere and not mixed")
    return out


class _SearchPlan(NamedTuple):
    """What a search scores with: each tuple's free-slot functions as (slot,
    function) items, the distinct functions of all tuples by identity (as
    constant(0.0) == constant(-0.0)), each tuple's as a column of positions in
    them with its orienting sign (both read-only), a chain's link and constant,
    and the constructed candidate that answers the search without a search,
    if the drop is one of the entry's ``constructed`` and it certifies, with
    its report and the signs of the endpoints of the interval it was
    certified on.  ``falsify`` answers from that report only on an interval
    of the same signs and returns a copy of its scenario, so the report is
    never written to."""

    given: tuple[tuple[tuple[str, ScalarFunction], ...], ...]
    functions: tuple[ScalarFunction, ...]
    index: np.ndarray
    signs: np.ndarray
    link: Optional[int]
    constant: Optional[float]
    constructed: Optional[tuple[float, float, float, int]]
    certified: Optional[tuple[tuple[float, float], InequalityReport]]

    def values(self, ks: Sequence[int]) -> Callable:
        """The tuples ``ks``' values: their slots' values at ``points``, of shape
        (slots, len(ks), *points.shape), each plan function they use evaluated once."""
        columns = self.index[:, ks]
        used = set(columns.ravel().tolist())

        def values(points: np.ndarray) -> np.ndarray:
            vals = np.empty((len(self.functions), *points.shape))
            for j in used:
                vals[j] = self.functions[j].evaluate(points)
            return vals[columns]

        return values


def _draw_interval(drop: Optional[str], interval: SpectralInterval) -> SpectralInterval:
    """Where a search draws its atoms: [lo/2, 2 hi] with containment dropped,
    which must be finite and positive."""
    # the Kantorovich constant depends on hi/lo only, so containment widens by a ratio
    if drop == DROP_CONTAINMENT:
        lo, hi = interval.lo / 2.0, 2.0 * interval.hi
        if not (0.0 < lo and math.isfinite(hi)):
            raise ConfigInvalid(
                f"with {DROP_CONTAINMENT} dropped the search draws from [lo/2, 2 hi], which is "
                f"not finite and positive for the interval [{interval.lo}, {interval.hi}]"
            )
        return SpectralInterval(lo, hi)
    return interval


def _signs(interval: SpectralInterval) -> tuple[float, float]:
    """The signs of the interval's endpoints, which tell -0.0 from 0.0."""
    return math.copysign(1.0, interval.lo), math.copysign(1.0, interval.hi)


def _json_copy(doc):
    """A copy of a JSON tree of dicts and lists; its scalars are immutable."""
    if isinstance(doc, dict):
        return {key: _json_copy(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_json_copy(value) for value in doc]
    return doc


def _constructed(
    entry: TheoremEntry,
    drop: str,
    plan: _SearchPlan,
    interval: SpectralInterval,
    grid_n: int,
) -> Optional[tuple[tuple[float, float, float, int], InequalityReport]]:
    """The one candidate (s, t, w, k) that answers a search with ``drop`` in
    the entry's ``constructed`` drops, with its report on ``interval``, or
    None, and the search runs.

    - Synchrony: the gap is a non-negative multiple of the defect product
      D(s, t) = d_f(s, t) d_g(s, t), where d_f(s, t) = h(s)f(t) - h(t)f(s).
      Each tuple's certificate on the draw interval names the pair (s, t) of
      its most negative D.  The tuple k with the most negative, the first of
      equals, gives the two-atom measure (s, t; 1/2, 1/2), of gap D(s, t)/4,
      or one atom per operator, of gap D(s, t).  Tuples take
      a = (lo + 0.0, hi + 0.0) against b = (1, 0), of gap -(hi - lo)/4.
    - Spectral containment: the measure (lo/2, 2 hi; 1/2, 1/2) at the draw
      interval's endpoints attains Kantorovich's bound E[s]E[1/s] <= K(lo/2, 2 hi),
      the most of any measure there, so its gap K(lo, hi) - K(lo/2, 2 hi) is
      the most negative.
    - Normalization: two one-atom members at hi with weights 1/2, 1/2, of
      mean(a) mean(b) = 1/4 + w(1 - w)(l1 - l2)^2/(4 l1 l2) at its least and
      gap -3/4.

    The candidate answers the search only when its certification, made here
    once per plan, says "violated"; None when no grid pair makes D negative,
    a certificate meets a NaN, or the certification raises or finds no
    violation (its sides overflow, or its gap is within the violation
    tolerance of 0).
    """
    draw = _draw_interval(drop, interval)
    if drop == DROP_CONTAINMENT:
        candidate = (draw.lo, draw.hi, 0.5, 0)
    elif drop == DROP_NORMALIZATION:
        candidate = (draw.hi, draw.hi, 0.5, 0)
    elif entry.inputs_kind == TUPLES:
        # + 0.0, as the certificate's grid: a = (0, hi) whichever signed zero built the plan
        candidate = (draw.lo + 0.0, draw.hi + 0.0, 0.0, 0) if draw.lo < draw.hi else None
    else:
        least, candidate = 0.0, None
        for k in range(len(plan.given)):
            fns = [plan.functions[j] for j in plan.index[:, k]]
            try:
                verdict = classify_synchrony(*fns, draw, grid_n)
            except DomainViolation:
                return None
            if verdict.witness_neg is not None and verdict.min_product < least:
                least, candidate = verdict.min_product, (*verdict.witness_neg, 0.5, k)
    if candidate is None:
        return None
    try:
        report = _certify(entry, drop, plan, interval, grid_n, candidate)
    except OpineqError:
        return None
    return (candidate, report) if report.verdict == VIOLATED else None


@functools.lru_cache(maxsize=SEARCH_PLAN_MEMO_SIZE)
def _search_plan(
    entry: TheoremEntry, drop: Optional[str], interval: SpectralInterval, grid_n: int
) -> _SearchPlan:
    """The plan of a search on ``interval``, kept by value.  The search
    interval, not the draw interval, is the key, as the constant reads it.  An
    endpoint -0.0 shares its entry with 0.0: the pools probe and classify both
    alike."""
    draw = _draw_interval(drop, interval)
    tuples = _search_functions(entry, drop, draw, grid_n)
    link = entry.options.get("link")
    constant = kantorovich_constant(interval.lo, interval.hi) if link is not None else None
    distinct = {id(fn): fn for _, fns, _ in tuples for fn in fns}
    position = {key: j for j, key in enumerate(distinct)}
    index = np.array([[position[id(fn)] for fn in fns] for _, fns, _ in tuples], dtype=np.intp).T
    signs = np.array([sign for _, _, sign in tuples])
    index.setflags(write=False)
    signs.setflags(write=False)
    given = tuple(tuple(given.items()) for given, _, _ in tuples)
    plan = _SearchPlan(given, tuple(distinct.values()), index, signs, link, constant, None, None)
    answer = None
    if drop in entry.constructed:
        answer = _constructed(entry, drop, plan, interval, grid_n)
    if answer is not None:
        candidate, report = answer
        return plan._replace(constructed=candidate, certified=(_signs(interval), report))
    return plan


def _split(entry: TheoremEntry, drop: Optional[str], l1, l2, w) -> list:
    """A candidate, or a batch of them, split into the entry's members.

    Tuples are (a, b), each sorted, b against a with synchrony dropped.  Any
    other member is (atoms, weights): the two-atom measure (l1, l2; w, 1 - w),
    or one atom each, as unit states (two operators, per-vector ensembles) or
    with the weights w and 1 - w.
    """
    if entry.inputs_kind == TUPLES:
        a = np.sort(np.stack([l1, l2], axis=-1), axis=-1)
        b = np.sort(np.stack([w, 1.0 - w], axis=-1), axis=-1)
        return [a, b[..., ::-1] if drop == DROP_SYNCHRONY else b]
    if entry.members == 1:
        return [([l1, l2], [w, 1.0 - w])]
    if entry.inputs_kind == TWO_OP or _mode(entry, drop) == PER_VECTOR:
        return [([l1], [np.ones_like(w)]), ([l2], [np.ones_like(w)])]
    return [([l1], [w]), ([l2], [1.0 - w])]


def _mode(entry: TheoremEntry, drop: Optional[str]) -> Optional[str]:
    """The ensemble normalization a candidate is read under."""
    return SUM_OF_SQUARES if drop == DROP_NORMALIZATION else entry.ensemble_mode


def _columns(rows: list) -> np.ndarray:
    """np.stack(rows, axis=-1), C-contiguous as it is, without its per-call cost."""
    return np.array(rows).T.copy()


def _sides_args(entry: TheoremEntry, members: list, constant: Optional[float]) -> tuple:
    """What the entry's sides function reads of a batch, before its values,
    as the checker passes it; ``constant`` is a chain link's interval constant."""
    if entry.inputs_kind == TUPLES:
        return tuple(members)
    measures = [SpectralMeasure(_columns(atoms), _columns(weights)) for atoms, weights in members]
    if entry.inputs_kind == TWO_OP:
        return tuple(measures)
    if entry.ensemble_mode == PER_VECTOR:
        return (*_member_means(measures), [constant] * len(measures))
    mu = measures[0] if len(measures) == 1 else SpectralMeasure.concat(measures)
    return (mu,) if constant is None else (mu, constant)


def _scores(
    entry: TheoremEntry,
    drop: Optional[str],
    plan: _SearchPlan,
    ks: Sequence[int],
    l1: np.ndarray,
    l2: np.ndarray,
    w: np.ndarray,
    n: int,
) -> tuple:
    """The scores and thresholds of a batch's first ``n`` candidates under the
    tuples ``ks``, in one sides call: candidate j is row j % per under tuple
    ks[j // per].  Each candidate's score reads only its own two atoms."""
    args = _sides_args(entry, _split(entry, drop, l1, l2, w), plan.constant)
    if len(plan.index):  # the entry has function slots
        args += (plan.values(ks),)
    sides = entry.sides(*args)
    favored, other = sides if plan.link is None else sides[plan.link]
    # (len(ks), per) scores, read tuple after tuple
    score = plan.signs[ks][:, None] * (favored - other)
    scores = score.reshape(-1)[:n]
    thresholds = (score - tol_ineq(favored, other)).reshape(-1)[:n]
    finite = np.isfinite(scores)
    if not finite.all():
        scores = np.where(finite, scores, np.inf)
        thresholds = np.where(finite, thresholds, np.inf)
    return scores, thresholds


def _candidate_parsed(
    entry: TheoremEntry,
    drop: Optional[str],
    interval: SpectralInterval,
    grid_n: int,
    given: tuple[tuple[str, ScalarFunction], ...],
) -> dict:
    """The parsed scenario a candidate runs with: its functions, given as
    (slot, function) items, and the dropped hypothesis as the check's core takes it."""
    parsed: dict = {"grid_n": grid_n, "functions": dict(given)}
    if drop is not None and "gate_hypothesis" in entry.forwards:
        parsed["gate_hypothesis"] = False
    if drop == DROP_SYNCHRONY and "direction" in entry.forwards:
        parsed["direction"] = GE
    if drop == DROP_CONTAINMENT:
        if "bound_interval" in entry.forwards:
            parsed["bound_interval"] = interval
        else:
            parsed["per_op_intervals"] = [interval.as_pair()] * entry.members
    return parsed


def _certify(
    entry: TheoremEntry,
    drop: Optional[str],
    plan: _SearchPlan,
    interval: SpectralInterval,
    grid_n: int,
    candidate: tuple[float, float, float, int],
) -> InequalityReport:
    """The report of a candidate (lam1, lam2, w, k) of a search on ``interval``,
    run as a suite trial is, through the check's core at violation tolerance."""
    l1, l2, w, k = candidate
    members = _split(entry, drop, l1, l2, w)
    parsed = _candidate_parsed(entry, drop, interval, grid_n, plan.given[k])
    inputs = _drawn_inputs(entry, _mode(entry, drop), members, _draw_interval(drop, interval))
    return entry.run(parsed, inputs, tol_factor=VIOLATION_FACTOR)


class _NearestMiss:
    """The candidate a search keeps: the first examined among those whose score
    lies within tol_ineq of the least score, so summation noise between near
    ties never moves it.

    A candidate qualifies when score - tol <= least.  The least score only
    falls, so the first qualifier always has a threshold score - tol below
    every earlier candidate's; only those records are kept.
    """

    def __init__(self) -> None:
        self.least = math.inf
        self.records: list[tuple[float, tuple]] = []

    def offer(self, scores: np.ndarray, thresholds: np.ndarray, candidate: Callable) -> None:
        last = self.records[-1][0] if self.records else math.inf
        before = np.minimum.accumulate(np.concatenate(([last], thresholds)))[:-1]
        rows = np.flatnonzero(thresholds < before)
        if not self.records and (rows.size == 0 or rows[0] != 0):
            rows = np.concatenate(([0], rows))  # the first candidate stands until one qualifies
        self.records.extend((float(thresholds[j]), candidate(j)) for j in rows)
        self.least = min(self.least, float(scores.min()))

    def best(self) -> tuple:
        return next(c for threshold, c in self.records if threshold <= self.least)


def _search(
    entry: TheoremEntry,
    drop: Optional[str],
    plan: _SearchPlan,
    draw: SpectralInterval,
    budget: int,
    seed: int,
) -> tuple[float, float, float, int]:
    """The candidate (lam1, lam2, w, k) a random search of ``budget`` candidates
    drawn on ``draw`` keeps, as ``falsify`` describes it."""
    rng = trial_rng(seed, entry.ordinal, FALSIFY_STREAM)
    nearest = _NearestMiss()
    score = functools.partial(_scores, entry, drop, plan)
    reserve = min(256, budget // 10)
    examined, target = 0, budget - reserve
    while examined < target:
        per = max(1, min(_BATCH, -(-(target - examined) // len(plan.given))))
        l1 = rng.uniform(draw.lo, draw.hi, per)
        l2 = rng.uniform(draw.lo, draw.hi, per)
        w = rng.uniform(0.0, 1.0, per)
        n = min(per * len(plan.given), target - examined)
        ks = range(-(-n // per))
        nearest.offer(
            *score(ks, l1, l2, w, n),
            lambda j: (float(l1[j % per]), float(l2[j % per]), float(w[j % per]), ks[j // per]),
        )
        examined += n
    # round r moves (lam1, lam2, w) of the kept candidate by 0.1 * 0.6**r times
    # its block of one normal draw, scaled to the draw interval's span (w's by
    # 1) and clipped row by row to their ranges.  The rounds left are scored
    # together around the kept candidate, and again from the first round after
    # which it moves, so each round still moves the candidate kept before it.
    rounds = min(reserve, _ROUNDS)
    ends = [(reserve * (r + 1)) // rounds for r in range(rounds)]
    starts = [0, *ends[:-1]]
    if rounds:
        normal = rng.standard_normal(3 * reserve)
        blocks = [
            0.1 * 0.6**r * normal[3 * a : 3 * b].reshape(3, b - a)
            for r, (a, b) in enumerate(zip(starts, ends))
        ]
        span = max(draw.width, 1e-9)
        moves = np.concatenate(blocks, axis=1) * np.array([[span], [span], [1.0]])
    lows = np.array([[draw.lo], [draw.lo], [1e-9]])
    highs = np.array([[draw.hi], [draw.hi], [1.0 - 1e-9]])
    r = 0
    while r < rounds:
        center = c1, c2, cw, k = nearest.best()
        first = starts[r]
        l1, l2, w = np.clip(np.array([[c1], [c2], [cw]]) + moves[:, first:], lows, highs)
        scores, thresholds = score([k], l1, l2, w, reserve - first)
        for a, b in zip(starts[r:], ends[r:]):
            a, b = a - first, b - first
            nearest.offer(
                scores[a:b],
                thresholds[a:b],
                lambda j: (float(l1[a + j]), float(l2[a + j]), float(w[a + j]), k),
            )
            r += 1
            if nearest.best() is not center:
                break
    return nearest.best()


@quiet
def falsify(
    theorem_id: str,
    drop: Optional[str] = None,
    *,
    budget: int = 100_000,
    seed: int = 0,
    interval: Optional[SpectralInterval] = None,
    grid_n: int = DEFAULT_GRID_N,
) -> FalsifyResult:
    """Search for the most negative oriented gap, optionally dropping a hypothesis.

    ``drop`` disables exactly one precondition: "synchrony" forces the >=
    orientation with the gate off (tuples oppositely ordered),
    "spectral-containment" draws the spectrum from [lo/2, 2 hi] while the
    bound keeps [lo, hi], "normalization" feeds the averaged chain a
    sum-of-squares ensemble.

    Every check is searched one way.  A candidate is a two-atom measure
    (lam1, lam2; w, 1 - w), read as the entry's members and scored in batches
    under each function tuple by the checker's own sides function (+inf when
    not finite).  The function tuples, their orientation and the interval's
    constant are planned once per (check, drop, interval, grid_n) and kept in
    a process-wide memo of at most SEARCH_PLAN_MEMO_SIZE plans; a plan that
    raises is not kept, and ``falsify.cache_info()`` reports the memo's hits
    and misses.  A batch is scored under all its tuples in one sides call:
    its ``values`` evaluates each distinct plan function the tuples use once
    and gives the slots' values with a leading tuple axis.  The scores, tuple
    after tuple, pass the nearest-miss rule together, which keeps the same
    candidate as scoring the tuples one by one.  Up to eight perturbation rounds
    around the kept candidate, under its tuple, spend the last tenth of the
    budget, at most 256; their steps come from one normal draw.  The rounds
    left are scored in one call around the kept candidate and offered round
    by round, and scored again from the first round after which that
    candidate moves, which keeps the results of scoring round by round;
    exactly ``budget`` candidates are examined.

    A drop in the entry's ``constructed`` drops is not searched: the plan
    holds one candidate built for it (see ``_constructed``), so one candidate
    is examined whatever the budget and seed.  With synchrony dropped it is
    the pair the synchrony certificates name, as the gap is a non-negative
    multiple of the defect product D(s, t); with spectral containment
    dropped, the measure (lo/2, 2 hi; 1/2, 1/2) that attains Kantorovich's
    bound on the draw interval; with normalization dropped, two one-atom
    members at hi of weight 1/2 each, of gap -3/4.  Where no grid pair makes
    D negative (a degenerate interval), a certificate meets a NaN or that
    candidate's certification raises or finds no violation, it is searched
    as above.

    The kept candidate is certified as a suite trial is run, through the
    check's core at violation tolerance; that report's inputs document is
    ``scenario``, and ``found`` is true only when it says "violated".  A
    constructed candidate is certified once, when its plan is built, and
    the plan keeps the report: a later call answers from it with its own
    copy of the scenario.  It is certified again only on an interval whose
    zero endpoint has the other sign than the plan's, as the memo shares
    their plan but the scenario writes the interval as given.
    """
    if interval is not None and not isinstance(interval, SpectralInterval):
        raise ConfigInvalid("interval must be a SpectralInterval")
    entry = lookup(theorem_id)
    if drop is not None:
        if drop not in DROPPABLE:
            raise ConfigInvalid(f"drop must be one of {sorted(DROPPABLE)} or None, got {drop!r}")
        if drop not in entry.drops:
            applicable = ", ".join(sorted(e.theorem_id for e in REGISTRY_ORDER if drop in e.drops))
            raise ConfigInvalid(
                f"dropping {drop!r} does not apply to {theorem_id!r} (applies to: {applicable})"
            )
    read_integer(budget, "budget", (1, MAX_BUDGET))
    read_integer(seed, "seed", _SEED_RANGE)
    grid_n = read_grid_n(grid_n)
    iv = interval if interval is not None else SpectralInterval(1.0, 4.0)
    if entry.needs_positive and iv.lo <= 0.0:
        raise ConfigInvalid(f"{theorem_id!r} needs a positive interval, got {iv.as_pair()}")
    plan = _search_plan(entry, drop, iv, grid_n)
    if plan.certified is not None and plan.certified[0] == _signs(iv):
        report = plan.certified[1]
        examined, scenario = 1, _json_copy(report.inputs_digest)
    else:
        if plan.constructed is not None:
            examined, candidate = 1, plan.constructed
        else:
            draw = _draw_interval(drop, iv)
            examined, candidate = budget, _search(entry, drop, plan, draw, budget, seed)
        report = _certify(entry, drop, plan, iv, grid_n, candidate)
        scenario = report.inputs_digest
    found, gap, verdict = report.verdict == VIOLATED, report.gap, report.verdict
    return FalsifyResult(theorem_id, drop, budget, seed, examined, found, gap, verdict, scenario)


falsify.cache_info = _search_plan.cache_info
falsify.cache_clear = _search_plan.cache_clear
