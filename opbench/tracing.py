"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the package's public functions where its modules look
them up (a name imported into ``functionals`` is a separate binding from the one
in ``spectral``), records one span per wrapped call, and keeps counts at the
same boundaries.  A span's self time is its duration minus the time covered by
its child spans.  Bookkeeping done after a call (hashing certification keys,
measuring digest bytes) is subtracted from the enclosing span, so it lands in
no layer and shows only as tracing overhead.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import collections
import contextlib
import statistics
import sys
from time import perf_counter

import opineq
from opineq import functionals, ensembles, registry
from opineq.spectral import HermitianOperator
from opineq.functions import ScalarFunction

MAX_SPANS = 20_000

SAMPLE = ("random_operator", "random_state", "random_ensemble")
EXPECTATION = ("expectation", "expectation_product")
FUNCTIONALS_CHECKS = (
    "check_sign_bound",
    "check_square_bound",
    "kantorovich_chain",
    "check_two_operator",
    "check_mean_point",
    "check_inverse_pair",
)
ENSEMBLES_CHECKS = (
    "check_ensemble_sign_bound",
    "check_ensemble_square_bound",
    "check_ensemble_mean_point",
    "kantorovich_ensemble_chain",
    "discrete_chebyshev",
)
PARSE = ("load_json", "scenario_from_doc")

# Layers whose call counts and self times are reported, in output order.
TIMED_LAYERS = (
    "harness.sample",
    "harness.search",
    "spectral.operator",
    "spectral.expectation",
    "functions.certify",
    "functionals.check",
    "ensembles.check",
    "registry.run",
    "serialize.parse",
    "serialize.emit",
)


class _Frame:
    __slots__ = ("span_id", "child")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Spans and counts for one traced run; ``enabled`` gates recording."""

    def __init__(self) -> None:
        self.enabled = True
        self.origin = perf_counter()
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.certify_keys: set = set()
        self.run_s = collections.defaultdict(list)
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._canonical_json = opineq.canonical_json

    # -- recording ---------------------------------------------------------

    def timed(self, layer: str, fn, after=None, on_duration=None):
        """Wrap ``fn`` so that each call records a span of ``layer``."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = _Frame(self._next_id)
            parent = stack[-1].span_id if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame.child
                if stack:
                    stack[-1].child += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (frame.span_id, parent, layer, start - self.origin, end - self.origin)
                    )
                if on_duration is not None:
                    on_duration(duration)
            if after is not None:
                t0 = perf_counter()
                after(args, kwargs, result)
                if stack:
                    stack[-1].child += perf_counter() - t0
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (checks and input building)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    # -- bookkeeping hooks ----------------------------------------------------

    def _certify_key(self, args, kwargs, result) -> None:
        f, g, h, interval = args[:4]
        grid_n = args[4] if len(args) > 4 else kwargs.get("grid_n", opineq.DEFAULT_GRID_N)
        self.certify_keys.add((f, g, h, interval, grid_n))

    def _digest_bytes(self, args, kwargs, result) -> None:
        reports = result if isinstance(result, tuple) else (result,)
        for report in reports:
            self.counts["functionals.digest.bytes"] += len(self._canonical_json(report.inputs_digest))

    def _emit_bytes(self, args, kwargs, result) -> None:
        self.counts["serialize.emit.bytes"] += len(result)

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every package module namespace that binds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "opineq" or name.startswith("opineq.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name in SAMPLE:
            self._rebind(getattr(opineq, name), self.timed("harness.sample", getattr(opineq, name)))
        self._rebind(opineq.falsify, self.timed("harness.search", opineq.falsify))
        for name in EXPECTATION:
            fn = getattr(opineq, name)
            self._rebind(fn, self.timed("spectral.expectation", fn))
        self._rebind(
            opineq.classify_synchrony,
            self.timed("functions.certify", opineq.classify_synchrony, after=self._certify_key),
        )
        for module, names, layer in (
            (functionals, FUNCTIONALS_CHECKS, "functionals.check"),
            (ensembles, ENSEMBLES_CHECKS, "ensembles.check"),
        ):
            for name in names:
                fn = getattr(module, name)
                self._rebind(fn, self.timed(layer, fn, after=self._digest_bytes))
        for name in PARSE:
            fn = getattr(opineq, name)
            self._rebind(fn, self.timed("serialize.parse", fn))
        self._rebind(
            opineq.canonical_json,
            self.timed("serialize.emit", opineq.canonical_json, after=self._emit_bytes),
        )
        self._patch_attr(
            HermitianOperator,
            "__post_init__",
            self.timed("spectral.operator", HermitianOperator.__post_init__),
        )
        evaluate = ScalarFunction.evaluate

        def counted_evaluate(fn_self, points):
            if self.enabled:
                self.counts["functions.evaluate.calls"] += 1
            return evaluate(fn_self, points)

        self._patch_attr(ScalarFunction, "evaluate", counted_evaluate)
        self._patch_attr(ScalarFunction, "__call__", counted_evaluate)
        for entry in registry.REGISTRY_ORDER:
            runs = self.run_s[entry.theorem_id]
            wrapped = self.timed("registry.run", entry.run, on_duration=runs.append)
            self._restore.append((entry, "run", entry.run))
            object.__setattr__(entry, "run", wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, registry.TheoremEntry):
                object.__setattr__(owner, attr, original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["functions.certify.distinct"] = (len(self.certify_keys), "count")
        for name in (
            "functions.evaluate.calls",
            "functionals.digest.bytes",
            "serialize.emit.bytes",
            "harness.search.scalar.examined",
            "harness.search.generic.examined",
        ):
            out[name] = (self.counts[name], "bytes" if name.endswith("bytes") else "count")
        for entry in registry.REGISTRY_ORDER:
            runs = self.run_s[entry.theorem_id]
            out[f"registry.{entry.theorem_id}.run_us"] = (
                statistics.median(runs) * 1e6 if runs else 0.0,
                "us",
            )
        return out

    def trace_doc(self) -> dict:
        """Aggregates plus the first spans, for writing to a trace file."""
        return {
            "metrics": {name: value for name, (value, _) in self.metrics().items()},
            "span_fields": ["id", "parent", "layer", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": max(0, sum(self.calls.values()) - len(self.spans)),
        }
