"""Spans around the library's public calls, recorded from outside the library.

The traced run wraps each timed public function wherever a dilation_lab
module refers to it (the CLI's imports and the builders' own imports), then
drives the CLI as the untraced run does.  So the calls happen in exactly the
order the CLI runners make them.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; per-layer busy seconds are sums of self time, so no second
is counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

# Public calls timed: (module, function, layer metric prefix).
TIMED_CALLS = (
    ("condexp", "word_closure", "condexp.closure"),
    ("chain", "build_chain", "chain.build"),
    ("chain", "verify_markov_property", "chain.markov_verify"),
    ("chain", "verify_rota", "chain.rota_verify"),
    ("chain", "build_schaffer", "chain.schaffer"),
    ("chain", "verify_ppnp", "chain.ppnp"),
    ("chain", "verify_gamma_factorization", "chain.gamma_factorization"),
    ("chain", "verify_rota_secondquant", "chain.rota_secondquant"),
    ("dilation", "build_dilation", "dilation.build"),
    ("dilation", "verify_factorization", "dilation.factorization"),
    ("dilation", "verify_morphism_markov", "dilation.morphism"),
    ("dilation", "star_swap_check", "dilation.star_swap"),
    ("fourier", "build_crossed_dilation", "fourier.build"),
    ("fourier", "verify_covariance", "fourier.covariance"),
    ("fourier", "verify_fourier_identity", "fourier.identity"),
    ("fock", "build_fermion_rep", "fock.rep"),
    ("fock", "second_quantize", "fock.second_quantize"),
    ("schur", "certify_symbol", "schur.certify"),
    ("fourier", "certify_posdef", "schur.certify"),
    ("schur", "build_gram_space", "schur.gram"),
    ("states", "markov_residuals", "states.markov_residuals"),
)

# Modules whose namespaces may hold a reference to a timed function.
PATCHED_MODULES = ("cli", "chain", "condexp", "dilation", "fock", "fourier", "schur", "states")

COMPLEX_BYTES = 16


def _closure_counts(basis) -> dict:
    """Closure sizes, and the computed bytes of the last pairwise-product stack."""
    vec_len = basis.dim * basis.dim
    return {"condexp.closure_calls": 1, "condexp.closure_size": basis.size,
            "condexp.closure_vec_len": vec_len,
            "condexp.closure_bytes": basis.size ** 2 * vec_len * COMPLEX_BYTES}


# What each layer reports about its result, keyed by function name.
COUNTERS = {
    "word_closure": _closure_counts,
    "build_chain": lambda chain: {"chain.ambient_dim": chain.ambient_dim},
    "build_dilation": lambda bundle: {"dilation.ambient_dim": bundle.ambient_dim},
    "build_crossed_dilation": lambda bundle: {"fourier.ambient_dim": bundle.ambient_dim},
    "build_fermion_rep": lambda rep: {"fock.fock_dim": rep.dim},
    "second_quantize": lambda m: {"fock.second_quantize_calls": 1,
                                  "fock.superop_bytes": m.super.size * COMPLEX_BYTES},
    "build_gram_space": lambda gram: {"schur.gram_rank": gram.rank},
}

# Counters combined over a pass by their largest value; the rest are summed.
MAX_COUNTERS = frozenset({"condexp.closure_vec_len", "chain.ambient_dim",
                          "dilation.ambient_dim", "fourier.ambient_dim",
                          "fock.fock_dim", "schur.gram_rank"})


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the timed calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every timed function in every module namespace referring to it."""
        modules = [getattr(package, name) for name in PATCHED_MODULES]
        for home, func_name, layer in TIMED_CALLS:
            original = getattr(getattr(package, home), func_name)
            traced = self.wrap(layer, original, COUNTERS.get(func_name))
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._restore.append((module, func_name, original))
                    setattr(module, func_name, traced)

    def uninstall(self) -> None:
        while self._restore:
            module, func_name, original = self._restore.pop()
            setattr(module, func_name, original)

    def per_op(self) -> dict[int, dict]:
        """Per op: self seconds by layer, counters, top-level span seconds, span count."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        ops: dict[int, dict] = {}
        for span in self.spans:
            entry = ops.setdefault(span.op, {"self_s": {}, "counts": {},
                                             "top_s": 0.0, "spans": 0})
            entry["spans"] += 1
            duration = span.end - span.start
            if span.parent is None:
                entry["top_s"] += duration
            key = span.name + "_s"
            entry["self_s"][key] = entry["self_s"].get(key, 0.0) + duration - child_time[span.span_id]
            for name, value in span.counts.items():
                old = entry["counts"].get(name, 0)
                entry["counts"][name] = max(old, value) if name in MAX_COUNTERS else old + value
        return ops

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(span) for span in self.spans], fh)


def span_cost(repeats: int = 20000) -> float:
    """Measured seconds a traced call adds over a plain call of a no-op."""
    def noop():
        pass

    traced = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        traced()
    middle = time.perf_counter()
    for _ in range(repeats):
        noop()
    end = time.perf_counter()
    return max((middle - start) - (end - middle), 0.0) / repeats
