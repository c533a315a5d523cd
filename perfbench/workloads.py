"""Workload shapes, seeded input generation and the expected check rows.

A shape names one CLI subcommand, the size of its input and the flags it is
run with.  Every op draws a fresh input from the workload seed, the shape and
the op index, so no two ops of a run (or of two runs with different seeds)
share an input.  The program only sees the JSON file written for the op.

Shape keys: n = symbol size, rN = Gram rank N, dN = chain depth N,
m = contraction size, wN = cyclic window N, s0 = ``--steps 0``.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    key: str
    command: str
    params: dict

    def argv(self, path: str) -> list[str]:
        """CLI arguments for one op on the input file at `path`."""
        p = self.params
        if self.command == "rota":
            return ["rota", path, "--depth", str(p["depth"]), "--steps", str(p["depth"])]
        if self.command == "secondquant":
            return ["secondquant", path, "--steps", str(p["steps"])]
        return [self.command, path]

    def payload(self, gen: np.random.Generator) -> dict:
        p = self.params
        if self.command in ("rota", "check-schur"):
            return _schur_payload(gen, p["n"], p["rank"])
        if self.command == "fourier":
            return _group_payload(gen, p["group"], p["draw"])
        return _contraction_payload(gen, p["m"], p["window"])

    def expected_checks(self) -> list[str]:
        """Check-row names the CLI must report for this shape, in order."""
        p = self.params
        if self.command == "rota":
            depth = p["depth"]
            rows = [f"markov_{kind}_{n}_{q}"
                    for n in range(depth + 1) for q in range(n, depth + 1)
                    for kind in ("past", "future", "shift")]
            return rows + [f"rota_{depth}"]
        if self.command == "check-schur":
            return ["symbol_unital", "symbol_self_adjoint", "symbol_psd",
                    "markov_unital", "markov_cp", "markov_state_preserving",
                    "markov_modular", "d_self_adjoint", "d_squares_to_identity",
                    "d_in_centralizer", "factorization"] + \
                [f"morphism_{prop}" for prop in
                 ("unital", "multiplicative", "star", "state_preserving", "modular")] + \
                ["star_swap"]
        if self.command == "fourier":
            return ["posdef_unital", "posdef_self_adjoint", "posdef_psd",
                    "w_self_adjoint", "w_squares_to_identity", "orthogonal",
                    "action_homomorphism", "field_covariance", "fourier_identity"]
        levels = min(p["steps"], p["window"])
        rows = ["unitary", "strong_dilation"] + [f"ppnp_{n}" for n in range(levels + 1)]
        rows.append("gamma_identity")
        if p["m"] <= 2:
            rows.append("gamma_factorization")
        return rows + [f"rota_secondquant_{n}" for n in range(1, levels + 1)]


def _chain(n, rank, depth):
    return Shape(f"{n}x{n}-r{rank}-d{depth}", "rota", {"n": n, "rank": rank, "depth": depth})


def _schur(n):
    return Shape(f"schur-{n}", "check-schur", {"n": n, "rank": n})


def _group(key, spec, draw="spectral"):
    return Shape(key, "fourier", {"group": spec, "draw": draw})


def _contraction(m, window, steps=2):
    key = f"m{m}-w{window}" + ("" if steps == 2 else f"-s{steps}")
    return Shape(key, "secondquant", {"m": m, "window": window, "steps": steps})


@dataclass(frozen=True)
class Workload:
    shapes: tuple[Shape, ...]
    small: str
    large: str
    # The small shape runs this many times per pass, so that its median
    # rests on enough samples although it adds little to a pass.
    small_repeats: int = 1

    def shape(self, key: str) -> Shape:
        return next(s for s in self.shapes if s.key == key)

    def plan(self) -> tuple[Shape, ...]:
        """The ops of one pass, in order.

        The extra small ops are spread evenly through the pass: the
        machine's speed drifts over fractions of a second, and samples
        taken back to back would all see the same drift.
        """
        small, extra, count = self.shape(self.small), self.small_repeats - 1, len(self.shapes)
        ops = []
        for i, shape in enumerate(self.shapes):
            ops.append(shape)
            ops.extend([small] * ((i + 1) * extra // count - i * extra // count))
        return tuple(ops)


# Why each workload and shape is here, and which shapes were left out for
# cost, is written up in README.md next to this file.
WORKLOADS = {
    "chain": Workload(
        (_chain(2, 2, 2), _chain(2, 1, 3), _chain(3, 3, 1), _chain(3, 1, 3), _chain(3, 2, 2)),
        small="2x2-r2-d2", large="3x3-r2-d2", small_repeats=3),
    "multipliers": Workload(
        tuple(_schur(n) for n in (2, 3, 4, 5)) +
        tuple(_group(f"cyclic-{m}", f"cyclic:{m}") for m in range(2, 7)),
        small="cyclic-5", large="cyclic-6", small_repeats=10),
    "secondquant": Workload(
        (_contraction(1, 1), _contraction(1, 2, steps=1), _contraction(1, 2),
         _contraction(2, 1, steps=0)),
        small="m1-w2-s1", large="m1-w2", small_repeats=2),
    # Inputs that expose known program defects.  Not part of BENCHMARK.json,
    # whose workloads must run without failures; run it by name to see the
    # defects and, once fixed, to show that they are gone.
    "defects": Workload(
        (_contraction(1, 3), _group("s3", "s3", "autocorrelation"),
         _group("dihedral-3", "dihedral:3", "autocorrelation"),
         _group("cyclic-6-ac", "cyclic:6", "autocorrelation")),
        small="s3", large="m1-w3"),
}


def op_rng(seed: int, shape: Shape, index: int) -> np.random.Generator:
    """Generator for op `index` of `shape` under the workload seed."""
    return np.random.default_rng([seed, zlib.crc32(shape.key.encode()), index])


def write_input(path: str, seed: int, shape: Shape, index: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(shape.payload(op_rng(seed, shape, index)), fh)


# ---------------------------------------------------------------------------
# payloads


def _weights(gen, n):
    w = 0.05 + gen.random(n)
    return w / w.sum()


def _schur_payload(gen, n, rank):
    """Unital real PSD symbol of the given rank: Gram matrix of unit vectors."""
    v = gen.standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t = v @ v.T
    t = (t + t.T) / 2
    np.fill_diagonal(t, 1.0)
    return {"symbol": t.tolist(), "weights": _weights(gen, n).tolist()}


def _cayley_table(spec: str) -> np.ndarray:
    """Cayley tables in the element order the CLI uses for the same spec."""
    if spec.startswith("cyclic:"):
        m = int(spec.split(":")[1])
        idx = np.arange(m)
        return (idx[:, None] + idx[None, :]) % m
    if spec.startswith("dihedral:"):
        k = int(spec.split(":")[1])
        table = np.empty((2 * k, 2 * k), dtype=np.int64)
        for g, h in itertools.product(range(2 * k), repeat=2):
            r1, s1, r2, s2 = g % k, g // k, h % k, h // k
            table[g, h] = ((r1 - r2) if s1 else (r1 + r2)) % k + k * (s1 ^ s2)
        return table
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                     for p in perms])


def _group_payload(gen, spec, draw):
    """Positive-definite coefficients t with t_e = 1 and t_g = t_{g^-1}.

    "autocorrelation": t_g = <lambda(g) u, u> / <u, u> for a random vector u.
    Its Gram matrix is often ill-conditioned, which exposes a known defect.
    "spectral" (cyclic groups only): the Gram matrix is circulant with random
    eigenvalues in [0.2, 1], rescaled to mean 1, so its condition number is
    at most 5.
    """
    table = _cayley_table(spec)
    m = table.shape[0]
    if draw == "autocorrelation":
        u = gen.standard_normal(m) + 0.1
        t = np.array([u[table[g]] @ u for g in range(m)]) / (u @ u)
    else:
        lam = gen.uniform(0.2, 1.0, m)
        lam = (lam + lam[-np.arange(m)]) / 2
        t = np.fft.ifft(lam / lam.mean()).real
    return {"group": spec, "t": t.tolist()}


def _contraction_payload(gen, m, window):
    """Symmetric contraction with spectral radius drawn from [0.2, 0.95]."""
    a = gen.standard_normal((m, m))
    a = (a + a.T) / 2
    a *= gen.uniform(0.2, 0.95) / np.abs(np.linalg.eigvalsh(a)).max()
    return {"matrix": a.tolist(), "window": window}
