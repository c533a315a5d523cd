"""Command line driver: parse inputs, run verification suites, report JSON.

Report format on stdout: {"checks": [{name, residual, tol, pass}...],
"pass": bool, "seed": int}; a human summary with the wall-clock duration
goes to stderr so the machine report stays byte-identical across runs.
Exit codes: 0 all checks pass, 1 a check failed, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

import numpy as np

from . import config
from .chain import (build_chain, build_schaffer, verify_gamma_factorization,
                    verify_markov_property, verify_ppnp, verify_rota,
                    verify_rota_secondquant)
from .dilation import build_dilation, star_swap_check, verify_factorization, verify_morphism_markov
from .errors import DilationLabError, SizeError
from .fock import build_fermion_rep, second_quantize
from .fourier import (FourierSymbol, FiniteGroup, build_crossed_dilation, certify_posdef,
                      cyclic_group, dihedral_group, symmetric_group,
                      verify_covariance, verify_fourier_identity)
from .matcore import max_abs
from .schur import GramSpace, SchurSymbol, certify_symbol, multiplier_map
from .states import DiagonalState, markov_residuals


def _fixture_path(name: str):
    return resources.files("dilation_lab") / "fixtures" / name


def _load_json(path, default_fixture: str) -> dict:
    if path is None:
        text = _fixture_path(default_fixture).read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("input file must hold a JSON object")
    return data


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real_array(value, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float array; strings and booleans are refused."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif not _is_number(item):
            raise ValueError(f"{what} must hold numbers, got {item!r}")
    return np.asarray(value, dtype=float)


def _entry(value) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(p) for p in value):
        return complex(value[0], value[1])
    raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {value!r}")


def _parse_symbol(data: dict) -> tuple[SchurSymbol, DiagonalState]:
    matrix = np.array([[_entry(v) for v in row] for row in data["symbol"]])
    return SchurSymbol(matrix), DiagonalState(_real_array(data["weights"], "weights"))


def _parse_group(data: dict) -> FourierSymbol:
    spec = data["group"]
    if isinstance(spec, dict):
        group = FiniteGroup(np.asarray(spec["table"], dtype=np.int64))
    elif spec == "s3":
        group = symmetric_group(3)
    elif isinstance(spec, str) and spec.startswith("cyclic:"):
        group = cyclic_group(int(spec.split(":", 1)[1]))
    elif isinstance(spec, str) and spec.startswith("dihedral:"):
        group = dihedral_group(int(spec.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown group spec {spec!r}")
    return FourierSymbol(group, _real_array(data["t"], "t"))


def _parse_contraction(data: dict, window_flag: int | None) -> tuple[np.ndarray, int]:
    matrix = _real_array(data["matrix"], "matrix")
    window = data["window"] if window_flag is None else window_flag
    if not (_is_number(window) and isinstance(window, int)):
        raise ValueError(f"window must be an integer, got {window!r}")
    return matrix, window


class Checks:
    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, residual: float, tol: float) -> bool:
        ok = bool(residual <= tol)
        self.rows.append({"name": name, "residual": float(residual),
                          "tol": float(tol), "pass": ok})
        return ok

    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)


def run_check_schur(args) -> tuple[Checks, int]:
    symbol, state = _parse_symbol(_load_json(args.input, "schur2.json"))
    checks = Checks()
    report = certify_symbol(symbol, tol=args.tol)
    checks.add("symbol_unital", report.unital_residual, args.tol)
    checks.add("symbol_self_adjoint", report.self_adjoint_residual, args.tol)
    checks.add("symbol_psd", report.psd_residual, config.TOL_PSD)

    mres = markov_residuals(multiplier_map(symbol), state)
    checks.add("markov_unital", mres["unital"], args.tol)
    # certify_markov allows a Choi Hermiticity defect up to --tol but negative
    # mass only up to TOL_PSD; rescaling the defect keeps one tol on the row.
    checks.add("markov_cp", max(mres["cp_negative"],
                                mres["cp_hermitian"] * config.TOL_PSD / args.tol),
               config.TOL_PSD)
    checks.add("markov_state_preserving", mres["state_preserving"], args.tol)
    checks.add("markov_modular", mres["modular"], args.tol)

    if not report.ok:
        return checks, 1

    bundle = build_dilation(symbol, state)
    d = bundle.d
    w = bundle.ambient_state.weights
    checks.add("d_self_adjoint", max_abs(d - d.conj().T), config.TOL_EXACT)
    checks.add("d_squares_to_identity",
               max_abs(d @ d - np.eye(bundle.ambient_dim)), config.TOL_EXACT)
    # d D - D d with the diagonal density D = diag(w), as broadcasts
    checks.add("d_in_centralizer", max_abs(d * w[None, :] - w[:, None] * d), config.TOL_EXACT)

    checks.add("factorization",
               verify_factorization(bundle, symbol, state,
                                    samples=args.samples, seed=args.seed),
               args.tol)
    morphisms = verify_morphism_markov(bundle, samples=max(2, args.samples // 4),
                                       seed=args.seed)
    for prop in ("unital", "multiplicative", "star", "state_preserving", "modular"):
        worst = max(getattr(rep, prop) for rep in morphisms.values())
        checks.add(f"morphism_{prop}", worst, args.tol)
    checks.add("star_swap",
               star_swap_check(bundle, symbol, state,
                               samples=args.samples, seed=args.seed),
               args.tol)
    return checks, 0 if checks.all_pass() else 1


def run_rota(args) -> tuple[Checks, int]:
    symbol, state = _parse_symbol(_load_json(args.input, "schur2.json"))
    chain = build_chain(symbol, state, args.depth)
    if not 1 <= args.steps <= args.depth:
        raise DilationLabError(
            f"steps {args.steps} must lie in 1..depth ({args.depth})")
    checks = Checks()
    for n in range(args.depth + 1):
        for q in range(n, args.depth + 1):
            res = verify_markov_property(chain, n, q)
            checks.add(f"markov_past_{n}_{q}", res["past"], args.tol)
            checks.add(f"markov_future_{n}_{q}", res["future"], args.tol)
            checks.add(f"markov_shift_{n}_{q}", res["shift"], args.tol)
    checks.add(f"rota_{args.steps}", verify_rota(chain, args.steps), args.tol)
    return checks, 0 if checks.all_pass() else 1


def run_fourier(args) -> tuple[Checks, int]:
    symbol = _parse_group(_load_json(args.input, "group_z2.json"))
    checks = Checks()
    report = certify_posdef(symbol, tol=args.tol)
    checks.add("posdef_unital", report.unital_residual, args.tol)
    checks.add("posdef_self_adjoint", report.self_adjoint_residual, args.tol)
    checks.add("posdef_psd", report.psd_residual, config.TOL_PSD)
    if not report.ok:
        return checks, 1

    bundle = build_crossed_dilation(symbol)
    w = bundle.d
    checks.add("w_self_adjoint", max_abs(w - w.conj().T), config.TOL_EXACT)
    checks.add("w_squares_to_identity",
               max_abs(w @ w - np.eye(bundle.ambient_dim)), config.TOL_EXACT)
    for name, residual in verify_covariance(bundle).items():
        checks.add(name, residual, args.tol)
    checks.add("fourier_identity",
               verify_fourier_identity(bundle, symbol, samples=args.samples,
                                       seed=args.seed),
               args.tol)
    return checks, 0 if checks.all_pass() else 1


def run_secondquant(args) -> tuple[Checks, int]:
    t, window = _parse_contraction(_load_json(args.input, "contraction1.json"),
                                   args.window)
    if args.steps < 0:
        raise DilationLabError(f"steps {args.steps} must be nonnegative")
    dil = build_schaffer(t, window)
    checks = Checks()
    u = dil.unitary
    checks.add("unitary", max_abs(u.T @ u - np.eye(u.shape[0])), config.TOL_EXACT)
    worst = 0.0
    for k in range(2 * window + 1):
        worst = max(worst, max_abs(
            dil.compress(k) - np.linalg.matrix_power(dil.contraction, k)))
    checks.add("strong_dilation", worst, 1e-10)
    for n in range(min(args.steps, window) + 1):
        checks.add(f"ppnp_{n}", verify_ppnp(dil, n), args.tol)

    m = t.shape[0]
    rep = build_fermion_rep(GramSpace.standard(m))
    gamma_id = second_quantize(rep, rep, np.eye(m))
    checks.add("gamma_identity",
               max_abs(gamma_id.super - np.eye(rep.dim ** 2)), 0.0)
    if m <= 2:
        checks.add("gamma_factorization", verify_gamma_factorization(t), args.tol)
    try:
        for n in range(1, min(args.steps, window) + 1):
            checks.add(f"rota_secondquant_{n}",
                       verify_rota_secondquant(t, window, n), args.tol)
    except SizeError:
        pass  # Fock lift of the window space over budget; plain checks stand
    return checks, 0 if checks.all_pass() else 1


_RUNNERS = {
    "check-schur": run_check_schur,
    "rota": run_rota,
    "fourier": run_fourier,
    "secondquant": run_secondquant,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilation-lab",
        description="Verify multiplier dilation identities at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check-schur": "factorize and dilate an entrywise multiplier",
        "rota": "chain Markov and iterated-expectation identities",
        "fourier": "group multiplier dilation in the crossed product",
        "secondquant": "shifted unitary dilation and its Fock lift",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default=None,
                       help="JSON input file (defaults to the shipped fixture)")
        p.add_argument("--tol", type=float, default=config.TOL_NUM)
        p.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
        p.add_argument("--samples", type=int, default=20)
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--steps", type=int, default=1 if name == "rota" else 2)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not (np.isfinite(args.tol) and args.tol > 0):
        print(f"error: tolerance must be a positive finite number, got {args.tol}", file=sys.stderr)
        return 2
    if args.samples < 0:
        print(f"error: samples must be nonnegative, got {args.samples}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        checks, code = _RUNNERS[args.command](args)
    except (DilationLabError, OSError, KeyError, TypeError, ValueError,
            json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    duration_ms = 1000.0 * (time.perf_counter() - start)
    report = {"checks": checks.rows, "pass": checks.all_pass(), "seed": int(args.seed)}
    print(json.dumps(report, indent=2))
    passed = sum(1 for row in checks.rows if row["pass"])
    print(f"{args.command}: {passed}/{len(checks.rows)} checks passed "
          f"in {duration_ms:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
