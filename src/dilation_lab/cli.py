"""Command line driver: parse inputs, run verification suites, report JSON.

Report format on stdout: {"checks": [{name, residual, tol, pass}...],
"pass": bool, "seed": int}; a human summary with the wall-clock duration
goes to stderr so the machine report stays byte-identical across runs.
Exit codes: 0 all checks pass, 1 a check failed, 2 unusable input or an
allocation that failed.
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
from .dilation import (build_dilation, star_swap_check, verify_factorization,
                       verify_morphism_markov, verify_symmetry)
from .errors import DilationLabError, SizeError
from .fock import build_fermion_rep, second_quantize
from .fourier import (FourierSymbol, FiniteGroup, build_crossed_dilation, certify_posdef,
                      cyclic_group, dihedral_group, symmetric_group,
                      verify_covariance, verify_fourier_identity)
from .matcore import max_abs
from .schur import GramSpace, SchurSymbol, certify_symbol, multiplier_map, symbol_tolerances
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


def _int_table(value) -> np.ndarray:
    """Rows of JSON integers as an int64 array; floats, strings, booleans,
    deeper nesting and integers beyond int64 are refused."""
    for row in value if isinstance(value, list) else [value]:
        for item in row if isinstance(row, list) else [row]:
            if isinstance(item, bool) or not isinstance(item, int) or abs(item) >= 2 ** 63:
                raise ValueError(f"group table must hold integers, got {item!r}")
    return np.asarray(value, dtype=np.int64)


def _entry(value) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(p) for p in value):
        return complex(value[0], value[1])
    raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {value!r}")


def _field(data: dict, name: str):
    if name not in data:
        raise ValueError(f"input is missing field {name!r}")
    return data[name]


def _parse_symbol(data: dict) -> tuple[SchurSymbol, DiagonalState]:
    rows = _field(data, "symbol")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"symbol must be a list of rows, got {rows!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("symbol rows must all have the same length")
    matrix = np.array([[_entry(v) for v in row] for row in rows])
    return SchurSymbol(matrix), DiagonalState(_real_array(_field(data, "weights"), "weights"))


def _parse_group(data: dict) -> FourierSymbol:
    spec = _field(data, "group")
    if isinstance(spec, dict):
        group = FiniteGroup(_int_table(_field(spec, "table")))
    elif spec == "s3":
        group = symmetric_group(3)
    elif isinstance(spec, str) and spec.startswith(("cyclic:", "dihedral:")):
        kind, order = spec.split(":", 1)
        try:
            order = int(order)
        except ValueError:
            raise ValueError(f"unknown group spec {spec!r}") from None
        group = (cyclic_group if kind == "cyclic" else dihedral_group)(order)
    else:
        raise ValueError(f"unknown group spec {spec!r}")
    return FourierSymbol(group, _real_array(_field(data, "t"), "t"))


def _parse_contraction(data: dict, window_flag: int | None) -> tuple[np.ndarray, int]:
    matrix = _real_array(_field(data, "matrix"), "matrix")
    window = _field(data, "window") if window_flag is None else window_flag
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
    tols = symbol_tolerances(args.tol)
    certified = all([checks.add(f"symbol_{name}", residual, tols[name])
                     for name, residual in certify_symbol(symbol, tol=args.tol).items()])

    mres = markov_residuals(multiplier_map(symbol), state)
    checks.add("markov_unital", mres["unital"], args.tol)
    # a CP map's Choi matrix is Hermitian within --tol and has negative
    # eigenvalue mass within TOL_PSD; rescaling the defect by TOL_PSD / --tol
    # judges both on one row against TOL_PSD.
    checks.add("markov_cp", max(mres["cp_negative"],
                                mres["cp_hermitian"] * config.TOL_PSD / args.tol),
               config.TOL_PSD)
    checks.add("markov_state_preserving", mres["state_preserving"], args.tol)
    checks.add("markov_modular", mres["modular"], args.tol)

    if not certified:
        return checks, 1

    bundle = build_dilation(symbol, state, tol=args.tol)
    for name, residual in verify_symmetry(bundle).items():
        checks.add(f"d_{name}", residual, config.TOL_EXACT)
    # block i of d D - D d, with the density's block D_i = diag(w[i])
    w = bundle.ambient_state.weights.reshape(bundle.blocks.shape[:2])
    checks.add("d_in_centralizer",
               max_abs(bundle.blocks * w[:, None, :] - w[:, :, None] * bundle.blocks),
               config.TOL_EXACT)

    checks.add("factorization",
               verify_factorization(bundle, symbol, state,
                                    samples=args.samples, seed=args.seed),
               args.tol)
    morphisms = verify_morphism_markov(bundle, samples=max(2, args.samples // 4),
                                       seed=args.seed)
    for prop in ("unital", "multiplicative", "star", "state_preserving", "modular"):
        checks.add(f"morphism_{prop}",
                   max(morphisms[f"pi_{prop}"], morphisms[f"rho_{prop}"]), args.tol)
    checks.add("star_swap",
               star_swap_check(bundle, symbol, state,
                               samples=args.samples, seed=args.seed),
               args.tol)
    return checks, 0 if checks.all_pass() else 1


def run_rota(args) -> tuple[Checks, int]:
    symbol, state = _parse_symbol(_load_json(args.input, "schur2.json"))
    if args.depth < 1:
        raise DilationLabError(f"depth {args.depth} must be at least 1")
    if not 1 <= args.steps <= args.depth:
        raise DilationLabError(
            f"steps {args.steps} must lie in 1..depth ({args.depth})")
    chain = build_chain(symbol, state, args.depth, tol=args.tol)
    checks = Checks()
    for (n, q), res in verify_markov_property(chain).items():
        for kind in ("past", "future", "shift"):
            checks.add(f"markov_{kind}_{n}_{q}", res[kind], args.tol)
    checks.add(f"rota_{args.steps}", verify_rota(chain, args.steps), args.tol)
    return checks, 0 if checks.all_pass() else 1


def run_fourier(args) -> tuple[Checks, int]:
    symbol = _parse_group(_load_json(args.input, "group_z2.json"))
    checks = Checks()
    tols = symbol_tolerances(args.tol)
    certified = all([checks.add(f"posdef_{name}", residual, tols[name])
                     for name, residual in certify_posdef(symbol, tol=args.tol).items()])
    if not certified:
        return checks, 1

    bundle = build_crossed_dilation(symbol, tol=args.tol)
    for name, residual in verify_symmetry(bundle).items():
        checks.add(f"w_{name}", residual, config.TOL_EXACT)
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
    for k, image in enumerate(dil.orbit(2 * window + 1)):
        worst = max(worst, max_abs(
            dil.embed.T @ image - np.linalg.matrix_power(dil.contraction, k)))
    checks.add("strong_dilation", worst, 1e-10)
    for n in range(min(args.steps, window) + 1):
        checks.add(f"ppnp_{n}", verify_ppnp(dil, n), args.tol)

    m = t.shape[0]
    rep = build_fermion_rep(GramSpace.standard(m))
    gamma_id = second_quantize(rep, rep, np.eye(m))
    checks.add("gamma_identity",
               max_abs(gamma_id.super - np.eye(rep.dim ** 2)), 0.0)
    if m <= 2:
        checks.add("gamma_factorization", verify_gamma_factorization(dil), args.tol)
    levels = min(args.steps, window)
    try:
        residuals = verify_rota_secondquant(dil, levels) if levels else []
    except SizeError as exc:
        # Fock lift of the window space over budget; plain checks stand
        skipped = ", ".join(f"rota_secondquant_{n}" for n in range(1, levels + 1))
        print(f"skipped {skipped}: {exc}", file=sys.stderr)
        residuals = []
    for n, residual in enumerate(residuals, 1):
        checks.add(f"rota_secondquant_{n}", residual, args.tol)
    return checks, 0 if checks.all_pass() else 1


def _report_text(report: dict) -> str:
    """json.dumps(report, indent=2) byte for byte, for the report's one shape.

    indent selects the pure-Python encoder, so the C encoder writes the parts.
    Its item separator puts each row's items on lines of their own; a JSON
    string holds no raw newline, so "}" + separator + "{" only joins two rows."""
    rows = json.dumps(report["checks"], separators=(",\n      ", ": "))
    if report["checks"]:
        rows = ("[\n    {\n      " + rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                + "\n    }\n  ]")
    return (f'{{\n  "checks": {rows},\n  "pass": {json.dumps(report["pass"])},\n'
            f'  "seed": {json.dumps(report["seed"])}\n}}')


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
    # every subcommand takes --tol and --seed; these are its integer flags
    specs = {
        "check-schur": ("factorize and dilate an entrywise multiplier", {"samples": 20}),
        "rota": ("chain Markov and iterated-expectation identities",
                 {"depth": 2, "steps": 1}),
        "fourier": ("group multiplier dilation in the crossed product", {"samples": 20}),
        "secondquant": ("shifted unitary dilation and its Fock lift",
                        {"window": None, "steps": 2}),
    }
    for name, (help_text, flags) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default=None,
                       help="JSON input file (defaults to the shipped fixture)")
        p.add_argument("--tol", type=float, default=config.TOL_NUM)
        p.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
        for flag, default in flags.items():
            p.add_argument(f"--{flag}", type=int, default=default)
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if not (np.isfinite(args.tol) and args.tol > 0):
        print(f"error: tolerance must be a positive finite number, got {args.tol}", file=sys.stderr)
        return 2
    for flag in ("samples", "seed"):
        if getattr(args, flag, 0) < 0:
            print(f"error: {flag} must be nonnegative, got {getattr(args, flag)}", file=sys.stderr)
            return 2
    start = time.perf_counter()
    try:
        checks, code = _RUNNERS[args.command](args)
    except (DilationLabError, OSError, KeyError, TypeError, ValueError,
            json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the interpreter's own MemoryError carries no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    duration_ms = 1000.0 * (time.perf_counter() - start)
    report = {"checks": checks.rows, "pass": checks.all_pass(), "seed": int(args.seed)}
    print(_report_text(report))
    passed = sum(1 for row in checks.rows if row["pass"])
    print(f"{args.command}: {passed}/{len(checks.rows)} checks passed "
          f"in {duration_ms:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
