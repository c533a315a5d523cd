"""Benchmark of the dilation-lab CLI: one workload per process, closed loop.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

One client drives ``dilation_lab.cli.main`` in-process, sending the next op
only after the previous one returned.  Each op is a fresh seeded input file
of one of the workload's shapes (see workloads.py); a pass runs every shape
once, and passes repeat until ``--seconds`` have gone by, so every run
measures whole passes of the same mix.  Every op goes through the
correctness gate: exit code 0, ``pass`` true, each row's verdict consistent
with its residual and tolerance, and exactly the check rows the shape
predicts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's public calls in spans (spans.py) and reports per-layer metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Inputs, the run report and the spans go to .perfbench/
at the repository root.  The program is imported from src/ of the same
checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-ups per run (a fresh-interpreter import, input generation and one
# warm-up op); setup_s is their median.
SETUP_REPEATS = 7

END_TO_END = {
    # name: (unit, better)
    "certs_per_s": ("1/s", "higher"),
    "cert_s.small.p50": ("s", "lower"),
    "cert_s.large.p50": ("s", "lower"),
    "pass_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "headroom_digits": ("digits", "higher"),
}

PER_LAYER = {
    "condexp.closure_s": "s", "condexp.closure_calls": "count",
    "condexp.closure_size": "count", "condexp.closure_vec_len": "entries",
    "condexp.closure_bytes": "bytes_computed",
    "chain.build_s": "s", "chain.markov_verify_s": "s", "chain.rota_verify_s": "s",
    "chain.ambient_dim": "dim",
    "dilation.build_s": "s", "dilation.factorization_s": "s", "dilation.morphism_s": "s",
    "dilation.star_swap_s": "s", "dilation.ambient_dim": "dim",
    "fourier.build_s": "s", "fourier.covariance_s": "s", "fourier.identity_s": "s",
    "fourier.ambient_dim": "dim",
    "fock.rep_s": "s", "fock.fock_dim": "dim", "fock.second_quantize_s": "s",
    "fock.second_quantize_calls": "count", "fock.superop_bytes": "bytes_computed",
    "chain.schaffer_s": "s", "chain.ppnp_s": "s", "chain.gamma_factorization_s": "s",
    "chain.rota_secondquant_s": "s",
    "schur.certify_s": "s", "schur.gram_s": "s", "schur.gram_rank": "dim",
    "states.markov_residuals_s": "s",
    "trace.pass_s": "s", "trace.unaccounted_s": "s", "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# correctness gate


def gate(shape, code: int, stdout: str) -> list[str]:
    """Problems with one op's outcome; empty when the op passed.

    An op fails on a nonzero exit, an unreadable report, ``pass`` not true,
    a row whose verdict disagrees with its residual and tolerance, or check
    rows that differ from the names the shape predicts.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(stdout)
        rows = report["checks"]
        names = [row["name"] for row in rows]
        failing = [row["name"] for row in rows if row["pass"] is not True]
        inconsistent = [row["name"] for row in rows
                        if row["pass"] != (row["residual"] <= row["tol"])]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if report.get("pass") is not True:
        problems.append("pass is not true")
    if failing:
        problems.append("failing rows: " + ", ".join(failing))
    if inconsistent:
        problems.append("verdict disagrees with residual: " + ", ".join(inconsistent))
    expected = shape.expected_checks()
    if names != expected:
        missing = [n for n in expected if n not in names]
        extra = [n for n in names if n not in expected]
        problems.append(f"check rows differ: missing {missing}, extra {extra}")
    return problems


def headroom(stdout: str) -> list[float]:
    """log10(tol / residual) of each row with tol > 0 and residual > 0."""
    return [math.log10(row["tol"] / row["residual"]) for row in json.loads(stdout)["checks"]
            if row["tol"] > 0 and row["residual"] > 0]


# ---------------------------------------------------------------------------
# machine


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            ticks = [int(v) for v in line.split()[1:9]]
            return ticks[7], sum(ticks)
    return 0, 0


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    return sizes


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine() -> dict:
    import numpy as np
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            **_cache_sizes(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas, "blas_threads": _blas_threads()}


# ---------------------------------------------------------------------------
# driving the CLI


@dataclass
class Op:
    shape: str
    index: int
    seconds: float
    problems: list[str]
    headroom: list[float] = field(default_factory=list)
    warmup: bool = False


@dataclass
class Result:
    ops: list[Op] = field(default_factory=list)
    setup_s: float = 0.0
    timed_s: float = 0.0
    passes: int = 0
    steal_share: float = 0.0
    layers: list[dict] = field(default_factory=list)
    span_cost_s: float = 0.0
    # name -> (value, unit, samples, percentile note)
    metrics: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[Op]:
        return [op for op in self.ops if op.problems]


class Runner:
    """Runs single ops of the CLI on fresh inputs under one workload seed."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        from dilation_lab import cli
        self.cli = cli

    def op(self, shape, index: int) -> Op:
        """Write a fresh input, run the CLI on it (timed) and gate the report."""
        from workloads import write_input
        path = self.workdir / f"{shape.key}-{index}.json"
        write_input(str(path), self.seed, shape, index)
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(shape.argv(str(path)))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            crash = f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        path.unlink()
        if crash is not None:
            return Op(shape.key, index, seconds, [crash])
        problems = gate(shape, code, out.getvalue())
        if code == 2:
            problems.append("stderr: " + err.getvalue().strip()[-300:])
        return Op(shape.key, index, seconds, problems,
                  [] if problems else headroom(out.getvalue()))


def _import_program():
    if not (SRC / "dilation_lab" / "__init__.py").is_file():
        raise SetupError(f"no dilation_lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("dilation_lab")
    if Path(package.__file__).resolve().parent != SRC / "dilation_lab":
        raise SetupError(f"dilation_lab imported from {package.__file__}, not from {SRC}")
    importlib.import_module("dilation_lab.cli")
    return package


def _fresh_import_s() -> float:
    """Seconds a new interpreter takes to import the CLI from this checkout."""
    probe = ("import sys, time\nstart = time.perf_counter()\nsys.path.insert(0, sys.argv[1])\n"
             "import dilation_lab.cli\nprint(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, run whole passes for `seconds`, and compute the metrics."""
    from workloads import WORKLOADS
    package = _import_program()
    workload = WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    result = Result()
    runner = Runner(seed, workdir)
    tracer = None
    try:
        # One set-up: import in a new interpreter, then a warm-up op on a
        # fresh input from an index range the timed ops never reach.
        small = workload.shape(workload.small)
        setups = []
        for k in range(SETUP_REPEATS):
            import_s = _fresh_import_s()
            warm = runner.op(small, 10 ** 6 + k)
            warm.warmup = True
            result.ops.append(warm)
            setups.append(import_s + warm.seconds)
        result.setup_s = statistics.median(setups)

        if trace:
            from spans import Tracer, span_cost
            result.span_cost_s = span_cost()
            tracer = Tracer()
            tracer.install(package)
        done = {shape.key: 0 for shape in workload.shapes}
        steal0, total0 = cpu_ticks()
        start = time.perf_counter()
        try:
            while True:
                for shape in workload.plan():
                    if tracer is not None:
                        tracer.op = len(result.ops)
                    result.ops.append(runner.op(shape, done[shape.key]))
                    done[shape.key] += 1
                result.passes += 1
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.timed_s = time.perf_counter() - start
        steal1, total1 = cpu_ticks()
        result.steal_share = (steal1 - steal0) / max(total1 - total0, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.write(OUT / f"spans-{workload_name}-{seed}.json")
        result.layers = _layer_passes(result, tracer, len(workload.plan()))
    result.metrics = per_layer_metrics(result) if trace else end_to_end_metrics(result, workload)
    return result


def _layer_passes(result: Result, tracer, shapes_per_pass: int) -> list[dict]:
    """Per-layer sums for each pass of the traced run."""
    from spans import MAX_COUNTERS
    per_op = tracer.per_op()
    first = len(result.ops) - result.passes * shapes_per_pass
    passes = []
    for p in range(result.passes):
        totals = {name: 0.0 for name in PER_LAYER}
        spans = 0
        for i in range(first + p * shapes_per_pass, first + (p + 1) * shapes_per_pass):
            op = per_op.get(i, {"self_s": {}, "counts": {}, "top_s": 0.0, "spans": 0})
            for name, value in op["self_s"].items():
                totals[name] += value
            for name, value in op["counts"].items():
                totals[name] = max(totals[name], value) if name in MAX_COUNTERS \
                    else totals[name] + value
            totals["trace.pass_s"] += result.ops[i].seconds
            totals["trace.unaccounted_s"] += result.ops[i].seconds - op["top_s"]
            spans += op["spans"]
        totals["trace.overhead_s"] = spans * result.span_cost_s
        passes.append(totals)
    return passes


def _percentile_note(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n) if n else 0
    if pct <= 50:
        return ""
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return f"p{pct}={value:.6g}"


def end_to_end_metrics(result: Result, workload) -> dict:
    timed = [op for op in result.ops if not op.warmup]
    passed = [op for op in timed if not op.problems]
    metrics = {}

    def put(name, value, samples, note=""):
        metrics[name] = (value, END_TO_END[name][0], samples, note)

    put("certs_per_s", len(passed) / result.timed_s, len(timed))
    for size, key in (("small", workload.small), ("large", workload.large)):
        samples = [op.seconds for op in timed if op.shape == key]
        put(f"cert_s.{size}.p50", statistics.median(samples), len(samples),
            _percentile_note(samples))
    put("pass_share", (len(result.ops) - len(result.failures)) / len(result.ops), len(result.ops))
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    put("setup_s", result.setup_s, SETUP_REPEATS)
    # The mean of the lowest tenth rather than the minimum: the minimum over
    # all rows falls as a faster program fits more ops into the same seconds.
    digits = sorted(d for op in passed for d in op.headroom)
    lowest = digits[:max(1, len(digits) // 10)]
    put("headroom_digits", statistics.fmean(lowest) if digits else 0.0, len(digits))
    return metrics


def per_layer_metrics(result: Result) -> dict:
    """Median over passes of each per-layer value (counts repeat exactly)."""
    return {name: (statistics.median(p[name] for p in result.layers), unit,
                   len(result.layers), "")
            for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------


def report(result: Result) -> dict:
    return {"correct": not result.failures,
            "attempted": len(result.ops), "failed": len(result.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _, _) in result.metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum timed seconds; 0 runs a single pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    info = machine()
    info["steal_share"] = result.steal_share
    for op in result.failures:
        print("FAILED " + json.dumps({"workload": args.workload, "shape": op.shape,
                                      "seed": args.seed, "op": op.index,
                                      "problems": op.problems}), file=sys.stderr)
    directions = {name: better for name, (_, better) in END_TO_END.items()}
    print(f"workload {args.workload}  seed {args.seed}  passes {result.passes}  "
          f"timed {result.timed_s:.2f} s  ops {len(result.ops)}  "
          f"failed {len(result.failures)}")
    print("machine " + json.dumps(info))
    for name, (value, unit, samples, note) in result.metrics.items():
        better = directions.get(name, "")
        print(f"  {name:28s} {value:14.6g} {unit:14s} {better:6s} n={samples} {note}".rstrip())
    out = report(result)
    with open(OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**out, "machine": info, "passes": result.passes,
                   "timed_s": result.timed_s,
                   "samples": {n: m[2] for n, m in result.metrics.items()},
                   "failures": [vars(op) for op in result.failures],
                   "op_seconds": [[op.shape, op.seconds] for op in result.ops]}, fh, indent=1)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
