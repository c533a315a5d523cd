"""What the benchmark in perfbench/ needs from the program.

A benchmark run exits non-zero when one op fails its gate or an exception
escapes it, including one raised by the traced run's counters.  These tests
load perfbench/ without changing anything in it (no bytecode is written
there) and check that contract on one seeded input of every shape of the
workloads named in BENCHMARK.json.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import dilation_lab
from dilation_lab import GramSpace, build_fermion_rep, cli, second_quantize

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 20261


def _load(name):
    """A perfbench module under a private name, with no bytecode written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def bench():
    return {name: _load(name) for name in ("spans", "workloads", "run")}


def test_every_timed_call_resolves(bench):
    spans = bench["spans"]
    for home, func_name, _ in spans.TIMED_CALLS:
        assert callable(getattr(importlib.import_module(f"dilation_lab.{home}"), func_name))
    for name in spans.PATCHED_MODULES:
        assert getattr(dilation_lab, name) is importlib.import_module(f"dilation_lab.{name}")


def test_second_quantize_result_feeds_its_counter(bench):
    rep = build_fermion_rep(GramSpace.standard(2))
    counts = bench["spans"].COUNTERS["second_quantize"](second_quantize(rep, rep, np.eye(2)))
    assert counts == {"fock.second_quantize_calls": 1, "fock.superop_bytes": 16 * 16 * 16}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_shape_passes_the_gate_traced(bench, workload, tmp_path):
    workloads, run, spans = bench["workloads"], bench["run"], bench["spans"]
    tracer = spans.Tracer()
    tracer.install(dilation_lab)
    try:
        for index, shape in enumerate(workloads.WORKLOADS[workload].shapes):
            path = tmp_path / f"{shape.key}.json"
            workloads.write_input(str(path), SEED, shape, index)
            tracer.op = index
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(shape.argv(str(path)))
            assert run.gate(shape, code, out.getvalue()) == [], shape.key
    finally:
        tracer.uninstall()
    assert sorted(tracer.per_op()) == list(range(len(workloads.WORKLOADS[workload].shapes)))


# Inputs of the benchmark's `defects` workload that failed their gate before
# the fixes they name: seed 1, by shape and op index.
DEFECT_OPS = [
    # secondquant --window 3 dropped its rota_secondquant rows
    ("m1-w3", 0),
    # autocorrelation draws whose translation action lost orthogonality
    ("s3", 0), ("s3", 13), ("s3", 23), ("s3", 33),
]


@pytest.mark.parametrize("key, index", DEFECT_OPS, ids=[f"{k}-{i}" for k, i in DEFECT_OPS])
def test_defect_inputs_pass_the_gate(bench, key, index, tmp_path):
    workloads, run = bench["workloads"], bench["run"]
    shape = workloads.WORKLOADS["defects"].shape(key)
    path = tmp_path / f"{key}.json"
    workloads.write_input(str(path), 1, shape, index)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shape.argv(str(path)))
    assert run.gate(shape, code, out.getvalue()) == []


# A `multipliers` op that failed its gate: the symbol's smallest eigenvalue,
# 6.2e-11, is under the rank cut, and the Gram rows it shortened made
# d_squares_to_identity read 2.4e-11 against TOL_EXACT.
def test_nearly_singular_multipliers_op_passes_the_gate(bench, tmp_path):
    workloads, run = bench["workloads"], bench["run"]
    shape = workloads.WORKLOADS["multipliers"].shape("schur-3")
    path = tmp_path / "schur-3.json"
    workloads.write_input(str(path), 11, shape, 151)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shape.argv(str(path)))
    assert run.gate(shape, code, out.getvalue()) == []


# A benchmark run exits 1 when any of its ops fails the gate, and a faster
# program reaches op indices the slower one never drew.  So the first ops of
# every `multipliers`, `secondquant` and `chain` shape run here at two seeds,
# before any benchmark does, and so do those of the ill-conditioned `fourier`
# shapes of `defects`.
SWEEP_SEEDS = (1234, 77)
SWEEPS = [pytest.param(workload, seed, id=f"{prefix}{seed}")
          for workload, prefix in (("multipliers", ""), ("defects", "defects-fourier-"),
                                   ("secondquant", "secondquant-"), ("chain", "chain-"))
          for seed in SWEEP_SEEDS]


@pytest.mark.parametrize("workload, seed", SWEEPS)
def test_first_multipliers_ops_pass_the_gate(bench, workload, seed, tmp_path):
    workloads, run = bench["workloads"], bench["run"]
    for shape in workloads.WORKLOADS[workload].shapes:
        if workload == "defects" and shape.command != "fourier":
            continue  # its secondquant shape is run by test_defect_inputs_pass_the_gate
        for index in range(3):
            path = tmp_path / f"{shape.key}-{index}.json"
            workloads.write_input(str(path), seed, shape, index)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(shape.argv(str(path)))
            assert run.gate(shape, code, out.getvalue()) == [], (shape.key, index)
