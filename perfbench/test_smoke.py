"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs one pass of every workload in BENCHMARK.json, untraced and traced, and
checks that each declared metric is reported with its unit and a sample
count.  Also checks the check-name gate and that the benchmark refuses to
run without the program's sources.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_pass_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    saved = json.loads((ROOT / ".perfbench" / f"report-{workload}-5-trace{trace}.json")
                       .read_text(encoding="utf-8"))
    assert all(saved["samples"][m["name"]] >= 1 for m in declared)
    assert {"nproc", "cpu_model", "numpy", "blas", "blas_threads",
            "steal_share"} <= set(saved["machine"])


def _report(shape, path):
    """Exit code and stdout of the CLI on a fresh input of `shape`."""
    run._import_program()
    from dilation_lab import cli
    write_input(str(path), 3, shape, 0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shape.argv(str(path)))
    return code, out.getvalue()


def test_gate_flags_a_removed_row(tmp_path):
    shape = WORKLOADS["multipliers"].shape("cyclic-3")
    code, stdout = _report(shape, tmp_path / "in.json")
    assert run.gate(shape, code, stdout) == []
    report = json.loads(stdout)
    removed = report["checks"].pop(4)
    problems = run.gate(shape, code, json.dumps(report))
    assert len(problems) == 1 and removed["name"] in problems[0]


def test_gate_flags_a_verdict_that_disagrees_with_its_residual(tmp_path):
    shape = WORKLOADS["multipliers"].shape("cyclic-2")
    code, stdout = _report(shape, tmp_path / "in.json")
    report = json.loads(stdout)
    report["checks"][0]["residual"] = 2 * report["checks"][0]["tol"]
    assert any("disagrees" in p for p in run.gate(shape, code, json.dumps(report)))


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "secondquant", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
