import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilation_lab import (DiagonalState, PreconditionError, SchurSymbol, build_dilation,
                          cli, config, cyclic_group, markov_residuals, multiplier_map,
                          symmetric_group)
from dilation_lab.matcore import random_unital_psd_symbol, random_weights, rng

COMMANDS = ["check-schur", "rota", "fourier", "secondquant"]

FIXTURE_ROWS = {
    "check-schur": [
        "symbol_unital", "symbol_self_adjoint", "symbol_psd", "markov_unital",
        "markov_cp", "markov_state_preserving", "markov_modular",
        "d_self_adjoint", "d_squares_to_identity", "d_in_centralizer",
        "factorization", "morphism_unital", "morphism_multiplicative",
        "morphism_star", "morphism_state_preserving", "morphism_modular",
        "star_swap"],
    "rota": [
        "markov_past_0_0", "markov_future_0_0", "markov_shift_0_0",
        "markov_past_0_1", "markov_future_0_1", "markov_shift_0_1",
        "markov_past_0_2", "markov_future_0_2", "markov_shift_0_2",
        "markov_past_1_1", "markov_future_1_1", "markov_shift_1_1",
        "markov_past_1_2", "markov_future_1_2", "markov_shift_1_2",
        "markov_past_2_2", "markov_future_2_2", "markov_shift_2_2", "rota_1"],
    "fourier": [
        "posdef_unital", "posdef_self_adjoint", "posdef_psd", "w_self_adjoint",
        "w_squares_to_identity", "orthogonal", "action_homomorphism",
        "field_covariance", "fourier_identity"],
    "secondquant": [
        "unitary", "strong_dilation", "ppnp_0", "ppnp_1", "ppnp_2",
        "gamma_identity", "gamma_factorization", "rota_secondquant_1",
        "rota_secondquant_2"],
}


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "dilation_lab", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", COMMANDS)
def test_shipped_fixtures_pass(command):
    result = run_cli(command)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["pass"] is True
    assert report["seed"] == 7041
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tol", "pass"}
        assert check["pass"] is True
        assert check["residual"] <= check["tol"]
    assert [check["name"] for check in report["checks"]] == FIXTURE_ROWS[command]
    assert "checks passed" in result.stderr


def test_stdout_is_reproducible():
    first = run_cli("check-schur", "--seed", "11")
    second = run_cli("check-schur", "--seed", "11")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_explicit_input_file(tmp_path):
    payload = {"symbol": [[1.0, [0.25, 0.0]], [[0.25, -0.0], 1.0]],
               "weights": [0.6, 0.4]}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(payload))
    result = run_cli("check-schur", str(path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["pass"] is True


def test_failing_symbol_exits_one(tmp_path):
    payload = {"symbol": [[1.0, 1.5], [1.5, 1.0]], "weights": [0.5, 0.5]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    result = run_cli("check-schur", str(path))
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["pass"] is False
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "symbol_psd" in failed or any("psd" in name for name in failed)


def test_unreachable_tolerance_exits_one():
    result = run_cli("rota", "--tol", "1e-17")
    assert result.returncode == 1
    assert json.loads(result.stdout)["pass"] is False


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("rota", "--steps", "9").returncode == 2
    assert run_cli("check-schur", str(tmp_path / "missing.json")).returncode == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli("check-schur", str(garbled)).returncode == 2
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"symbol": [[1.0, 0.5]], "weights": [1.0]}))
    assert run_cli("check-schur", str(ragged)).returncode == 2
    assert run_cli("check-schur", "--tol", "-1").returncode == 2


def test_dimension_cap_env_exits_two():
    result = run_cli("rota", "--depth", "3",
                     env_extra={"DILATION_LAB_DIM_CAP": "64"})
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_depth_over_byte_cap_exits_two():
    result = run_cli("rota", "--depth", "4")
    assert result.returncode == 2
    assert "cap" in result.stderr
    assert result.stdout == ""


def test_full_rank_9x9_check_schur_is_refused_at_once():
    # ambient dimension 9 * 2^9 = 4608 is over the dimension cap: the bundle
    # is refused before anything of ambient size is formed
    gen = rng(3)
    payload = {"symbol": random_unital_psd_symbol(gen, 9).tolist(),
               "weights": random_weights(gen, 9).tolist()}
    start = time.perf_counter()
    code, out, err = run_main("check-schur", payload)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert "cap" in err


# Symbols whose smallest eigenvalue is under the rank cut TOL_RANK * 2: the
# Gram rows keep rank 1, and the cut mass 5e-11 shortened them, so d^2 = 1
# failed at TOL_EXACT although every symbol_* row passed.
@pytest.mark.parametrize("offset", [-5e-11, 5e-11], ids=["below-one", "above-one"])
def test_nearly_singular_symbols_dilate(offset):
    payload = {"symbol": [[1.0, 1.0 + offset], [1.0 + offset, 1.0]], "weights": [0.5, 0.5]}
    code, report = run_in_process("check-schur", payload)
    assert [row["name"] for row in report["checks"] if not row["pass"]] == []
    assert code == 0


def test_a_barely_unital_symbol_fails_in_the_pairing_rows():
    # t_00 = 1 + 5e-10 passes symbol_unital within --tol.  The unit Gram rows
    # make d a symmetry to rounding, so the defect |t - t^| shows up where the
    # multiplier is compared with its dilation: the matrix-unit pairings carry
    # mu_0 * 5e-10, but the sampled pairs multiply it by random entries of
    # size about 2, and so exceed --tol in factorization and star_swap
    payload = {"symbol": [[1.0000000005, 0.5], [0.5, 1.0]], "weights": [0.5, 0.5]}
    code, report = run_in_process("check-schur", payload)
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    assert failed == ["factorization", "star_swap"]
    assert code == 1


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_cli_in_one_gib(command, payload, *flags):
    """The CLI in a subprocess with a 1 GiB address space, on a payload file;
    returns (completed process, wall seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "dilation_lab", command, path, *flags],
                                capture_output=True, text=True,
                                preexec_fn=_limit_address_space)
    return result, time.perf_counter() - start


def test_full_rank_30x30_check_schur_is_refused_before_any_fiber_array():
    # the symbol and Markov rows stay small (a 900 x 900 Choi matrix), but
    # the fiber of a rank-30 Gram space has 2^30 entries: the cap must refuse
    # it before its state is formed, so the run fits a 1 GiB address space
    gen = rng(5)
    payload = {"symbol": random_unital_psd_symbol(gen, 30).tolist(),
               "weights": random_weights(gen, 30).tolist()}
    result, seconds = run_cli_in_one_gib("check-schur", payload)
    assert seconds < 10.0
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "cap" in result.stderr


def test_full_rank_12x12_rota_is_refused_before_any_fermion_operator():
    # chain dimension 12 * 2^12 is over the cap: the chain is refused before
    # its rank-12 representation or any 4096 x 4096 operator is formed
    payload = {"symbol": random_unital_psd_symbol(rng(3), 12).tolist(),
               "weights": random_weights(rng(4), 12).tolist()}
    result, seconds = run_cli_in_one_gib("rota", payload, "--depth", "1")
    assert seconds < 2.0
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "cap" in result.stderr


def test_12x12_secondquant_is_refused_before_any_fermion_operator():
    # Gamma(id) over rank 12 is a 4^12 x 4^12 superoperator, over the byte cap;
    # the rank-12 representation itself holds no matrix
    a = rng(6).standard_normal((12, 12))
    a = (a + a.T) / 2
    payload = {"matrix": (0.9 * a / np.abs(np.linalg.eigvalsh(a)).max()).tolist(), "window": 1}
    result, seconds = run_cli_in_one_gib("secondquant", payload, "--steps", "1")
    assert seconds < 2.0
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "cap" in result.stderr


def _shipped(fixture):
    path = os.path.join(os.path.dirname(cli.__file__), "fixtures", fixture)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command, fixture, samples", [
    ("check-schur", "schur2.json", "100000000"),
    ("fourier", "group_z2.json", "1000000000")])
def test_samples_over_byte_cap_are_refused_before_any_draw(command, fixture, samples):
    # the sample arrays would take 12.8 GB and 32 GB
    result, seconds = run_cli_in_one_gib(command, _shipped(fixture), "--samples", samples)
    assert seconds < 2.0
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert f"over the {config.BYTE_CAP} byte cap" in result.stderr


def test_many_samples_take_linear_python_calls():
    # the sample x sample rows apply one leg per sample to the stacked columns
    # of the later samples: 500 morphism samples and 2000 pairs per row
    result, seconds = run_cli_in_one_gib("check-schur", _shipped("schur2.json"),
                                         "--samples", "2000")
    assert result.returncode == 0, result.stderr
    assert seconds < 3.0
    assert all(row["pass"] for row in json.loads(result.stdout)["checks"])


@pytest.mark.parametrize("depth", ["100000000", "10000000000"])
def test_huge_depth_is_refused_on_its_exponent(depth):
    # 2^(rank depth) is not formed as an exact integer before the refusal
    result, seconds = run_cli_in_one_gib("rota", _shipped("schur2.json"), "--depth", depth)
    assert seconds < 2.0
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: chain dimension ")
    assert f"exceeds the dimension cap {config.dim_cap()}" in result.stderr


def test_order_8_fourier_fits_one_gib():
    # t = delta_e has the identity Gram matrix: rank 8 and ambient dimension
    # 2048, so a stack of the m images pi(lambda(g)) alone would take 512 MB
    result, _ = run_cli_in_one_gib("fourier", {"group": "dihedral:4", "t": [1, 0, 0, 0, 0, 0, 0, 0]})
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)["checks"]
    assert [row["name"] for row in rows] == FIXTURE_ROWS["fourier"]
    assert all(row["pass"] for row in rows)


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 512. MiB for an array"),
     "error: out of memory: Unable to allocate 512. MiB for an array\n"),
    (MemoryError(), "error: out of memory\n")], ids=["numpy", "bare"])
def test_out_of_memory_is_an_error_line_with_exit_two(monkeypatch, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "build_crossed_dilation", exhausted)
    code, out, err = run_main("fourier", {"group": "cyclic:2", "t": [1.0, 0.5]})
    assert code == 2
    assert out == ""
    assert err == line


def test_one_process_runs_many_commands_as_if_each_ran_first(tmp_path):
    # the parser is built once per process: no call may see a flag of an
    # earlier one, here --tol 1e-6 and --samples 3 before the defaults
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"symbol": [[1.0, 0.3], [0.3, 1.0]], "weights": [0.4, 0.6]}))
    calls = [["fourier", "--tol", "1e-6", "--samples", "3"], ["fourier"],
             ["check-schur", str(path), "--tol", "1e-6", "--seed", "5"],
             ["check-schur", str(path)], ["rota", str(path)],
             ["secondquant", "--steps", "1"], ["secondquant"]]
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        first = run_cli(*argv)
        assert (code, out.getvalue()) == (first.returncode, first.stdout), argv


def test_rota_tolerance_reaches_the_chain_builder():
    # the unit diagonal is off by 1e-8: within --tol 1e-6, outside TOL_NUM
    payload = {"symbol": [[1.00000001, 0.5], [0.5, 1.0]], "weights": [0.5, 0.5]}
    code, out, err = run_main("rota", payload, "--tol", "1e-6")
    assert code in (0, 1), err
    assert json.loads(out)["pass"] == (code == 0)


def test_large_window_skips_oversized_fock_checks():
    # window rank 1 * 13 is over FERMION_RANK_CAP
    result = run_cli("secondquant", "--window", "6")
    assert result.returncode == 0, result.stderr
    names = [c["name"] for c in json.loads(result.stdout)["checks"]]
    assert not any(name.startswith("rota_secondquant") for name in names)
    assert any(name.startswith("ppnp") for name in names)
    # the report names what it left out, and why, on stderr
    notes = [line for line in result.stderr.splitlines() if line.startswith("skipped")]
    assert notes == ["skipped rota_secondquant_1, rota_secondquant_2: "
                     "window space rank 13 exceeds fermion cap 12"]


def _seeded_contraction(m):
    """A symmetric m x m matrix of norm 0.9 drawn from rng(m)."""
    a = rng(m).standard_normal((m, m))
    a = (a + a.T) / 2
    return (0.9 * a / np.abs(np.linalg.eigvalsh(a)).max()).tolist()


# (m, window) with window rank m (2 window + 1) from 9 to the cap 12
@pytest.mark.parametrize("m, window", [(3, 1), (2, 2), (1, 5), (4, 1)])
def test_window_ranks_up_to_the_fermion_cap_report_rota_rows(m, window):
    payload = {"matrix": _seeded_contraction(m), "window": window}
    code, report = run_in_process("secondquant", payload, "--steps", "2")
    assert code == 0
    rows = [c["name"] for c in report["checks"] if c["name"].startswith("rota_secondquant")]
    assert rows == [f"rota_secondquant_{n}" for n in range(1, min(2, window) + 1)]


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def run_main(command, payload, *flags):
    """cli.main on a payload file; returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path, *flags])
    return code, out.getvalue(), err.getvalue()


def run_in_process(command, payload, *flags):
    """cli.main on a payload file; returns (exit code, report or None)."""
    code, text, _ = run_main(command, payload, *flags)
    return code, json.loads(text, parse_constant=_no_constant) if text else None


@pytest.mark.parametrize("spec", ["cyclic:x", "dihedral:2.5"])
def test_bad_group_order_names_the_spec(spec):
    code, out, err = run_main("fourier", {"group": spec, "t": [1.0, 0.5]})
    assert code == 2
    assert out == ""
    assert err == f"error: unknown group spec '{spec}'\n"


def test_secondquant_on_subnormal_entries_warns_nothing():
    payload = {"matrix": [[0.0, 0.0], [0.0, 2.225073858507e-311]], "window": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("secondquant", payload, "--steps", "0")
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert "Warning" not in err


def test_window_over_dimension_cap_exits_two_at_once():
    # a 10001 x 10001 dense window unitary would be formed without the cap
    code, out, err = run_main("secondquant", {"matrix": [[0.5]], "window": 5000})
    assert code == 2
    assert out == ""
    assert err.startswith("error: window space dimension 10001 exceeds dimension cap")


@pytest.mark.parametrize("command, payload, row", [
    ("check-schur", {"symbol": [[1, 0.5], [0.2, 1]], "weights": [0.5, 0.5]},
     "symbol_psd"),
    ("fourier", {"group": "cyclic:3", "t": [1, 0.5, 0.2]}, "posdef_psd"),
])
def test_non_hermitian_symbol_is_reported(command, payload, row):
    code, report = run_in_process(command, payload)
    assert code == 1
    assert report["pass"] is False
    psd = next(check for check in report["checks"] if check["name"] == row)
    assert psd["pass"] is False
    assert 0 < psd["residual"] < float("inf")


# each symbol is off by 1e-8: outside the default tolerance, inside 1e-6
@pytest.mark.parametrize("command, payload, last_row", [
    ("check-schur", {"symbol": [[1.00000001, 0.5], [0.5, 1.0]], "weights": [0.5, 0.5]},
     "star_swap"),
    ("check-schur", {"symbol": [[1.0, 0.50000001], [0.5, 1.0]], "weights": [0.5, 0.5]},
     "star_swap"),
    ("fourier", {"group": "cyclic:2", "t": [1.00000001, 0.5]}, "fourier_identity"),
], ids=["schur-unital", "schur-symmetric", "fourier-unital"])
def test_looser_tol_builds_the_symbol_its_rows_pass(command, payload, last_row):
    code, out, err = run_main(command, payload, "--tol", "1e-6")
    assert code in (0, 1), err
    report = json.loads(out, parse_constant=_no_constant)
    assert report["pass"] == (code == 0)
    assert all(check["pass"] for check in report["checks"][:3])
    assert report["checks"][-1]["name"] == last_row


def test_symbol_precondition_names_each_failing_residual():
    symbol = SchurSymbol(np.array([[1.00000001, 1.5], [1.5, 1.0]]))
    with pytest.raises(PreconditionError) as info:
        build_dilation(symbol, DiagonalState([0.5, 0.5]))
    message = str(info.value)
    assert "unital residual 1.0e-08 > tol 1.0e-09" in message
    assert "psd residual 5.0e-01 > tol 1.0e-10" in message
    assert "self_adjoint" not in message and "Report" not in message


@pytest.mark.parametrize("argv, message", [
    (["rota", "--depth", "-3"], "error: depth -3 must be at least 1\n"),
    (["rota", "--depth", "0", "--steps", "0"], "error: depth 0 must be at least 1\n"),
    *[([command, "--seed", "-1"], "error: seed must be nonnegative, got -1\n")
      for command in COMMANDS],
], ids=["depth-negative", "depth-zero", *[f"{command}-seed" for command in COMMANDS]])
def test_usage_errors_name_their_flag(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", message)


# (t + t^H) / 2 overflows on these symbols, and max(0, nan) would read the
# NaN eigenvalue of its inf entries as a psd residual of 0
@pytest.mark.parametrize("command, payload, rows", [
    ("check-schur", {"symbol": [[1, 1e308], [1e308, 1]], "weights": [0.5, 0.5]},
     ["symbol_psd", "markov_cp"]),
    ("fourier", {"group": "cyclic:2", "t": [1, 1e308]}, ["posdef_psd"]),
], ids=["check-schur", "fourier"])
def test_overflowing_symbol_fails_its_psd_rows(command, payload, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_in_process(command, payload)
    assert code == 1
    assert [(check["name"], check["residual"]) for check in report["checks"]
            if not check["pass"]] == [(row, 1e308) for row in rows]


def test_secondquant_refuses_an_overflowing_contraction():
    # (t + t^T) / 2 overflows here, and a NaN norm must not pass as <= 1
    payload = {"matrix": [[1e308, 1e308], [1e308, 1e308]], "window": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("secondquant", payload)
    assert (code, out, err) == (2, "", "error: matrix norm exceeds 1; not a contraction\n")


def test_rota_refuses_an_overflowing_symbol():
    payload = {"symbol": [[1, 1e308], [1e308, 1]], "weights": [0.5, 0.5]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("rota", payload)
    assert (code, out) == (2, "")
    assert err == ("error: symbol must be unital, PSD, self-adjoint: "
                   "psd residual 1.0e+308 > tol 1.0e-10\n")


def test_rota_refuses_steps_before_building_the_chain():
    # a symbol the chain builder refuses, and a depth over its byte cap: the
    # steps error comes first in both cases
    bad = {"symbol": [[1, 1.5], [1.5, 1]], "weights": [0.5, 0.5]}
    good = {"symbol": [[1, 0.5], [0.5, 1]], "weights": [0.5, 0.5]}
    for payload, depth in ((bad, 2), (good, 4)):
        code, out, err = run_main("rota", payload, "--depth", str(depth), "--steps", "9")
        assert code == 2
        assert out == ""
        assert err == f"error: steps 9 must lie in 1..depth ({depth})\n"


@pytest.mark.parametrize("command, flag", [
    ("check-schur", "--depth"), ("check-schur", "--window"), ("check-schur", "--steps"),
    ("rota", "--samples"), ("rota", "--window"),
    ("fourier", "--depth"), ("fourier", "--window"), ("fourier", "--steps"),
    ("secondquant", "--samples"), ("secondquant", "--depth"),
])
def test_flag_the_subcommand_does_not_read_is_refused(command, flag):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        cli.main([command, f"{flag}=1"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}=1" in err.getvalue()


def test_negative_samples_exit_two():
    result = run_cli("check-schur", "--samples", "-3")
    assert result.returncode == 2
    assert "samples must be nonnegative" in result.stderr
    assert result.stdout == ""
    code, report = run_in_process(
        "check-schur", {"symbol": [[1, 0.5], [0.5, 1]], "weights": [0.5, 0.5]},
        "--samples", "0")
    assert code == 0 and report["pass"] is True


@pytest.mark.parametrize("command, flags, message", [
    ("rota", ("--tol", "nan"), "error: tolerance must be a positive finite number"),
    ("rota", ("--tol", "inf"), "error: tolerance must be a positive finite number"),
    ("rota", ("--tol", "0"), "error: tolerance must be a positive finite number"),
    ("check-schur", ("--samples", "-1"), "error: samples must be nonnegative"),
], ids=["tol-nan", "tol-inf", "tol-zero", "samples-negative"])
def test_bad_flags_exit_two_with_an_error(command, flags, message):
    code, out, err = run_main(command, {"symbol": [[1, 0.5], [0.5, 1]], "weights": [0.5, 0.5]},
                              *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("weights, message", [
    ([0.5, float("nan")], "error: state weights must be finite"),
    ([[0.5], [0.5]], "error: state weights must be a 1-D"),
    # their sum overflows: each weight is refused before it is summed
    ([1e308, 1e308], "error: state weights must not exceed 1"),
], ids=["nan", "nested", "overflow"])
def test_bad_weights_exit_two_with_an_error(weights, message):
    for command in ("check-schur", "rota"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(command, {"symbol": [[1, 0.5], [0.5, 1]],
                                                "weights": weights})
        assert code == 2
        assert out == ""
        assert err.startswith(message)


@pytest.mark.parametrize("command, payload, flags, message", [
    ("secondquant", {"matrix": [[float("inf")]], "window": 1}, (),
     "error: contraction entries must be finite"),
    ("secondquant", {"matrix": [[0.5]], "window": 1}, ("--steps", "-1"),
     "error: steps -1 must be nonnegative"),
    ("secondquant", {"matrix": [[0.5]], "window": 1.7}, (),
     "error: window must be an integer, got 1.7"),
    ("secondquant", {"matrix": [[0.5]], "window": "2"}, (),
     "error: window must be an integer, got '2'"),
    ("fourier", {"group": "cyclic:2", "t": [[1], [0.5]]}, (),
     "error: coefficients must be a 1-D array"),
    ("secondquant", {"matrix": [["0.5"]], "window": 1}, (),
     "error: matrix must hold numbers, got '0.5'"),
    ("fourier", {"group": "cyclic:2", "t": ["1", "0.5"]}, (),
     "error: t must hold numbers, got "),
    ("check-schur", {"symbol": [[1, 0.5], [0.5, 1]], "weights": ["0.5", "0.5"]}, (),
     "error: weights must hold numbers, got '0.5'"),
    ("check-schur", {"symbol": [[True, 0.5], [0.5, True]], "weights": [0.5, 0.5]}, (),
     "error: matrix entries must be numbers or [re, im] pairs, got True"),
    ("fourier", {"group": {"table": [[0, 1.7], [1, 0]]}, "t": [1, 0.5]}, (),
     "error: group table must hold integers, got 1.7"),
    ("fourier", {"group": {"table": [[0, "1"], ["1", 0]]}, "t": [1, 0.5]}, (),
     "error: group table must hold integers, got '1'"),
    ("fourier", {"group": {"table": [[0, True], [True, 0]]}, "t": [1, 0.5]}, (),
     "error: group table must hold integers, got True"),
    ("fourier", {"group": {"table": [[0, [1]], [[1], 0]]}, "t": [1, 0.5]}, (),
     "error: group table must hold integers, got [1]"),
    ("fourier", {"group": {"table": [[0, 10 ** 30], [1, 0]]}, "t": [1, 0.5]}, (),
     "error: group table must hold integers, got 1000000000000000000000000000000"),
], ids=["matrix-inf", "steps-negative", "window-float", "window-string", "t-nested",
        "matrix-string", "t-string", "weights-string", "symbol-bool", "table-float",
        "table-string", "table-bool", "table-nested", "table-huge"])
def test_malformed_input_exits_two_with_an_error(command, payload, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(command, payload, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert "Warning" not in err


# Unital PSD symbols of rank 3 with smallest eigenvalues 5e-3 and 2e-2:
# perfbench.workloads._schur_payload(np.random.default_rng(s), 3, 3) for
# s = 1 and s = 5.  A numerical closure of the chain algebras refused both,
# one over its size cap and one as not modular-invariant.
ILL_CONDITIONED = {
    "rng1": {"symbol": [[1.0, 0.28143742832556573, 0.49793528712244156],
                        [0.28143742832556573, 1.0, 0.966978861995049],
                        [0.49793528712244156, 0.966978861995049, 1.0]],
             "weights": [0.0527894726050716, 0.5468994095544991, 0.4003111178404292]},
    "rng5": {"symbol": [[1.0, -0.9799405232581943, 0.6792442675475235],
                        [-0.9799405232581943, 1.0, -0.7035776396606992],
                        [0.6792442675475235, -0.7035776396606992, 1.0]],
             "weights": [0.515298405176173, 0.3449656143037989, 0.13973598052002814]},
}


@pytest.mark.parametrize("key", sorted(ILL_CONDITIONED))
def test_ill_conditioned_symbols_certify_at_depth_two(key):
    code, out, err = run_main("rota", ILL_CONDITIONED[key], "--depth", "2", "--steps", "2")
    assert code == 0, err
    report = json.loads(out, parse_constant=_no_constant)
    assert len(report["checks"]) == 19
    assert all(check["pass"] for check in report["checks"])


def test_markov_cp_row_applies_both_tolerances():
    # the Choi matrix may be non-Hermitian up to --tol, but its negative
    # eigenvalue mass is held to TOL_PSD: a defect of 5e-10 passes the row
    payload = {"symbol": [[1, 0.5], [0.5000000005, 1]], "weights": [0.5, 0.5]}
    symbol = SchurSymbol(np.array(payload["symbol"], dtype=complex))
    res = markov_residuals(multiplier_map(symbol), DiagonalState(payload["weights"]))
    assert res["cp_negative"] <= config.TOL_PSD < res["cp_hermitian"] <= config.TOL_NUM
    for flags, passed in (((), True), (("--tol", "4e-10"), False)):
        _, report = run_in_process("check-schur", payload, *flags)
        row = next(check for check in report["checks"] if check["name"] == "markov_cp")
        assert row["tol"] == config.TOL_PSD
        assert row["pass"] is passed


ENTRIES = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def schur_payloads(draw):
    n = draw(st.sampled_from([2, 3]))
    t = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        t = (t + t.T) / 2
    if draw(st.booleans()):
        np.fill_diagonal(t, 1.0)
    w = np.array(draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                               min_size=n, max_size=n)))
    return {"symbol": t.tolist(), "weights": (w / w.sum()).tolist()}


UNIT_ENTRIES = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False,
                         allow_infinity=False)


@st.composite
def rota_payloads(draw):
    """(payload, gram): real n x n symbols with n <= 3, either arbitrary or,
    when gram is True, the Gram matrix of n unit vectors in R^rank (unital and
    PSD, of any rank up to n)."""
    n = draw(st.integers(min_value=1, max_value=3))
    w = np.array(draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                               min_size=n, max_size=n)))
    gram = draw(st.booleans())
    if gram:
        rank = draw(st.integers(min_value=1, max_value=n))
        v = np.array(draw(st.lists(UNIT_ENTRIES, min_size=n * rank,
                                   max_size=n * rank))).reshape(n, rank)
        v[np.linalg.norm(v, axis=1) < 0.1, 0] = 1.0  # no row of zeros
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        t = v @ v.T
        t = (t + t.T) / 2
        np.fill_diagonal(t, 1.0)
    else:
        t = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        if draw(st.booleans()):
            t = (t + t.T) / 2
        if draw(st.booleans()):
            np.fill_diagonal(t, 1.0)
    return {"symbol": t.tolist(), "weights": (w / w.sum()).tolist()}, gram


# 300 examples take about 1.2 s on 2 cores; a third of them are Gram-built
@settings(max_examples=300, deadline=None)
@given(rota_payloads())
def test_rota_reports_any_real_symbol(drawn):
    payload, gram = drawn
    code, out, err = run_main("rota", payload, "--depth", "1")
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:")
        assert out == ""
    else:
        report = json.loads(out, parse_constant=_no_constant)
        assert report["pass"] == (code == 0)
    if gram:
        assert code == 0, err


@st.composite
def group_payloads(draw):
    m = draw(st.integers(min_value=2, max_value=4))
    t = np.array(draw(st.lists(ENTRIES, min_size=m, max_size=m)))
    if draw(st.booleans()):
        t = (t + t[-np.arange(m)]) / 2
    if draw(st.booleans()):
        t[0] = 1.0
    return {"group": f"cyclic:{m}", "t": t.tolist()}


def _assert_reported(command, payload):
    code, report = run_in_process(command, payload)
    assert code in (0, 1)
    assert report["pass"] == (code == 0)


@settings(max_examples=50, deadline=None)
@given(schur_payloads())
def test_check_schur_reports_any_real_symbol(payload):
    _assert_reported("check-schur", payload)


@settings(max_examples=50, deadline=None)
@given(group_payloads())
@example({"group": "cyclic:4", "t": [1.0, 1e-09, 1.0, 0.0]})
def test_fourier_reports_any_coefficients(payload):
    _assert_reported("fourier", payload)


def test_fourier_factors_the_symmetric_part_of_a_nearly_symmetric_symbol():
    # t_1 = 1e-9 against t_3 = 0 makes the Gram matrix asymmetric by 1e-9,
    # within --tol, and its symmetric part is PSD, so every posdef row
    # passes; the lower triangle alone has eigenvalue -5e-10 < -TOL_PSD, and
    # factoring it exited 2 with "not PSD" instead of reporting
    code, report = run_in_process("fourier", {"group": "cyclic:4",
                                              "t": [1.0, 1e-9, 1.0, 0.0]})
    assert code == 1
    failing = [row["name"] for row in report["checks"] if not row["pass"]]
    assert failing == ["fourier_identity"]


@st.composite
def contraction_payloads(draw):
    """Symmetric m x m matrices scaled to a spectral radius in [0, 1.5], so
    that some are not contractions."""
    m = draw(st.sampled_from([1, 2]))
    a = np.array(draw(st.lists(ENTRIES, min_size=m * m, max_size=m * m))).reshape(m, m)
    a = (a + a.T) / 2
    top = np.abs(np.linalg.eigvalsh(a)).max()
    radius = draw(st.floats(min_value=0.0, max_value=1.5))
    t = a / top * radius if top > 0 else a
    return {"matrix": t.tolist(), "window": draw(st.sampled_from([1, 2]))}


# 15 examples; the costliest, a rank-6 window (m = 2, window = 1, --steps >= 1),
# takes a few tens of ms since the Fock rows act on field monomials
@settings(max_examples=15, deadline=None)
@given(contraction_payloads(), st.sampled_from([0, 1, 2]))
def test_secondquant_reports_or_refuses_any_symmetric_matrix(payload, steps):
    code, out, err = run_main("secondquant", payload, "--steps", str(steps))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:")
        assert out == ""
    else:
        report = json.loads(out, parse_constant=_no_constant)
        assert report["pass"] == (code == 0)


@pytest.mark.parametrize("command, payload, field", [
    ("check-schur", {"symbol": [[1, 0.5], [0.5, 1]]}, "weights"),
    ("check-schur", {"weights": [0.5, 0.5]}, "symbol"),
    ("rota", {"symbol": [[1, 0.5], [0.5, 1]]}, "weights"),
    ("rota", {"weights": [0.5, 0.5]}, "symbol"),
    ("fourier", {"t": [1, 0.5]}, "group"),
    ("fourier", {"group": "cyclic:2"}, "t"),
    ("fourier", {"group": {}, "t": [1, 0.5]}, "table"),
    ("secondquant", {"window": 1}, "matrix"),
    ("secondquant", {"matrix": [[0.5]]}, "window"),
], ids=["schur-weights", "schur-symbol", "rota-weights", "rota-symbol", "fourier-group",
        "fourier-t", "fourier-table", "secondquant-matrix", "secondquant-window"])
def test_missing_field_is_named(command, payload, field):
    code, out, err = run_main(command, payload)
    assert code == 2
    assert out == ""
    assert err == f"error: input is missing field '{field}'\n"


@pytest.mark.parametrize("symbol", [3, [3, 4], "ab", {"0": [1]}],
                         ids=["int", "flat-list", "string", "object"])
def test_symbol_that_is_not_a_list_of_rows_is_refused(symbol):
    for command in ("check-schur", "rota"):
        code, out, err = run_main(command, {"symbol": symbol, "weights": [1]})
        assert code == 2
        assert out == ""
        assert err.startswith("error: symbol must be a list of rows, got ")
        assert "not iterable" not in err


def test_ragged_symbol_rows_are_refused():
    for command in ("check-schur", "rota"):
        code, out, err = run_main(command, {"symbol": [[1, 0.5, 0.2], [0.5, 1]],
                                            "weights": [0.5, 0.5]})
        assert code == 2
        assert out == ""
        assert err == "error: symbol rows must all have the same length\n"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_rota_fixture_stdout_matches_golden(depth):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["rota", "--depth", str(depth), "--steps", str(depth)])
    assert code == 0, err.getvalue()
    assert out.getvalue() == _golden(f"rota-fixture-depth{depth}.json")


# The chain shapes of the benchmark, 2x2 rank 2 one leg deeper: (n, rank, depth).
@pytest.mark.parametrize("n, rank, depth", [(2, 2, 3), (2, 1, 3), (3, 3, 2), (3, 1, 3),
                                            (3, 2, 2)])
def test_rota_rows_agree_across_depths(n, rank, depth):
    # every row of --depth d - 1 is the same identity on a chain one leg
    # shorter, so --depth d reports it with the same residual up to rounding
    gen = rng(100 * n + rank)
    payload = {"symbol": random_unital_psd_symbol(gen, n, rank).tolist(),
               "weights": random_weights(gen, n).tolist()}
    reports = []
    for d in range(1, depth + 1):
        code, report = run_in_process("rota", payload, "--depth", str(d))
        assert code == 0
        reports.append({row["name"]: row["residual"] for row in report["checks"]})
    for shallow, deep in zip(reports, reports[1:]):
        assert shallow.keys() < deep.keys()
        for name, residual in shallow.items():
            assert abs(deep[name] - residual) <= 1e-13, name


@pytest.mark.parametrize("key", sorted(ILL_CONDITIONED))
def test_ill_conditioned_stdout_matches_golden(key):
    code, out, err = run_main("rota", ILL_CONDITIONED[key], "--depth", "2", "--steps", "2")
    assert code == 0, err
    assert out == _golden(f"rota-ill-{key}-depth2.json")


@pytest.mark.parametrize("command", ["check-schur", "fourier"])
def test_fixture_stdout_matches_golden(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command])
    assert code == 0, err.getvalue()
    assert out.getvalue() == _golden(f"{command}-fixture.json")


def test_check_schur_4x4_stdout_matches_golden():
    # full rank: Gram rank 4, fiber 16, ambient dimension 64
    payload = {"symbol": random_unital_psd_symbol(rng(3), 4).tolist(),
               "weights": random_weights(rng(4), 4).tolist()}
    code, out, err = run_main("check-schur", payload)
    assert code == 0, err
    assert out == _golden("check-schur-4x4-full-rank.json")


# t on cyclic:5 has Fourier transform 1.8, 1.085, 0.415 (full rank, fiber 32);
# on s3 (lexicographic order) it is 0.2 + 0.3 sgn + 0.25 (fixed points - 1)
FOURIER_PAYLOADS = {
    "cyclic5": {"group": "cyclic:5", "t": [1.0, 0.4, 0.1, 0.1, 0.4]},
    "s3": {"group": "s3", "t": [1.0, -0.1, -0.1, 0.25, 0.25, -0.1]},
}


@pytest.mark.parametrize("key", sorted(FOURIER_PAYLOADS))
def test_fourier_stdout_matches_golden(key):
    code, out, err = run_main("fourier", FOURIER_PAYLOADS[key])
    assert code == 0, err
    assert out == _golden(f"fourier-{key}.json")


# window 5 has window rank 11
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
def test_secondquant_fixture_stdout_matches_golden(window):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["secondquant", "--window", str(window)])
    assert code == 0, err.getvalue()
    assert out.getvalue() == _golden(f"secondquant-fixture-window{window}.json")


def test_secondquant_2x2_stdout_matches_golden():
    # m = 2, so the report carries the gamma_factorization row
    payload = {"matrix": [[0.137, -0.663], [-0.663, 0.351]], "window": 1}
    code, out, err = run_main("secondquant", payload, "--steps", "1")
    assert code == 0, err
    assert out == _golden("secondquant-2x2-window1-steps1.json")


def test_secondquant_4x4_stdout_matches_golden():
    # window rank 12, the fermion cap
    payload = {"matrix": _seeded_contraction(4), "window": 1}
    code, out, err = run_main("secondquant", payload, "--steps", "1")
    assert code == 0, err
    assert out == _golden("secondquant-4x4-window1-steps1.json")


def test_rank_12_secondquant_peak_memory_is_bounded():
    # the Rota rows lift P_n E, 2^12 x 2^4, and no 2^12-square map
    payload = {"matrix": _seeded_contraction(4), "window": 1}
    tracemalloc.start()
    try:
        code, _, err = run_main("secondquant", payload, "--steps", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak <= 32 * 2 ** 20


REPORT_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                                 5e-324, 2.2250738585072014e-308, 1e-310, 1e308]) | st.floats()
REPORT_ROWS = st.builds(lambda name, residual, tol, ok: {"name": name, "residual": residual,
                                                          "tol": tol, "pass": ok},
                        st.text(), REPORT_FLOATS, REPORT_FLOATS, st.booleans())


@settings(max_examples=100, deadline=None)
@given(st.lists(REPORT_ROWS, max_size=40), st.booleans(), st.integers(0, 2 ** 63 - 1))
def test_report_text_is_json_dumps_with_indent_2(rows, ok, seed):
    report = {"checks": rows, "pass": ok, "seed": seed}
    assert cli._report_text(report) == json.dumps(report, indent=2)


# ---------------------------------------------------------------------------
# metamorphic checks across subcommands


def _real_characters(spec):
    """The group of a spec and its normalized real characters, one row each.

    Each row is positive definite with value 1 at the identity: cos(2 pi k g / m)
    for k = 0..m // 2 on cyclic:m, and the trivial, sign and standard (halved)
    characters on s3, in the element order of the CLI's groups.
    """
    if spec == "s3":
        perms = list(itertools.permutations(range(3)))
        sign = [np.linalg.det(np.eye(3)[list(p)]) for p in perms]
        fixed = [sum(p[i] == i for i in range(3)) for p in perms]
        return symmetric_group(3), np.array([np.ones(6), sign, (np.array(fixed) - 1) / 2])
    m = int(spec.split(":")[1])
    g = np.arange(m)
    return cyclic_group(m), np.array([np.cos(2 * np.pi * k * g / m) for k in range(m // 2 + 1)])


@settings(max_examples=4, deadline=None)
@pytest.mark.parametrize("spec", ["cyclic:3", "cyclic:4", "cyclic:5", "s3"])
@given(data=st.data())
def test_transference_schur_and_fourier_verdicts_agree(spec, data):
    # Bozejko-Fendler: the Schur multiplier of t(g h^-1) on M_|G| and the
    # Fourier multiplier of t on L(G) are Markov together.  t mixes one or two
    # components; a negative one makes t not positive definite.
    group, chars = _real_characters(spec)
    picked = data.draw(st.lists(st.integers(0, len(chars) - 1), min_size=1, max_size=2,
                                unique=True))
    definite = len(picked) == 1 or data.draw(st.booleans())
    first = data.draw(st.floats(0.1, 1.0))
    coeffs = [first]
    if len(picked) == 2:
        second = data.draw(st.floats(0.1, 0.9))
        coeffs.append(second if definite else -second * first)
    t = np.array(coeffs) @ chars[picked] / sum(coeffs)
    symbol = t[group.table[:, group.inverse]]
    uniform = np.full(group.order, 1.0 / group.order)
    schur_code, schur = run_in_process("check-schur", {"symbol": symbol.tolist(),
                                                       "weights": uniform.tolist()})
    fourier_code, fourier = run_in_process("fourier", {"group": spec, "t": t.tolist()})
    assert schur_code == fourier_code == (0 if definite else 1)
    assert schur["pass"] == fourier["pass"] == definite


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_check_schur_is_invariant_under_relabelling(n, data):
    # permuting the symbol and its weights together relabels the basis of M_n
    gen = rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    t = random_unital_psd_symbol(gen, n, data.draw(st.integers(1, n)))
    if n > 2 and data.draw(st.booleans()):
        t[0, 1] = t[1, 0] = -t[0, 1]  # often no longer PSD
    w = random_weights(gen, n)
    perm = data.draw(st.permutations(range(n)))
    code, report = run_in_process("check-schur", {"symbol": t.tolist(), "weights": w.tolist()})
    moved_code, moved = run_in_process("check-schur", {"symbol": t[np.ix_(perm, perm)].tolist(),
                                                       "weights": w[perm].tolist()})
    assert moved_code == code
    assert [(r["name"], r["pass"]) for r in moved["checks"]] == \
        [(r["name"], r["pass"]) for r in report["checks"]]
    for row, moved_row in zip(report["checks"], moved["checks"]):
        assert abs(row["residual"] - moved_row["residual"]) <= 1e-13, row["name"]
