import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_lab import DiagonalState, SchurSymbol, certify_markov, cli, config, multiplier_map

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


def test_large_window_skips_oversized_fock_checks():
    result = run_cli("secondquant", "--window", "4")
    assert result.returncode == 0, result.stderr
    names = [c["name"] for c in json.loads(result.stdout)["checks"]]
    assert not any(name.startswith("rota_secondquant") for name in names)
    assert any(name.startswith("ppnp") for name in names)


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


def test_secondquant_on_subnormal_entries_warns_nothing():
    payload = {"matrix": [[0.0, 0.0], [0.0, 2.225073858507e-311]], "window": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("secondquant", payload, "--steps", "0")
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert "Warning" not in err


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


def test_negative_samples_exit_two():
    result = run_cli("check-schur", "--samples", "-3")
    assert result.returncode == 2
    assert "samples must be nonnegative" in result.stderr
    assert result.stdout == ""
    code, report = run_in_process(
        "check-schur", {"symbol": [[1, 0.5], [0.5, 1]], "weights": [0.5, 0.5]},
        "--samples", "0")
    assert code == 0 and report["pass"] is True


@pytest.mark.parametrize("flags, message", [
    (("--tol", "nan"), "error: tolerance must be a positive finite number"),
    (("--tol", "inf"), "error: tolerance must be a positive finite number"),
    (("--tol", "0"), "error: tolerance must be a positive finite number"),
    (("--samples", "-1"), "error: samples must be nonnegative"),
], ids=["tol-nan", "tol-inf", "tol-zero", "samples-negative"])
def test_bad_flags_exit_two_with_an_error(flags, message):
    code, out, err = run_main("rota", {"symbol": [[1, 0.5], [0.5, 1]], "weights": [0.5, 0.5]},
                              *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("weights, message", [
    ([0.5, float("nan")], "error: state weights must be finite"),
    ([[0.5], [0.5]], "error: state weights must be a 1-D"),
], ids=["nan", "nested"])
def test_bad_weights_exit_two_with_an_error(weights, message):
    for command in ("check-schur", "rota"):
        code, out, err = run_main(command, {"symbol": [[1, 0.5], [0.5, 1]], "weights": weights})
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
], ids=["matrix-inf", "steps-negative", "window-float", "window-string", "t-nested",
        "matrix-string", "t-string", "weights-string", "symbol-bool"])
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


def test_markov_cp_row_matches_certify_markov():
    # a Choi Hermiticity defect of 5e-10 is within --tol, as certify_markov allows
    payload = {"symbol": [[1, 0.5], [0.5000000005, 1]], "weights": [0.5, 0.5]}
    _, report = run_in_process("check-schur", payload)
    row = next(check for check in report["checks"] if check["name"] == "markov_cp")
    symbol = SchurSymbol(np.array(payload["symbol"], dtype=complex))
    verdict = certify_markov(multiplier_map(symbol), DiagonalState(payload["weights"])).cp
    assert row["tol"] == config.TOL_PSD
    assert row["pass"] == verdict
    assert row["pass"] is True


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
def test_fourier_reports_any_coefficients(payload):
    _assert_reported("fourier", payload)


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


# 15 examples: a rank-6 window (m = 2, window = 1, --steps >= 1) costs about 3.5 s
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
