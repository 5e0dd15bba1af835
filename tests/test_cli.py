import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpagauss import (cli, fock, model, nonclassicality, statistics, verify,
                      wigner)
from dpagauss.cli import main
from dpagauss.model import MAX_EFF_SQUEEZE, ModelParams, evolved_state

import mp_reference


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not allow."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_eval_reports_classicality_factor(capsys):
    code, out, _ = run_cli(["eval", "--nbar", "0.2", "--r", "0.1",
                            "--alpha", "0.3", "--u", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["classicality_factor"] == pytest.approx(1.1462, abs=5e-5)
    assert report["p_representation_exists"] is True
    assert report["mandel_q"] == pytest.approx(0.2592983270430015, rel=1e-10)
    assert report["crossover_u"] == pytest.approx(0.06823611831060641,
                                                  rel=1e-10)


def test_eval_vacuum_mandel_undefined(capsys):
    code, out, _ = run_cli(["eval"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mandel_q"] == "undefined (vacuum)"


def test_eval_coherent_state(capsys):
    code, out, _ = run_cli(["eval", "--alpha", "1.2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mandel_q"] == pytest.approx(0.0, abs=1e-10)
    assert report["snr"] == pytest.approx(4.0 * 1.2 ** 2, rel=1e-12)


def test_eval_rejects_invalid_params(capsys):
    code, _, err = run_cli(["eval", "--nbar", "-0.5"], capsys)
    assert code == 1
    assert "nbar" in err
    code, _, err = run_cli(["eval", "--alpha", "1.0", "--u", "0.5"], capsys)
    assert code == 1  # r = 0 with dynamics


@pytest.mark.parametrize("args", [
    ["--nbar", "nan"],
    ["--alpha", "inf"],
    ["--r", "0.1", "--theta=-inf"],
    ["--r", "0.1", "--u", "nan"],
    ["--lambda", "nan"],
])
def test_eval_rejects_non_finite_inputs(args, capsys):
    code, out, err = run_cli(["eval", *args], capsys)
    assert code == 1
    assert out == "" and "finite" in err


def test_eval_rejects_time_beyond_squeeze_guard(capsys):
    code, out, err = run_cli(["eval", "--r", "0.1", "--u", "400"], capsys)
    assert code == 1
    assert out == "" and "u + r" in err


@pytest.mark.parametrize("args, named", [
    (["eval", "--r", "1", "--u", "200"], "photon_variance overflows"),
    (["critical", "--r", "400"], "mandel_q_curve overflows"),
    (["eval", "--nbar", "1e200", "--r", "0.1"], "photon_variance overflows"),
    (["sweep", "--r", "1", "--u-stop", "200"], "photon_variance overflows"),
    (["sweep", "--nbar", "1e300", "--r", "1", "--u-steps", "2"],
     "photon_variance overflows"),
    # finite inputs whose photon variance is +inf in double precision
    (["eval", "--nbar", "1.3e154", "--r", "0.1"], "photon_variance not finite"),
    (["sweep", "--nbar", "1.3e154", "--r", "0.1", "--u-stop", "0.5",
      "--u-steps", "2"], "photon_variance not finite"),
    # cosh 2r rounds to 1, so the squeezed vacuum has no photons at u = 0:
    # Q is 0/0 at r = 4e-9 and x/0 at r = 5e-9
    (["critical", "--nbar", "0", "--r", "4e-9"], "undefined for the vacuum"),
    (["critical", "--nbar", "0", "--r", "5e-9"], "undefined for the vacuum"),
    # coth(r/2) = 2e30 puts alpha_c far below the bisection tolerance
    (["critical", "--nbar", "1", "--r", "1e-30"], "not resolved at ALPHA_TOL"),
    # min Q jumps across the final bracket: it is 3.3e-3 at the bisected
    # alpha_c, whose record had no zeros
    (["critical", "--nbar", "10", "--r", "1e-10"], "above TANGENCY_ATOL"),
    # Var n's displacement term cancels to rounding noise near u = 9.4
    (["critical", "--nbar", "75351050109549", "--r", "1.310771115913621e-31"],
     "lost to rounding"),
    # the same cancellation printed Q = -1 where Q is about 1.03e6
    (["eval", "--nbar", "7.5e13", "--r", "1.3e-31", "--alpha", "0.25",
      "--u", "9.4"], "lost to rounding"),
    (["sweep", "--nbar", "7.5e13", "--r", "1.3e-31", "--alpha", "0.25",
      "--u-start", "9.3", "--u-stop", "9.4", "--u-steps", "2"],
     "lost to rounding"),
    # offsets of e^{u+r} standard deviations square past the double range
    (["wigner-grid", "--r", "1", "--u", "200", "--lambda", "0.3",
      "--grid-steps", "41"], "wigner_quadrature overflows"),
], ids=["eval-u200", "critical-r400", "eval-nbar1e200", "sweep-u200",
        "sweep-nbar1e300", "eval-infinite-variance", "sweep-infinite-variance",
        "critical-vacuum-0/0", "critical-vacuum-x/0", "critical-unresolved",
        "critical-min-q-jump", "critical-rounding", "eval-rounding",
        "sweep-rounding", "wigner-grid-u200"])
def test_unrepresentable_results_are_usage_errors(args, named, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == "" and err.startswith("usage error:")
    # the formula, not the errno tuple or text of the float exception
    assert named in err
    assert "(34," not in err and "range error" not in err


def test_wigner_grid_short_of_the_rounding_limit_stays_under_its_peak(
        capsys):
    # u + r = 9 off the squeeze axis, where a cross-term exponent rounded
    # below 0 one step of u later
    code, out, err = run_cli(["wigner-grid", "--r", "1", "--u", "8",
                              "--lambda", "0.3", "--grid-steps", "41"],
                             capsys)
    assert code == 0 and err == ""
    ws = [float(line.split(",")[2]) for line in out.splitlines()[2:]]
    assert len(ws) == 41 * 41 and max(ws) <= 1.0 / math.pi


@pytest.mark.parametrize("u, steps", [("8", "41"), ("9", "41"),
                                      ("10", "9")])
def test_wigner_grid_off_the_squeeze_axis_matches_the_reference(u, steps,
                                                                capsys):
    # lam = 0.3 off theta/2 = 0: a cross-term exponent printed W off by a
    # factor of 12.2 at u 8 and rounded below 0 at u 9 and 10
    code, out, err = run_cli(["wigner-grid", "--r", "1", "--u", u,
                              "--lambda", "0.3", "--grid-steps", steps],
                             capsys)
    assert code == 0 and err == ""
    state = evolved_state(ModelParams(alpha_mag=0.0, squeeze_mag=1.0),
                          float(u))
    peak = 1.0 / math.pi
    rows = [tuple(map(float, line.split(",")))
            for line in out.splitlines()[2:]]
    assert len(rows) == int(steps) ** 2
    for x, p, w in rows:
        want = mp_reference.wigner_quadrature(state, 0.3, x, p)
        if want < sys.float_info.min:
            assert w < 2.0 * sys.float_info.min
        else:
            assert abs(w - want) <= mp_reference.relative_bound(
                state, want, peak) * want


# phi = pi/2, theta = 0: the displacement term of Var n adds up, so Q of
# about 8.4e12 at u = 14 is exact to a few ulp while the rounding bound,
# about 3e-4, is only small relative to Q
@pytest.mark.parametrize("args", [
    ["eval", "--r", "1", "--alpha", "1", "--phi", "1.5707963267948966",
     "--u", "14"],
    ["sweep", "--r", "1", "--alpha", "1", "--phi", "1.5707963267948966",
     "--u-start", "13", "--u-stop", "14", "--u-steps", "3"],
], ids=["eval", "sweep"])
def test_large_mandel_q_passes_the_rounding_guard(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    mandel = (strict_json(out)["mandel_q"] if args[0] == "eval"
              else float(out.splitlines()[-1].split(",")[1]))
    # 50-digit evaluation of the closed form: 8417378512537.7353
    assert mandel == pytest.approx(8417378512537.7353, rel=1e-13)


@pytest.mark.parametrize("args", [
    ["critical", "--r", "400"],
    ["eval", "--r", "1e-300", "--alpha", "1e10", "--u", "1"],
    ["sweep", "--r", "1e-300", "--alpha", "1e10", "--u-stop", "1",
     "--u-steps", "3"],
    ["wigner-grid", "--r", "1e-300", "--alpha", "1e10", "--u", "1",
     "--grid-steps", "2"],
    # the vacuum's x/0 exited 0 after two numpy warnings, and so did an
    # alpha_c at the bisection floor; its 0/0 already gave one error line
    ["critical", "--nbar", "0", "--r", "5e-9"],
    ["critical", "--nbar", "1", "--r", "1e-30"],
], ids=["critical", "eval", "sweep", "wigner-grid", "critical-vacuum-x/0",
        "critical-unresolved"])
def test_overflow_prints_only_the_usage_error(args):
    # a fresh interpreter, so numpy warnings reach stderr as users see them
    proc = subprocess.run(
        [sys.executable, "-m", "dpagauss.cli", *args], env=fresh_env(),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage error:")
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.count("\n") == 1


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(nbar=st.floats(min_value=0.0, allow_infinity=False),
       r=st.floats(min_value=0.0, max_value=MAX_EFF_SQUEEZE),
       alpha=st.floats(min_value=0.0, allow_infinity=False),
       u=st.floats(min_value=0.0, max_value=MAX_EFF_SQUEEZE),
       theta=finite_floats, phi=finite_floats, lam=finite_floats)
@settings(max_examples=300, deadline=None)
def test_eval_gives_finite_json_or_usage_error(nbar, r, alpha, u, theta,
                                               phi, lam):
    args = ["eval"] + [f"--{flag}={value!r}" for flag, value in (
        ("nbar", nbar), ("r", r), ("alpha", alpha), ("u", u),
        ("theta", theta), ("phi", phi), ("lambda", lam))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    if code == 0:
        report = strict_json(out.getvalue())
        assert all(math.isfinite(v) for v in report.values()
                   if isinstance(v, float))
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage error:")


@given(nbar=st.floats(min_value=0.0, allow_infinity=False),
       r=st.floats(min_value=0.0, allow_infinity=False), theta=finite_floats)
# a bisection floor reported as alpha_c, with a "3 zeros found" warning
@example(nbar=13416674.0, r=1.175494351e-38, theta=0.0)
# Var n's displacement term cancelled to rounding noise: Q = -1 at u = 9.4
# and a "32 zeros found" warning
@example(nbar=75351050109549.0, r=1.310771115913621e-31, theta=0.0)
@settings(max_examples=200, deadline=None)
def test_critical_gives_a_record_a_usage_error_or_no_transition(nbar, r,
                                                                 theta):
    args = ["critical", f"--nbar={nbar!r}", f"--r={r!r}",
            f"--theta={theta!r}", f"--phi={theta / 2!r}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    if code == 0:
        record = strict_json(out.getvalue())
        assert math.isfinite(record["alpha_c"]) and record["alpha_c"] > 0
        assert all(math.isfinite(zero) for zero in record["zeros"])
        assert err.getvalue() == ""
    elif code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 2
        assert list(strict_json(out.getvalue())) == ["error"]


@given(nbar=st.floats(min_value=0.0, max_value=2.0),
       r=st.floats(min_value=1e-3, max_value=1.5))
@settings(max_examples=30, deadline=None)
def test_critical_record_has_zeros(nbar, r):
    # alpha_c is where min Q touches zero, so its curve has a zero
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["critical", f"--nbar={nbar!r}", f"--r={r!r}"])
    assert code in (0, 1)
    if code == 0:
        assert strict_json(out.getvalue())["zeros"]


# sha256 of stdout as first written by the per-point implementations of
# these tables; a one-ulp drift in any value changes them.  They depend on
# the platform's libm and numpy build (recorded on x86-64 Linux, numpy 2.4).
@pytest.mark.parametrize("args, digest", [
    (["sweep", "--nbar", "0.2", "--r", "0.1", "--alpha", "0.3494",
      "--theta", "0.6", "--phi", "0.1", "--lambda", "0.2", "--u-start", "0",
      "--u-stop", "1.2", "--u-steps", "241"],
     "ea3f945af2afab9a68fd28189e914b072163fa7789e05d8177387ddda66e3430"),
    (["wigner-grid", "--nbar", "0.3", "--r", "0.2", "--alpha", "0.5",
      "--theta", "0.8", "--phi", "0.3", "--lambda", "0.1", "--u", "0.4",
      "--grid-steps", "41"],
     "2e2aac3f0468dffd06db19c403e261572ad88096049b90cb5fde133e724f5b98"),
    (["eval", "--nbar", "0.2", "--r", "0.1", "--alpha", "0.3494",
      "--theta", "0.8", "--phi", "0.3", "--lambda", "0.1", "--u", "0.3857"],
     "ef72e047a040555de56b7d304b9512883e21205cf3b22a10ea25331ab229d557"),
    (["critical", "--nbar", "0.1", "--r", "0.2"],
     "3142b20b0b397115bb99a45ee3e822e712f8bd22cca1fb3fbd39c9cf87825c4e"),
    # the vacuum rows print nan for Q
    (["sweep", "--r", "1e-9", "--u-stop", "1e-8", "--u-steps", "3"],
     "01eb94d148bdf036103fa87a92b5f3b9eb34959c935fdcf07192d31ee6bb2cde"),
    (["wigner-grid", "--nbar", "0", "--r", "0.5", "--theta", "1",
      "--lambda", "0.3", "--grid-steps", "2"],
     "dc69959e3607edea1b70436922c0b572b582ce7e05324b72e954c7ae44850544"),
    # theta - 2 phi != 0
    (["sweep", "--nbar", "3", "--r", "0.7", "--alpha", "2", "--theta", "0.4",
      "--phi", "2", "--u-stop", "5", "--u-steps", "7"],
     "b297237d69235c5ac618ccd40ac4efc75ad88c4388eb452869bd0993136a1fde"),
    # theta = 2 lam: the offsets are already on the squeeze axes
    (["wigner-grid", "--nbar", "0.3", "--r", "0.2", "--alpha", "0.5",
      "--u", "0.4", "--grid-steps", "41"],
     "f2062978c36109531106bb4f2ffd202926f92b9fb4417156bc13a407801a5684"),
    (["wigner-grid", "--nbar", "0.3", "--r", "0.2", "--alpha", "0.5",
      "--phi", "0.2", "--theta", "0.6", "--lambda", "0.3", "--u", "2.5",
      "--grid-steps", "41"],
     "e40110105279c1d4fd8e34779b5c80ea9e22c8d31feec6c255441f6dc76bc977"),
], ids=["sweep", "wigner-grid", "eval", "critical", "sweep-vacuum",
        "wigner-grid-small", "sweep-misaligned", "wigner-grid-aligned",
        "wigner-grid-aligned-tilted"])
def test_stdout_is_byte_identical(args, digest, capsys, tmp_path):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # --out writes the same bytes to a file
    path = tmp_path / "out"
    assert run_cli(args + ["--out", str(path)], capsys) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(["eval", "--bogus", "1"], capsys)
    assert code == 1


def assert_one_usage_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["verify", "--nbar", "1"],
    ["critical", "--r", "0.1", "--alpha", "1"],
    ["critical", "--r", "0.1", "--lambda", "1"],
    ["eval", "--prep-time", "2"],
    ["sweep", "--r", "0.1", "--prep-time", "2"],
    ["wigner-grid", "--prep-time", "2"],
    ["verify", "--fock-dim", "12"],
], ids=["verify-nbar", "critical-alpha", "critical-lambda",
        "eval-prep-time", "sweep-prep-time", "wigner-grid-prep-time",
        "verify-fock-dim"])
def test_flag_the_subcommand_does_not_read_is_usage_error(args, capsys):
    assert_one_usage_error_line(*run_cli(args, capsys))


# a small configuration at which no flag's value is moot
FLAG_BASE = {"nbar": 0.2, "r": 0.3, "alpha": 0.5, "u": 0.4, "lam": 0.1,
             "u_steps": 5, "grid_steps": 5}


def flag_args(command, values):
    """``command`` with a flag for each of ``values`` it reads."""
    return [command, *(item for key in cli.COMMANDS[command][1]
                       if key in values
                       for item in (cli.OPTIONS[key][0], str(values[key])))]


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, keys) in cli.COMMANDS.items()
    if command != "verify" for key in keys])
def test_every_flag_a_subcommand_reads_changes_what_it_prints(command, key,
                                                              capsys):
    # a flag whose value moves no data line and no exit code is not needed
    base = run_cli(flag_args(command, FLAG_BASE), capsys)
    value = FLAG_BASE.get(key, cli.OPTIONS[key][2])
    changed = run_cli(flag_args(command, {
        **FLAG_BASE, key: value + (1 if isinstance(value, int) else 0.1)}),
        capsys)

    def data(out):
        return [line for line in out.splitlines() if not line.startswith("#")]

    assert base[0] == 0
    assert changed[0] != base[0] or data(changed[1]) != data(base[1])


@pytest.mark.parametrize("args, named", [
    (["sweep", "--r", "0", "--u-stop", "1"], "combined limit"),
    (["sweep", "--r", "0.1", "--u-stop", "400"], "exceeds the overflow guard"),
    (["wigner-grid", "--u", "1"], "combined limit"),
    (["wigner-grid", "--r", "0.1", "--u", "400"],
     "exceeds the overflow guard"),
    (["eval", "--r", "0.1", "--u", "-1"], "u must be >= 0"),
    (["critical", "--r", "0"], "requires r > 0"),
    # cosh(800) overflows: the guard must run before A(tau) is computed
    (["eval", "--r", "1", "--u", "800"], "exceeds the overflow guard"),
    (["sweep", "--r", "1", "--u-stop", "800", "--u-steps", "3"],
     "exceeds the overflow guard"),
    (["wigner-grid", "--r", "0.1", "--grid-halfwidth-sigmas", "0"],
     "grid_halfwidth_sigmas must be > 0"),
    # the grid's extent overflows before any W is evaluated: twice the
    # half-width, or its product with the last step
    (["wigner-grid", "--r", "0.5", "--grid-steps", "3",
      "--grid-halfwidth-sigmas", "1e308"], "grid_halfwidth_sigmas: grid"),
    (["wigner-grid", "--r", "0.5", "--grid-steps", "1000",
      "--grid-halfwidth-sigmas", "1e306"], "grid_halfwidth_sigmas: grid"),
], ids=["sweep-r0", "sweep-beyond-guard", "wigner-grid-r0",
        "wigner-grid-beyond-guard", "eval-negative-u", "critical-r0",
        "eval-u800", "sweep-u800", "wigner-grid-halfwidth-0",
        "wigner-grid-halfwidth-1e308", "wigner-grid-last-step-overflow"])
def test_model_time_guards_are_usage_errors(args, named, capsys,
                                            monkeypatch):
    rows = []
    monkeypatch.setattr(statistics, "mandel_q",
                        lambda state: rows.append(state))
    code, out, err = run_cli(args, capsys)
    assert_one_usage_error_line(code, out, err)
    assert named in err
    # a sweep fails before its first row
    assert rows == []


def test_memory_error_is_one_usage_error_line(capsys, monkeypatch):
    # what numpy raises for a sweep of 1e11 rows, without allocating it
    def allocate(args):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000000,) and data type float64")

    monkeypatch.setattr(cli, "cmd_sweep", allocate)
    code, out, err = run_cli(["sweep", "--r", "1", "--u-stop", "1",
                              "--u-steps", "100000000000"], capsys)
    assert_one_usage_error_line(code, out, err)
    assert err == ("usage error: out of memory: Unable to allocate 745. GiB "
                   "for an array with shape (100000000000,) and data type "
                   "float64\n")


def test_workers_below_one_is_usage_error(capsys):
    code, out, err = run_cli(["verify", "--workers", "0"], capsys)
    assert_one_usage_error_line(code, out, err)
    assert "workers" in err


SMALL_OUTPUTS = {
    "eval": ["eval", "--r", "0.5", "--alpha", "1", "--u", "0.2"],
    "sweep": ["sweep", "--r", "0.5", "--u-stop", "0.5", "--u-steps", "3"],
    "wigner-grid": ["wigner-grid", "--r", "0.5", "--grid-steps", "2"],
}


@pytest.mark.parametrize("argv", [
    *SMALL_OUTPUTS.values(), ["critical", "--nbar", "0.2", "--r", "0.1"]],
    ids=lambda argv: argv[0])
def test_serial_subcommands_take_only_one_worker(argv, tmp_path, capsys):
    for workers in ("2", "0"):
        code, out, err = run_cli(argv + ["--workers", workers], capsys)
        assert_one_usage_error_line(code, out, err)
        assert "workers" in err
    config = tmp_path / "workers.json"
    config.write_text(json.dumps({"workers": 2}))
    code, out, err = run_cli(argv + ["--config", str(config)], capsys)
    assert_one_usage_error_line(code, out, err)
    assert "workers" in err
    serial = run_cli(argv, capsys)
    assert serial[0] == 0
    assert run_cli(argv + ["--workers", "1"], capsys) == serial


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
@pytest.mark.parametrize("command", list(SMALL_OUTPUTS))
def test_unwritable_out_is_one_usage_error_line(command, target, tmp_path,
                                                capsys):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x"
    code, out, err = run_cli(SMALL_OUTPUTS[command] + ["--out", str(path)],
                             capsys)
    assert_one_usage_error_line(code, out, err)
    assert err.startswith("usage error: cannot write output:")


def test_closed_pipe_is_one_usage_error_line():
    # the grid's 10 MB of text is far more than a pipe holds, so the writer
    # is still writing when the reader goes
    with subprocess.Popen(
            [sys.executable, "-m", "dpagauss.cli", "wigner-grid", "--r", "0.2",
             "--alpha", "0.5", "--grid-steps", "401"], env=fresh_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        assert proc.stdout.readline().startswith("# dpagauss")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("usage error: cannot write output:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_wigner_grid_writes_nothing_when_a_row_overflows(to_file, tmp_path,
                                                         capsys, monkeypatch):
    # every W is computed before any text is written
    calls = []
    original = wigner.wigner_quadrature

    def third_row_overflows(*args):
        calls.append(args)
        if len(calls) == 3:
            raise FloatingPointError("overflow encountered in exp")
        return original(*args)

    monkeypatch.setattr(wigner, "wigner_quadrature", third_row_overflows)
    path = tmp_path / "grid.csv"
    args = ["wigner-grid", "--r", "0.2", "--alpha", "0.5", "--grid-steps",
            "41"] + (["--out", str(path)] if to_file else [])
    assert_one_usage_error_line(*run_cli(args, capsys))
    assert len(calls) == 3 and not path.exists()


@pytest.mark.parametrize("args, limit_mb", [
    (["wigner-grid", "--nbar", "0.3", "--r", "0.2", "--alpha", "0.5",
      "--u", "0.4", "--grid-steps", "401"], 4),
    (["sweep", "--nbar", "0.2", "--r", "0.1", "--alpha", "0.3494",
      "--theta", "0.6", "--phi", "0.1", "--u-stop", "1.2",
      "--u-steps", "100000"], 25),
], ids=["wigner-grid-401", "sweep-100000"])
def test_table_memory_stays_bounded(args, limit_mb, tmp_path):
    # a table's values are held, never its whole text: about 10 MB for
    # each of these, against 1.3 and 4.0 MB of float64 values
    path = tmp_path / "f"
    tracemalloc.start()
    try:
        code = main(args + ["--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and path.stat().st_size > 9e6
    assert peak < limit_mb * 1e6, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("command, values, named", [
    ("eval", {"nbr": 0.2}, "nbr"),
    ("eval", {"u_steps": 5}, "u_steps"),
    ("sweep", {"prep_time": 2}, "prep_time"),
    ("eval", {"nbar": "x"}, "nbar"),
    ("eval", {"nbar": True}, "nbar"),
    ("sweep", {"r": 0.1, "u_steps": 2.5}, "u_steps"),
    ("verify", {"nbars": 0.5}, "nbars"),
    ("verify", {"wigner_points": [[0.2, 0.1, 0.3, 0.5]]}, "wigner_points"),
    ("verify", {"nbars": [0.5, "0.2"]}, "nbars"),
], ids=["typo", "other-subcommand", "removed-prep-time", "not-a-number",
        "bool", "int-flag", "grid-scalar", "wigner-point-width",
        "grid-string"])
def test_config_defects_are_usage_errors(tmp_path, capsys, command, values,
                                         named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code, out, err = run_cli([command, "--config", str(config)], capsys)
    assert_one_usage_error_line(code, out, err)
    assert repr(named) in err


@pytest.mark.parametrize("key, values", [
    ("us", [0.0, math.nan]),
    ("wigner_points", [[0.2, 0.1, 0.3, 0.5, [math.nan, 0.1]]]),
    ("evolution_grid", [[0.5, 0.3, 0.5, math.inf]]),
], ids=["us-nan", "wigner-beta-nan", "evolution-inf"])
def test_non_finite_verify_grid_entry_names_its_key(key, values, tmp_path,
                                                     capsys):
    # json reads NaN and Infinity; the config file is checked as it is read
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({key: values}))
    report = tmp_path / "report.json"
    code, out, err = run_cli(["verify", "--workers", "1", "--config",
                              str(config), "--out", str(report)], capsys)
    assert_one_usage_error_line(code, out, err)
    assert f"config key {key!r}: " in err and "is not finite" in err
    assert not report.exists()


def test_sweep_deterministic_and_positive_for_small_alpha(tmp_path, capsys):
    args = ["sweep", "--nbar", "0.2", "--r", "0.1", "--alpha", "0.3",
            "--u-start", "0", "--u-stop", "2", "--u-steps", "41",
            "--workers", "1"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0].startswith("# dpagauss 0.1.0 nbar=0.2")
    assert "u_steps=41" in lines[0]
    assert lines[1].split(",")[:2] == ["u", "mandel_q"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 41
    # strictly classical benchmark curve: the Mandel parameter stays positive
    assert min(float(row[1]) for row in rows) > 0.0


LONG_SWEEP = {"nbar": 0.3, "r": 0.25, "alpha": 1.1, "theta": 0.7,
              "phi": 0.2, "lambda": 0.35, "u-start": 0.05, "u-stop": 4.05,
              "u-steps": 2401}


doubles = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@given(x=st.one_of(st.floats(), doubles))
@example(x=math.nan)
@example(x=-math.nan)
@example(x=0.0)
@example(x=-0.0)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=5e-324)  # the smallest subnormal
@example(x=-2.225073858507201e-308)  # the largest subnormal
@example(x=1.7976931348623157e308)  # the largest double
@settings(max_examples=2000)
def test_table_template_prints_what_fmt_prints(x):
    # sweep and wigner-grid format their tables with %.17g templates
    assert "%.17g" % x == cli._fmt(x)
    assert (b"%.17g" % x).decode() == cli._fmt(x)


def test_table_template_prints_flags_as_integers():
    assert ["%d" % f for f in (0.0, 1.0)] == [str(int(f)) for f in (0.0, 1.0)]
    assert [(b"%d" % f).decode() for f in (0.0, 1.0)] == ["0", "1"]



def sweep_flags(out):
    """(u, the text of the three flag columns) of each sweep row."""
    rows = [line.split(",", 5) for line in out.splitlines()[2:]]
    return np.array([float(row[0]) for row in rows]), [row[5] for row in rows]


@pytest.mark.parametrize("patched", [False, True], ids=["misaligned",
                                                        "every-pair"])
def test_sweep_flag_tails_print_what_the_integer_template_printed(
        patched, capsys, monkeypatch):
    # theta != 2 lambda: past u of about 0.2 the field is nonclassical while
    # the lambda quadrature is not squeezed, before it squeezes near u = 1.2
    nbar, r, theta, lam = 0.3, 0.05, 0.8, 0.1
    if patched:  # the criteria cycle through all four (squeezing, P) pairs
        monkeypatch.setattr(nonclassicality, "squeezing_criterion",
                            lambda *args: np.arange(41) % 4 >= 2)
        monkeypatch.setattr(nonclassicality, "p_representation_exists",
                            lambda nbar, r, us: np.arange(41) % 2 == 1)
    code, out, _ = run_cli(["sweep", "--nbar", str(nbar), "--r", str(r),
                            "--theta", str(theta), "--lambda", str(lam),
                            "--alpha", "0.5", "--u-stop", "2",
                            "--u-steps", "41"], capsys)
    assert code == 0
    us, printed = sweep_flags(out)
    squeezed = nonclassicality.squeezing_criterion(nbar, r, theta, lam, us)
    p_density = nonclassicality.p_representation_exists(nbar, r, us)
    # the template the flags were printed with, on the floats it printed
    flags = np.column_stack([squeezed, p_density, ~p_density]).astype(
        float).ravel()
    expected = ((b"%d,%d,%d\n" * len(us)) % tuple(flags.tolist())).decode()
    assert "\n".join(printed) + "\n" == expected
    assert len(set(printed)) == (4 if patched else 3)

def test_one_process_prints_what_separate_processes_print(capsys):
    # the parser is built once per process and serves every later call
    argvs = (["eval", "--r", "0.5", "--alpha", "1", "--u", "0.2"],
             ["sweep", "--r", "0.5", "--u-stop", "0.5", "--u-steps", "3"],
             ["eval", "--u-steps", "3"],
             ["wigner-grid", "--r", "0.5", "--grid-steps", "2"])
    separate = [subprocess.run(
        [sys.executable, "-m", "dpagauss.cli", *argv], env=fresh_env(),
        capture_output=True, text=True, timeout=120) for argv in argvs]
    in_process = [run_cli(argv, capsys) for argv in argvs]
    assert in_process == [(proc.returncode, proc.stdout, proc.stderr)
                          for proc in separate]
    assert in_process[2][0] == 1 and in_process[2][2].startswith("usage error")
    assert cli._build_parser() is cli._build_parser()


def long_sweep(capsys):
    code, out, _ = run_cli(["sweep"] + [f"--{flag}={value!r}" for flag, value
                                        in LONG_SWEEP.items()], capsys)
    assert code == 0
    return out


def test_long_misaligned_sweep_equals_per_row_scalar_calls(capsys):
    # theta - 2 phi != 0, 2,401 rows: every row as the scalar formulas
    # print it at that u
    c = LONG_SWEEP
    params = ModelParams(alpha_mag=c["alpha"], alpha_phase=c["phi"],
                         squeeze_mag=c["r"], squeeze_phase=c["theta"],
                         nbar=c["nbar"])
    nbar, r, theta, lam = c["nbar"], c["r"], c["theta"], c["lambda"]
    step = (c["u-stop"] - c["u-start"]) / (c["u-steps"] - 1)
    expected = []
    for i in range(c["u-steps"]):
        u = c["u-start"] + i * step
        state = evolved_state(params, u)
        floats = (u, statistics.mandel_q(state),
                  statistics.quad_variance_state(state, lam),
                  statistics.mean_photon(state),
                  statistics.photon_variance(state))
        flags = (nonclassicality.squeezing_criterion(nbar, r, theta, lam, u),
                 nonclassicality.p_representation_exists(nbar, r, u),
                 nonclassicality.field_nonclassical(nbar, r, u))
        expected.append(",".join([f"{x:.17g}" for x in floats]
                                 + ["1" if b else "0" for b in flags]))
    rows = long_sweep(capsys).splitlines()[2:]
    assert len(rows) == c["u-steps"]
    for row, want in zip(rows, expected):
        assert row == want


def test_sweep_evaluates_the_state_once_not_per_row(capsys, monkeypatch):
    # the sweep's rows share one array call per formula: a per-row call
    # would show here as thousands of calls
    counted_in = {"evolved_state": (model, cli),
                  "displacement_amplitude": (model, cli),
                  "mean_photon": (statistics,),
                  "photon_variance": (statistics,),
                  "p_representation_exists": (nonclassicality,)}
    calls = dict.fromkeys(counted_in, 0)
    for name, modules in counted_in.items():
        original = getattr(modules[0], name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counted, raising=False)
    long_sweep(capsys)
    assert all(1 <= count <= 2 for count in calls.values()), calls


def test_sweep_writes_nan_for_the_vacuum_rows(capsys):
    # cosh 2(u + r) rounds to 1 at the first two times, so the squeezed
    # vacuum has no photons there and Q is undefined; the third has Q = 1
    code, out, err = run_cli(["sweep", "--r", "1e-9", "--u-stop", "1e-8",
                              "--u-steps", "3"], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [row[1] for row in rows] == ["nan", "nan", "1"]
    assert [row[3] for row in rows][:2] == ["0", "0"]


def test_sweep_negative_start_curve(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--nbar", "1", "--r", "1", "--alpha", "12",
                 "--u-start", "0", "--u-stop", "1", "--u-steps", "11",
                 "--workers", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert float(rows[0][1]) < 0.0


def test_sweep_rejects_bad_ranges(capsys):
    code, _, err = run_cli(["sweep", "--r", "0.1", "--u-start", "1",
                            "--u-stop", "1", "--u-steps", "5"], capsys)
    assert code == 1
    code, _, err = run_cli(["sweep", "--r", "0.1", "--u-start", "0",
                            "--u-stop", "1", "--u-steps", "1"], capsys)
    assert code == 1


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nbar": 0.2, "r": 0.1, "alpha": 0.3}))
    code, out, _ = run_cli(["eval", "--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)["classicality_factor"] == pytest.approx(
        1.1462, abs=5e-5)
    # flags override file values
    code, out, _ = run_cli(["eval", "--config", str(config),
                            "--r", "0.2", "--nbar", "0.1"], capsys)
    assert code == 0
    assert json.loads(out)["classicality_factor"] == pytest.approx(
        0.8044, abs=5e-5)


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "none.json"
    code, _, err = run_cli(["eval", "--config", str(missing)], capsys)
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(["eval", "--config", str(bad)], capsys)
    assert code == 1


def test_critical_benchmark_json(capsys):
    code, out, _ = run_cli(["critical", "--nbar", "0.2", "--r", "0.1"],
                           capsys)
    assert code == 0
    record = json.loads(out)
    assert record["alpha_c"] == pytest.approx(0.3494, abs=5e-4)
    assert record["mechanism"] == "interior_tangency"
    assert record["tangency_u"] == pytest.approx(0.3857, abs=1e-3)
    assert record["zeros"][0] == pytest.approx(record["tangency_u"],
                                               abs=1e-4)
    assert record["nbar"] == 0.2 and record["r"] == 0.1


def test_critical_requires_squeeze(capsys):
    code, _, err = run_cli(["critical", "--nbar", "0.2"], capsys)
    assert code == 1


def test_critical_rejects_misaligned_phases(capsys):
    code, out, err = run_cli(["critical", "--nbar", "0.2", "--r", "0.1",
                              "--theta", "1.0"], capsys)
    assert code == 1
    assert out == "" and "theta - 2 phi" in err
    # an aligned pair rotates the state without changing its statistics
    _, reference, _ = run_cli(["critical", "--nbar", "0.2", "--r", "0.1"],
                              capsys)
    code, out, _ = run_cli(["critical", "--nbar", "0.2", "--r", "0.1",
                            "--theta", "1.0", "--phi", "0.5"], capsys)
    assert code == 0
    assert out == reference


def read_grid(path):
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[2:]])
    return lines[0], rows


def test_wigner_grid_normalization_and_peak(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["wigner-grid", "--nbar", "0.3", "--r", "0.2",
                 "--alpha", "0.5", "--u", "0.4", "--lambda", "0.0",
                 "--grid-steps", "201", "--out", str(out)]) == 0
    header, rows = read_grid(out)
    assert "dpagauss 0.1.0" in header and "lambda=0" in header
    xs = np.unique(rows[:, 0])
    ps = np.unique(rows[:, 1])
    cell = (xs[1] - xs[0]) * (ps[1] - ps[0])
    total = rows[:, 2].sum() * cell
    assert abs(total - 1.0) <= 1e-3

    peak = rows[np.argmax(rows[:, 2])]
    mean_x = (rows[:, 0] * rows[:, 2]).sum() / rows[:, 2].sum()
    assert abs(peak[0] - mean_x) <= (xs[1] - xs[0]) * 1.5


def test_wigner_grid_aligned_covariance(tmp_path):
    nbar, r, u, theta = 0.3, 0.25, 0.35, 0.8
    out = tmp_path / "grid.csv"
    assert main(["wigner-grid", "--nbar", str(nbar), "--r", str(r),
                 "--theta", str(theta), "--alpha", "0.4",
                 "--phi", str(theta / 2), "--u", str(u),
                 "--lambda", str(theta / 2), "--grid-steps", "161",
                 "--out", str(out)]) == 0
    _, rows = read_grid(out)
    w = rows[:, 2]
    norm = w.sum()
    mx = (rows[:, 0] * w).sum() / norm
    mp = (rows[:, 1] * w).sum() / norm
    var_x = ((rows[:, 0] - mx) ** 2 * w).sum() / norm
    var_p = ((rows[:, 1] - mp) ** 2 * w).sum() / norm
    cov = ((rows[:, 0] - mx) * (rows[:, 1] - mp) * w).sum() / norm
    rho = u + r
    assert var_x == pytest.approx((nbar + 0.5) * math.exp(-2 * rho),
                                  rel=5e-3)
    assert var_p == pytest.approx((nbar + 0.5) * math.exp(2 * rho), rel=5e-3)
    assert abs(cov) < 1e-6 * math.sqrt(var_x * var_p) + 1e-9


def test_wigner_grid_rejects_bad_spec(capsys):
    code, _, _ = run_cli(["wigner-grid", "--grid-steps", "1"], capsys)
    assert code == 1


def test_verify_small_grid_exit_codes(tmp_path, capsys, monkeypatch):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({
        "nbars": [0.0, 0.5], "rs": [0.1], "alphas": [0.0, 0.8],
        "us": [0.0, 0.4],
        "evolution_grid": [[0.5, 0.3, 0.5, 0.2]],
        # beta as a number and as [re, im]
        "wigner_points": [[0.2, 0.1, 0.3, 0.5, 0.45],
                          [0.2, 0.1, 0.3, 0.5, [0.45, -0.1]]],
    }))
    code, out, _ = run_cli(["verify", "--config", str(config),
                            "--workers", "1"], capsys)
    assert code == 0
    payload = strict_json(out)
    assert payload["pass"] is True
    assert all(e["rel_err"] <= 1e-6 for e in payload["entries"])
    assert [(e["params"]["beta_re"], e["params"]["beta_im"])
            for e in payload["entries"]
            if e["quantity"] == "wigner_density"] == [(0.45, 0.0),
                                                      (0.45, -0.1)]

    # a gate no comparison can meet: exit 2 with a strict-JSON report
    monkeypatch.setattr(verify, "MOMENT_GATE", 0.0)
    code, out, _ = run_cli(["verify", "--config", str(config),
                            "--workers", "1"], capsys)
    assert code == 2
    payload = strict_json(out)
    assert payload["pass"] is False
    assert any(e["pass"] is False for e in payload["entries"])


def test_verify_empty_grid_is_usage_error(tmp_path, capsys):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"nbars": [], "rs": [0.1],
                                  "alphas": [0.5], "us": [0.0]}))
    code, _, err = run_cli(["verify", "--config", str(config)], capsys)
    assert code == 1
    assert "empty" in err


@pytest.mark.parametrize("error", [fock.TruncationError],
                         ids=["truncation"])
def test_verify_gate_failure_is_one_line_and_exit_2(error, tmp_path, capsys,
                                                    monkeypatch):
    def fail(**grids):
        raise error("forced failure")

    monkeypatch.setattr(verify, "run_verification", fail)
    report = tmp_path / "report.json"
    code, out, err = run_cli(["verify", "--workers", "1",
                              "--out", str(report)], capsys)
    assert code == 2 and out == ""
    assert err == "numerical gate failure: forced failure\n"
    assert not report.exists()


@pytest.fixture(scope="module")
def long_report():
    """40 copies of a report shaped like the default one, with seeded
    17-digit values: 343 entries and 113 kB of text per copy, 4.5 MB in
    all."""
    rng = np.random.default_rng(0)
    cells = [({"nbar": nbar, "r": r, "alpha": alpha, "u": u,
               "lam": verify.REFERENCE_LAM}, quantity)
             for nbar, r, alpha, u in itertools.product(
                 verify.DEFAULT_NBARS, verify.DEFAULT_RS,
                 verify.DEFAULT_ALPHAS, verify.DEFAULT_US)
             for quantity in ("quad_mean", "quad_variance", "mean_photon",
                              "photon_variance")]
    cells += [(dict(zip(("nbar", "r", "alpha", "u"), cell)),
               "evolution_trace_distance")
              for cell in verify.DEFAULT_EVOLUTION_GRID]
    cells += [({"nbar": nbar, "r": r, "alpha": alpha, "u": u,
                "beta_re": beta.real, "beta_im": beta.imag},
               "wigner_density")
              for nbar, r, alpha, u, beta in verify.DEFAULT_WIGNER_POINTS]
    entries = []
    for params, quantity in cells:
        closed, oracle = rng.uniform(0.1, 3.0, 2).tolist()
        entries.append(verify._entry(quantity, params, closed, oracle,
                                     rng.uniform(0.0, 1e-9),
                                     int(rng.integers(100, 12_000)), 1e-6))
    return entries * 40


def verify_with_report(monkeypatch, report, path):
    monkeypatch.setattr(verify, "run_verification", lambda **grids: report)
    return main(["verify", "--out", str(path)])


def test_verify_report_memory_stays_bounded(long_report, monkeypatch,
                                            tmp_path):
    # the report is written as the encoder yields it; its whole text, which
    # json.dumps held about 7 times over, never exists
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code = verify_with_report(monkeypatch, long_report, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and path.stat().st_size > 4.4e6
    assert peak < 2e6, f"{peak / 1e6:.1f} MB"


def test_streamed_verify_report_is_what_json_dumps_writes(long_report,
                                                          monkeypatch,
                                                          tmp_path):
    path = tmp_path / "report.json"
    assert verify_with_report(monkeypatch, long_report, path) == 0
    payload = {"pass": True, "entries": long_report}
    assert path.read_text(encoding="utf-8") == json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_non_finite_report_value_writes_nothing(long_report, monkeypatch,
                                                tmp_path, capsys):
    # a stream cannot take back what it wrote, so the floats are checked
    # before the output is opened
    report = list(long_report)
    report[5] = {**report[5], "oracle": math.nan}
    path = tmp_path / "report.json"
    code = verify_with_report(monkeypatch, report, path)
    captured = capsys.readouterr()
    assert_one_usage_error_line(code, captured.out, captured.err)
    assert "entries.5.oracle not finite" in captured.err
    assert not path.exists()


# neither importing nor running a closed-form subcommand loads scipy or the
# Fock oracle; only verify needs them, and it loads the oracle's compiled
# kernels by path, without the scipy.linalg and scipy.sparse packages and
# what their __init__ imports, without scipy.special, the f2py LAPACK and
# BLAS modules, and, in one process, without the pool's machinery
@pytest.mark.parametrize("module", ["dpagauss", "dpagauss.cli"])
def test_import_loads_no_scipy_and_no_oracle(module, tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({
        "nbars": [0.2], "rs": [0.2], "alphas": [0.5], "us": [0.5],
        "evolution_grid": [[0.0, 0.1, 0.5, 0.0]],
        "wigner_points": [[0.0, 0.1, 0.0, 0.0, [0.3, 0.2]]]}))
    script = f"""
import importlib, os, sys
importlib.import_module({module!r})


def assert_unloaded():
    loaded = sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy"
                    or name in ("dpagauss.fock", "dpagauss.verify"))
    assert not loaded, loaded


assert_unloaded()
from dpagauss import cli
for argv in (["eval"], ["sweep", "--u-steps", "3"],
             ["critical", "--nbar", "1"], ["wigner-grid", "--grid-steps", "3"]):
    assert cli.main(argv + ["--r", "1", "--out", {str(out)!r}]) == 0, argv
    assert_unloaded()
assert cli.main(["verify", "--workers", "1", "--config", {str(config)!r},
                 "--out", {str(tmp_path / "report.json")!r}]) == 0
assert "dpagauss.fock" in sys.modules
unwanted = [name for name in ("scipy.linalg", "scipy.sparse", "scipy._lib._util",
                              "numpy.random", "numpy.f2py",
                              "scipy.linalg._flapack", "scipy.linalg._fblas",
                              "multiprocessing", "concurrent.futures")
            if name in sys.modules]
assert not unwanted, unwanted
# fock takes a module it loads by path out of sys.modules again: its
# library stays mapped, though
maps = "/proc/self/maps"
mapped = open(maps).read() if os.path.exists(maps) else ""
unwanted = [name for name in ("_flapack", "_fblas")
            if f"/linalg/{{name}}." in mapped]
assert not unwanted, unwanted
special = [name for name in sys.modules if name.startswith("scipy.special")]
assert not special, special
"""
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the last run's grid: two header lines and 3 x 3 rows
    assert len(out.read_text().splitlines()) == 2 + 9
    entries = json.loads((tmp_path / "report.json").read_text())["entries"]
    assert len(entries) == 4 + 1 + 1


# two outputs the guards admit and get wrong, with exit 0; the change that
# mends each removes its marker
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: A(tau) collapses "
                   "to 0 from u = 40 at delta = 0")
def test_eval_quad_mean_holds_at_large_u(capsys):
    code, out, _ = run_cli(["eval", "--nbar", "0.2", "--r", "1", "--alpha",
                            "0.5", "--u", "40"], capsys)
    assert code == 0
    params = ModelParams(0.5, squeeze_mag=1.0, nbar=0.2)
    reference = float(math.sqrt(2.0) * mp_reference.displacement_amplitude(
        params, 40.0).real)
    assert strict_json(out)["quad_mean"] == pytest.approx(reference,
                                                          rel=1e-12)


def test_wigner_grid_refuses_an_ill_conditioned_grid(capsys):
    # W off the squeeze axis at u + r = 21 was off by a factor of 1.9e181
    code, out, err = run_cli(["wigner-grid", "--r", "1", "--u", "20",
                              "--lambda", "0.3", "--grid-steps", "41"],
                             capsys)
    assert_one_usage_error_line(code, out, err)
    assert "ill-conditioned" in err
    # the bound overflows there: the message names the overflow
    assert "inf" not in err and "overflows double precision" in err


@pytest.mark.parametrize("theta, lam", [("0", "0"), ("0.6", "0.3")],
                         ids=["untilted", "tilted"])
def test_wigner_grid_on_the_squeeze_axes_is_never_refused(theta, lam,
                                                          capsys):
    # theta = 2 lam turns the offsets by an exact 0, however strong the
    # squeeze
    code, out, err = run_cli(["wigner-grid", "--r", "1", "--u", "20",
                              "--theta", theta, "--lambda", lam,
                              "--grid-steps", "41"], capsys)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2 + 41 * 41
