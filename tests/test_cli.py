import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpagauss import statistics, verify
from dpagauss.cli import main
from dpagauss.model import MAX_EFF_SQUEEZE


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
], ids=["eval-u200", "critical-r400", "eval-nbar1e200", "sweep-u200",
        "sweep-nbar1e300", "eval-infinite-variance"])
def test_unrepresentable_results_are_usage_errors(args, named, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == "" and err.startswith("usage error:")
    # the formula, not the errno tuple or text of the float exception
    assert named in err
    assert "(34," not in err and "range error" not in err


@pytest.mark.parametrize("args", [
    ["critical", "--r", "400"],
    ["eval", "--r", "1e-300", "--alpha", "1e10", "--u", "1"],
    ["sweep", "--r", "1e-300", "--alpha", "1e10", "--u-stop", "1",
     "--u-steps", "3"],
    ["wigner-grid", "--r", "1e-300", "--alpha", "1e10", "--u", "1",
     "--grid-steps", "2"],
], ids=["critical", "eval", "sweep", "wigner-grid"])
def test_overflow_prints_only_the_usage_error(args):
    # a fresh interpreter, so numpy warnings reach stderr as users see them
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "dpagauss.cli", *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
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
     "a10c0948c5b78759f5db63f94fe9adea3182c4cbda1e577997e77c04519a54c1"),
    (["eval", "--nbar", "0.2", "--r", "0.1", "--alpha", "0.3494",
      "--theta", "0.8", "--phi", "0.3", "--lambda", "0.1", "--u", "0.3857"],
     "ef72e047a040555de56b7d304b9512883e21205cf3b22a10ea25331ab229d557"),
    (["critical", "--nbar", "0.1", "--r", "0.2"],
     "3142b20b0b397115bb99a45ee3e822e712f8bd22cca1fb3fbd39c9cf87825c4e"),
], ids=["sweep", "wigner-grid", "eval", "critical"])
def test_stdout_is_byte_identical(args, digest, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    ["verify", "--fock-dim", "12"],
], ids=["verify-nbar", "critical-alpha", "critical-lambda",
        "eval-prep-time", "verify-fock-dim"])
def test_flag_the_subcommand_does_not_read_is_usage_error(args, capsys):
    assert_one_usage_error_line(*run_cli(args, capsys))


@pytest.mark.parametrize("args", [
    ["sweep", "--r", "0", "--u-stop", "1"],
    ["sweep", "--r", "0.1", "--u-stop", "400"],
    ["wigner-grid", "--u", "1"],
    ["wigner-grid", "--r", "0.1", "--u", "400"],
    ["eval", "--r", "0.1", "--u", "-1"],
    ["critical", "--r", "0"],
], ids=["sweep-r0", "sweep-beyond-guard", "wigner-grid-r0",
        "wigner-grid-beyond-guard", "eval-negative-u", "critical-r0"])
def test_model_time_guards_are_usage_errors(args, capsys, monkeypatch):
    rows = []
    monkeypatch.setattr(statistics, "mandel_q",
                        lambda state: rows.append(state))
    assert_one_usage_error_line(*run_cli(args, capsys))
    # a sweep fails before its first row
    assert rows == []


def test_workers_below_one_is_usage_error(capsys):
    code, out, err = run_cli(["verify", "--workers", "0"], capsys)
    assert_one_usage_error_line(code, out, err)
    assert "workers" in err


@pytest.mark.parametrize("command, values, named", [
    ("eval", {"nbr": 0.2}, "nbr"),
    ("eval", {"u_steps": 5}, "u_steps"),
    ("eval", {"nbar": "x"}, "nbar"),
    ("eval", {"nbar": True}, "nbar"),
    ("sweep", {"r": 0.1, "u_steps": 2.5}, "u_steps"),
    ("verify", {"nbars": 0.5}, "nbars"),
    ("verify", {"wigner_points": [[0.2, 0.1, 0.3, 0.5]]}, "wigner_points"),
], ids=["typo", "other-subcommand", "not-a-number", "bool", "int-flag",
        "grid-scalar", "wigner-point-width"])
def test_config_defects_are_usage_errors(tmp_path, capsys, command, values,
                                         named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code, out, err = run_cli([command, "--config", str(config)], capsys)
    assert_one_usage_error_line(code, out, err)
    assert repr(named) in err


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
        "wigner_points": [[0.2, 0.1, 0.3, 0.5, 0.45]],
    }))
    code, out, _ = run_cli(["verify", "--config", str(config),
                            "--workers", "1"], capsys)
    assert code == 0
    payload = strict_json(out)
    assert payload["pass"] is True
    assert all(e["rel_err"] <= 1e-6 for e in payload["entries"])

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
