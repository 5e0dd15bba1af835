"""Smoke tests of the scripts under scripts/, run as their users run them."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_mandel_sweeps_script(tmp_path):
    proc = run_script("mandel_sweeps.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    files = sorted(tmp_path.glob("mandel_*.csv"))
    assert len(files) == 10
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# dpagauss")
        assert len(lines) == 2 + 241


def test_critical_points_script(tmp_path):
    out = tmp_path / "critical.json"
    proc = run_script("critical_points.py", str(out))
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    assert [(rec["nbar"], rec["r"]) for rec in records] == [
        (0.2, 0.1), (0.1, 0.2), (1.0, 1.0)]
    assert [rec["alpha_c"] for rec in records] == pytest.approx(
        [0.3494, 0.4961, 9.714], abs=5e-4)
    assert [rec["mechanism"] for rec in records] == [
        "interior_tangency", "interior_tangency", "boundary_q0_zero"]


def test_wigner_error_table_script():
    proc = run_script("wigner_error_table.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if not line.startswith("  ")] == [
        f"{name} {kind}: relative error, max and median per band of u + r"
        for name in ("quadrature", "beta") for kind in ("grid", "axis")]
    maxima = [float(line.split("max ")[1].split()[0]) for line in lines
              if line.startswith("  ")]
    assert len(maxima) == 4 * 12
    # every band within 1e-13 at u + r < 1, and within 1e-3 up to 12
    assert max(maxima[::12]) < 1e-13 and max(maxima) < 1e-3


def test_photon_error_table_script():
    proc = run_script("photon_error_table.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = ("displacement_amplitude", "mean_photon", "photon_variance",
             "mandel_q")
    assert [line for line in lines if not line.startswith("  ")] == [
        f"{name}, {kind}: relative error, max and median per band of u"
        for kind in ("delta = 0", "random delta") for name in names] + [
        "recorded inputs at delta = 0: relative error"]
    maxima = [float(line.split("max ")[1].split()[0]) for line in lines
              if line.startswith("  [")]
    assert len(maxima) == 2 * 4 * 5
    # at random delta every band is within 1e-13, and so is A at delta = 0
    # below u = 6
    assert max(maxima[20:]) < 1e-13 and max(maxima[:3]) < 1e-13
