import functools
import hashlib
import logging
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

import dpagauss.nonclassicality as ncl
from dpagauss import cli
from dpagauss import (
    BehaviorKind,
    Mechanism,
    ModelParams,
    classicality_factor,
    classify_behavior,
    critical_alpha_q0_root,
    crossover_time,
    evolved_state,
    field_nonclassical,
    find_critical_alpha,
    mandel_q,
    mandel_q_curve,
    p_representation_exists,
    squeezing_criterion,
)
from dpagauss.model import MAX_EFF_SQUEEZE
from dpagauss.statistics import VacuumError

nbars = st.floats(min_value=0.0, max_value=2.0)
squeezes = st.floats(min_value=1e-3, max_value=1.5)
times = st.floats(min_value=0.0, max_value=3.0)


def test_p_representation_benchmark_factors():
    assert classicality_factor(0.2, 0.1, 0.0) == pytest.approx(1.1462,
                                                               abs=5e-5)
    assert classicality_factor(0.1, 0.2, 0.0) == pytest.approx(0.8044,
                                                               abs=5e-5)
    assert classicality_factor(1.0, 1.0, 0.0) == pytest.approx(0.4060,
                                                               abs=5e-5)
    assert p_representation_exists(0.2, 0.1, 0.0)
    assert not p_representation_exists(0.1, 0.2, 0.0)
    assert p_representation_exists(0.0, 0.0, 0.0)  # coherent boundary
    assert not field_nonclassical(0.2, 0.1, 0.0)
    assert field_nonclassical(0.1, 0.2, 0.0)


@given(nbars, squeezes, times, times)
@settings(max_examples=300)
def test_nonclassicality_is_monotone_persistent(nbar, r, u1, du):
    if field_nonclassical(nbar, r, u1):
        assert field_nonclassical(nbar, r, u1 + du)


def test_squeezing_criterion_cases():
    assert not squeezing_criterion(0.0, 0.0, 0.0, 0.0, 0.0)  # exactly 1/2
    assert squeezing_criterion(0.0, 0.5, 0.8, 0.4, 0.0)
    with pytest.raises(ValueError):
        squeezing_criterion(0.0, 0.5, 0.0, 0.0, -0.1)
    with pytest.raises(ValueError, match="u must be >= 0"):
        squeezing_criterion(0.0, 0.5, 0.0, 0.0, np.array([0.2, -0.1]))


@given(nbars, squeezes, st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0),
       st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1,
                max_size=40))
@settings(max_examples=200)
def test_squeezing_criterion_broadcasts(nbar, r, theta, lam, us):
    flags = squeezing_criterion(nbar, r, theta, lam, np.array(us))
    assert flags.tolist() == [squeezing_criterion(nbar, r, theta, lam, u)
                              for u in us]


def test_criteria_equivalence_at_alignment():
    rng = np.random.default_rng(314159)
    for _ in range(1000):
        nbar = rng.uniform(0.0, 2.0)
        r = rng.uniform(1e-3, 1.5)
        u = rng.uniform(0.0, 3.0)
        theta = rng.uniform(-math.pi, math.pi)
        assert squeezing_criterion(nbar, r, theta, 0.5 * theta, u) == \
            field_nonclassical(nbar, r, u)


def test_crossover_time():
    value = crossover_time(0.2, 0.1)
    assert value == pytest.approx(0.5 * math.log(1.4 * math.exp(-0.2)),
                                  rel=1e-14)
    assert value == pytest.approx(0.06823611831060641, abs=1e-14)
    assert crossover_time(0.1, 0.2) is None
    assert crossover_time(0.0, 0.0) == 0.0


def test_q0_sign_cases():
    def q0(nbar, r, alpha_mag):
        return float(mandel_q_curve(nbar, r, alpha_mag, 0.0))

    for alpha_mag in (0.0, 0.3, 2.0, 50.0):
        assert q0(0.2, 0.1, alpha_mag) > 1e-5
    assert abs(q0(1.0, 1.0, 9.7140)) <= 1e-5
    assert q0(1.0, 1.0, 12.0) < -1e-5
    with pytest.raises(ValueError):
        mandel_q(evolved_state(ModelParams(alpha_mag=0.0), 0.0))


@given(nbars, squeezes, st.floats(0.0, 20.0))
@settings(max_examples=300)
def test_q0_positive_whenever_p_density_exists(nbar, r, alpha_mag):
    # a classical initial field forces a positive start for every
    # displacement magnitude
    if classicality_factor(nbar, r, 0.0) >= 1.0:
        assert mandel_q_curve(nbar, r, alpha_mag, 0.0) > 0


def test_classify_benchmark_curves():
    strictly = classify_behavior(0.2, 0.1, 0.3)
    assert strictly.kind is BehaviorKind.STRICTLY_CLASSICAL
    assert strictly.zeros == ()

    tangent = classify_behavior(0.2, 0.1, 0.3494)
    assert tangent.kind is BehaviorKind.TANGENT_CRITICAL
    assert tangent.zeros[0] == pytest.approx(0.3857, abs=1e-3)

    mixed = classify_behavior(0.2, 0.1, 0.4)
    assert mixed.kind is BehaviorKind.MIXED_TWO_CROSSINGS
    assert len(mixed.zeros) == 2

    negative = classify_behavior(1.0, 1.0, 12.0)
    assert negative.kind is BehaviorKind.NEGATIVE_START_ONE_CROSSING
    assert len(negative.zeros) == 1


def test_classify_zeros_are_accurate():
    for nbar, r, alpha_mag in ((0.2, 0.1, 0.4), (1.0, 1.0, 12.0),
                               (0.1, 0.2, 1.0)):
        result = classify_behavior(nbar, r, alpha_mag)
        for zero in result.zeros:
            assert abs(float(mandel_q_curve(nbar, r, alpha_mag, zero))) \
                <= 1e-8


def test_classify_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        classify_behavior(0.2, 0.0, 0.3)
    # squeezed vacuum is a legitimate input: any r > 0 populates the mode
    assert classify_behavior(0.0, 0.1, 0.0).kind is \
        BehaviorKind.STRICTLY_CLASSICAL


def test_critical_point_benchmarks():
    fig1 = find_critical_alpha(0.2, 0.1)
    assert fig1.alpha_c == pytest.approx(0.3494, abs=5e-4)
    assert fig1.mechanism is Mechanism.INTERIOR_TANGENCY
    assert fig1.tangency_u == pytest.approx(0.3857, abs=1e-3)

    fig2 = find_critical_alpha(0.1, 0.2)
    assert fig2.alpha_c == pytest.approx(0.4961, abs=5e-4)
    assert fig2.mechanism is Mechanism.INTERIOR_TANGENCY
    assert fig2.tangency_u == pytest.approx(0.2097, abs=1e-3)

    fig3 = find_critical_alpha(1.0, 1.0)
    assert fig3.alpha_c == pytest.approx(9.7140, abs=1e-3)
    assert fig3.mechanism is Mechanism.BOUNDARY_Q0_ZERO
    assert fig3.tangency_u is None
    # closed-form cross-check through the u = 0 root
    assert fig3.alpha_c == pytest.approx(critical_alpha_q0_root(1.0, 1.0),
                                         abs=1e-6)
    assert critical_alpha_q0_root(1.0, 1.0) ** 2 == pytest.approx(94.36,
                                                                  abs=5e-3)


def test_transition_is_sharp_around_critical_point():
    result = find_critical_alpha(0.2, 0.1)
    below = classify_behavior(0.2, 0.1, result.alpha_c - 0.01)
    above = classify_behavior(0.2, 0.1, result.alpha_c + 0.01)
    assert below.kind is BehaviorKind.STRICTLY_CLASSICAL
    assert above.kind in (BehaviorKind.MIXED_TWO_CROSSINGS,
                          BehaviorKind.NEGATIVE_START_ONE_CROSSING)

    result = find_critical_alpha(1.0, 1.0)
    below = classify_behavior(1.0, 1.0, result.alpha_c - 0.01)
    above = classify_behavior(1.0, 1.0, result.alpha_c + 0.01)
    assert below.kind is BehaviorKind.STRICTLY_CLASSICAL
    assert above.kind is BehaviorKind.NEGATIVE_START_ONE_CROSSING


def test_classification_at_refined_critical_point_is_tangent():
    result = find_critical_alpha(0.2, 0.1)
    refined = classify_behavior(0.2, 0.1, result.alpha_c)
    assert refined.kind is BehaviorKind.TANGENT_CRITICAL
    assert abs(float(mandel_q_curve(0.2, 0.1, result.alpha_c,
                                    refined.zeros[0]))) <= 1e-8


def test_no_transition_reported_when_curve_stays_positive(monkeypatch):
    def fake_curve(nbar, r, alpha_mag, us):
        return np.ones_like(np.asarray(us, dtype=float)) + alpha_mag

    # _scan gives the solver both the curve's grid values and its objective
    def fake_scan(nbar, r, points):
        us = np.linspace(0.0, ncl.U_MAX, points)
        return us, lambda alpha_mag: (
            functools.partial(fake_curve, nbar, r, alpha_mag),
            fake_curve(nbar, r, alpha_mag, us))

    monkeypatch.setattr(ncl, "_scan", fake_scan)
    with pytest.raises(ncl.NoTransitionError):
        find_critical_alpha(0.2, 0.1)


def test_bracket_steps_refine_only_where_the_scan_minimum_is_positive(
        monkeypatch):
    # the refine never returns more than the scan's minimum, so a scan that
    # holds a Q <= 0 decides a doubling or bisection step without it
    events = []
    scan, bounded_min = ncl._scan, ncl._bounded_min

    def recorded_scan(*args):
        us, at = scan(*args)

        def recorded_at(alpha_mag):
            q_of, qs = at(alpha_mag)
            events.append(("scan", float(qs.min())))
            return q_of, qs

        return us, recorded_at

    def recorded_min(*args):
        events.append(("refine", None))
        return bounded_min(*args)

    monkeypatch.setattr(ncl, "_scan", recorded_scan)
    monkeypatch.setattr(ncl, "_bounded_min", recorded_min)
    find_critical_alpha(1.0, 1.0)
    # the alpha = 0 check and the final min Q at alpha_c always refine
    assert [kind for kind, _ in events[:2] + events[-2:]] == [
        "scan", "refine", "scan", "refine"]
    steps = events[2:-2]
    scans = [i for i, (kind, _) in enumerate(steps) if kind == "scan"]
    assert steps[0][0] == "scan" and any(steps[i][1] <= 0 for i in scans)
    for i in scans:
        refined = i + 1 < len(steps) and steps[i + 1][0] == "refine"
        assert refined == (steps[i][1] > 0), (i, steps[i])


@pytest.mark.parametrize("nbar, r, doublings", [(0.2, 0.1, 1), (1.0, 1.0, 6)])
def test_solver_explains_itself_in_one_debug_record(nbar, r, doublings,
                                                    caplog, capsys,
                                                    monkeypatch):
    refines, bounded_min = [], ncl._bounded_min
    monkeypatch.setattr(ncl, "_bounded_min", lambda *args: (
        refines.append(args) or bounded_min(*args)))
    with caplog.at_level(logging.DEBUG, logger="dpagauss.nonclassicality"):
        result = find_critical_alpha(nbar, r)
        refined = len(refines)
        assert cli.main(["critical", "--nbar", str(nbar), "--r", str(r)]) == 0
    traced = capsys.readouterr().out
    records = [record for record in caplog.records
               if record.name == "dpagauss.nonclassicality"]
    assert len(records) == 2  # one per solve, the CLI's included
    record = records[0]
    # formatted only where a handler takes it: the arguments stay apart
    assert record.levelno == logging.DEBUG and "%d" in record.msg
    bisections = math.ceil(math.log2(0.25 * 2 ** doublings / ncl.ALPHA_TOL))
    assert record.args[:5] == (nbar, r, doublings, bisections, refined)
    lo, hi, min_q = record.args[5:]
    assert hi - lo <= ncl.ALPHA_TOL and 0.5 * (lo + hi) == result.alpha_c
    assert 0.0 <= min_q <= ncl.TANGENCY_ATOL
    assert f"{bisections} bisection steps" in record.getMessage()
    # stdout is the same with the record off
    assert cli.main(["critical", "--nbar", str(nbar), "--r", str(r)]) == 0
    assert capsys.readouterr().out == traced


def test_dip_narrower_than_the_grid_has_two_crossings(monkeypatch):
    # a Gaussian dip to Q = -1 between two points of the classification
    # grid, at which it is still 0.88: no grid sign change
    step = ncl.U_MAX / (ncl.CLASSIFY_GRID - 1)
    center, width = 1000.5 * step, 0.3 * step

    def fake_curve(us):
        return 1.0 - 2.0 * np.exp(-((np.asarray(us) - center) / width) ** 2)

    monkeypatch.setattr(ncl, "_objective", lambda nbar, r, alpha_mag: (
        lambda u: float(fake_curve(u))))
    monkeypatch.setattr(ncl, "mandel_q_curve",
                        lambda nbar, r, alpha_mag, us: fake_curve(us))
    assert fake_curve(np.linspace(0.0, ncl.U_MAX,
                                  ncl.CLASSIFY_GRID)).min() > 0.8
    result = classify_behavior(0.2, 0.1, 0.3)
    assert result.kind is BehaviorKind.MIXED_TWO_CROSSINGS
    left, right = result.zeros
    half = width * math.sqrt(math.log(2.0))
    assert left == pytest.approx(center - half, abs=1e-12)
    assert right == pytest.approx(center + half, abs=1e-12)


def test_critical_solver_rejects_zero_squeeze():
    with pytest.raises(ValueError):
        find_critical_alpha(0.5, 0.0)
    with pytest.raises(ValueError):
        critical_alpha_q0_root(0.2, 0.1)


def _outcome(f):
    """The bits of f()'s float, or the type and text of its error."""
    try:
        return struct.pack("<d", f())
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@given(nbar=st.floats(min_value=0.0, allow_infinity=False),
       r=st.floats(min_value=1e-300, max_value=MAX_EFF_SQUEEZE),
       alpha=st.floats(min_value=0.0, allow_infinity=False),
       u=st.floats(min_value=0.0, max_value=MAX_EFF_SQUEEZE))
# a one-element array differs here in the last bits: its |A|^2 squares by
# multiplication, the scalar call's by libm pow
@example(nbar=1.9249434105009788, r=0.0022089010371264236,
         alpha=0.7130213134553276, u=1.9514522768530518)
@example(nbar=1.0, r=100.0, alpha=1.0, u=200.0)  # cosh 4(u + r) overflows
@settings(max_examples=300, deadline=None)
def test_scan_objective_is_the_scalar_mandel_q_curve(nbar, r, alpha, u):
    # the minimizer's objective reuses the curve's constants; it must keep
    # the bits and the errors of the scalar call it replaces
    assume(u + r <= MAX_EFF_SQUEEZE)
    with mock.patch.object(ncl, "mandel_q_curve", lambda *args: None):
        q_of, _ = ncl._scan(nbar, r, 2)[1](alpha)
    assert _outcome(lambda: q_of(u)) == _outcome(
        lambda: float(mandel_q_curve(nbar, r, alpha, u)))


@given(nbar=st.floats(min_value=0.0, allow_infinity=False),
       r=st.floats(min_value=1e-300, max_value=MAX_EFF_SQUEEZE),
       alpha=st.floats(min_value=0.0, allow_infinity=False),
       points=st.sampled_from([16, ncl.SCAN_POINTS, ncl.CLASSIFY_GRID]))
@example(nbar=1.0, r=200.0, alpha=1.0, points=16)  # cosh 4(u + r) overflows
@example(nbar=1.0, r=1e-300, alpha=1e10, points=16)  # |A|^2 overflows
@example(nbar=0.0, r=4e-9, alpha=0.0, points=16)  # the vacuum at u = 0
@settings(max_examples=200, deadline=None)
def test_scan_of_a_solve_grid_is_the_mandel_q_curve(nbar, r, alpha, points):
    # a solve builds its terms once and assembles each scan from them; the
    # scan keeps the bits and the errors of the curve it replaces, also at
    # the classifier's size, where the mandel-scan properties read it
    def assembled():
        return ncl._scan(nbar, r, points)[1](alpha)[1]

    def public():
        return mandel_q_curve(nbar, r, alpha,
                              np.linspace(0.0, ncl.U_MAX, points))

    def outcome(f):
        try:
            return f().tobytes()
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)

    assert outcome(assembled) == outcome(public)


# recorded before mandel_q_curve took its terms from _mandel_terms: each
# check and each overflow keeps its type, its text and its place in line
@pytest.mark.parametrize("nbar, r, alpha, us, error", [
    (0.2, 0.0, 0.3, [0.0, 1.0], (ValueError, (
        "displacement_amplitude requires squeeze_mag > 0; use "
        "limit_r_zero_displacement for r = 0"))),
    (0.2, 1e-309, 0.3, [0.0, 1.0], (ValueError, (
        "squeeze_mag 1e-309 is too small: coth(r/2) overflows double "
        "precision"))),
    (0.2, 0.1, 0.3, [0.0, -1.0],
     (ValueError, "dimensionless time u must be >= 0")),
    (0.2, 0.0, 0.3, [0.0, -1.0],
     (ValueError, "dimensionless time u must be >= 0")),
    (-1.0, 0.1, 0.3, [0.0, 1.0], (ValueError, "nbar must be >= 0, got -1.0")),
    (0.2, 0.1, -0.3, [0.0, 1.0],
     (ValueError, "alpha_mag must be >= 0, got -0.3")),
    (math.nan, 0.1, 0.3, [0.0, 1.0],
     (ValueError, "nbar must be finite, got nan")),
    (1.0, 200.0, 1.0, [0.0, 1.0],
     (FloatingPointError, "overflow encountered in cosh")),
    (0.0, 4e-9, 0.0, [0.0, 1.0], (VacuumError, (
        "Mandel parameter undefined for the vacuum (mean photon number is "
        "zero)"))),
    (7.5e13, 1.3e-31, 0.25, [9.4],
     (ValueError, "Mandel parameter lost to rounding past Q_ROUNDING_TOL")),
], ids=["r-zero", "coth-overflow", "negative-u", "r-zero-negative-u",
        "negative-nbar", "negative-alpha", "nan-nbar", "cosh-overflow",
        "vacuum", "rounding-loss"])
def test_mandel_q_curve_errors_keep_type_text_and_order(nbar, r, alpha, us,
                                                        error):
    assert _outcome(lambda: mandel_q_curve(nbar, r, alpha, us)) == error


# What the classifier and the solver raise or return on bad or extreme
# inputs, recorded before the solver's scan helpers were merged: the
# classifier's curve checks |alpha| first, which the solver never reads
@pytest.mark.parametrize("nbar, r, alpha, classified, solved", [
    (0.2, 0.0, 0.3, (ValueError, (
        "displacement_amplitude requires squeeze_mag > 0; use "
        "limit_r_zero_displacement for r = 0")), (ValueError, (
            "find_critical_alpha requires r > 0; the r = 0 combined-limit "
            "dynamics is not covered"))),
    (0.2, 1e-309, 0.3, *[(ValueError, (
        "squeeze_mag 1e-309 is too small: coth(r/2) overflows double "
        "precision"))] * 2),
    (-1.0, 0.1, 0.3, *[(ValueError, "nbar must be >= 0, got -1.0")] * 2),
    (0.2, 0.1, -0.3, (ValueError, "alpha_mag must be >= 0, got -0.3"),
     struct.pack("<d", 0.3493660087697208)),
    (math.nan, 0.1, 0.3, *[(ValueError, "nbar must be finite, got nan")] * 2),
    (1.0, 200.0, 1.0,
     *[(FloatingPointError, "overflow encountered in cosh")] * 2),
    (1.0, 400.0, 1.0,
     *[(FloatingPointError, "overflow encountered in cosh")] * 2),
    (0.0, 4e-9, 0.0, *[(VacuumError, (
        "Mandel parameter undefined for the vacuum (mean photon number is "
        "zero)"))] * 2),
    (7.5e13, 1.3e-31, 0.25, *[(ValueError, (
        "Mandel parameter lost to rounding past Q_ROUNDING_TOL"))] * 2),
    (-1.0, 0.1, -0.3, (ValueError, "alpha_mag must be >= 0, got -0.3"),
     (ValueError, "nbar must be >= 0, got -1.0")),
    (0.2, 0.0, -0.3, (ValueError, "alpha_mag must be >= 0, got -0.3"),
     (ValueError, "find_critical_alpha requires r > 0; the r = 0 "
      "combined-limit dynamics is not covered")),
], ids=["r-zero", "coth-overflow", "negative-nbar", "negative-alpha",
        "nan-nbar", "cosh-overflow", "cosh-overflow-r400", "vacuum",
        "rounding-loss", "negative-nbar-and-alpha", "r-zero-negative-alpha"])
def test_classifier_and_solver_errors_keep_type_text_and_order(
        nbar, r, alpha, classified, solved):
    # a classification that returns shows as the bits of its zero count
    assert _outcome(lambda: len(classify_behavior(nbar, r, alpha).zeros)) \
        == classified
    assert _outcome(lambda: find_critical_alpha(nbar, r).alpha_c) == solved


# Recorded before the solver assembled its Mandel curve from per-u terms:
# for each seeded (nbar, r), float.hex of alpha_c, tangency_u ("-" for
# none), the mechanism and classify_behavior's zeros at alpha_c.
FROZEN_SOLVES = """\
0x1.8e03233c00000p-1 0x1.034f40a515dfep-1 interior 0x1.034f40760bf68p-1
0x1.102ee32c40000p+3 0x1.a11160ecf9618p-2 interior 0x1.a1116094ed59cp-2
0x1.3abde0b880000p+2 0x1.3d6a129bb1ef1p+0 interior 0x1.3d6a12d2e8778p+0
0x1.76fa379bc0000p+3 0x1.9c0cf3bd47146p-1 interior 0x1.9c0cf34117360p-1
0x1.6cb915b600000p+0 0x1.281489968f4e6p-2 interior 0x1.281489d8db773p-2
0x1.5be8df9000000p-3 0x1.5a4800283b24ep-2 interior 0x1.5a48000636117p-2
0x1.48ec1cf6c0000p+3 0x1.6e99965676e51p-2 interior 0x1.6e999695d3b31p-2
0x1.6a73275600000p+0 0x1.ab5578149f9e8p-3 interior 0x1.ab557799526b4p-3
0x1.eb4cf61400000p-1 0x1.502eddb012f13p-2 interior 0x1.502edd7b6758ep-2
0x1.ecf83e3f00000p+1 - boundary 0x0.0p+0
0x1.802aafa700000p+1 0x1.59b0515540f61p-3 interior 0x1.59b05283e0ecfp-3
0x1.4551710600000p+0 0x1.67d88a0bce215p-1 interior 0x1.67d889bb78da2p-1
0x1.dec3b34c00000p-1 - boundary 0x0.0p+0
0x1.f1d9916900000p+1 0x1.95d47289d3b80p-5 interior 0x1.95d4727ec7ea7p-5
0x1.15fbce0400000p-1 0x1.7d27f187671eap-2 interior 0x1.7d27f202f5e5fp-2
0x1.eca9086b00000p+1 0x1.c3ccc95e15404p-1 interior 0x1.c3ccc9583f854p-1
0x1.798a627800000p-2 0x1.005aff2abe6b4p-2 interior 0x1.005afe61957cdp-2
0x1.97c3c31c00000p-1 0x1.26c411c4e38aap-6 interior 0x1.26c40943d3cc0p-6
0x1.8db367d9d0000p+5 0x1.0541a791837ffp-2 interior 0x1.0541a87ef5611p-2
0x1.74e4a9b7e0000p+4 - boundary 0x0.0p+0
0x1.60372e8a00000p+0 0x1.fe72b4f0843bbp-2 interior 0x1.fe72b4cbe2753p-2
0x1.4f93746340000p+3 - boundary 0x0.0p+0
0x1.1c74e03400000p-1 0x1.fa732ca778300p-3 interior 0x1.fa732c1838972p-3
0x1.e827741a00000p+0 - boundary 0x0.0p+0
0x1.df3a3db000000p-3 0x1.1b2f4a72a08a5p-2 interior 0x1.1b2f4a8368d3ap-2
0x1.1903a9e800000p-2 0x1.0df8fcb620fd0p-2 interior 0x1.0df8fc5323c64p-2
0x1.37af356800000p-2 0x1.4168b92b2b42ep-2 interior 0x1.4168b88becda8p-2
0x1.8111883940000p+3 0x1.23a923a5e54d1p-1 interior 0x1.23a923973e67ep-1
0x1.bf18859000000p-3 0x1.a42a300b5fd7ap-2 interior 0x1.a42a3024b9f15p-2
0x1.50bdc05800000p-2 0x1.1c5209a4905d4p-1 interior 0x1.1c520905946eep-1
0x1.153f4c0298000p+6 - boundary 0x0.0p+0
0x1.7e0f60f600000p+0 0x1.8aa47cc2e4f74p-4 interior 0x1.8aa4791a92834p-4
0x1.4bee206500000p+1 - boundary 0x0.0p+0
0x1.4251921400000p-1 0x1.7e709258b64f6p-5 interior 0x1.7e7091e7b5400p-5
0x1.88dff06900000p+1 0x1.d6c1c8bc9c3f7p-2 interior 0x1.d6c1c8a1dbde6p-2
0x1.27f60e6800000p-2 0x1.2082f350102b6p-2 interior 0x1.2082f3a59cfe2p-2
0x1.9c7e7b6800000p-2 0x1.edd2adaaae48cp-3 interior 0x1.edd2acd156112p-3
0x1.61f4e9cc00000p-1 0x1.88dd2767bd796p-2 interior 0x1.88dd26f69df77p-2
0x1.6a5999a500000p+1 - boundary 0x0.0p+0
0x1.c26ccdcc00000p-1 0x1.a6554b888a8b0p-3 interior 0x1.a6554a5db35adp-3
"""
# sha256 of the space-joined float.hex of _scan's 512-point Q and of its
# objective at ten seeded u, on ten seeded curves
FROZEN_GRID_Q = (
    "261f930cced5ee3e02a86d745d57fee7a652dedb55c083beb18a6c1bb0a68b7e")
FROZEN_SCALAR_Q = (
    "610cf4196537465cbb36665ad29396dd2e826d8a83dc1266b7e80401ae9eae5b")


def _frozen_cases():
    """40 (nbar, r), log-uniform over [0.05, 5] x [0.05, 2]; ten curves
    (nbar, r, |alpha|) among them and ten u in [0, U_MAX] for each."""
    rng = np.random.default_rng(38)
    cases = [(float(0.05 * 100.0 ** a), float(0.05 * 40.0 ** b))
             for a, b in rng.random((40, 2))]
    curves = [(nbar, r, float(8.0 * a)) for (nbar, r), a
              in zip(cases[::4], rng.random(10))]
    return cases, curves, (rng.random((10, 10)) * ncl.U_MAX).tolist()


def _solve_record(nbar, r):
    result = find_critical_alpha(nbar, r)
    zeros = classify_behavior(nbar, r, result.alpha_c).zeros
    return " ".join([result.alpha_c.hex(),
                     "-" if result.tangency_u is None
                     else result.tangency_u.hex(),
                     result.mechanism.value.split("_")[0],
                     *(zero.hex() for zero in zeros)])


def test_solver_bits_are_frozen():
    cases, curves, us = _frozen_cases()
    expected = FROZEN_SOLVES.splitlines()
    assert len(expected) == len(cases) == 40
    # twice, the second pass interleaving both ends of the list, so that
    # no solve can lean on state that an earlier one left behind
    order = list(range(len(cases)))
    order += [i for pair in zip(order[::-1], order) for i in pair][:40]
    for i in order:
        assert _solve_record(*cases[i]) == expected[i], cases[i]
    grid, scalar = [], []
    for (nbar, r, alpha), row in zip(curves, us):
        q_of, qs = ncl._scan(nbar, r, ncl.SCAN_POINTS)[1](alpha)
        grid += [q.hex() for q in qs.tolist()]
        scalar += [q_of(u).hex() for u in row]
    assert hashlib.sha256(" ".join(grid).encode()).hexdigest() \
        == FROZEN_GRID_Q
    assert hashlib.sha256(" ".join(scalar).encode()).hexdigest() \
        == FROZEN_SCALAR_Q


# The critical solver's minimum refinement repeats scipy's bounded
# minimize_scalar operation for operation.  Both runs must visit the same
# points: a reordered operation moves the last bits of some step, even where
# the solver then converges to the same double.  Its root refinement is
# false position, held to a sign change within twice its tolerance.
def _scipy_min(f, lo, hi):
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun), float(res.x)


def _run(solve, f):
    """reprs of the points at which ``solve`` evaluates ``f``, and of its
    result, or the type and text of its error."""
    points = []

    def recorded(x):
        points.append(repr(float(x)))
        return f(x)

    try:
        return points, repr(solve(recorded))
    except (ValueError, RuntimeError) as exc:
        return points, (type(exc), str(exc))


def _zero_on_a_sign_change(f, lo, hi):
    """_refine_zero's result x lies in [lo, hi], and ``f`` is zero or takes
    both signs on [x - 2 tol, x + 2 tol] within [lo, hi]: at its ends, or
    at the points there that the solver evaluated, x among them.  Near a
    shallow crossing the rounding of Q can outweigh its slope over 2 tol,
    so the ends alone may share a sign."""
    seen = {}

    def recorded(y):
        seen[y] = f(y)
        return seen[y]

    x = ncl._refine_zero(recorded, lo, hi)
    tol = 1e-15 + 8.9e-16 * abs(x)
    left, right = max(lo, x - 2 * tol), min(hi, x + 2 * tol)
    near = [f(left), f(right)] + [fy for y, fy in seen.items()
                                  if left <= y <= right]
    return lo <= x <= hi and (0 in near or min(near) < 0 < max(near))


def _same_min(f, lo, hi):
    return _run(lambda g: ncl._bounded_min(g, lo, hi), f) == _run(
        lambda g: _scipy_min(g, lo, hi), f)


# smooth functions with a root at z; sin - z may have none in the bracket
SMOOTH = {
    "cubic": lambda z, k: lambda x: (x - z) ** 3 + k * k * (x - z),
    "expm1": lambda z, k: lambda x: math.expm1(k * (x - z)),
    # values that underflow as the bracket closes
    "tiny-tanh": lambda z, k: lambda x: 1e-300 * math.tanh(k * (x - z)),
    "sin": lambda z, k: lambda x: math.sin(k * x) - z,
}
brackets = dict(shape=st.sampled_from(sorted(SMOOTH)),
                lo=st.floats(-3.0, 3.0), width=st.floats(1e-9, 5.0),
                at=st.floats(0.0, 1.0), k=st.floats(-5.0, 5.0))


@given(**brackets)
@example(shape="tiny-tanh", lo=-1.1, width=3.3, at=0.11, k=3.9)
@settings(max_examples=100, deadline=None)
def test_refine_zero_lands_on_a_sign_change(shape, lo, width, at, k):
    f = SMOOTH[shape](lo + at * width, k)
    hi = lo + width
    if f(lo) != 0 and f(hi) != 0 and (f(lo) < 0) == (f(hi) < 0):
        with pytest.raises(ValueError, match="different signs"):
            ncl._refine_zero(f, lo, hi)
    else:
        assert _zero_on_a_sign_change(f, lo, hi)


@given(**brackets)
@settings(max_examples=50, deadline=None)
def test_bounded_min_is_minimize_scalar_bit_for_bit(shape, lo, width, at, k):
    g = SMOOTH[shape](lo + at * width, k)
    assert _same_min(lambda x: g(x) ** 2, lo, lo + width)


mandel_scans = (nbars, squeezes, st.floats(0.0, 6.0),
                st.sampled_from([ncl.SCAN_POINTS, ncl.CLASSIFY_GRID]))


@given(*mandel_scans)
@settings(max_examples=60, deadline=None)
def test_refine_zero_lands_on_a_sign_change_of_the_mandel_scan(nbar, r,
                                                               alpha, points):
    us, at = ncl._scan(nbar, r, points)
    q_of, qs = at(alpha)
    for i in np.flatnonzero(np.signbit(qs[:-1]) != np.signbit(qs[1:])):
        assert _zero_on_a_sign_change(q_of, us[i], us[i + 1])


@given(*mandel_scans)
@settings(max_examples=60, deadline=None)
def test_bounded_min_is_minimize_scalar_on_the_mandel_scan(nbar, r, alpha,
                                                          points):
    us, at = ncl._scan(nbar, r, points)
    q_of, qs = at(alpha)
    i = int(np.argmin(qs))  # the bracket _min_q refines
    assert _same_min(q_of, us[max(i - 1, 0)], us[min(i + 1, len(us) - 1)])


@pytest.mark.parametrize("f", [
    lambda x: 1.0,
    lambda x: 1e-200,  # the product f(a) f(b) underflows to zero
    lambda x: math.nan,
    lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,  # NaN at a step
], ids=["same-sign", "same-sign-tiny", "nan-at-a", "nan-at-a-step"])
def test_refine_zero_raises_what_brentq_raises(f):
    with pytest.raises(ValueError, match="different signs|is NaN"):
        ncl._refine_zero(f, 0.0, 1.0)
