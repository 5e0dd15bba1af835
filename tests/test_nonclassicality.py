import functools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

import dpagauss.nonclassicality as ncl
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
    def fake_scan(nbar, r, alpha_mag, points):
        us = np.linspace(0.0, ncl.U_MAX, points)
        return (functools.partial(fake_curve, nbar, r, alpha_mag), us,
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
        q_of, us, qs = scan(*args)
        events.append(("scan", float(qs.min())))
        return q_of, us, qs

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


def test_dip_narrower_than_the_grid_has_two_crossings(monkeypatch):
    # a Gaussian dip to Q = -1 between two points of the classification
    # grid, at which it is still 0.88: no grid sign change
    step = ncl.U_MAX / (ncl.CLASSIFY_GRID - 1)
    center, width = 1000.5 * step, 0.3 * step

    def fake_curve(us):
        return 1.0 - 2.0 * np.exp(-((np.asarray(us) - center) / width) ** 2)

    def fake_scan(nbar, r, alpha_mag, points):
        us = np.linspace(0.0, ncl.U_MAX, points)
        return lambda u: float(fake_curve(u)), us, fake_curve(us)

    monkeypatch.setattr(ncl, "_scan", fake_scan)
    assert fake_scan(0, 0, 0, ncl.CLASSIFY_GRID)[2].min() > 0.8
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
        q_of, _, _ = ncl._scan(nbar, r, alpha, 2)
    assert _outcome(lambda: q_of(u)) == _outcome(
        lambda: float(mandel_q_curve(nbar, r, alpha, u)))


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
    q_of, us, qs = ncl._scan(nbar, r, alpha, points)
    for i in np.flatnonzero(np.signbit(qs[:-1]) != np.signbit(qs[1:])):
        assert _zero_on_a_sign_change(q_of, us[i], us[i + 1])


@given(*mandel_scans)
@settings(max_examples=60, deadline=None)
def test_bounded_min_is_minimize_scalar_on_the_mandel_scan(nbar, r, alpha,
                                                          points):
    q_of, us, qs = ncl._scan(nbar, r, alpha, points)
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
