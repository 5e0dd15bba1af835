import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpagauss import (
    EvolvedState,
    ModelParams,
    classicality_factor,
    evolved_state,
    mandel_q,
    mandel_q_curve,
    mean_photon,
    p_representation_exists,
    photon_variance,
    quad_mean,
    quad_variance,
    quad_variance_state,
    snr,
    snr_max,
    variance_product,
)
from dpagauss.statistics import VacuumError

import mp_reference

angles = st.floats(min_value=-math.pi, max_value=math.pi)
nbars = st.floats(min_value=0.0, max_value=2.0)
squeezes = st.floats(min_value=1e-3, max_value=1.5)
times = st.floats(min_value=0.0, max_value=3.0)
mags = st.floats(min_value=0.0, max_value=5.0)


def coherent(alpha: complex) -> EvolvedState:
    return EvolvedState(displacement=alpha, eff_squeeze=0.0)


def thermal(nbar: float) -> EvolvedState:
    return EvolvedState(displacement=0j, eff_squeeze=0.0, nbar=nbar)


def _mandel_q_zero(nbar: float, r: float, alpha_mag: float) -> float:
    """Reference closed form of the Mandel parameter at u = 0, phi = theta/2:

    ( (nbar+1/2)^2 cosh 4r + ((2 nbar + 1) e^{-2r} - 1) |alpha|^2
      - (nbar+1/2) cosh 2r + 1/4 )
    / ( (nbar+1/2) cosh 2r + |alpha|^2 - 1/2 )
    """
    den = (nbar + 0.5) * math.cosh(2.0 * r) + alpha_mag ** 2 - 0.5
    num = ((nbar + 0.5) ** 2 * math.cosh(4.0 * r)
           + ((2.0 * nbar + 1.0) * math.exp(-2.0 * r) - 1.0) * alpha_mag ** 2
           - (nbar + 0.5) * math.cosh(2.0 * r) + 0.25)
    return num / den


def test_quad_mean_basics():
    assert quad_mean(thermal(0.7), 0.3) == 0.0
    assert quad_mean(coherent(0.8), 0.0) == pytest.approx(
        math.sqrt(2.0) * 0.8, abs=1e-14)


def test_quad_variance_values():
    assert quad_variance(0.0, 0.0, 0.0, 0.37, 0.0) == 0.5
    # squeezed quadrature at alignment
    assert quad_variance(0.3, 0.4, 1.2, 0.6, 0.5) == pytest.approx(
        0.8 * math.exp(-1.8), rel=1e-14)
    # half of the classicality factor 1.1462 at the first benchmark point
    assert quad_variance(0.2, 0.1, 0.0, 0.0, 0.0) == pytest.approx(
        0.7 * math.exp(-0.2), rel=1e-14)
    assert 0.7 * math.exp(-0.2) == pytest.approx(0.57311, abs=5e-6)


def test_quad_variance_depends_only_on_total_squeeze():
    assert quad_variance(0.3, 0.1, 0.4, 0.9, 0.9) == \
        quad_variance(0.3, 0.9, 0.4, 0.9, 0.1)


def test_quad_variance_ignores_displacement():
    lam = 0.7
    small = evolved_state(ModelParams(alpha_mag=0.3, squeeze_mag=0.2,
                                      nbar=0.4), 0.6)
    large = evolved_state(ModelParams(alpha_mag=5.0, squeeze_mag=0.2,
                                      nbar=0.4), 0.6)
    assert quad_variance_state(small, lam) == quad_variance_state(large, lam)


@given(nbars, squeezes, angles, angles, times)
@settings(max_examples=300)
def test_variance_product_consistency(nbar, r, theta, lam, u):
    product = variance_product(nbar, r, theta, lam, u)
    direct = (quad_variance(nbar, r, theta, lam, u)
              * quad_variance(nbar, r, theta, lam + 0.5 * math.pi, u))
    assert product == pytest.approx(direct, rel=1e-12)
    assert product >= (nbar + 0.5) ** 2 * (1.0 - 1e-15)


def test_variance_product_alignment_and_floor():
    assert variance_product(0.3, 0.5, 1.4, 0.7, 0.2) >= 0.8 ** 2
    assert variance_product(0.3, 0.5, 1.4, 0.7, 0.0) == pytest.approx(
        0.64, rel=1e-15)
    assert variance_product(0.0, 0.5, 0.8, 0.4, 1.0) == pytest.approx(
        0.25, rel=1e-15)
    # orthogonal-to-aligned angle: both variances equal (nbar+1/2) cosh
    value = variance_product(0.2, 0.3, 0.0, math.pi / 4.0, 0.5)
    assert value == pytest.approx((0.7 * math.cosh(1.6)) ** 2, rel=1e-13)


def test_snr_values():
    assert snr(coherent(0.0 + 0j), 0.2) == 0.0
    # coherent state at lam = 0: mean sqrt(2)|a|, variance 1/2
    assert snr(coherent(1.3), 0.0) == pytest.approx(4.0 * 1.3 ** 2, rel=1e-13)


def test_snr_max_closed_form():
    params = ModelParams(alpha_mag=0.8, squeeze_mag=0.4, nbar=0.0)
    assert snr_max(params, 0.0) == pytest.approx(
        4.0 * math.exp(0.8) * 0.64, rel=1e-12)
    params = ModelParams(alpha_mag=0.8, squeeze_mag=0.4, nbar=0.7)
    assert snr_max(params, 0.0) == pytest.approx(
        4.0 * 0.64 / (2.4 * math.exp(-0.8)), rel=1e-12)
    assert snr_max(ModelParams(alpha_mag=0.0, squeeze_mag=0.4), 1.0) == 0.0
    with pytest.raises(ValueError):
        snr_max(ModelParams(alpha_mag=1.0), 0.0)


@given(st.floats(0.05, 3.0), nbars, squeezes, angles, times)
@settings(max_examples=200)
def test_snr_max_is_aligned_snr(alpha_mag, nbar, r, theta, u):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=0.5 * theta,
                         squeeze_mag=r, squeeze_phase=theta, nbar=nbar)
    state = evolved_state(params, u)
    assert snr(state, 0.5 * theta) == pytest.approx(snr_max(params, u),
                                                    rel=1e-10)


def test_mean_photon_values():
    assert mean_photon(coherent(0.9)) == pytest.approx(0.81, rel=1e-14)
    assert mean_photon(thermal(1.7)) == pytest.approx(1.7, rel=1e-14)
    state = EvolvedState(displacement=0j, eff_squeeze=1.0, nbar=1.0)
    assert mean_photon(state) == pytest.approx(5.143293536625447, rel=1e-14)


def test_photon_variance_limits():
    assert photon_variance(coherent(0.9)) == pytest.approx(0.81, rel=1e-13)
    assert photon_variance(thermal(1.7)) == pytest.approx(1.7 * 2.7,
                                                          rel=1e-13)


def test_mandel_limits():
    assert mandel_q(coherent(1.1)) == pytest.approx(0.0, abs=1e-10)
    assert mandel_q(thermal(0.8)) == pytest.approx(0.8, abs=1e-10)
    with pytest.raises(ValueError):
        mandel_q(coherent(0j))
    with pytest.raises(ValueError):
        mandel_q(evolved_state(ModelParams(alpha_mag=0.0), 0.0))


def test_mandel_frozen_value():
    # closed form and the Fock oracle agree on 0.259298327043 at this point
    params = ModelParams(alpha_mag=0.3, squeeze_mag=0.1, nbar=0.2)
    state = evolved_state(params, 0.0)
    assert mandel_q(state) == pytest.approx(0.2592983270430015, rel=1e-12)
    assert float(mandel_q_curve(0.2, 0.1, 0.3, 0.0)) == pytest.approx(
        0.2592983270430015, rel=1e-12)


def test_mandel_q_zero_benchmark_roots():
    assert abs(float(mandel_q_curve(0.1, 0.2, 0.6507, 0.0))) <= 1e-3
    assert abs(float(mandel_q_curve(1.0, 1.0, 9.7140, 0.0))) <= 1e-3
    coherent_state = evolved_state(ModelParams(alpha_mag=1.0), 0.0)
    assert mandel_q(coherent_state) == pytest.approx(0.0, abs=1e-15)


@given(nbars, squeezes, st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=300)
def test_mandel_at_zero_matches_closed_form(nbar, r, alpha_mag):
    # away from the near-vacuum corner, where the shared mean-photon
    # denominator underflows any relative comparison
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=0.45,
                         squeeze_mag=r, squeeze_phase=0.9, nbar=nbar)
    state = evolved_state(params, 0.0)
    assert mandel_q(state) == pytest.approx(
        _mandel_q_zero(nbar, r, alpha_mag), rel=1e-12)


@given(nbars, squeezes, mags, times, angles)
@settings(max_examples=300)
def test_mandel_bounded_below(nbar, r, alpha_mag, u, phi):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=0.3, nbar=nbar)
    state = evolved_state(params, u)
    assert mandel_q(state) >= -1.0


def test_mandel_curve_matches_pointwise_and_diverges():
    us = np.linspace(0.0, 2.0, 7)
    curve = mandel_q_curve(0.2, 0.1, 0.3, us)
    for u, q in zip(us, curve):
        params = ModelParams(alpha_mag=0.3, squeeze_mag=0.1, nbar=0.2)
        assert q == pytest.approx(mandel_q(evolved_state(params, u)),
                                  rel=1e-12)
    # dominant growth at late times keeps the parameter positive
    for nbar in (0.0, 0.2, 1.0):
        for r in (0.05, 0.3, 1.0):
            for alpha_mag in (0.0, 0.5, 3.0, 12.0):
                assert mandel_q_curve(nbar, r, alpha_mag, 10.0) > 0.0


def scalar_or_error(formula, state):
    try:
        return formula(state)
    except ValueError as exc:
        return type(exc)


@given(nbar=st.floats(min_value=0.0, max_value=1e3),
       r=st.floats(min_value=1e-6, max_value=3.0),
       alpha_mag=st.floats(min_value=0.0, max_value=1e3),
       theta=st.floats(min_value=-1e6, max_value=1e6),
       phi=st.floats(min_value=-1e6, max_value=1e6),
       us=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1,
                   max_size=30))
@settings(max_examples=300, deadline=None)
def test_array_state_equals_per_element_scalar_calls(nbar, r, alpha_mag,
                                                     theta, phi, us):
    # bit for bit, not approximately: the sweep prints 17 digits
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta, nbar=nbar)
    state = evolved_state(params, np.array(us))
    states = [evolved_state(params, u) for u in us]
    for formula in (mean_photon, photon_variance):
        assert formula(state).tolist() == [formula(s) for s in states]
    for criterion in (classicality_factor, p_representation_exists):
        assert criterion(nbar, r, np.array(us)).tolist() == [
            criterion(nbar, r, u) for u in us]
    # Q where it is defined; rounding that loses Q fails the whole array
    expected = [scalar_or_error(mandel_q, s) for s in states]
    if ValueError in expected:
        with pytest.raises(ValueError, match="lost to rounding"):
            mandel_q(state)
    else:
        qs = mandel_q(state).tolist()
        assert [q for q, want in zip(qs, expected)
                if want is not VacuumError] == [
            want for want in expected if want is not VacuumError]
        assert all(math.isnan(q) for q, want in zip(qs, expected)
                   if want is VacuumError)


def test_array_mandel_q_marks_the_vacuum_with_nan():
    # cosh 2(u + r) rounds to 1 until u + r of about 1.05e-8, so the first
    # two squeezed-vacuum times have no photons
    state = evolved_state(ModelParams(alpha_mag=0.0, squeeze_mag=1e-9),
                          np.array([0.0, 5e-9, 1e-8]))
    assert mean_photon(state).tolist()[:2] == [0.0, 0.0]
    qs = mandel_q(state)
    assert np.isnan(qs[:2]).all() and qs[2] == 1.0
    with pytest.raises(VacuumError):
        mandel_q(evolved_state(ModelParams(alpha_mag=0.0, squeeze_mag=1e-9),
                               5e-9))


# the reference bound: 8 times the worst relative error scripts/
# photon_error_table.py and 2,000 further draws found where these
# properties hold, 1.2e-13 (A at r = 1e-3, u = 1e-7, where cosh u - 1 keeps
# one rounding of cosh u, times coth(r/2) = 2000)
REFERENCE_RTOL = 1e-12


@given(alpha_mag=st.floats(0.1, 2.0), phi=angles,
       r=st.floats(1e-30, 5.0), theta=angles, u=st.floats(0.0, 20.0))
@settings(max_examples=25, deadline=None)
def test_heisenberg_amplitude_is_the_squeeze_frame_amplitude(alpha_mag, phi,
                                                             r, theta, u):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta)
    heisenberg = mp_reference.displacement_amplitude(params, u)
    squeeze_frame = mp_reference.squeeze_frame_amplitude(params, u)
    assert abs(heisenberg - squeeze_frame) <= 1e-50 * abs(squeeze_frame)


@given(alpha_mag=st.floats(0.1, 2.0), delta=angles,
       r=st.floats(1e-3, 2.0), theta=angles, nbar=nbars,
       u=st.floats(0.0, 6.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_amplitude_and_mean_photon_match_the_reference_before_u_6(
        alpha_mag, delta, r, theta, nbar, u):
    # at delta = 0, A's x + y cancels like e^u: its error reads 1.3e-12 in
    # [6, 10) and 3.2e-8 in [10, 20) (scripts/photon_error_table.py)
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=0.5 * theta + delta,
                         squeeze_mag=r, squeeze_phase=theta, nbar=nbar)
    amp_err, mean_err, _, _ = mp_reference.photon_errors(params, u)
    assert amp_err <= REFERENCE_RTOL and mean_err <= REFERENCE_RTOL


@given(alpha_mag=st.floats(0.1, 2.0),
       delta=st.floats(0.1, math.pi - 0.1), negative=st.booleans(),
       r=st.floats(1e-3, 2.0), theta=angles, nbar=nbars,
       u=st.floats(0.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_photon_statistics_match_the_reference_off_the_squeeze_axis(
        alpha_mag, delta, negative, r, theta, nbar, u):
    # |sin delta| >= sin 0.1 keeps Im A' from vanishing; near delta = 0 the
    # displacement term of Var n cancels (scripts/photon_error_table.py)
    params = ModelParams(alpha_mag=alpha_mag,
                         alpha_phase=0.5 * theta + (-delta if negative
                                                    else delta),
                         squeeze_mag=r, squeeze_phase=theta, nbar=nbar)
    errors = mp_reference.photon_errors(params, u)
    assert max(errors) <= REFERENCE_RTOL
    # mandel_q's guard admits these inputs, so Q is its value
    state = evolved_state(params, u)
    assert mandel_q(state) == (photon_variance(state) - mean_photon(state)) \
        / mean_photon(state)
