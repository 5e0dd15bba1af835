import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpagauss import (
    EvolvedState,
    ModelParams,
    anomalous_coeff,
    char_fn,
    char_fn_state,
    displacement_amplitude,
    evolved_state,
    hamiltonian_coeffs,
    limit_r_zero_displacement,
    snr_max,
    symmetric_coeff,
)

angles = st.floats(min_value=-math.pi, max_value=math.pi)
mags = st.floats(min_value=0.0, max_value=3.0)
squeezes = st.floats(min_value=1e-3, max_value=1.5)
times = st.floats(min_value=0.0, max_value=3.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha_mag=-0.1)
    with pytest.raises(ValueError):
        ModelParams(alpha_mag=0.0, squeeze_mag=-1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha_mag=0.0, nbar=-0.5)
    with pytest.raises(ValueError):
        ModelParams(alpha_mag=0.0, prep_time=0.0)


def test_omega_times_prep_time_is_squeeze_mag():
    params = ModelParams(alpha_mag=1.0, squeeze_mag=0.7, prep_time=3.5)
    assert params.omega * params.prep_time == params.squeeze_mag


@given(mags, angles, squeezes, angles)
@settings(max_examples=200)
def test_displacement_starts_at_alpha(alpha_mag, phi, r, theta):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta)
    assert displacement_amplitude(params, 0.0) == pytest.approx(params.alpha,
                                                                abs=1e-14)


@given(mags, angles, squeezes, angles, times)
@settings(max_examples=200)
def test_displacement_linear_in_alpha(alpha_mag, phi, r, theta, u):
    base = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                       squeeze_phase=theta)
    double = ModelParams(alpha_mag=2.0 * alpha_mag, alpha_phase=phi,
                         squeeze_mag=r, squeeze_phase=theta)
    assert displacement_amplitude(double, u) == pytest.approx(
        2.0 * displacement_amplitude(base, u), rel=1e-12, abs=1e-13)


def test_displacement_zero_alpha_is_zero():
    params = ModelParams(alpha_mag=0.0, squeeze_mag=0.5, squeeze_phase=0.9)
    assert displacement_amplitude(params, 1.3) == 0


def test_displacement_frozen_value():
    # Fock-oracle reference: Tr[rho(u) a] at dim 140 gives
    # 1.2128726412915374; the closed form agrees to 2e-15
    params = ModelParams(alpha_mag=0.3, alpha_phase=0.0, squeeze_mag=0.1,
                         squeeze_phase=0.0)
    amp = displacement_amplitude(params, 0.3857)
    assert amp == pytest.approx(1.2128726412915396 + 0j, abs=1e-12)


def test_displacement_rejects_r_zero_and_negative_u():
    with pytest.raises(ValueError):
        displacement_amplitude(ModelParams(alpha_mag=1.0), 0.5)
    with pytest.raises(ValueError):
        displacement_amplitude(ModelParams(alpha_mag=1.0, squeeze_mag=0.1),
                               -0.1)
    # subnormal r: tanh(r/2) underflows to 0 or its reciprocal to inf; the
    # other formulas dividing by tanh(r/2) share the guard
    for r in (5e-324, 1e-310):
        params = ModelParams(alpha_mag=1.0, squeeze_mag=r)
        with pytest.raises(ValueError, match="coth"):
            displacement_amplitude(params, 0.5)
        with pytest.raises(ValueError, match="coth"):
            hamiltonian_coeffs(params)
        with pytest.raises(ValueError, match="coth"):
            snr_max(params, 0.5)


def test_limit_r_zero_displacement():
    params = ModelParams(alpha_mag=1.0)
    assert limit_r_zero_displacement(params, 0.0) == 1.0
    assert limit_r_zero_displacement(params, 2.0) == 3.0
    assert limit_r_zero_displacement(
        ModelParams(alpha_mag=0.0), 5.0) == 0.0
    with pytest.raises(ValueError):
        limit_r_zero_displacement(ModelParams(alpha_mag=1.0, squeeze_mag=0.1),
                                  1.0)
    with pytest.raises(ValueError):
        limit_r_zero_displacement(params, -1.0)


def test_limit_matches_small_r_evaluation():
    # combined limit: r -> 0 with u = r * s held on the trajectory
    r = 1e-6
    s = 2.0
    params = ModelParams(alpha_mag=1.0, squeeze_mag=r)
    amp = displacement_amplitude(params, r * s)
    assert abs(amp - 3.0) < 1e-5


def test_hyperbolic_coeff_values():
    # direct scalar references, cross-checked against a high-precision
    # evaluator: sinh(1)/2 and cosh(2)
    p = ModelParams(alpha_mag=0.0, squeeze_mag=0.5)
    assert anomalous_coeff(p, 0.0) == pytest.approx(0.5876005968219007,
                                                    abs=1e-14)
    p = ModelParams(alpha_mag=0.0, squeeze_mag=0.25, squeeze_phase=math.pi)
    assert anomalous_coeff(p, 0.25) == pytest.approx(-0.5876005968219007,
                                                     abs=1e-12)
    assert anomalous_coeff(ModelParams(alpha_mag=0.0), 0.0) == 0
    assert symmetric_coeff(ModelParams(alpha_mag=0.0), 0.0) == 1.0
    p = ModelParams(alpha_mag=0.0, squeeze_mag=1.0)
    assert symmetric_coeff(p, 0.0) == pytest.approx(3.7621956910836314,
                                                    abs=1e-14)


def test_symmetric_coeff_depends_only_on_total_squeeze():
    a = symmetric_coeff(ModelParams(alpha_mag=0.0, squeeze_mag=0.1), 0.9)
    b = symmetric_coeff(ModelParams(alpha_mag=0.0, squeeze_mag=0.9), 0.1)
    assert a == b == math.cosh(2.0)


@given(squeezes, times, angles)
@settings(max_examples=300)
def test_hyperbolic_identity(r, u, theta):
    # the difference of the two squared hyperbolics cancels, so the
    # achievable accuracy scales with the squared magnitude itself
    p = ModelParams(alpha_mag=0.0, squeeze_mag=r, squeeze_phase=theta)
    s = symmetric_coeff(p, u)
    t = anomalous_coeff(p, u)
    assert abs(s * s - 4.0 * abs(t) ** 2 - 1.0) <= 1e-12 * s * s


def test_hyperbolic_identity_exact_in_figure_range():
    for r in (0.01, 0.1, 0.3, 0.6):
        for u in (0.0, 0.2, 0.6):
            for theta in (0.0, 0.9, -2.0):
                p = ModelParams(alpha_mag=0.0, squeeze_mag=r,
                                squeeze_phase=theta)
                s = symmetric_coeff(p, u)
                t = anomalous_coeff(p, u)
                assert s * s - 4.0 * abs(t) ** 2 == pytest.approx(1.0,
                                                                  rel=1e-12)


@given(mags, angles, squeezes, angles, times, st.floats(-1.5, 1.5),
       st.floats(-1.5, 1.5))
@settings(max_examples=200)
def test_char_fn_normalization_and_hermiticity(alpha_mag, phi, r, theta, u,
                                               eta_re, eta_im):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta, nbar=0.4)
    assert char_fn(params, u, 0.0) == 1.0
    eta = complex(eta_re, eta_im)
    # Tr[rho D(eta)] = conj(Tr[rho D(-eta)])
    weyl = char_fn(params, u, eta) * math.exp(-0.5 * abs(eta) ** 2)
    weyl_neg = char_fn(params, u, -eta) * math.exp(-0.5 * abs(eta) ** 2)
    assert weyl == pytest.approx(weyl_neg.conjugate(), rel=1e-10, abs=1e-12)


def test_char_fn_vacuum_is_one():
    vac = ModelParams(alpha_mag=0.0)
    for eta in (0.3, 0.2 - 0.7j, 1.1j):
        assert char_fn(vac, 0.0, eta) == pytest.approx(1.0, abs=1e-12)


def test_char_fn_frozen_value():
    # Fock-oracle reference: Tr[rho e^{eta a^dag} e^{-eta* a}] at dim 140
    # gives 0.8948561980537036+0.2616602359775429j
    params = ModelParams(alpha_mag=0.3, alpha_phase=0.0, squeeze_mag=0.1,
                         squeeze_phase=0.0, nbar=0.2)
    value = char_fn(params, 0.5, 0.2 + 0.1j)
    assert value == pytest.approx(0.8948561980537049 + 0.26166023597754323j,
                                  abs=1e-12)


def test_char_fn_rejects_dynamics_at_r_zero():
    params = ModelParams(alpha_mag=0.3)
    with pytest.raises(ValueError):
        char_fn(params, 0.5, 0.1)
    # static displaced thermal state at u = 0 stays legal
    assert char_fn(params, 0.0, 0.0) == 1.0


def test_hamiltonian_coeffs():
    got = hamiltonian_coeffs(ModelParams(alpha_mag=0.0, squeeze_mag=0.1))
    assert got.c_coeff == pytest.approx(-0.05j, abs=1e-15)
    assert got.b_coeff == 0

    trivial = hamiltonian_coeffs(ModelParams(alpha_mag=0.0))
    assert trivial.c_coeff == 0 and trivial.b_coeff == 0

    with pytest.raises(ValueError):
        hamiltonian_coeffs(ModelParams(alpha_mag=1.0))

    # -(i/2)(1 + coth(1/2)); the evolution oracle reproduces the generated
    # state from these coefficients at machine precision
    got = hamiltonian_coeffs(ModelParams(alpha_mag=1.0, squeeze_mag=1.0))
    assert got.b_coeff == pytest.approx(-1.5819767068693265j, abs=1e-13)


def test_evolved_state_trivial_slices():
    params = ModelParams(alpha_mag=0.4, alpha_phase=0.3, squeeze_mag=0.2,
                         squeeze_phase=0.8, nbar=0.6)
    state = evolved_state(params, 0.0)
    assert state.displacement == pytest.approx(params.alpha, abs=1e-14)
    assert state.eff_squeeze == 0.2
    assert state.squeeze_phase == 0.8
    assert state.nbar == 0.6

    state = evolved_state(ModelParams(alpha_mag=0.0, squeeze_mag=0.2), 0.3)
    assert state.displacement == 0
    assert state.eff_squeeze == 0.5


def test_evolved_state_r_zero_only_static():
    params = ModelParams(alpha_mag=0.3, nbar=0.2)
    state = evolved_state(params, 0.0)
    assert state.eff_squeeze == 0.0
    with pytest.raises(ValueError):
        evolved_state(params, 0.1)


def test_evolved_state_guard_rails():
    with pytest.raises(ValueError):
        EvolvedState(displacement=0j, eff_squeeze=-0.1)
    with pytest.raises(ValueError):
        EvolvedState(displacement=0j, eff_squeeze=301.0)
    with pytest.raises(ValueError):
        EvolvedState(displacement=0j, eff_squeeze=0.1, nbar=-1.0)


def test_char_fn_state_accepts_arbitrary_reference_states():
    state = EvolvedState(displacement=0.5 + 0.2j, eff_squeeze=0.0, nbar=0.3)
    assert char_fn_state(state, 0.0) == 1.0
