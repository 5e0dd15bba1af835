import importlib.util
import inspect
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dpagauss
from dpagauss import (
    EvolvedState,
    ModelParams,
    displacement_amplitude,
    evolved_state,
    hamiltonian_coeffs,
    limit_r_zero_displacement,
    snr_max,
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
    for name in ("alpha_mag", "alpha_phase", "squeeze_mag", "squeeze_phase",
                 "nbar"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ModelParams(**{"alpha_mag": 0.0, name: value})


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


def float_bits(values):
    """The IEEE bit patterns, so that -0.0 and 0.0 differ and NaN equals
    itself."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@given(alpha_mag=st.just(0.0) | st.floats(min_value=0.0, max_value=1e100),
       phi=st.floats(allow_nan=False, allow_infinity=False),
       r=st.floats(min_value=1e-3, max_value=5.0),
       theta=st.floats(allow_nan=False, allow_infinity=False),
       us=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1,
                   max_size=40))
@settings(max_examples=300, deadline=None)
def test_displacement_broadcasts_bit_for_bit(alpha_mag, phi, r, theta, us):
    # a whole sweep is one array call: it must give each row's scalar bits
    assume(math.isfinite(theta - 2.0 * phi))
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta)
    amps = displacement_amplitude(params, np.array(us))
    singles = [displacement_amplitude(params, u) for u in us]
    assert float_bits(amps.real) == float_bits([z.real for z in singles])
    assert float_bits(amps.imag) == float_bits([z.imag for z in singles])


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


def test_displacement_phase_fails_before_cosh():
    # theta - 2 phi overflows and so does cosh u: the phase is formed first,
    # so its error is the one raised
    params = ModelParams(alpha_mag=1.0, alpha_phase=-1e308, squeeze_mag=0.5,
                         squeeze_phase=1e308)
    with np.errstate(over="raise", invalid="raise"), pytest.raises(
            FloatingPointError) as info:
        displacement_amplitude(params, 800.0)
    assert str(info.value) == "invalid value encountered in exp"


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


def test_hamiltonian_coeffs():
    c, b = hamiltonian_coeffs(ModelParams(alpha_mag=0.0, squeeze_mag=0.1))
    assert c == pytest.approx(-0.05j, abs=1e-15)
    assert b == 0

    c, b = hamiltonian_coeffs(ModelParams(alpha_mag=0.0))
    assert c == 0 and b == 0

    with pytest.raises(ValueError):
        hamiltonian_coeffs(ModelParams(alpha_mag=1.0))

    # -(i/2)(1 + coth(1/2)); the evolution oracle reproduces the generated
    # state from these coefficients at machine precision
    c, b = hamiltonian_coeffs(ModelParams(alpha_mag=1.0, squeeze_mag=1.0))
    assert b == pytest.approx(-1.5819767068693265j, abs=1e-13)


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
    # the u + r guard, not an overflow of A(tau) at cosh(800)
    with pytest.raises(ValueError, match="exceeds the overflow guard"):
        evolved_state(ModelParams(alpha_mag=1.0, squeeze_mag=1.0), 800.0)


def test_evolved_state_guards_an_array_of_times():
    params = ModelParams(alpha_mag=1.0, squeeze_mag=0.5)
    # the message names the largest u + r, not the whole array
    with pytest.raises(ValueError, match=r"u \+ r = 400.5 exceeds"):
        evolved_state(params, np.array([0.0, 1.0, 400.0]))
    with pytest.raises(ValueError, match="u must be >= 0"):
        evolved_state(params, np.array([1.0, -1.0]))
    static = ModelParams(alpha_mag=0.3, nbar=0.2)
    assert evolved_state(static, np.zeros(3)).eff_squeeze.tolist() == [0.0] * 3
    with pytest.raises(ValueError, match="combined limit"):
        evolved_state(static, np.array([0.0, 0.1]))



def test_public_surface():
    # one public entry per paper quantity: a helper that only tests call
    # does not belong here
    assert sorted(dpagauss.__all__) == [
        "BehaviorKind", "Classification", "CriticalPointResult",
        "EvolvedState", "Mechanism", "ModelParams",
        "NoTransitionError", "classicality_factor", "classify_behavior",
        "critical_alpha_q0_root", "crossover_time", "displacement_amplitude",
        "evolved_state", "field_nonclassical", "find_critical_alpha",
        "hamiltonian_coeffs", "limit_r_zero_displacement", "mandel_q",
        "mandel_q_curve", "mean_photon", "model", "nonclassicality",
        "p_representation_exists", "photon_variance", "quad_mean",
        "quad_variance", "quad_variance_state", "snr", "snr_max",
        "squeezing_criterion", "statistics", "variance_product", "wigner",
        "wigner_beta", "wigner_quadrature"]


def test_benchmark_tracer_names_functions_of_the_package():
    # the traced benchmark fails on a name the package no longer defines,
    # so a deletion must update perfbench/tracing.py in the same change
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def defined_in(layer, attr):
        """The module defining the public function dpagauss.<layer>.<attr>."""
        obj = getattr(importlib.import_module(f"dpagauss.{layer}"), attr,
                      None)
        assert inspect.isfunction(obj) and not attr.startswith("_"), attr
        return obj.__module__

    for calls in tracing.EXPECTED_CALLS.values():
        for name in calls:
            layer, attr = name.split(".")
            # install wraps only the functions a layer defines itself
            assert defined_in(layer, attr) == f"dpagauss.{layer}", name
    for layer, attr in tracing.BINDING_SITES:
        assert defined_in(layer, attr).startswith("dpagauss."), (layer, attr)
