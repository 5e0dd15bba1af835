import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpagauss import (
    EvolvedState,
    ModelParams,
    evolved_state,
    mean_photon,
    photon_variance,
    quad_mean,
    quad_variance_state,
    wigner,
    wigner_beta,
    wigner_quadrature,
)

import mp_reference

angles = st.floats(min_value=-math.pi, max_value=math.pi)


def random_state(rng) -> EvolvedState:
    return EvolvedState(
        displacement=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        eff_squeeze=rng.uniform(0.0, 1.5),
        squeeze_phase=rng.uniform(-math.pi, math.pi),
        nbar=rng.uniform(0.0, 2.0))


def gauss_legendre_grid(state, half_sigmas, nodes):
    """Tensor Gauss-Legendre rule over mean +- half_sigmas stds per axis,
    in the lam = 0 quadrature coordinates."""
    sig_x = math.sqrt(quad_variance_state(state, 0.0))
    sig_p = math.sqrt(quad_variance_state(state, 0.5 * math.pi))
    mean_x = quad_mean(state, 0.0)
    mean_p = quad_mean(state, 0.5 * math.pi)
    x, wx = np.polynomial.legendre.leggauss(nodes)
    xs = mean_x + half_sigmas * sig_x * x
    ps = mean_p + half_sigmas * sig_p * x
    return xs, ps, np.outer(wx * half_sigmas * sig_x,
                            wx * half_sigmas * sig_p)


def wigner_integral(state, values_fn, nodes=160, half_sigmas=8.0):
    """Integral of values_fn(x, p) * W(x, p) dx dp."""
    xs, ps, weights = gauss_legendre_grid(state, half_sigmas, nodes)
    total = 0.0
    for i, x in enumerate(xs):
        row = wigner_quadrature(state, 0.0, x, ps)
        total += (weights[i] * row * values_fn(x, ps)).sum()
    return total


def adaptive_wigner_norm(state, tol=1e-9):
    prev = wigner_integral(state, lambda x, ps: 1.0, nodes=48)
    for nodes in (96, 192, 384):
        cur = wigner_integral(state, lambda x, ps: 1.0, nodes=nodes)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev


def beta_exponent(state, delta):
    """(a^2 f'^2 + b^2 d'^2) / (4 a^2 b^2) at beta = A + delta, read back
    from W(beta) = exp(-exponent) / (pi (nbar + 1/2))."""
    nb_half = state.nbar + 0.5
    return -math.log(math.pi * nb_half
                     * wigner_beta(state, state.displacement + delta))


def quad_form(state, lam, dx, dp):
    """E at offsets (dx, dp) from the quadrature means, read back from
    W(x, p) = exp(-E / (2 nbar + 1)^2) / (pi (2 nbar + 1))."""
    width = 2.0 * state.nbar + 1.0
    w = wigner_quadrature(state, lam, quad_mean(state, lam) + dx,
                          quad_mean(state, lam + 0.5 * math.pi) + dp)
    return -width ** 2 * math.log(math.pi * width * w)


def quad_form_matrix(state, lam):
    """[[eps_xx, eps_xp / 2], [eps_xp / 2, eps_pp]] read from the density."""
    xx, pp = quad_form(state, lam, 1.0, 0.0), quad_form(state, lam, 0.0, 1.0)
    xp = 0.5 * (quad_form(state, lam, 1.0, 1.0)
                - quad_form(state, lam, 1.0, -1.0))
    return np.array([[xx, 0.5 * xp], [0.5 * xp, pp]])


def test_coeffs_real_cross_term_vanishes_for_real_squeeze():
    # c = 0: the exponent is even in Im(beta - A), exactly
    state = EvolvedState(displacement=0.3 + 0j, eff_squeeze=0.7,
                         squeeze_phase=0.0, nbar=0.4)
    assert wigner_beta(state, 0.1 + 0.1j) == wigner_beta(state, 0.1 - 0.1j)
    tilted = EvolvedState(displacement=0.3 + 0j, eff_squeeze=0.7,
                          squeeze_phase=0.5, nbar=0.4)
    assert wigner_beta(tilted, 0.1 + 0.1j) != wigner_beta(tilted, 0.1 - 0.1j)


def test_coeffs_center_at_displacement():
    # d = f = 0 at beta = A: the exponent vanishes there, and W falls off
    # from A in every direction
    state = EvolvedState(displacement=0.4 - 0.2j, eff_squeeze=0.3,
                         squeeze_phase=1.1, nbar=0.2)
    assert beta_exponent(state, 0j) == pytest.approx(0.0, abs=1e-15)
    peak = wigner_beta(state, state.displacement)
    for k in range(8):
        step = 1e-3 * complex(math.cos(k * math.pi / 4),
                              math.sin(k * math.pi / 4))
        assert wigner_beta(state, state.displacement + step) < peak


def test_coeff_identity_at_random_points():
    # W(A) = (2/pi) (4 a^2 b^2 - c^2)^{-1/2}, and
    # 4 a^2 b^2 - c^2 = 4 (nbar + 1/2)^2 for every state; a^2, b^2 > 0
    # make W fall off along Re and Im of beta - A
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        state = random_state(rng)
        step = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        peak = wigner_beta(state, state.displacement)
        det = (2.0 / (math.pi * peak)) ** 2
        assert det == pytest.approx(4.0 * (state.nbar + 0.5) ** 2, rel=1e-12)
        assert wigner_beta(state, state.displacement + step.real) < peak
        assert wigner_beta(state, state.displacement + 1j * step.imag) < peak


def test_peak_values():
    nbar = 0.35
    state = EvolvedState(displacement=0.7 + 0.4j, eff_squeeze=0.6,
                         squeeze_phase=0.4, nbar=nbar)
    assert wigner_beta(state, state.displacement) == pytest.approx(
        1.0 / (math.pi * (nbar + 0.5)), rel=1e-13)
    vac = EvolvedState(displacement=0j, eff_squeeze=0.0, nbar=0.0)
    assert wigner_beta(vac, 0j) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_verify_wigner_points_keep_their_bits():
    # verify's default cells have theta = 0, where W(beta) is a sum of two
    # squares already on the squeeze axes; these are the values first written
    from dpagauss.verify import DEFAULT_WIGNER_POINTS

    values = [wigner_beta(evolved_state(ModelParams(
        alpha_mag=alpha, squeeze_mag=r, nbar=nbar), u), beta)
        for nbar, r, alpha, u, beta in DEFAULT_WIGNER_POINTS]
    assert values == [0.4785791533575261, 0.005042657670893782,
                      0.11979725085259468]


@pytest.mark.parametrize("rho", [7.0, 9.0, 9.5])
def test_tilted_strong_squeeze_peaks_at_its_value(rho):
    # off theta = 0 the determinant of a cross-term exponent, 4 a^2 b^2 - c^2,
    # cancelled (to 0.78 of 4 (nbar + 1/2)^2 at rho 9, below 0 at 9.5)
    state = EvolvedState(displacement=0.4 + 0.2j, eff_squeeze=rho,
                         squeeze_phase=0.5 * math.pi, nbar=0.3)
    assert wigner_beta(state, state.displacement) == pytest.approx(
        1.0 / (math.pi * 0.8), rel=1e-12)


def test_displaced_thermal_reference_gaussian():
    # zero-squeeze reference: W(beta) = exp(-|beta - alpha|^2/(nbar+1/2))
    #                                   / (pi (nbar+1/2))
    nbar, alpha = 0.8, 0.5 - 0.3j
    state = EvolvedState(displacement=alpha, eff_squeeze=0.0, nbar=nbar)
    rng = np.random.default_rng(7)
    for _ in range(50):
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        expected = (math.exp(-abs(beta - alpha) ** 2 / (nbar + 0.5))
                    / (math.pi * (nbar + 0.5)))
        assert wigner_beta(state, beta) == pytest.approx(expected, rel=1e-10,
                                                         abs=1e-300)


def test_positivity_sampled():
    rng = np.random.default_rng(99)
    for _ in range(300):
        state = random_state(rng)
        beta = state.displacement + complex(rng.uniform(-3, 3),
                                            rng.uniform(-3, 3))
        assert wigner_beta(state, beta) > 0.0


def test_quadrature_normalization():
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = random_state(rng)
        assert abs(adaptive_wigner_norm(state) - 1.0) <= 1e-6


def test_beta_form_normalization():
    # d Re(beta) d Im(beta) = (1/2) dx dp at lam = 0
    state = EvolvedState(displacement=0.4 + 0.1j, eff_squeeze=0.8,
                         squeeze_phase=0.7, nbar=0.3)
    xs, ps, weights = gauss_legendre_grid(state, 8.0, 220)
    total = 0.0
    for i, x in enumerate(xs):
        row = np.array([wigner_beta(state, complex(x, p) / math.sqrt(2.0))
                        for p in ps])
        total += (weights[i] * row).sum()
    assert total * 0.5 == pytest.approx(1.0, abs=1e-6)


def test_quad_form_cross_term_vanishes_at_alignment():
    state = EvolvedState(displacement=0.2 + 0.5j, eff_squeeze=0.9,
                         squeeze_phase=1.3, nbar=0.6)
    eps_xp = 2.0 * quad_form_matrix(state, 0.65)[0, 1]
    assert eps_xp == pytest.approx(0.0, abs=1e-12)


def test_quad_form_isotropic_without_squeezing():
    # the turn by psi = 0.3 rounds (1, 1) and (1, -1) differently, so the
    # cross term reads back as one ulp of the diagonal 1.8, not exactly 0
    state = EvolvedState(displacement=0.2j, eff_squeeze=0.0, nbar=0.4)
    mat = quad_form_matrix(state, 0.3)
    assert mat[0, 0] == pytest.approx(2.0 * 0.9, rel=1e-14)
    assert mat[1, 1] == pytest.approx(2.0 * 0.9, rel=1e-14)
    assert abs(mat[0, 1]) <= 2.220446049250313e-16


def test_quad_form_eigenstructure():
    rng = np.random.default_rng(11)
    for _ in range(200):
        state = random_state(rng)
        lam = rng.uniform(-math.pi, math.pi)
        evals = np.linalg.eigvalsh(quad_form_matrix(state, lam))
        nb_half = state.nbar + 0.5
        assert evals[0] * evals[1] == pytest.approx((2.0 * nb_half) ** 2,
                                                    rel=1e-10)
        assert evals[1] / evals[0] == pytest.approx(
            math.exp(4.0 * state.eff_squeeze), rel=1e-10)


def test_centered_exponent_eigenvalues_match_width_parameters():
    # pinned against the aligned product form: the Gaussian denominators of
    # W(beta) in the centered Re/Im variables are (nbar+1/2) e^{-+2(u+r)},
    # i.e. the reciprocals of the eigenvalues of the exponent's matrix
    # [[4 a^2, -2 c], [-2 c, 4 b^2]] / (4 (nbar+1/2)^2)
    rng = np.random.default_rng(13)
    for _ in range(200):
        state = random_state(rng)
        re, im = beta_exponent(state, 1.0), beta_exponent(state, 1j)
        cross = 0.25 * (beta_exponent(state, 1.0 + 1j)
                        - beta_exponent(state, 1.0 - 1j))
        nb_half = state.nbar + 0.5
        evals = np.sort(np.linalg.eigvalsh([[re, cross], [cross, im]]))
        widths = np.sort(1.0 / evals)
        expected = np.sort([nb_half * math.exp(2.0 * state.eff_squeeze),
                            nb_half * math.exp(-2.0 * state.eff_squeeze)])
        assert widths == pytest.approx(expected, rel=1e-10)


def test_quadrature_peak_and_jacobian_consistency():
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = random_state(rng)
        lam = rng.uniform(-math.pi, math.pi)
        mean_x = quad_mean(state, lam)
        mean_p = quad_mean(state, lam + 0.5 * math.pi)
        peak = wigner_quadrature(state, lam, mean_x, mean_p)
        assert peak == pytest.approx(
            1.0 / (math.pi * (2.0 * state.nbar + 1.0)), rel=1e-13)
        x = mean_x + rng.uniform(-2, 2)
        p = mean_p + rng.uniform(-2, 2)
        beta = (complex(math.cos(lam), math.sin(lam))
                * complex(x, p) / math.sqrt(2.0))
        assert wigner_quadrature(state, lam, x, p) == pytest.approx(
            0.5 * wigner_beta(state, beta), rel=1e-11, abs=1e-280)


def test_quadrature_broadcast_matches_scalar_formula_bit_for_bit():
    # the CLI grid evaluates one x row per call and must reproduce the
    # per-point libm arithmetic exactly, not just to a tolerance
    def reference(state, lam, x, p):
        nb_half, rho = state.nbar + 0.5, state.eff_squeeze
        psi = lam - 0.5 * state.squeeze_phase
        eps_xx = 2.0 * nb_half * math.exp(2.0 * rho)
        eps_pp = 2.0 * nb_half * math.exp(-2.0 * rho)
        dx = x - quad_mean(state, lam)
        dp = p - quad_mean(state, lam + 0.5 * math.pi)
        xi = math.cos(psi) * dx - math.sin(psi) * dp
        eta = math.sin(psi) * dx + math.cos(psi) * dp
        form = eps_xx * xi * xi + eps_pp * eta * eta
        det = (2.0 * state.nbar + 1.0) ** 2
        return (1.0 / math.pi) / math.sqrt(det) * math.exp(-form / det)

    rng = np.random.default_rng(23)
    for _ in range(30):
        state = random_state(rng)
        lam = rng.uniform(-math.pi, math.pi)
        xs = (quad_mean(state, lam) + rng.uniform(-4, 4, 7)).tolist()
        ps = (quad_mean(state, lam + 0.5 * math.pi)
              + rng.uniform(-4, 4, 9)).tolist()
        expected = [[reference(state, lam, x, p) for p in ps] for x in xs]
        scalar = [[wigner_quadrature(state, lam, x, p) for p in ps]
                  for x in xs]
        grid = wigner_quadrature(state, lam, np.array(xs)[:, None],
                                 np.array(ps))
        rows = [wigner_quadrature(state, lam, x, np.array(ps)).tolist()
                for x in xs]
        assert all(type(w) is float for row in scalar for w in row)
        assert scalar == expected
        assert grid.tolist() == expected
        assert rows == expected


@given(rho=st.floats(0.0, 12.0), theta=angles, lam=angles,
       nbar=st.floats(0.0, 2.0), re=st.floats(-2.0, 2.0),
       im=st.floats(-2.0, 2.0), s=st.floats(-1.0, 1.0),
       t=st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_both_densities_match_a_60_digit_reference(rho, theta, lam, nbar, re,
                                                   im, s, t):
    # out to 6 standard deviations in a wigner-grid column and along the
    # squeeze axes, at any tilt; the bound is mp_reference.relative_bound
    state = EvolvedState(displacement=complex(re, im), eff_squeeze=rho,
                         squeeze_phase=theta, nbar=nbar)
    mean_x = quad_mean(state, lam)
    mean_p = quad_mean(state, lam + 0.5 * math.pi)
    peak = 1.0 / (math.pi * (2.0 * nbar + 1.0))
    for dx, dp in mp_reference.grid_offsets(state, lam, s, t):
        x, p = mean_x + dx, mean_p + dp
        beta = complex(math.cos(lam), math.sin(lam)) * complex(x, p) \
            / math.sqrt(2.0)
        for got, want, top in (
                (wigner_quadrature(state, lam, x, p),
                 mp_reference.wigner_quadrature(state, lam, x, p), peak),
                (wigner_beta(state, beta),
                 mp_reference.wigner_beta(state, beta), 2.0 * peak)):
            assert abs(got - want) <= mp_reference.relative_bound(
                state, want, top) * want


@given(rho=st.floats(0.0, 16.0), theta=angles, lam=angles,
       nbar=st.floats(0.0, 2.0), s=st.floats(-1.0, 1.0),
       t=st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_rounding_bound_holds_against_a_60_digit_reference(rho, theta, lam,
                                                           nbar, s, t):
    # the bound counts the means as exact, so the states are centred, where
    # both means are an exact 0
    state = EvolvedState(displacement=0j, eff_squeeze=rho,
                         squeeze_phase=theta, nbar=nbar)
    for x, p in mp_reference.grid_offsets(state, lam, s, t):
        want = mp_reference.wigner_quadrature(state, lam, x, p)
        bound = wigner.quadrature_rounding_bound(state, lam, x, p)
        if want >= sys.float_info.min:
            assert abs(wigner_quadrature(state, lam, x, p) - want) \
                <= bound * want


@given(rho=st.floats(0.0, 300.0), theta=angles, nbar=st.floats(0.0, 1e6),
       re=st.floats(-1e3, 1e3), im=st.floats(-1e3, 1e3),
       s=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0))
def test_rounding_bound_on_the_squeeze_axes_stays_far_below_the_gate(
        rho, theta, nbar, re, im, s, t):
    # theta = 2 lam turns by an exact 0, which is why wigner-grid never
    # evaluates the bound on aligned grids
    state = EvolvedState(displacement=complex(re, im), eff_squeeze=rho,
                         squeeze_phase=theta, nbar=nbar)
    lam = 0.5 * theta
    for dx, dp in mp_reference.grid_offsets(state, lam, s, t):
        x = quad_mean(state, lam) + dx
        p = quad_mean(state, lam + 0.5 * math.pi) + dp
        assert wigner.quadrature_rounding_bound(state, lam, x, p) <= 2e-12


def test_aligned_case_factorizes():
    nbar, rho = 0.5, 0.65
    theta = 1.1
    lam = 0.55
    state = EvolvedState(displacement=0.4 + 0.9j, eff_squeeze=rho,
                         squeeze_phase=theta, nbar=nbar)
    mean_x = quad_mean(state, lam)
    mean_p = quad_mean(state, lam + 0.5 * math.pi)
    wide = (2.0 * nbar + 1.0) * math.exp(2.0 * rho)
    narrow = (2.0 * nbar + 1.0) * math.exp(-2.0 * rho)
    for dx, dp in ((0.3, -0.2), (-1.1, 0.4), (0.0, 0.9)):
        x, p = mean_x + dx, mean_p + dp
        product = (math.exp(-dx * dx / narrow) * math.exp(-dp * dp / wide)
                   / (math.pi * (2.0 * nbar + 1.0)))
        assert wigner_quadrature(state, lam, x, p) == pytest.approx(
            product, rel=1e-12)


def marginal(state, lam, x, nodes=200, half_sigmas=9.0):
    """Density of x_lam: the p-integral of ``wigner_quadrature``."""
    sig_p = math.sqrt(quad_variance_state(state, lam + 0.5 * math.pi))
    mean_p = quad_mean(state, lam + 0.5 * math.pi)
    ps, wp = np.polynomial.legendre.leggauss(nodes)
    return (wp * half_sigmas * sig_p * wigner_quadrature(
        state, lam, x, mean_p + half_sigmas * sig_p * ps)).sum()


def test_marginal_is_normal_and_matches_joint():
    state = EvolvedState(displacement=0.6 - 0.2j, eff_squeeze=0.5,
                         squeeze_phase=0.9, nbar=0.25)
    lam = 0.4
    # normal with the closed-form mean and variance of x_lam
    sig = math.sqrt(quad_variance_state(state, lam))
    mean = quad_mean(state, lam)
    for x in (mean, mean + 0.7 * sig, mean - 1.9 * sig):
        normal = (math.exp(-0.5 * ((x - mean) / sig) ** 2)
                  / (math.sqrt(2.0 * math.pi) * sig))
        assert marginal(state, lam, x) == pytest.approx(normal, abs=1e-8)


def test_marginal_coherent_reference():
    state = EvolvedState(displacement=0.9 + 0j, eff_squeeze=0.0, nbar=0.0)
    assert quad_mean(state, 0.0) == pytest.approx(math.sqrt(2.0) * 0.9,
                                                  abs=1e-14)
    assert quad_variance_state(state, 0.0) == 0.5
    peak = marginal(state, 0.0, math.sqrt(2.0) * 0.9)
    assert peak == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_wigner_moments_reproduce_closed_forms():
    params = ModelParams(alpha_mag=0.7, alpha_phase=0.2, squeeze_mag=0.3,
                         squeeze_phase=0.8, nbar=0.5)
    state = evolved_state(params, 0.4)

    mean_x = wigner_integral(state, lambda x, ps: x)
    assert mean_x == pytest.approx(quad_mean(state, 0.0), rel=1e-6)
    var_x = wigner_integral(
        state, lambda x, ps: (x - quad_mean(state, 0.0)) ** 2)
    assert var_x == pytest.approx(quad_variance_state(state, 0.0), rel=1e-6)

    # photon moments from symmetric-order averages: |beta|^2 = (x^2+p^2)/2
    mean_sym = wigner_integral(state, lambda x, ps: 0.5 * (x ** 2 + ps ** 2))
    assert mean_sym - 0.5 == pytest.approx(mean_photon(state), rel=1e-6)
    mean_sym2 = wigner_integral(
        state, lambda x, ps: 0.25 * (x ** 2 + ps ** 2) ** 2)
    # <a^dag^2 a^2> = <|beta|^4>_W - 2 <|beta|^2>_W + 1/2
    ordered = mean_sym2 - 2.0 * mean_sym + 0.5
    mean_n = mean_sym - 0.5
    var_n = ordered + mean_n - mean_n ** 2
    assert var_n == pytest.approx(photon_variance(state), rel=1e-6)
