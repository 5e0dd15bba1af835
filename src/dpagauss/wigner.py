"""Wigner quasiprobability density of the evolved Gaussian state.

Two equivalent parameterizations are provided: the complex-plane form W(beta)
and the quadrature form W(x_lam, x_{lam+pi/2}).  Both are strictly positive
Gaussians.  The quadrature form carries a Jacobian factor 1/2 relative to the
beta form because d(Re eta) d(Im eta) = (1/2) d sigma d kappa under the change
of integration variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EvolvedState, _libm
from .statistics import quad_mean


@dataclass(frozen=True)
class WignerCoeffs:
    """Coefficients of the Gaussian exponent of W(beta).

    W(beta) = (2/pi) (4 a^2 b^2 - c^2)^{-1/2}
              * exp[-(a^2 f^2 + b^2 d^2 + c f d) / (4 a^2 b^2 - c^2)]

    a_sq, b_sq, c_coef depend on the state only; d_coef and f_coef are linear
    in beta relative to the displacement.  The identity
    4 a^2 b^2 - c^2 = 4 (nbar + 1/2)^2 holds for every state.
    """

    a_sq: float
    b_sq: float
    c_coef: float
    d_coef: float
    f_coef: float


@dataclass(frozen=True)
class QuadFormCoeffs:
    """Real parameters of the quadratic exponent in quadrature variables.

    E = eps_xx (x - mean_x)^2 + eps_pp (p - mean_p)^2
        + eps_xp (x - mean_x)(p - mean_p)

    with x = x_lam and p = x_{lam+pi/2}.  The cross term vanishes at
    theta = 2 lam.
    """

    eps_xx: float
    eps_pp: float
    eps_xp: float
    mean_x: float
    mean_p: float


def _split_cosh_pm(rho: float, angle: float) -> tuple[float, float]:
    """Stable (cosh 2rho + cos(angle) sinh 2rho, same with - cos).

    Uses cosh 2rho +/- cos(angle) sinh 2rho
         = cos^2(angle/2) e^{+/-2rho} + sin^2(angle/2) e^{-/+2rho},
    which avoids the cosh-sinh cancellation once e^{-2rho} drops below
    machine precision.
    """
    c2 = math.cos(0.5 * angle) ** 2
    s2 = math.sin(0.5 * angle) ** 2
    ep, em = math.exp(2.0 * rho), math.exp(-2.0 * rho)
    return c2 * ep + s2 * em, c2 * em + s2 * ep


def wigner_coeffs(state: EvolvedState, beta: complex) -> WignerCoeffs:
    """Gaussian-exponent coefficients at phase-space point beta.

    a^2 = (nbar+1/2)(T + T* + S), b^2 = -(nbar+1/2)(T + T* - S) and
    c = -2i(nbar+1/2)(T* - T) with T = (1/2) e^{i theta} sinh[2(u+r)] and
    S = cosh[2(u+r)]; c is stored as a real number since T* - T is purely
    imaginary, reducing to c = -2 (nbar+1/2) sin(theta) sinh[2(u+r)].  d and
    f are the centered imaginary and real parts of beta:
    d = 2 Im(beta - A), f = -2 Re(beta - A).
    """
    nb_half = state.nbar + 0.5
    rho, theta = state.eff_squeeze, state.squeeze_phase
    plus, minus = _split_cosh_pm(rho, theta)
    beta = complex(beta)
    diff = beta - state.displacement
    return WignerCoeffs(a_sq=nb_half * plus,
                        b_sq=nb_half * minus,
                        c_coef=-4.0 * nb_half * (0.5 * math.sin(theta)
                                                 * math.sinh(2.0 * rho)),
                        d_coef=2.0 * diff.imag,
                        f_coef=-2.0 * diff.real)


def wigner_beta(state: EvolvedState, beta: complex) -> float:
    """Wigner density W(beta); strictly positive for every Gaussian state.

    Peaks at beta = A with value 1/(pi (nbar + 1/2)).  May underflow to zero
    many standard deviations from the peak.
    """
    k = wigner_coeffs(state, beta)
    det = 4.0 * k.a_sq * k.b_sq - k.c_coef ** 2
    exponent = (k.a_sq * k.f_coef ** 2 + k.b_sq * k.d_coef ** 2
                + k.c_coef * k.f_coef * k.d_coef) / det
    return (2.0 / math.pi) / math.sqrt(det) * math.exp(-exponent)


def quad_form_coeffs(state: EvolvedState, lam: float) -> QuadFormCoeffs:
    """Quadratic-form parameters in the (x_lam, x_{lam+pi/2}) variables.

    eps_xx = 2 (nbar+1/2) (cosh[2(u+r)] + cos(theta - 2 lam) sinh[2(u+r)])
    eps_pp = 2 (nbar+1/2) (cosh[2(u+r)] - cos(theta - 2 lam) sinh[2(u+r)])
    eps_xp = 4 (nbar+1/2) sin(theta - 2 lam) sinh[2(u+r)]

    The form is positive definite with determinant
    eps_xx eps_pp - eps_xp^2/4 = (2 nbar + 1)^2 and eigenvalue ratio
    e^{4(u+r)}.
    """
    nb_half = state.nbar + 0.5
    angle = state.squeeze_phase - 2.0 * lam
    plus, minus = _split_cosh_pm(state.eff_squeeze, angle)
    return QuadFormCoeffs(
        eps_xx=2.0 * nb_half * plus,
        eps_pp=2.0 * nb_half * minus,
        eps_xp=4.0 * nb_half * math.sin(angle) * math.sinh(2.0 * state.eff_squeeze),
        mean_x=quad_mean(state, lam),
        mean_p=quad_mean(state, lam + 0.5 * math.pi))


def wigner_quadrature(state: EvolvedState, lam: float, x, p):
    """Wigner density W(x_lam, x_{lam+pi/2}) in quadrature variables.

    Equals (1/pi) (2 nbar + 1)^{-1} exp[-E/(2 nbar + 1)^2] with E the
    quadratic form of ``quad_form_coeffs``.  Normalized so that
    integral W dx dp = 1; the peak value is therefore 1/(pi (2 nbar + 1)),
    half the peak of W(beta), matching the Jacobian of the variable change.
    ``x`` and ``p`` broadcast against each other; scalars give a float.
    """
    k = quad_form_coeffs(state, lam)
    dx = np.asarray(x, dtype=float) - k.mean_x
    dp = np.asarray(p, dtype=float) - k.mean_p
    form = k.eps_xx * dx * dx + k.eps_pp * dp * dp + k.eps_xp * dx * dp
    det = (2.0 * state.nbar + 1.0) ** 2
    return (1.0 / math.pi) / math.sqrt(det) * _libm(math.exp, -form / det)

