"""Wigner quasiprobability density of the evolved Gaussian state.

Two equivalent parameterizations are provided: the complex-plane form W(beta)
and the quadrature form W(x_lam, x_{lam+pi/2}).  Both are strictly positive
Gaussians.  The quadrature form carries a Jacobian factor 1/2 relative to the
beta form because d(Re eta) d(Im eta) = (1/2) d sigma d kappa under the change
of integration variables.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EvolvedState, _libm
from .statistics import quad_mean

_ABOVE_PEAK = ("{} lost to rounding: its {} rounds below {}, which would "
               "put W above its peak")

# the determinant 4 a^2 b^2 - c^2 of wigner_beta is 4 (nbar + 1/2)^2 exactly;
# one rounded this fraction below would put W(A) half of it above the peak
_DET_RTOL = 1e-9


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


def wigner_beta(state: EvolvedState, beta: complex) -> float:
    """Wigner density W(beta); strictly positive for every Gaussian state.

    W(beta) = (2/pi) (4 a^2 b^2 - c^2)^{-1/2}
              * exp[-(a^2 f^2 + b^2 d^2 + c f d) / (4 a^2 b^2 - c^2)]

    with a^2 = (nbar+1/2)(T + T* + S), b^2 = -(nbar+1/2)(T + T* - S) and
    c = -2i(nbar+1/2)(T* - T), where T = (1/2) e^{i theta} sinh[2(u+r)] and
    S = cosh[2(u+r)].  T* - T is purely imaginary, so c is the real number
    -2 (nbar+1/2) sin(theta) sinh[2(u+r)].  d = 2 Im(beta - A) and
    f = -2 Re(beta - A) center beta on the displacement.  The identity
    4 a^2 b^2 - c^2 = 4 (nbar + 1/2)^2 holds for every state.

    Peaks at beta = A with value 1/(pi (nbar + 1/2)).  May underflow to zero
    many standard deviations from the peak.  Raises ``ValueError`` where the
    exponent rounds below 0, or the determinant more than ``_DET_RTOL`` of
    it below 4 (nbar + 1/2)^2, either of which would put W above its peak.
    """
    nb_half = state.nbar + 0.5
    rho, theta = state.eff_squeeze, state.squeeze_phase
    plus, minus = _split_cosh_pm(rho, theta)
    diff = complex(beta) - state.displacement
    a_sq, b_sq = nb_half * plus, nb_half * minus
    c = -4.0 * nb_half * (0.5 * math.sin(theta) * math.sinh(2.0 * rho))
    d, f = 2.0 * diff.imag, -2.0 * diff.real
    det = 4.0 * a_sq * b_sq - c ** 2
    if det < (1.0 - _DET_RTOL) * 4.0 * nb_half ** 2:
        raise ValueError(_ABOVE_PEAK.format(
            "wigner_beta", "determinant", "4 (nbar + 1/2)^2"))
    exponent = (a_sq * f ** 2 + b_sq * d ** 2 + c * f * d) / det
    if exponent < 0:
        raise ValueError(_ABOVE_PEAK.format("wigner_beta", "exponent", 0))
    return (2.0 / math.pi) / math.sqrt(det) * math.exp(-exponent)


def wigner_quadrature(state: EvolvedState, lam: float, x, p):
    """Wigner density W(x_lam, x_{lam+pi/2}) in quadrature variables.

    Equals (1/pi) (2 nbar + 1)^{-1} exp[-E/(2 nbar + 1)^2] with the quadratic
    form E = eps_xx dx^2 + eps_pp dp^2 + eps_xp dx dp of the offsets
    dx = x - <x_lam> and dp = p - <x_{lam+pi/2}>, where

    eps_xx = 2 (nbar+1/2) (cosh[2(u+r)] + cos(theta - 2 lam) sinh[2(u+r)])
    eps_pp = 2 (nbar+1/2) (cosh[2(u+r)] - cos(theta - 2 lam) sinh[2(u+r)])
    eps_xp = 4 (nbar+1/2) sin(theta - 2 lam) sinh[2(u+r)]

    E is positive definite with determinant
    eps_xx eps_pp - eps_xp^2/4 = (2 nbar + 1)^2 and eigenvalue ratio
    e^{4(u+r)}; the cross term vanishes at theta = 2 lam.  Normalized so that
    integral W dx dp = 1; the peak value is therefore 1/(pi (2 nbar + 1)),
    half the peak of W(beta), matching the Jacobian of the variable change.
    ``x`` and ``p`` broadcast against each other; scalars give a float.
    Raises ``ValueError`` where E rounds below 0, which would put W above
    its peak.
    """
    nb_half = state.nbar + 0.5
    angle = state.squeeze_phase - 2.0 * lam
    plus, minus = _split_cosh_pm(state.eff_squeeze, angle)
    eps_xx, eps_pp = 2.0 * nb_half * plus, 2.0 * nb_half * minus
    eps_xp = 4.0 * nb_half * math.sin(angle) * math.sinh(
        2.0 * state.eff_squeeze)
    dx = np.asarray(x, dtype=float) - quad_mean(state, lam)
    dp = np.asarray(p, dtype=float) - quad_mean(state, lam + 0.5 * math.pi)
    form = eps_xx * dx * dx + eps_pp * dp * dp + eps_xp * dx * dp
    if np.any(form < 0):
        raise ValueError(_ABOVE_PEAK.format("wigner_quadrature", "E", 0))
    det = (2.0 * state.nbar + 1.0) ** 2
    return (1.0 / math.pi) / math.sqrt(det) * _libm(math.exp, -form / det)
