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


def wigner_beta(state: EvolvedState, beta: complex) -> float:
    """Wigner density W(beta); strictly positive for every Gaussian state.

    In the squeeze frame, where the centred offsets f = -2 Re(beta - A) and
    d = 2 Im(beta - A) are turned by theta/2, the exponent is the normal
    form of a one-mode Gaussian (Simon, Mukunda & Dutta, PRA 49, 1567
    (1994); Weedbrook et al., RMP 84, 621 (2012)):

    W(beta) = (2/pi) (4 a^2 b^2)^{-1/2}
              * exp[-(a^2 f'^2 + b^2 d'^2) / (4 a^2 b^2)]

    with a^2 = (nbar+1/2) e^{2(u+r)}, b^2 = (nbar+1/2) e^{-2(u+r)},
    f' = cos(theta/2) f - sin(theta/2) d and d' = sin(theta/2) f
    + cos(theta/2) d.  Both terms are nonnegative and the determinant
    4 a^2 b^2 = 4 (nbar + 1/2)^2 is a product, so nothing cancels.

    Peaks at beta = A with value 1/(pi (nbar + 1/2)).  May underflow to zero
    many standard deviations from the peak.
    """
    nb_half, rho = state.nbar + 0.5, state.eff_squeeze
    half = 0.5 * state.squeeze_phase
    diff = complex(beta) - state.displacement
    d, f = 2.0 * diff.imag, -2.0 * diff.real
    # at theta = 0 the turn is exact: cos 0 = 1, sin 0 = 0
    c, s = math.cos(half), math.sin(half)
    f, d = c * f - s * d, s * f + c * d
    a_sq, b_sq = nb_half * math.exp(2.0 * rho), nb_half * math.exp(-2.0 * rho)
    det = 4.0 * a_sq * b_sq
    exponent = (a_sq * f ** 2 + b_sq * d ** 2) / det
    return (2.0 / math.pi) / math.sqrt(det) * math.exp(-exponent)


def wigner_quadrature(state: EvolvedState, lam: float, x, p):
    """Wigner density W(x_lam, x_{lam+pi/2}) in quadrature variables.

    Equals (1/pi) (2 nbar + 1)^{-1} exp[-E/(2 nbar + 1)^2], where the
    offsets dx = x - <x_lam> and dp = p - <x_{lam+pi/2}>, turned by
    psi = lam - theta/2 onto the squeeze frame as xi = cos(psi) dx
    - sin(psi) dp and eta = sin(psi) dx + cos(psi) dp, give the normal form

    E = eps_xx xi^2 + eps_pp eta^2,
    eps_xx = (2 nbar + 1) e^{2(u+r)},   eps_pp = (2 nbar + 1) e^{-2(u+r)},

    a sum of two nonnegative terms with determinant eps_xx eps_pp
    = (2 nbar + 1)^2.  Normalized so that integral W dx dp = 1; the peak
    value is therefore 1/(pi (2 nbar + 1)), half the peak of W(beta),
    matching the Jacobian of the variable change.  ``x`` and ``p``
    broadcast against each other; scalars give a float.
    """
    nb_half, rho = state.nbar + 0.5, state.eff_squeeze
    psi = lam - 0.5 * state.squeeze_phase
    eps_xx = 2.0 * nb_half * math.exp(2.0 * rho)
    eps_pp = 2.0 * nb_half * math.exp(-2.0 * rho)
    dx = np.asarray(x, dtype=float) - quad_mean(state, lam)
    dp = np.asarray(p, dtype=float) - quad_mean(state, lam + 0.5 * math.pi)
    # at theta = 2 lam the turn is exact: cos 0 = 1, sin 0 = 0
    xi = math.cos(psi) * dx - math.sin(psi) * dp
    eta = math.sin(psi) * dx + math.cos(psi) * dp
    form = eps_xx * xi * xi + eps_pp * eta * eta
    det = (2.0 * state.nbar + 1.0) ** 2
    return (1.0 / math.pi) / math.sqrt(det) * _libm(math.exp, -form / det)
