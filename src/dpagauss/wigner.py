"""Wigner quasiprobability density of the evolved Gaussian state.

Two equivalent parameterizations are provided: the complex-plane form W(beta)
and the quadrature form W(x_lam, x_{lam+pi/2}).  Both are strictly positive
Gaussians.  The quadrature form carries a Jacobian factor 1/2 relative to the
beta form because d(Re eta) d(Im eta) = (1/2) d sigma d kappa under the change
of integration variables.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import EvolvedState, _libm
from .statistics import quad_mean

# the relative error of W that verify accepts and wigner-grid guards
WIGNER_GATE = 1e-6
_ROUNDOFF = 2.0 ** -53  # the unit roundoff v


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
    broadcast against each other; scalars give a float.  Off the squeeze
    axes its rounding grows like e^{2(u+r)}: ``quadrature_rounding_bound``
    bounds it per point.
    """
    _, _, _, xi, eta = _turned(state, lam, x, p)
    eps_xx, eps_pp, det = _weights(state)
    form = eps_xx * xi * xi + eps_pp * eta * eta
    return (1.0 / math.pi) / math.sqrt(det) * _libm(math.exp, -form / det)


def quadrature_rounding_bound(state: EvolvedState, lam: float, x, p):
    """Bound on the relative rounding error of ``wigner_quadrature`` at
    (x, p), where W within that bound may reach the smallest normal double;
    0 where it underflows even so.  The means count as exact: the bound is
    that of the offsets from them, of their turn and of the normal form.

    psi is one rounding of lam - theta/2, so with the unit roundoff
    v = 2^-53 it is off by at most v |psi|, and so cos psi by
    v |psi sin psi| and sin psi by v |psi cos psi|.  cos, sin, the
    subtraction that forms dx and dp, the products and the sum or
    difference of the turn add at most 2v, v, v and v of their magnitude,
    5v in all, which 6v covers with the terms of second order: with
    c = |cos psi| and s = |sin psi|,

    |d xi|  <= v [(|psi| s + 6c) |dx| + (|psi| c + 6s) |dp|],
    |d eta| <= v [(|psi| c + 6s) |dx| + (|psi| s + 6c) |dp|].

    Then the exponent F = E / det is off by at most dF = [eps_xx |d xi|
    (2|xi| + |d xi|) + eps_pp |d eta| (2|eta| + |d eta|)] / det + 12v F,
    the last term for the weights, the squares, the sum and the division,
    and W by at most expm1(dF) + 8v of its value.  Off the squeeze axes
    the ridge xi = 0 crosses offsets e^{2(u+r)} widths of the narrow axis
    long, so dF grows like e^{4(u+r)} there.  On a ``wigner-grid`` with
    r = 1, lam = 0.3 and 41 steps per axis it reads 5.1e-11 at u = 10,
    1.5e-7 at u = 12 and 8.4e-6 at u = 13, against errors of 4.3e-13,
    1.8e-9 and 4.6e-7.  At psi = 0 the turn is exact and dF <= 24v F,
    which no point that W can reach lifts past 2e-12.
    """
    psi, dx, dp, xi, eta = _turned(state, lam, x, p)
    eps_xx, eps_pp, det = _weights(state)
    c, s, turn, v = abs(math.cos(psi)), abs(math.sin(psi)), abs(psi), _ROUNDOFF
    d_xi = v * ((turn * s + 6.0 * c) * np.abs(dx)
                + (turn * c + 6.0 * s) * np.abs(dp))
    d_eta = v * ((turn * c + 6.0 * s) * np.abs(dx)
                 + (turn * s + 6.0 * c) * np.abs(dp))
    with np.errstate(over="ignore"):  # an infinite bound is a bound
        exponent = (eps_xx * xi * xi + eps_pp * eta * eta) / det
        d_exponent = (eps_xx * d_xi * (2.0 * np.abs(xi) + d_xi)
                      + eps_pp * d_eta * (2.0 * np.abs(eta) + d_eta)
                      ) / det + 12.0 * v * exponent
        reachable = exponent - d_exponent <= -math.log(
            sys.float_info.min * math.pi * math.sqrt(det))
        return np.where(reachable, np.expm1(d_exponent) + 8.0 * v, 0.0)


def _turned(state: EvolvedState, lam: float, x, p) -> tuple:
    """psi, the offsets dx and dp of (x, p) from the means, and xi and eta,
    the offsets turned by psi onto the squeeze frame."""
    psi = lam - 0.5 * state.squeeze_phase
    dx = np.asarray(x, dtype=float) - quad_mean(state, lam)
    dp = np.asarray(p, dtype=float) - quad_mean(state, lam + 0.5 * math.pi)
    # at theta = 2 lam the turn is exact: cos 0 = 1, sin 0 = 0
    xi = math.cos(psi) * dx - math.sin(psi) * dp
    eta = math.sin(psi) * dx + math.cos(psi) * dp
    return psi, dx, dp, xi, eta


def _weights(state: EvolvedState) -> tuple:
    """eps_xx, eps_pp and their product det of the normal form E."""
    nb_half, rho = state.nbar + 0.5, state.eff_squeeze
    return (2.0 * nb_half * math.exp(2.0 * rho),
            2.0 * nb_half * math.exp(-2.0 * rho),
            (2.0 * state.nbar + 1.0) ** 2)
