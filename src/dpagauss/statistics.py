"""Closed-form observables of the evolved Gaussian state.

Quadrature mean/variance, variance product with its Heisenberg bound,
signal-to-noise ratio, photon-number mean/variance and the Mandel parameter.
All are pure functions; the quadrature variance depends on the squeezing only,
never on the displacement.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EvolvedState, ModelParams, _tanh_half, evolved_state


def quad_mean(state: EvolvedState, lam: float) -> float:
    """Mean of the quadrature x_lam = (a e^{-i lam} + a^dag e^{i lam})/sqrt(2)."""
    rotated = state.displacement * complex(math.cos(lam), -math.sin(lam))
    return math.sqrt(2.0) * rotated.real


def quad_variance(nbar: float, r: float, theta: float, lam: float, u) -> float:
    """Quadrature variance; depends only on the total squeeze u + r.

    Var x_lam = (nbar + 1/2) ( e^{2(u+r)} sin^2(lam - theta/2)
                               + e^{-2(u+r)} cos^2(lam - theta/2) )
    """
    rho = np.asarray(u, dtype=float) + r
    psi = lam - 0.5 * theta
    var = (nbar + 0.5) * (np.exp(2.0 * rho) * math.sin(psi) ** 2
                          + np.exp(-2.0 * rho) * math.cos(psi) ** 2)
    return float(var) if var.ndim == 0 else var


def quad_variance_state(state: EvolvedState, lam: float) -> float:
    """Quadrature variance evaluated from an evolved-state descriptor."""
    return quad_variance(state.nbar, state.eff_squeeze, state.squeeze_phase,
                         lam, 0.0)


def variance_product(nbar: float, r: float, theta: float, lam: float,
                     u: float) -> float:
    """Product Var(x_lam) * Var(x_{lam+pi/2}).

    Equals (nbar + 1/2)^2 (1 + sin^2(theta - 2 lam) sinh^2[2(u+r)]), an
    algebraically equivalent form of
    (nbar + 1/2)^2 (cosh^2[2(u+r)] - cos^2(theta - 2 lam) sinh^2[2(u+r)])
    that is manifestly >= (nbar + 1/2)^2 >= 1/4, with equality of the first
    bound exactly at theta = 2 lam.
    """
    rho = u + r
    s = math.sin(theta - 2.0 * lam)
    return (nbar + 0.5) ** 2 * (1.0 + (s * math.sinh(2.0 * rho)) ** 2)


def snr(state: EvolvedState, lam: float) -> float:
    """Signal-to-noise ratio mean^2 / variance of x_lam; 0 for alpha = 0."""
    return quad_mean(state, lam) ** 2 / quad_variance_state(state, lam)


def snr_max(params: ModelParams, u: float) -> float:
    """Maximum SNR, attained along lam = theta/2 for phi = theta/2:

        |alpha|^2 [coth(r/2)(1 - e^{-u}) + (1 + e^{-u})]^2
        / ((2 nbar + 1) e^{-2(u + r)})

    Requires r > 0, and raises ``ValueError`` where coth(r/2) overflows.
    """
    if np.any(np.asarray(u) < 0):
        raise ValueError("u must be >= 0")
    r = params.squeeze_mag
    if r == 0:
        raise ValueError("snr_max requires squeeze_mag > 0")
    if params.alpha_mag == 0:
        return 0.0
    eu = math.exp(-u)
    bracket = (1.0 - eu) / _tanh_half(r) + 1.0 + eu
    return (params.alpha_mag ** 2 * bracket ** 2
            / ((2.0 * params.nbar + 1.0) * math.exp(-2.0 * (u + r))))


def mean_photon(state: EvolvedState) -> float:
    """Mean photon number (nbar + 1/2) cosh[2(u+r)] + |A|^2 - 1/2."""
    return ((state.nbar + 0.5) * math.cosh(2.0 * state.eff_squeeze)
            + abs(state.displacement) ** 2 - 0.5)


def photon_variance(state: EvolvedState) -> float:
    """Photon-number variance.

    (nbar + 1/2)^2 cosh[4(u+r)]
      + (nbar + 1/2) ( 2 cosh[2(u+r)] |A|^2
                       - sinh[2(u+r)] * 2 Re(e^{-i theta} A^2) ) - 1/4

    The e^{i theta} A*^2 + e^{-i theta} A^2 combination is computed as
    2 Re(e^{-i theta} A^2) to keep it exactly real.
    """
    rho = state.eff_squeeze
    amp = state.displacement
    phase = complex(math.cos(state.squeeze_phase), -math.sin(state.squeeze_phase))
    pair_term = 2.0 * (phase * amp * amp).real
    return ((state.nbar + 0.5) ** 2 * math.cosh(4.0 * rho)
            + (state.nbar + 0.5) * (2.0 * math.cosh(2.0 * rho) * abs(amp) ** 2
                                    - math.sinh(2.0 * rho) * pair_term)
            - 0.25)


def mandel_q(state: EvolvedState) -> float:
    """Mandel parameter (var_n - mean_n) / mean_n; bounded below by -1.

    Negative values certify sub-Poissonian (nonclassical) statistics.
    Undefined for the vacuum (mean_n = 0).
    """
    n = mean_photon(state)
    if n <= 0:
        raise ValueError("Mandel parameter undefined for the vacuum "
                         "(mean photon number is zero)")
    return (photon_variance(state) - n) / n


def mandel_q_zero(nbar: float, r: float, alpha_mag: float) -> float:
    """Mandel parameter at u = 0 in the aligned convention phi = theta/2.

    ( (nbar+1/2)^2 cosh 4r + ((2 nbar + 1) e^{-2r} - 1) |alpha|^2
      - (nbar+1/2) cosh 2r + 1/4 )
    / ( (nbar+1/2) cosh 2r + |alpha|^2 - 1/2 )
    """
    den = (nbar + 0.5) * math.cosh(2.0 * r) + alpha_mag ** 2 - 0.5
    if den <= 0:
        raise ValueError("Mandel parameter undefined for the vacuum "
                         "(mean photon number is zero)")
    num = ((nbar + 0.5) ** 2 * math.cosh(4.0 * r)
           + ((2.0 * nbar + 1.0) * math.exp(-2.0 * r) - 1.0) * alpha_mag ** 2
           - (nbar + 0.5) * math.cosh(2.0 * r) + 0.25)
    return num / den


@np.errstate(over="raise", invalid="raise")
def mandel_q_curve(nbar: float, r: float, alpha_mag: float, us) -> np.ndarray:
    """Vectorized Mandel parameter over an array of times u, phi = theta/2 = 0.

    Used by the sweep and critical-point machinery; requires r > 0.  Raises
    ``FloatingPointError`` where the curve overflows double precision
    (cosh 4(u + r) from u + r of about 177.6) instead of returning inf/NaN.
    """
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=0.0, squeeze_mag=r,
                         squeeze_phase=0.0, nbar=nbar)
    us = np.asarray(us, dtype=float)
    from .model import displacement_amplitude
    amp = displacement_amplitude(params, us)
    rho = us + r
    abs2 = np.abs(amp) ** 2
    n = (nbar + 0.5) * np.cosh(2.0 * rho) + abs2 - 0.5
    pair_term = 2.0 * (amp * amp).real
    var = ((nbar + 0.5) ** 2 * np.cosh(4.0 * rho)
           + (nbar + 0.5) * (2.0 * np.cosh(2.0 * rho) * abs2
                             - np.sinh(2.0 * rho) * pair_term) - 0.25)
    return (var - n) / n
