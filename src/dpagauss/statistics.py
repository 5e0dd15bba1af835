"""Closed-form observables of the evolved Gaussian state.

Quadrature mean/variance, variance product with its Heisenberg bound,
signal-to-noise ratio, photon-number mean/variance and the Mandel parameter.
All are pure functions; the quadrature variance depends on the squeezing only,
never on the displacement.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (EvolvedState, ModelParams, _check_u, _libm, _tanh_half,
                    displacement_amplitude)

_VACUUM = ("Mandel parameter undefined for the vacuum (mean photon number "
           "is zero)")
# caps eps (nbar + 1/2) cosh 2(u + r) |A|^2 / <n>, the bound on the Mandel
# parameter's rounding error from the cancelling term of Var n, at
# Q_ROUNDING_TOL max(1, |Q|): absolute near Q = 0, relative where |Q| > 1
Q_ROUNDING_TOL = 1e-4


class VacuumError(ValueError):
    """The Mandel parameter of the vacuum, whose mean photon number is 0."""


def _guarded_q(nbar: float, ch2, abs2, n, var):
    """Q = (var - n) / n, scalars or arrays, behind the Mandel guards."""
    bound = math.ulp(1.0) / Q_ROUNDING_TOL * (nbar + 0.5) * ch2 * abs2
    # bound >= n max(1, |Q|) = max(n, |var - n|) and n = 0 need bound >= n
    lost = bound >= n
    if np.count_nonzero(lost) \
            and np.any(lost & (bound >= abs(var - n)) | (n <= 0)):
        raise VacuumError(_VACUUM) if np.any(n <= 0) else ValueError(
            "Mandel parameter lost to rounding past Q_ROUNDING_TOL")
    return (var - n) / n


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
    _check_u(u)
    r = params.squeeze_mag
    if r == 0:
        raise ValueError("snr_max requires squeeze_mag > 0")
    if params.alpha_mag == 0:
        return 0.0
    eu = math.exp(-u)
    bracket = (1.0 - eu) / _tanh_half(r) + 1.0 + eu
    return (params.alpha_mag ** 2 * bracket ** 2
            / ((2.0 * params.nbar + 1.0) * math.exp(-2.0 * (u + r))))


@np.errstate(over="ignore", invalid="ignore")
def mean_photon(state: EvolvedState):
    """Mean photon number (nbar + 1/2) cosh[2(u+r)] + |A|^2 - 1/2."""
    ch2, abs2 = state._photon_terms
    return (state.nbar + 0.5) * ch2 + abs2 - 0.5


@np.errstate(over="ignore", invalid="ignore")
def photon_variance(state: EvolvedState):
    """Photon-number variance.

    (nbar + 1/2)^2 cosh[4(u+r)]
      + (nbar + 1/2) ( 2 cosh[2(u+r)] |A|^2
                       - sinh[2(u+r)] * 2 Re(e^{-i theta} A^2) ) - 1/4

    The e^{i theta} A*^2 + e^{-i theta} A^2 combination is computed as
    2 Re(e^{-i theta} A^2), exactly real, rounded as Python's complex product.
    """
    nb_half, rho, amp = state.nbar + 0.5, state.eff_squeeze, state.displacement
    ch2, abs2 = state._photon_terms
    c, s = math.cos(state.squeeze_phase), -math.sin(state.squeeze_phase)
    pair_term = 2.0 * ((c * amp.real - s * amp.imag) * amp.real
                       - (c * amp.imag + s * amp.real) * amp.imag)
    return (nb_half ** 2 * _libm(math.cosh, 4.0 * rho)
            + nb_half * (2.0 * ch2 * abs2
                         - _libm(math.sinh, 2.0 * rho) * pair_term) - 0.25)


def mandel_q(state: EvolvedState):
    """Mandel parameter (var_n - mean_n) / mean_n; bounded below by -1.

    Negative values certify sub-Poissonian (nonclassical) statistics.
    Raises ``VacuumError`` for the vacuum (mean_n = 0), and ``ValueError``
    where rounding leaves Q without ``Q_ROUNDING_TOL`` accuracy.  Over an
    array state, vacuum elements are nan instead.
    """
    return _mandel_q(state)


@np.errstate(over="ignore", invalid="ignore")
def _mandel_q(state: EvolvedState, n=None, var=None):
    """``mandel_q``, from mean_n and var_n where the caller has them."""
    ch2, abs2 = state._photon_terms
    if n is None:
        n, var = mean_photon(state), photon_variance(state)
    if isinstance(n, np.ndarray):  # nan passes the guard and gives Q = nan
        n = np.where(n > 0, n, np.nan)
    return _guarded_q(state.nbar, ch2, abs2, n, var)


def mandel_q_curve(nbar: float, r: float, alpha_mag: float, us) -> np.ndarray:
    """Vectorized Mandel parameter over an array of times u, phi = theta/2 = 0.

    Used by the critical-point machinery; requires r > 0.  Raises
    ``FloatingPointError`` where the curve overflows (cosh 4(u + r) from
    u + r of about 177.6), and the errors of ``mandel_q`` for the vacuum and
    where rounding leaves Q without ``Q_ROUNDING_TOL`` accuracy.
    """
    params = ModelParams(alpha_mag=alpha_mag, squeeze_mag=r, nbar=nbar)
    curve = _mandel_curve(nbar, r, lambda u: displacement_amplitude(params, u))
    return curve(np.asarray(us, dtype=float))


def _mandel_curve(nbar: float, r: float, amplitude):
    """Q(u) of ``mandel_q_curve`` for an ndarray u, given u -> A(tau)."""

    # named for the CLI, whose overflow message names the innermost frame
    @np.errstate(over="raise", invalid="raise")
    def mandel_q_curve(us: np.ndarray) -> np.ndarray:
        amp = amplitude(us)
        rho = us + r
        abs2 = np.abs(amp) ** 2
        ch2 = np.cosh(2.0 * rho)
        n = (nbar + 0.5) * ch2 + abs2 - 0.5
        pair_term = 2.0 * (amp * amp).real
        var = ((nbar + 0.5) ** 2 * np.cosh(4.0 * rho)
               + (nbar + 0.5) * (2.0 * ch2 * abs2
                                 - np.sinh(2.0 * rho) * pair_term) - 0.25)
        return _guarded_q(nbar, ch2, abs2, n, var)

    return mandel_q_curve
