"""Closed-form observables of the evolved Gaussian state.

Quadrature mean/variance, variance product with its Heisenberg bound,
signal-to-noise ratio, photon-number mean/variance and the Mandel parameter.
All are pure functions; the quadrature variance depends on the squeezing only,
never on the displacement.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (EvolvedState, ModelParams, _amplitude_bracket, _check_u,
                    _libm, _tanh_half, displacement_amplitude)

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
    # at floats, lost is a bool, and False needs no numpy call
    if lost is not False and np.count_nonzero(lost) \
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
    ModelParams(alpha_mag=alpha_mag, squeeze_mag=r, nbar=nbar)  # its checks
    with np.errstate(over="raise", invalid="raise"):
        return _guarded_q(nbar, *_mandel_parts(
            nbar, alpha_mag, _mandel_terms(r, np.asarray(us, dtype=float))))


def _mandel_terms(r: float, us) -> tuple:
    """The terms of ``mandel_q_curve`` that do not depend on |alpha|: b(u) =
    A(tau) / |alpha|, real at phi = theta/2 = 0, and cosh 2 rho, cosh 4 rho
    and sinh 2 rho at rho = u + r, from numpy's cosh and sinh.  Arrays over
    an ndarray u, with b from ``displacement_amplitude``; floats at a float
    u, whose arithmetic overflows to inf without numpy's warnings, after
    ``math.cosh`` has raised ``OverflowError`` where numpy's cosh 4(u + r),
    the largest term, would overflow: both overflow from the same argument."""
    if isinstance(us, np.ndarray):
        b = displacement_amplitude(ModelParams(alpha_mag=1.0, squeeze_mag=r),
                                   us).real
        rho = us + r
        return b, np.cosh(2.0 * rho), np.cosh(4.0 * rho), np.sinh(2.0 * rho)
    rho = us + r
    math.cosh(4.0 * rho)
    ch, sh, ch2, ch4, sh2 = map(float, (
        np.cosh(us), np.sinh(us), np.cosh(2.0 * rho), np.cosh(4.0 * rho),
        np.sinh(2.0 * rho)))
    x, y = _amplitude_bracket(1.0 / _tanh_half(r), ch, sh)
    return x + y, ch2, ch4, sh2


def _mandel_parts(nbar: float, alpha_mag: float, terms: tuple) -> tuple:
    """cosh 2(u + r), |A|^2, <n> and Var n at |alpha| = ``alpha_mag`` from
    the ``_mandel_terms``, for arrays or floats alike.  A = |alpha| b is
    real, so |A|^2 is A ** 2, which squares an array by multiplication and
    a float (or numpy scalar) by libm pow, and 2 Re(A^2) is 2 (A A)."""
    b, ch2, ch4, sh2 = terms
    amp = alpha_mag * b
    abs2 = amp ** 2
    n = (nbar + 0.5) * ch2 + abs2 - 0.5
    var = ((nbar + 0.5) ** 2 * ch4
           + (nbar + 0.5) * (2.0 * ch2 * abs2 - sh2 * (2.0 * (amp * amp)))
           - 0.25)
    return ch2, abs2, n, var
