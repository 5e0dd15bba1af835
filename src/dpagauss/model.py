"""Physical parameters and time-dependent coefficients of the evolved Gaussian state.

A single bosonic mode is driven by a quadratic Hamiltonian

    H = c a^dag^2 + c* a^2 + b a + b* a^dag

that turns an initial thermal state (occupation nbar) into a
displaced-squeezed thermal state after a preparation time t.  The state at
any later time t + tau stays Gaussian and is fully described by a complex
displacement amplitude A(tau), an effective squeeze magnitude u + r with
u = Omega*tau = (r/t)*tau, the squeeze angle theta, and nbar.  This module
evaluates those coefficients and the normally ordered characteristic
function built from them.

Conventions: hbar = 1; Hamiltonian coefficients are reported in units of
1/prep_time.  The primary time coordinate is the dimensionless u = Omega*tau.
The r -> 0 case is a combined limit (Omega = r/t -> 0 as well) and is exposed
through a dedicated operation parameterized by s = tau/t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Effective squeeze magnitudes beyond this make exp(2*(u+r)) meaningless in
# double precision; figure-range work needs u + r of a few at most.
MAX_EFF_SQUEEZE = 300.0


@dataclass(frozen=True)
class ModelParams:
    """The five physical inputs plus the preparation time.

    Attributes
    ----------
    alpha_mag : float
        Displacement magnitude |alpha| (dimensionless, >= 0).
    alpha_phase : float
        Displacement phase phi in radians.
    squeeze_mag : float
        Squeeze magnitude r >= 0.
    squeeze_phase : float
        Squeeze angle theta in radians.
    nbar : float
        Thermal occupation of the initial state, >= 0.
    prep_time : float
        Time t > 0 taken to generate the Gaussian state; sets the rate
        Omega = r / t so that Omega * t = r identically.
    """

    alpha_mag: float
    alpha_phase: float = 0.0
    squeeze_mag: float = 0.0
    squeeze_phase: float = 0.0
    nbar: float = 0.0
    prep_time: float = 1.0

    def __post_init__(self):
        for name in ("alpha_mag", "alpha_phase", "squeeze_mag",
                     "squeeze_phase", "nbar", "prep_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.alpha_mag < 0:
            raise ValueError(f"alpha_mag must be >= 0, got {self.alpha_mag}")
        if self.squeeze_mag < 0:
            raise ValueError(f"squeeze_mag must be >= 0, got {self.squeeze_mag}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")
        if not self.prep_time > 0:
            raise ValueError(f"prep_time must be > 0, got {self.prep_time}")

    @property
    def alpha(self) -> complex:
        """Complex displacement alpha = |alpha| * exp(i*phi)."""
        return self.alpha_mag * complex(math.cos(self.alpha_phase),
                                        math.sin(self.alpha_phase))

    @property
    def omega(self) -> float:
        """Pump rate Omega = r / t."""
        return self.squeeze_mag / self.prep_time


@dataclass(frozen=True)
class EvolvedState:
    """Time-slice descriptor of the evolved Gaussian state.

    The state at dimensionless time u is a displaced-squeezed thermal state
    with displacement ``displacement`` = A(tau), squeeze magnitude
    ``eff_squeeze`` = u + r along angle ``squeeze_phase``, and thermal
    occupation ``nbar``.
    """

    displacement: complex
    eff_squeeze: float
    squeeze_phase: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        if self.eff_squeeze < 0:
            raise ValueError(f"eff_squeeze must be >= 0, got {self.eff_squeeze}")
        if self.eff_squeeze > MAX_EFF_SQUEEZE:
            raise ValueError(
                f"eff_squeeze u + r = {self.eff_squeeze} exceeds the "
                f"overflow guard {MAX_EFF_SQUEEZE}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")


@dataclass(frozen=True)
class HamiltonianCoeffs:
    """Two-photon pump strength and linear drive, in units of 1/prep_time."""

    c_coeff: complex
    b_coeff: complex


def _check_u(u) -> None:
    if np.any(np.asarray(u) < 0):
        raise ValueError("dimensionless time u must be >= 0")


def _tanh_half(r: float) -> float:
    """tanh(r/2), for formulas that divide by it: raises ``ValueError`` for
    r below about 1.1e-308, where coth(r/2) overflows double precision."""
    tanh_half = math.tanh(0.5 * r)
    if not (tanh_half > 0.0 and math.isfinite(1.0 / tanh_half)):
        raise ValueError(f"squeeze_mag {r!r} is too small: coth(r/2) "
                         "overflows double precision")
    return tanh_half


def displacement_amplitude(params: ModelParams, u):
    """Displacement amplitude A(tau) of the evolved state at u = Omega*tau.

    A(tau) = alpha * ( cosh u + (1/2) coth(r/2) sinh u - (1/2)(cosh u - 1)
             + exp(i(theta - 2 phi)) * [ -(1/2) sinh u
                                         - (1/2) coth(r/2)(cosh u - 1) ] )

    Requires r > 0; the coth(r/2) factor is singular otherwise (see
    ``limit_r_zero_displacement`` for the combined r -> 0 limit), and raises
    ``ValueError`` for r below about 1.1e-308, where coth(r/2) overflows
    double precision.  Accepts a scalar or ndarray ``u`` and broadcasts.
    """
    _check_u(u)
    r = params.squeeze_mag
    if r == 0:
        raise ValueError("displacement_amplitude requires squeeze_mag > 0; "
                         "use limit_r_zero_displacement for r = 0")
    coth_half = 1.0 / _tanh_half(r)
    u = np.asarray(u, dtype=float)
    ch, sh = np.cosh(u), np.sinh(u)
    phase = np.exp(1j * (params.squeeze_phase - 2.0 * params.alpha_phase))
    amp = params.alpha * (ch + 0.5 * coth_half * sh - 0.5 * (ch - 1.0)
                          + phase * (-0.5 * sh - 0.5 * coth_half * (ch - 1.0)))
    return complex(amp) if amp.ndim == 0 else amp


def limit_r_zero_displacement(params: ModelParams, s: float) -> complex:
    """Displacement in the combined r -> 0 limit, at s = tau / t.

    Taking r -> 0 together with Omega = r/t -> 0 turns the closed form of
    A(tau) into alpha * (1 + s): the center keeps drifting linearly in
    tau / t even though the squeezing disappears.
    """
    if params.squeeze_mag != 0:
        raise ValueError("limit_r_zero_displacement requires squeeze_mag = 0")
    if s < 0:
        raise ValueError("s = tau/t must be >= 0")
    return params.alpha * (1.0 + s)


def _hyperbolic_coeffs(eff_squeeze: float, theta: float) -> tuple[complex, float]:
    """(anomalous, symmetric) coefficients for squeeze magnitude u + r."""
    two_rho = 2.0 * eff_squeeze
    t_coeff = 0.5 * complex(math.cos(theta), math.sin(theta)) * math.sinh(two_rho)
    s_coeff = math.cosh(two_rho)
    return t_coeff, s_coeff


def anomalous_coeff(params: ModelParams, u: float) -> complex:
    """Phase-sensitive pair coefficient (1/2) e^{i theta} sinh[2(u + r)].

    Multiplies eta*^2 in the quadratic exponent of the characteristic
    function; the centered pair moment of the state is <da da> =
    -(2 nbar + 1) times this value.
    """
    _check_u(u)
    return _hyperbolic_coeffs(u + params.squeeze_mag, params.squeeze_phase)[0]


def symmetric_coeff(params: ModelParams, u: float) -> float:
    """Symmetric coefficient cosh[2(u + r)] multiplying |eta|^2; always >= 1."""
    _check_u(u)
    return _hyperbolic_coeffs(u + params.squeeze_mag, params.squeeze_phase)[1]


def evolved_state(params: ModelParams, u: float) -> EvolvedState:
    """Evolved Gaussian state descriptor (A(tau), u + r, theta, nbar).

    For r = 0 only u = 0 is meaningful (the static displaced thermal state);
    dynamics at r = 0 belongs to the combined-limit operations.
    """
    _check_u(u)
    if params.squeeze_mag == 0:
        if u != 0:
            raise ValueError("r = 0 dynamics requires the combined limit; "
                             "only u = 0 is supported")
        disp = params.alpha
    else:
        disp = displacement_amplitude(params, u)
    return EvolvedState(displacement=disp,
                        eff_squeeze=u + params.squeeze_mag,
                        squeeze_phase=params.squeeze_phase,
                        nbar=params.nbar)


def char_fn_state(state: EvolvedState, eta: complex) -> complex:
    """Normally ordered characteristic function of an evolved state.

    chi(eta) = exp(|eta|^2/2) exp(eta A* - eta* A)
               * exp(-(nbar + 1/2)(eta^2 T* + eta*^2 T + |eta|^2 S))

    with T and S the anomalous and symmetric hyperbolic coefficients of the
    state.  chi(0) = 1 for every state (normalization of the density
    operator).
    """
    t_coeff, s_coeff = _hyperbolic_coeffs(state.eff_squeeze, state.squeeze_phase)
    amp = state.displacement
    eta = complex(eta)
    exponent = (0.5 * abs(eta) ** 2
                + eta * amp.conjugate() - eta.conjugate() * amp
                - (state.nbar + 0.5) * (eta ** 2 * t_coeff.conjugate()
                                        + eta.conjugate() ** 2 * t_coeff
                                        + abs(eta) ** 2 * s_coeff))
    return complex(np.exp(exponent))


def char_fn(params: ModelParams, u: float, eta: complex) -> complex:
    """Normally ordered characteristic function at dimensionless time u."""
    return char_fn_state(evolved_state(params, u), eta)


def hamiltonian_coeffs(params: ModelParams) -> HamiltonianCoeffs:
    """Coefficients (c, b) of the generating Hamiltonian, with hbar = 1.

        c = -(i/2) (r/t) e^{i theta}
        b = -(i/2t) (alpha e^{-i theta} + alpha* coth(r/2)) r

    r = 0 with alpha != 0 is rejected (coth singularity); r = 0 with
    alpha = 0 returns the trivial Hamiltonian b = c = 0.  Like
    ``displacement_amplitude``, raises ``ValueError`` where coth(r/2)
    overflows.
    """
    r, t = params.squeeze_mag, params.prep_time
    if r == 0:
        if params.alpha_mag != 0:
            raise ValueError("hamiltonian_coeffs undefined for r = 0 with "
                             "alpha != 0 (singular coth term)")
        return HamiltonianCoeffs(c_coeff=0j, b_coeff=0j)
    alpha = params.alpha
    theta = params.squeeze_phase
    c = -0.5j * (r / t) * complex(math.cos(theta), math.sin(theta))
    b = -0.5j * (r / t) * (alpha * complex(math.cos(theta), -math.sin(theta))
                           + alpha.conjugate() / _tanh_half(r))
    return HamiltonianCoeffs(c_coeff=c, b_coeff=b)
