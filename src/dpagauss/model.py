"""Physical parameters and time-dependent coefficients of the evolved Gaussian state.

A single bosonic mode is driven by a quadratic Hamiltonian

    H = c a^dag^2 + c* a^2 + b a + b* a^dag

that turns an initial thermal state (occupation nbar) into a
displaced-squeezed thermal state after a preparation time t.  The state at
any later time t + tau stays Gaussian and is fully described by a complex
displacement amplitude A(tau), an effective squeeze magnitude u + r with
u = Omega*tau = (r/t)*tau, the squeeze angle theta, and nbar.  This module
evaluates those coefficients.

Conventions: hbar = 1, and time is in units of the preparation time t (t
sets only the unit), so Omega = r and the Hamiltonian coefficients are in
units of 1/t.  The primary time coordinate is the dimensionless
u = Omega*tau.  The r -> 0 case is a combined limit (Omega = r/t -> 0 as
well) and is exposed through a dedicated operation parameterized by s = tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

# Effective squeeze magnitudes beyond this make exp(2*(u+r)) meaningless in
# double precision; figure-range work needs u + r of a few at most.
MAX_EFF_SQUEEZE = 300.0


@dataclass(frozen=True)
class ModelParams:
    """The five physical inputs; time is in units of the preparation time.

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
    """

    alpha_mag: float
    alpha_phase: float = 0.0
    squeeze_mag: float = 0.0
    squeeze_phase: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        for name in ("alpha_mag", "alpha_phase", "squeeze_mag",
                     "squeeze_phase", "nbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.alpha_mag < 0:
            raise ValueError(f"alpha_mag must be >= 0, got {self.alpha_mag}")
        if self.squeeze_mag < 0:
            raise ValueError(f"squeeze_mag must be >= 0, got {self.squeeze_mag}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")

    @property
    def alpha(self) -> complex:
        """Complex displacement alpha = |alpha| * exp(i*phi)."""
        return self.alpha_mag * complex(math.cos(self.alpha_phase),
                                        math.sin(self.alpha_phase))


@dataclass(frozen=True)
class EvolvedState:
    """Time-slice descriptor of the evolved Gaussian state.

    The state at dimensionless time u is a displaced-squeezed thermal state
    with displacement ``displacement`` = A(tau), squeeze magnitude
    ``eff_squeeze`` = u + r along angle ``squeeze_phase``, and thermal
    occupation ``nbar``; over an ndarray of u, the first two are arrays.
    """

    displacement: complex
    eff_squeeze: float
    squeeze_phase: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        _check_eff_squeeze(self.eff_squeeze)
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")

    @cached_property
    def _photon_terms(self) -> tuple:
        """cosh 2(u + r) and |A|^2, libm-valued, which the photon-number
        mean, variance and Mandel guard share: evaluated once per state."""
        return (_libm(math.cosh, 2.0 * self.eff_squeeze),
                _libm(pow, _libm(abs, self.displacement), 2))


def _check_eff_squeeze(rho) -> None:
    if np.min(rho) < 0:
        raise ValueError(f"eff_squeeze must be >= 0, got {np.min(rho)}")
    if np.max(rho) > MAX_EFF_SQUEEZE:
        raise ValueError(f"eff_squeeze u + r = {np.max(rho)} exceeds the "
                         f"overflow guard {MAX_EFF_SQUEEZE}")


def _check_u(u) -> None:
    if np.count_nonzero(np.asarray(u) < 0):
        raise ValueError("dimensionless time u must be >= 0")


def _libm(fn, x, *args):
    """fn(x, *args), per element for an ndarray: numpy's cosh, sinh, exp,
    complex abs and x ** 2 differ from libm's in the last bit (numpy 2.4,
    x86-64: its exp changed 6,452 of 160,801 values of a 401² Wigner grid)."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    return np.fromiter(map(fn, x.ravel().tolist(), *map(repeat, args)),
                       float, x.size).reshape(x.shape)


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
    double precision.  Accepts a scalar or ndarray ``u`` and broadcasts
    with the bits of one call per element: the complex products are done in
    real arithmetic, as numpy's scalar product does them, because numpy's
    complex128 array loop rounds differently.
    """
    _check_u(u)
    return _amplitude_curve(params)(np.asarray(u, dtype=float))


def _amplitude_curve(params: ModelParams):
    """u -> ``displacement_amplitude(params, u)`` for an ndarray u >= 0, with
    the factors that do not depend on u computed once."""
    r = params.squeeze_mag
    if r == 0:
        raise ValueError("displacement_amplitude requires squeeze_mag > 0; "
                         "use limit_r_zero_displacement for r = 0")
    coth_half = 1.0 / _tanh_half(r)
    phase = np.exp(1j * (params.squeeze_phase - 2.0 * params.alpha_phase))
    alpha = params.alpha

    # named for the CLI, whose overflow message names the innermost frame
    def displacement_amplitude(u: np.ndarray):
        ch, sh = np.cosh(u), np.sinh(u)
        x = ch + 0.5 * coth_half * sh - 0.5 * (ch - 1.0)
        y = -0.5 * sh - 0.5 * coth_half * (ch - 1.0)
        # alpha (x + phase y); the + 0.0 is the real x's zero imaginary part
        bracket_re, bracket_im = x + phase.real * y, phase.imag * y + 0.0
        amp = np.empty(u.shape, dtype=complex)
        amp.real = alpha.real * bracket_re - alpha.imag * bracket_im
        amp.imag = alpha.real * bracket_im + alpha.imag * bracket_re
        return complex(amp) if amp.ndim == 0 else amp

    return displacement_amplitude


def limit_r_zero_displacement(params: ModelParams, s: float) -> complex:
    """Displacement in the combined r -> 0 limit, at s = tau in units of t.

    Taking r -> 0 together with Omega = r/t -> 0 turns the closed form of
    A(tau) into alpha * (1 + s): the center keeps drifting linearly in
    tau even though the squeezing disappears.
    """
    if params.squeeze_mag != 0:
        raise ValueError("limit_r_zero_displacement requires squeeze_mag = 0")
    if s < 0:
        raise ValueError("s = tau/t must be >= 0")
    return params.alpha * (1.0 + s)


def evolved_state(params: ModelParams, u) -> EvolvedState:
    """Evolved Gaussian state descriptor (A(tau), u + r, theta, nbar).

    For r = 0 only u = 0 is meaningful (the static displaced thermal state);
    dynamics at r = 0 belongs to the combined-limit operations.  The u + r
    guard runs first: A(tau) overflows from u of about 710; u may be an array.
    """
    _check_u(u)
    _check_eff_squeeze(u + params.squeeze_mag)
    if params.squeeze_mag == 0:
        if np.any(u != 0):
            raise ValueError("r = 0 dynamics requires the combined limit; "
                             "only u = 0 is supported")
        disp = params.alpha
    else:
        disp = displacement_amplitude(params, u)
    return EvolvedState(displacement=disp, eff_squeeze=u + params.squeeze_mag,
                        squeeze_phase=params.squeeze_phase, nbar=params.nbar)


def hamiltonian_coeffs(params: ModelParams) -> tuple[complex, complex]:
    """Coefficients (c, b) of the generating Hamiltonian, with hbar = 1, in
    units of 1/t:

        c = -(i/2) r e^{i theta}
        b = -(i/2) r (alpha e^{-i theta} + alpha* coth(r/2))

    r = 0 with alpha != 0 is rejected (coth singularity); r = 0 with
    alpha = 0 returns the trivial Hamiltonian b = c = 0.  Like
    ``displacement_amplitude``, raises ``ValueError`` where coth(r/2)
    overflows.
    """
    r = params.squeeze_mag
    if r == 0:
        if params.alpha_mag != 0:
            raise ValueError("hamiltonian_coeffs undefined for r = 0 with "
                             "alpha != 0 (singular coth term)")
        return 0j, 0j
    alpha = params.alpha
    theta = params.squeeze_phase
    c = -0.5j * r * complex(math.cos(theta), math.sin(theta))
    b = -0.5j * r * (alpha * complex(math.cos(theta), -math.sin(theta))
                     + alpha.conjugate() / _tanh_half(r))
    return c, b
