"""60-digit reference values of closed forms (the displacement amplitude,
the photon statistics, the derivatives of Q at the transition and the two
Wigner densities), for tests and scripts.

Nothing in ``dpagauss`` imports this module.  Each function takes the same
double-precision inputs as the closed form it checks and evaluates the
formula in mpmath at ``DIGITS`` significant digits, so a comparison measures
the rounding of the double-precision code and nothing else.

The Wigner densities are built here from the second moments of the state
rather than from its squeeze-frame normal form: for the quadratures
x = x_lam and p = x_{lam+pi/2} of a squeezed thermal state,

    Var x = (nbar+1/2) (cosh 2rho - cos a sinh 2rho),
    Var p = (nbar+1/2) (cosh 2rho + cos a sinh 2rho),
    Cov(x, p) = -(nbar+1/2) sin a sinh 2rho,      a = theta - 2 lam,

and W(x, p) = exp(-v^T V^{-1} v / 2) / (2 pi sqrt(det V)) with v the offset
from the means sqrt(2) Re(A e^{-i lam}) and sqrt(2) Re(A e^{-i(lam+pi/2)}).
W(beta) is 2 W(x, p) at lam = 0 and (x, p) = sqrt(2) (Re beta, Im beta).

A(tau) is built without its closed form, from the Heisenberg equations of
the paper's Hamiltonian H = c a^dag^2 + c* a^2 + b a + b* a^dag:
da/dT = -2ic a^dag - i b* is an affine system in (a, a^dag, 1), whose
solution is a(T) = mu a + nu a^dag + gamma.  The initial thermal state has
<a> = 0, so A = gamma.  Time is in units of the preparation time, so
T = 1 + u/r.  The photon statistics are then evaluated from A at 60 digits.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

from dpagauss import (ModelParams, evolved_state, mean_photon,
                      photon_variance, quad_variance_state)

DIGITS = 60


def displacement_amplitude(params, u: float) -> mp.mpc:
    """A(tau) at the double inputs given, as the inhomogeneous term of
    expm(M T) for d(a, a^dag, 1)/dT = M (a, a^dag, 1), with

        c = -(i/2) r e^{i theta},
        b = -(i/2) r (alpha e^{-i theta} + alpha* coth(r/2)).
    """
    with mp.workdps(DIGITS):
        r, theta = mp.mpf(params.squeeze_mag), mp.mpf(params.squeeze_phase)
        alpha = params.alpha_mag * mp.expj(params.alpha_phase)
        c = -0.5j * r * mp.expj(theta)
        b = -0.5j * r * (alpha * mp.expj(-theta)
                         + mp.conj(alpha) / mp.tanh(r / 2))
        m = mp.matrix([[0, -2j * c, -1j * mp.conj(b)],
                       [2j * mp.conj(c), 0, 1j * b],
                       [0, 0, 0]])
        return mp.expm(m * (1 + mp.mpf(u) / r))[0, 2]


def squeeze_frame_amplitude(params, u: float) -> mp.mpc:
    """A(tau) = e^{i theta/2} |alpha| (cos delta g+ + i sin delta g-), with
    delta = phi - theta/2 and

        g+ = [coth(r/2) (1 - e^{-u}) + 1 + e^{-u}] / 2,
        g- = [coth(r/2) (e^u - 1) + e^u + 1] / 2,

    the squeeze-frame route to A(tau), for a cross-check of the Heisenberg
    route."""
    with mp.workdps(DIGITS):
        r, u = mp.mpf(params.squeeze_mag), mp.mpf(u)
        half_theta = mp.mpf(params.squeeze_phase) / 2
        delta = params.alpha_phase - half_theta
        coth = 1 / mp.tanh(r / 2)
        g_plus = (-coth * mp.expm1(-u) + 1 + mp.exp(-u)) / 2
        g_minus = (coth * mp.expm1(u) + mp.exp(u) + 1) / 2
        return params.alpha_mag * mp.expj(half_theta) * mp.mpc(
            mp.cos(delta) * g_plus, mp.sin(delta) * g_minus)


def photon_statistics(params, u: float) -> tuple:
    """(A, <n>, Var n, Q) of the state evolved to u, at the double inputs
    given, A by the Heisenberg route.

    With rho = u + r, A' = e^{-i theta/2} A, kappa = (2 nbar + 1) e^{-2 rho}
    and kappa' = (2 nbar + 1) e^{2 rho}, every term is positive except
    kappa - 1 = 2 nbar e^{-2 rho} + expm1(-2 rho):

        <n> = nbar cosh 2 rho + sinh^2 rho + |A'|^2,
        Var n - <n> = c0 + (Re A')^2 (kappa - 1) + (Im A')^2 (kappa' - 1),
        c0 = nbar^2 + (2 nbar + 1) sinh^2 rho [2 (2 nbar + 1) cosh^2 rho - 1].
    """
    amp = displacement_amplitude(params, u)
    with mp.workdps(DIGITS):
        nbar = mp.mpf(params.nbar)
        two_rho = 2 * (mp.mpf(u) + params.squeeze_mag)
        turned = amp * mp.expj(-mp.mpf(params.squeeze_phase) / 2)
        sinh2 = mp.sinh(two_rho / 2) ** 2
        mean = nbar * mp.cosh(two_rho) + sinh2 + abs(turned) ** 2
        excess = (nbar ** 2
                  + (2 * nbar + 1) * sinh2 * (2 * (2 * nbar + 1)
                                              * (1 + sinh2) - 1)
                  + turned.real ** 2 * (2 * nbar * mp.exp(-two_rho)
                                        + mp.expm1(-two_rho))
                  + turned.imag ** 2 * (2 * nbar * mp.exp(two_rho)
                                        + mp.expm1(two_rho)))
        return amp, mean, mean + excess, excess / mean


def transition_derivatives(nbar: float, r: float, alpha_c: float,
                           u_star: float) -> tuple:
    """(Q_alpha, d^2Q/du^2 at u*, dQ/du at u = 0) of the Mandel curve at
    phi = theta/2 = 0 and |alpha| = alpha_c, with Q_alpha = |dQ/d|alpha||
    at (alpha_c, u*).

    Just above alpha_c, at |alpha| = (1 + eps) alpha_c, these give the
    width 2 sqrt(2 Q_alpha eps alpha_c / Q_uu) of an interior tangency's
    negative window and the crossing Q_alpha eps alpha_c / Q_u of the
    boundary mechanism.  Q comes from ``photon_statistics``, which works
    at DIGITS digits whatever the caller's precision, so the central
    differences take fixed steps, 1e-12 and 1e-10: their truncation errors
    of about h^2 leave some 20 digits.
    """
    def q(alpha, u):
        params = ModelParams(alpha, squeeze_mag=r, nbar=nbar)
        return photon_statistics(params, u)[3]

    with mp.workdps(DIGITS):
        alpha_c, u_star = mp.mpf(alpha_c), mp.mpf(u_star)
        q_alpha = abs(mp.diff(lambda a: q(a, u_star), alpha_c, h=1e-12))
        q_uu = mp.diff(lambda u: q(alpha_c, u), u_star, 2, h=1e-10)
        q_u = mp.diff(lambda u: q(alpha_c, u), 0, h=1e-12)
        return q_alpha, q_uu, q_u


def photon_errors(params, u: float) -> list:
    """Relative errors of A(tau), <n>, Var n and Q at (params, u), against
    ``photon_statistics``, Q's relative to max(1, |Q|).

    The closed forms run as ``eval`` runs them: ``evolved_state``, then
    ``mean_photon`` and ``photon_variance`` of that state, and
    Q = (Var n - <n>) / <n> of those two, which is ``mandel_q``'s value
    wherever its rounding guard admits the input.
    """
    state = evolved_state(params, u)
    n, var = mean_photon(state), photon_variance(state)
    got = (state.displacement, n, var, (var - n) / n)
    want = photon_statistics(params, u)
    scales = (abs(want[0]), want[1], want[2], max(1, abs(want[3])))
    return [float(abs(g - w) / s) for g, w, s in zip(got, want, scales)]


def wigner_quadrature(state, lam: float, x: float, p: float) -> mp.mpf:
    """W(x_lam, x_{lam+pi/2}) of ``state`` at the double inputs given."""
    with mp.workdps(DIGITS):
        nb_half = mp.mpf(state.nbar) + mp.mpf("0.5")
        two_rho = 2 * mp.mpf(state.eff_squeeze)
        cosh, sinh = mp.cosh(two_rho), mp.sinh(two_rho)
        angle = mp.mpf(state.squeeze_phase) - 2 * mp.mpf(lam)
        var_x = nb_half * (cosh - mp.cos(angle) * sinh)
        var_p = nb_half * (cosh + mp.cos(angle) * sinh)
        cov = -nb_half * mp.sin(angle) * sinh
        amp = mp.mpc(state.displacement.real, state.displacement.imag)
        turn = mp.expj(-mp.mpf(lam))
        dx = mp.mpf(x) - mp.sqrt(2) * (amp * turn).real
        dp = mp.mpf(p) - mp.sqrt(2) * (amp * turn * mp.mpc(0, -1)).real
        det = var_x * var_p - cov ** 2
        form = (var_p * dx ** 2 - 2 * cov * dx * dp + var_x * dp ** 2) / det
        return mp.exp(-form / 2) / (2 * mp.pi * mp.sqrt(det))


def wigner_beta(state, beta: complex) -> mp.mpf:
    """W(beta) of ``state`` at the double input given."""
    with mp.workdps(DIGITS):
        root2 = mp.sqrt(2)
        return 2 * wigner_quadrature(state, 0.0, root2 * mp.mpf(beta.real),
                                     root2 * mp.mpf(beta.imag))


def relative_bound(state, reference, peak: float) -> float:
    """Relative error allowed a double-precision W whose reference value is
    ``reference`` on a density that peaks at ``peak``.

    8 eps (1 + E) e^{2(u+r)}, with E = ln(peak / reference) the exponent.
    Rounding the exponent costs about eps E.  An offset of a few standard
    deviations along the wide axis, of width e^{u+r}, is e^{2(u+r)} widths
    of the narrow one, so one rounding of it moves E by about
    eps e^{2(u+r)} sqrt(E).  Over 40,000 seeded states, both densities at
    both points of ``grid_offsets``, the worst error was 2.5 times
    eps (1 + E) e^{2(u+r)}.
    """
    exponent = float(mp.log(mp.mpf(peak) / reference))
    return 8.0 * sys.float_info.epsilon * (1.0 + exponent) * math.exp(
        2.0 * state.eff_squeeze)


def grid_offsets(state, lam: float, s: float, t: float) -> list:
    """Two offsets (dx, dp) from the means of x_lam and x_{lam+pi/2}, for s
    and t in [-1, 1], where W stays representable however thin the state.

    The first is a ``wigner-grid`` point: dx spans the +-6 standard
    deviations of x_lam that the grid spans, and dp the +-6 conditional
    standard deviations of p about the ridge of that x column.  The second
    spans +-6 standard deviations along each principal axis of the squeeze
    frame.  Both reach W = exp(-36) of its peak.
    """
    nb_half, two_rho = state.nbar + 0.5, 2.0 * state.eff_squeeze
    psi = lam - 0.5 * state.squeeze_phase
    var_x = quad_variance_state(state, lam)
    cov = nb_half * math.sin(2.0 * psi) * math.sinh(two_rho)
    dx = 6.0 * s * math.sqrt(var_x)
    narrow = 6.0 * s * math.sqrt(nb_half * math.exp(-two_rho))
    wide = 6.0 * t * math.sqrt(nb_half * math.exp(two_rho))
    return [(dx, cov / var_x * dx + 6.0 * t * nb_half / math.sqrt(var_x)),
            (math.cos(psi) * narrow + math.sin(psi) * wide,
             math.cos(psi) * wide - math.sin(psi) * narrow)]
