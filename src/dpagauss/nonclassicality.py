"""Nonclassicality criteria and the Mandel-parameter phase transition.

Three criteria are implemented side by side and never merged:

* squeezing, Var(x_lam) < 1/2;
* existence of a regular coherent-state quasiprobability, which fails (the
  field is nonclassical) exactly when (2 nbar + 1) e^{-2(u+r)} < 1;
* the sign of the Mandel parameter, which unlike the first two depends on the
  displacement magnitude.  The other two broadcast over an ndarray of u.

A negative Mandel parameter is sufficient but not necessary for field
nonclassicality, so a classically behaved Mandel curve coexists happily with
a nonclassical field.  The critical displacement solver locates the magnitude
at which the minimum over time of the Mandel parameter first touches zero.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import ModelParams, _amplitude_curve, _check_u, _libm
from .statistics import _mandel_curve, mandel_q_curve, quad_variance

# the critical solve and the classification scan the same window [0, U_MAX]
U_MAX = 10.0
SCAN_POINTS = 512
CLASSIFY_GRID = 2048
ALPHA_TOL = 1e-9  # the bisection over |alpha| stops at this bracket width
ALPHA_CAP = 1e3  # min Q > 0 up to this |alpha|: NoTransitionError

# |Q| below this at the curve minimum counts as a tangency; the figure-level
# rounding of critical displacements shifts the minimum by about 1e-4.
TANGENCY_ATOL = 1e-4

# Minimizer closer to u = 0 than this is reported as the boundary mechanism.
BOUNDARY_U_TOL = 1e-6


class NoTransitionError(RuntimeError):
    """Raised when no critical displacement exists in the search range."""


class BehaviorKind(enum.Enum):
    STRICTLY_CLASSICAL = "strictly_classical"
    TANGENT_CRITICAL = "tangent_critical"
    MIXED_TWO_CROSSINGS = "mixed_two_crossings"
    NEGATIVE_START_ONE_CROSSING = "negative_start_one_crossing"


class Mechanism(enum.Enum):
    INTERIOR_TANGENCY = "interior_tangency"
    BOUNDARY_Q0_ZERO = "boundary_q0_zero"


@dataclass(frozen=True)
class Classification:
    """Temporal behavior of the Mandel parameter on [0, U_MAX]."""

    kind: BehaviorKind
    zeros: tuple[float, ...]


@dataclass(frozen=True)
class CriticalPointResult:
    """Critical displacement magnitude and the mechanism that produced it."""

    alpha_c: float
    tangency_u: Optional[float]
    mechanism: Mechanism


def classicality_factor(nbar: float, r: float, u):
    """(2 nbar + 1) e^{-2(u + r)}; >= 1 iff a regular P density exists."""
    return (2.0 * nbar + 1.0) * _libm(math.exp, -2.0 * (u + r))


def p_representation_exists(nbar: float, r: float, u):
    """True iff the coherent-state quasiprobability is a regular density."""
    _check_u(u)
    return classicality_factor(nbar, r, u) >= 1.0


def field_nonclassical(nbar: float, r: float, u):
    """Negation of ``p_representation_exists``; monotone nondecreasing in u."""
    return p_representation_exists(nbar, r, u) ^ True  # bool or bool array


def squeezing_criterion(nbar: float, r: float, theta: float, lam: float,
                        u) -> bool:
    """True iff Var(x_lam) < 1/2, i.e. narrower than a coherent state.

    At the aligned angle theta = 2 lam this is exactly equivalent to
    ``field_nonclassical``.  Broadcasts over an ndarray ``u``.
    """
    _check_u(u)
    return quad_variance(nbar, r, theta, lam, u) < 0.5


def crossover_time(nbar: float, r: float) -> Optional[float]:
    """Time u* = (1/2) ln[(2 nbar + 1) e^{-2r}] past which the field is
    nonclassical, or None when it is nonclassical already at u = 0."""
    factor = classicality_factor(nbar, r, 0.0)
    if factor < 1.0:
        return None
    return 0.5 * math.log(factor)


# _refine_zero and _bounded_min repeat scipy's brentq (its C brentq.c) and
# _minimize_scalar_bounded operation for operation, so every root and
# minimum keeps scipy's bits without importing it.  After SciPy,
# BSD-3-Clause: Copyright (c) 2001-2002 Enthought, Inc.; 2003 SciPy
# Developers.


def _refine_zero(q_of: Callable[[float], float], lo: float, hi: float) -> float:
    """Brent's root of ``q_of`` in [lo, hi] (brentq, xtol 1e-15, rtol
    8.9e-16, 200 iterations)."""

    def f(x: float) -> float:
        fx = q_of(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(lo), float(hi)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(200):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-15 + 8.9e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no trial step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0:  # C's x / 0 gives a step it rejects
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Failed to converge after 200 iterations.")


def _bounded_min(f: Callable[[float], float], a: float,
                 b: float) -> tuple[float, float]:
    """Brent's bounded minimum (fx, x) of ``f`` on [a, b]
    (_minimize_scalar_bounded, xatol 1e-12, 500 evaluations)."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(a), float(b)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + 1e-12 / 3.0
    tol2 = 2.0 * tol1
    while num < 500 and abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    # np.sign(d) + (d == 0): zero counts as positive
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + 1e-12 / 3.0
        tol2 = 2.0 * tol1
    return fx, xf


def _scan(nbar: float, r: float, alpha_mag: float, points: int
          ) -> tuple[Callable[[float], float], np.ndarray, np.ndarray]:
    """Mandel curve u -> Q(u), and its values at ``points`` u in [0, U_MAX]."""
    curve = _mandel_curve(nbar, r, _amplitude_curve(
        ModelParams(alpha_mag=alpha_mag, squeeze_mag=r, nbar=nbar)))

    def q_of(u: float) -> float:
        return float(curve(np.asarray(u, dtype=float)))

    us = np.linspace(0.0, U_MAX, points)
    return q_of, us, mandel_q_curve(nbar, r, alpha_mag, us)


def _min_q(q_of: Callable[[float], float], us: np.ndarray,
           qs: np.ndarray) -> tuple[float, float]:
    """Global minimum of the Mandel curve: grid argmin plus local refinement."""
    i = int(np.argmin(qs))
    fun, x = _bounded_min(q_of, us[max(i - 1, 0)], us[min(i + 1, len(us) - 1)])
    if fun <= qs[i]:
        return float(fun), float(x)
    return float(qs[i]), float(us[i])


def classify_behavior(nbar: float, r: float,
                      alpha_mag: float) -> Classification:
    """Classify the Mandel curve on [0, U_MAX] and locate its zeros.

    Sign changes are bracketed on a uniform grid and refined by root
    bracketing; a strictly interior dip narrower than the grid is caught by
    refining the curve minimum.  A minimum within ``TANGENCY_ATOL`` of zero
    (with no sign change) is reported as the tangent-critical behavior.
    """
    q_of, us, qs = _scan(nbar, r, alpha_mag, CLASSIFY_GRID)
    q0 = float(qs[0])
    if q0 >= -TANGENCY_ATOL:
        min_q, argmin_u = _min_q(q_of, us, qs)
        if min_q > TANGENCY_ATOL:
            return Classification(BehaviorKind.STRICTLY_CLASSICAL, ())
        if min_q >= -TANGENCY_ATOL:
            # a tangency; at the boundary when the start itself is the minimum
            zero = 0.0 if abs(q0) <= TANGENCY_ATOL else argmin_u
            return Classification(BehaviorKind.TANGENT_CRITICAL, (zero,))

    zeros = [
        _refine_zero(q_of, us[i], us[i + 1])
        for i in np.flatnonzero(np.signbit(qs[:-1]) != np.signbit(qs[1:]))
    ]
    if q0 < -TANGENCY_ATOL:
        if len(zeros) != 1:
            warnings.warn(f"negative start with {len(zeros)} crossings on "
                          f"[0, {U_MAX}]; outside the expected taxonomy")
        return Classification(BehaviorKind.NEGATIVE_START_ONE_CROSSING,
                              tuple(zeros))

    if not zeros:
        # dip narrower than the grid: bracket both crossings around it
        half_grid = (us[1] - us[0]) / 2.0
        left = argmin_u
        while left > 0 and q_of(left) < 0:
            left = max(left - half_grid, 0.0)
        right = argmin_u
        while right < U_MAX and q_of(right) < 0:
            right = min(right + half_grid, U_MAX)
        zeros = [left if q_of(left) < 0 else _refine_zero(q_of, left, argmin_u),
                 _refine_zero(q_of, argmin_u, right)]
    if len(zeros) > 2:
        warnings.warn(f"{len(zeros)} zeros found; outside the expected "
                      "taxonomy of at most two crossings")
    return Classification(BehaviorKind.MIXED_TWO_CROSSINGS,
                          tuple(sorted(zeros)))


def find_critical_alpha(nbar: float, r: float) -> CriticalPointResult:
    """Smallest displacement magnitude at which min_u Q_M(u) reaches zero.

    The scalar map m(|alpha|) = min over u of the Mandel parameter is assumed
    strictly decreasing across the bracket; the bracket signs are verified
    explicitly and a violation raises rather than returning a bogus root.
    The upper bracket grows by doubling and failing to find m < 0 below
    ``ALPHA_CAP`` raises ``NoTransitionError``.  A root too close to zero to
    resolve at ``ALPHA_TOL``, or a final bracket across which min Q jumps
    (min Q at alpha_c above ``TANGENCY_ATOL``), raises ``ValueError``.  A
    minimizer within 1e-6 of u = 0 is reported as the boundary mechanism
    (the zero of the Mandel parameter at u = 0), otherwise as an interior
    tangency.
    """
    if r <= 0:
        raise ValueError("find_critical_alpha requires r > 0; the r = 0 "
                         "combined-limit dynamics is not covered")

    def min_of(alpha_mag: float) -> tuple[float, float]:
        return _min_q(*_scan(nbar, r, alpha_mag, SCAN_POINTS))

    def positive(alpha_mag: float) -> bool:
        # the refine never returns more than the scan's minimum, so a scan
        # that holds a Q <= 0 decides the sign without it
        q_of, us, qs = _scan(nbar, r, alpha_mag, SCAN_POINTS)
        return bool(qs.min() > 0) and _min_q(q_of, us, qs)[0] > 0

    lo = 0.0
    m_lo, _ = min_of(lo)
    if m_lo < 0:
        raise RuntimeError(
            f"min Q at alpha = 0 is negative ({m_lo:.3e}); the assumed "
            "monotone bracket does not apply")
    hi = 0.25
    while positive(hi):
        hi *= 2.0
        if hi > ALPHA_CAP:
            raise NoTransitionError(
                f"min Q stays positive for all |alpha| <= {ALPHA_CAP}")

    while hi - lo > ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise ValueError(f"critical displacement below {hi:.3g} is not "
                         f"resolved at ALPHA_TOL = {ALPHA_TOL:g}")
    alpha_c = 0.5 * (lo + hi)
    m_c, u_star = min_of(alpha_c)
    if m_c > TANGENCY_ATOL:
        # min Q jumped across the final bracket instead of reaching zero
        raise ValueError(f"critical displacement near {alpha_c:.3g} is not "
                         f"resolved at ALPHA_TOL = {ALPHA_TOL:g}: min Q "
                         f"there is {m_c:.3g}, above TANGENCY_ATOL = "
                         f"{TANGENCY_ATOL:g}")
    if u_star <= BOUNDARY_U_TOL:
        return CriticalPointResult(alpha_c=alpha_c, tangency_u=None,
                                   mechanism=Mechanism.BOUNDARY_Q0_ZERO)
    return CriticalPointResult(alpha_c=alpha_c, tangency_u=u_star,
                               mechanism=Mechanism.INTERIOR_TANGENCY)


def critical_alpha_q0_root(nbar: float, r: float) -> float:
    """Closed-form cross-check for the boundary mechanism: the positive root
    of the u = 0 Mandel parameter as a function of |alpha|.

    Exists only when (2 nbar + 1) e^{-2r} < 1.
    """
    slope = 1.0 - classicality_factor(nbar, r, 0.0)
    if slope <= 0:
        raise ValueError("the u = 0 Mandel parameter has no root: it is "
                         "positive for every displacement")
    const = ((nbar + 0.5) ** 2 * math.cosh(4.0 * r)
             - (nbar + 0.5) * math.cosh(2.0 * r) + 0.25)
    return math.sqrt(const / slope)
