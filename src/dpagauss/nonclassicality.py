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
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import ModelParams, _check_u, _libm
from .statistics import (_guarded_q, _mandel_parts, _mandel_terms,
                         mandel_q_curve, quad_variance)

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


def _refine_zero(q_of: Callable[[float], float], lo: float, hi: float) -> float:
    """A zero of ``q_of`` in [lo, hi] by false position with the Illinois
    step (Dowell and Jarratt, BIT 11, 168 (1971)), which halves the value
    at an end kept twice in a row.  Each step lands tol / 2 or more inside
    the bracket, which must narrow below tol = 1e-15 + 8.9e-16 |x| within
    200 steps.  A NaN value or ends of one sign raise brentq's errors."""

    def f(x: float) -> float:
        fx = q_of(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    a, b = float(lo), float(hi)  # b: the latest point, with its own value
    fa, fb = f(a), f(b)
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    if (fa < 0) == (fb < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(200):
        tol = 1e-15 + 8.9e-16 * abs(b)
        if abs(b - a) < tol:
            return b
        x = min(max(b - (b - a) * (fb / (fb - fa)), min(a, b) + tol / 2),
                max(a, b) - tol / 2)
        fx = f(x)
        if fx == 0:
            return x
        if (fx < 0) == (fb < 0):
            fa /= 2  # a is kept again
        else:
            a, fa = b, fb
        b, fb = x, fx
    raise RuntimeError("Failed to converge after 200 iterations.")


# _bounded_min repeats scipy's _minimize_scalar_bounded operation for
# operation, so its minima keep scipy's bits.  After SciPy, BSD-3-Clause:
# Copyright (c) 2001-2002 Enthought, Inc.; 2003 SciPy Developers.


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


def _objective(nbar: float, r: float,
               alpha_mag: float) -> Callable[[float], float]:
    """Mandel curve u -> Q(u) at |alpha| = ``alpha_mag`` for a float u,
    assembled from float terms.  Where the value is not finite, or an error
    stops the assembly, ``mandel_q_curve`` gives it or raises its error."""

    def q_of(u: float) -> float:
        try:
            q = _guarded_q(nbar, *_mandel_parts(nbar, alpha_mag,
                                                _mandel_terms(r, u)))
        except (ArithmeticError, ValueError):
            q = math.nan
        if math.isfinite(q):
            return q
        return float(mandel_q_curve(nbar, r, alpha_mag, u))

    return q_of


def _scan(nbar: float, r: float,
          points: int) -> tuple[np.ndarray, Callable[[float], tuple]]:
    """``points`` u on [0, U_MAX], after the checks of ``mandel_q_curve``,
    and ``at``: |alpha| -> (its Mandel curve u -> Q(u), its Q at those u).
    The terms that do not depend on |alpha| are built once, without numpy's
    overflow errors, and each ``at`` assembles Q from them.  Where an
    assembled value is not finite, or an error stops the assembly,
    ``mandel_q_curve`` gives the values or raises its error."""
    ModelParams(alpha_mag=0.0, squeeze_mag=r, nbar=nbar)
    us = np.linspace(0.0, U_MAX, points)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _mandel_terms(r, us)

    def at(alpha_mag: float) -> tuple[Callable[[float], float], np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                qs = _guarded_q(nbar, *_mandel_parts(nbar, alpha_mag, terms))
            except (ArithmeticError, ValueError):
                qs = math.nan
        if not np.isfinite(qs).all():
            qs = mandel_q_curve(nbar, r, alpha_mag, us)
        return _objective(nbar, r, alpha_mag), qs

    return us, at


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
    A shallow crossing's zero is fixed only to about 1e-13, not 1e-15 +
    8.9e-16 |u|: Q's rounding outweighs its slope there, and Q changes sign
    thrice near u = 2.905 at (nbar, r, |alpha|) = (0.0078125, 0.0078125, 1).
    """
    # one |alpha|: the public curve, with no u-terms kept for another
    q_of = _objective(nbar, r, alpha_mag)
    us = np.linspace(0.0, U_MAX, CLASSIFY_GRID)
    qs = mandel_q_curve(nbar, r, alpha_mag, us)
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
    tangency.  Each solve that bisects logs one ``DEBUG`` record on
    ``dpagauss.nonclassicality``: its doubling and bisection steps, the
    refines run, the final bracket and |min Q| at alpha_c.
    """
    if r <= 0:
        raise ValueError("find_critical_alpha requires r > 0; the r = 0 "
                         "combined-limit dynamics is not covered")

    us, at = _scan(nbar, r, SCAN_POINTS)
    refines = 0

    def refined(q_of: Callable[[float], float],
                qs: np.ndarray) -> tuple[float, float]:
        nonlocal refines
        refines += 1
        return _min_q(q_of, us, qs)

    def min_of(alpha_mag: float) -> tuple[float, float]:
        return refined(*at(alpha_mag))

    def positive(alpha_mag: float) -> bool:
        # the refine never returns more than the scan's minimum, so a scan
        # that holds a Q <= 0 decides the sign without it
        q_of, qs = at(alpha_mag)
        return bool(qs.min() > 0) and refined(q_of, qs)[0] > 0

    lo = 0.0
    m_lo, _ = min_of(lo)
    if m_lo < 0:
        raise RuntimeError(
            f"min Q at alpha = 0 is negative ({m_lo:.3e}); the assumed "
            "monotone bracket does not apply")
    hi, doublings = 0.25, 0
    while positive(hi):
        hi *= 2.0
        doublings += 1
        if hi > ALPHA_CAP:
            raise NoTransitionError(
                f"min Q stays positive for all |alpha| <= {ALPHA_CAP}")

    bisections = 0
    while hi - lo > ALPHA_TOL:
        bisections += 1
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
    logging.getLogger(__name__).debug(
        "find_critical_alpha(nbar=%r, r=%r): %d doubling and %d bisection "
        "steps, %d refines, bracket [%r, %r], |min Q| at alpha_c %.3e",
        nbar, r, doublings, bisections, refines, lo, hi, abs(m_c))
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
