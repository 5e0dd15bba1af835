"""Independent brute-force verification in a truncated Fock space.

Everything here is deliberately dumb: states are built by exponentiating
truncated generator matrices and moments are read off by contraction, so the
closed forms elsewhere in the package can be checked against an arithmetic
that shares nothing with them beyond the operator definitions.

Both generators are tridiagonal after a diagonal gauge (the squeeze one per
parity chain), and their exponentials are applied to blocks of vectors by
one of two propagators:

* a real symmetric tridiagonal eigensolve, exactly unitary, for every
  squeeze, for small truncations and for displacements whose spectral
  radius 2 |alpha| sqrt(N) exceeds N / 3;
* otherwise a Chebyshev expansion in the Bessel coefficients J_k(radius),
  a fused real-arithmetic kernel (one in-place sparse product and one axpy
  per degree) that is unitary to machine precision.

The eigensolve is full (LAPACK stevd) for dense input blocks such as the
identity behind ``squeeze_op``.  When the input is supported only on the
first ``height`` rows of a chain of at least 1024 + 64 * height levels, as
for the squeezed thermal ladder, it solves only the eigenpairs in a window
|lambda| <= L (bisection plus inverse iteration, O(N) per eigenpair).  The
off-diagonals of both generators grow along the chain, so an eigenvector
is evanescent on the rows where 2 |H[m+1, m]| < |lambda|: L grows by half
until the eigenvectors at the window edge carry at most 1e-16 on the
support, and the dropped eigenpairs cannot reach the input.  The rule reads
the chain alone, never a closed-form moment.  Each windowed solve logs one
DEBUG record on the ``dpagauss.fock`` logger.

The operative truncation gates are the occupation mass near the truncation
edge and the agreement between two truncations N and N + 20.  Both
propagators are unitary at any truncation, so only the tests check that.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import sparse
from scipy.linalg.blas import daxpy
# Y += A @ X in place for CSR A; the public product always allocates Y
from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
from scipy.special import erfcinv, jv

from .model import ModelParams, _hyperbolic_coeffs, evolved_state
from .model import hamiltonian_coeffs

SELF_CHECK_RTOL = 1e-8
EDGE_MASS_TOL = 1e-9
# numeric_wigner: refinement tolerance, node cap per axis, and half-width of
# the integration square in standard deviations of the integrand's widest axis
WIGNER_TOL = 1e-9
WIGNER_MAX_NODES = 2048
WIGNER_HALFWIDTH_SIGMAS = 8.0
THERMAL_TAIL_TOL = 1e-12

# windowed eigensolve: used on chains of at least _WINDOW_MIN_LEVELS +
# _WINDOW_LEVELS_PER_ROW * height levels, where it beats the full solve
# (measured crossover about 500 + 60 * height levels on one BLAS thread)
_WINDOW_MIN_LEVELS = 1024
_WINDOW_LEVELS_PER_ROW = 64
# first window: twice the off-diagonal at twice the support height, plus
# this many first off-diagonals; a window too small grows by _WINDOW_GROWTH
_WINDOW_MARGIN = 60.0
_WINDOW_GROWTH = 1.5
_WINDOW_EDGE_TOL = 1e-16
# bisection to full relative accuracy: the eigenvalues of a zero-diagonal
# tridiagonal are the +-singular values of a bidiagonal, fixed to relative
# precision by the off-diagonals, so the phases e^{-i lambda} stay exact
_BISECTION_ABSTOL = 2.0 * np.finfo(float).tiny

_log = logging.getLogger(__name__)


class TruncationError(RuntimeError):
    """The requested Fock-space dimension cannot support the computation."""


class QuadratureError(RuntimeError):
    """The phase-space quadrature failed to converge."""


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a |n> = sqrt(n) |n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def expm_antihermitian(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for anti-Hermitian gen; exactly unitary by construction."""
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _gauge_real_tridiag(sub_diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal gauge making a zero-diagonal Hermitian tridiagonal real.

    Returns (gauge phases, real nonnegative off-diagonals) such that
    H = diag(gauge) T diag(gauge)^* with T real symmetric tridiagonal.
    """
    phases = np.concatenate(([0.0], np.cumsum(np.angle(sub_diag))))
    return np.exp(1j * phases), np.abs(sub_diag)


def _real_matmul(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mat @ vecs for real mat and complex vecs without complex promotion.

    Stacks the real and imaginary parts contiguously so a single real GEMM
    does the work (strided .real/.imag views would bypass BLAS).
    """
    n, k = vecs.shape
    stacked = np.empty((n, 2 * k), dtype=float)
    stacked[:, :k] = vecs.real
    stacked[:, k:] = vecs.imag
    prod = mat @ stacked
    return prod[:, :k] + 1j * prod[:, k:]


def _eigh_reaching(off: np.ndarray,
                   height: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the zero-diagonal chain ``off`` that reach its first
    ``height`` rows: all of them, or a window |lambda| <= L on a long chain.

    Assumes off-diagonals that grow along the chain, so the top components
    of an eigenvector shrink as |lambda| grows past 2 off[height].
    """
    dim = len(off) + 1
    if dim < _WINDOW_MIN_LEVELS + _WINDOW_LEVELS_PER_ROW * height:
        return sla.eigh_tridiagonal(np.zeros(dim), off)
    radius = float(np.max(off[:-1] + off[1:]))
    span = 2.0 * off[min(2 * height, dim - 2)] + _WINDOW_MARGIN * off[0]
    growths = 0
    while span < radius:
        w, v = sla.eigh_tridiagonal(np.zeros(dim), off, select="v",
                                    select_range=(-span, span),
                                    tol=_BISECTION_ABSTOL)
        # the spectrum is symmetric: the two outermost share their moduli
        edge = float(np.abs(v[:height, [0, -1]]).max())
        if edge <= _WINDOW_EDGE_TOL:
            break
        span *= _WINDOW_GROWTH
        growths += 1
    else:
        # the window covers the spectrum: the full solve is cheaper
        w, v = sla.eigh_tridiagonal(np.zeros(dim), off)
        edge = 0.0
    _log.debug("windowed eigensolve: chain %d, support height %d, kept %d "
               "eigenpairs, window %.6g, edge component %.3g, growths %d",
               dim, height, len(w), span, edge, growths)
    return w, v


def _apply_exp_tridiag(sub_diag: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """exp(-i H) @ vecs for Hermitian tridiagonal H with zero diagonal.

    ``sub_diag[j]`` is H[j+1, j].  After the gauge rotation a real symmetric
    tridiagonal eigensolver does the work; the result is exactly unitary,
    or to the window's 1e-16 edge tolerance.  Only the rows of ``vecs`` up
    to its last nonzero one enter, and their count selects between the
    full and the windowed eigensolve.
    """
    gauge, off = _gauge_real_tridiag(sub_diag)
    rows = np.flatnonzero(np.any(vecs != 0, axis=1))
    height = int(rows[-1]) + 1 if rows.size else 1
    w, v = _eigh_reaching(off, height)
    inner = _real_matmul(v[:height].T,
                         gauge.conj()[:height, None] * vecs[:height])
    return gauge[:, None] * _real_matmul(v, np.exp(-1j * w)[:, None] * inner)


def _apply_exp_tridiag_chebyshev(sub_diag: np.ndarray,
                                 vecs: np.ndarray) -> np.ndarray:
    """exp(-i H) @ vecs by a Chebyshev expansion of e^{-i w x} on [-1, 1].

    Suited to generators whose spectral radius is small compared to the
    dimension (the expansion degree is about the radius itself); accurate to
    machine precision once the Bessel coefficients have decayed.

    The gauge makes the operator real, so the recurrence runs on the float64
    view of the complex block: one in-place sparse product per degree
    updates T_{k+1} = 2 x T_k - T_{k-1}.  The coefficients (-i)^k J_k are
    real for even k and imaginary for odd k, so the two partial sums
    accumulate in real buffers and combine once at the end.
    """
    gauge, off = _gauge_real_tridiag(sub_diag)
    radius = float(np.max(off[:-1] + off[1:])) if len(off) > 1 else \
        float(2.0 * off.max(initial=0.0))
    if radius == 0.0:
        return np.array(vecs, dtype=complex, copy=True)
    radius *= 1.000001
    degree = int(math.ceil(radius + 11.0 * radius ** (1.0 / 3.0) + 30.0))
    order = np.arange(degree + 1)
    # (-i)^k = (-1)^(k//2) for even k and -i (-1)^(k//2) for odd k
    weights = jv(order, radius) * (-1.0) ** (order // 2)
    weights[1:] *= 2.0

    band = off * (2.0 / radius)
    two_x = sparse.diags([band, band], [-1, 1], format="csr")
    dim = two_x.shape[0]

    prev = np.ascontiguousarray(gauge.conj()[:, None] * vecs,
                                dtype=complex).view(float)
    cur = two_x @ prev
    cur *= 0.5
    even = weights[0] * prev
    odd = weights[1] * cur
    sums = (even.reshape(-1), odd.reshape(-1))
    for k in range(2, degree + 1):
        np.negative(prev, out=prev)
        _csr_matvecs(dim, dim, prev.shape[1], two_x.indptr, two_x.indices,
                     two_x.data, cur.reshape(-1), prev.reshape(-1))
        prev, cur = cur, prev
        if abs(weights[k]) > 1e-18:
            daxpy(cur.reshape(-1), sums[k & 1], a=weights[k])
    result = odd.view(complex)
    result *= -1j
    result += even.view(complex)
    result *= gauge[:, None]
    return result


def apply_displacement(alpha: complex, vecs: np.ndarray) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) @ vecs.

    The generator couples neighboring levels only: i*gen is Hermitian
    tridiagonal with subdiagonal i alpha sqrt(n+1).  Its spectral radius
    grows like 2 |alpha| sqrt(dim) only, so a Chebyshev propagator beats the
    eigensolve on large truncations with modest displacement; otherwise the
    exact tridiagonal eigensolve is used.
    """
    dim = vecs.shape[0]
    sub = 1j * alpha * np.sqrt(np.arange(1, dim, dtype=float))
    radius_estimate = 2.0 * abs(alpha) * math.sqrt(dim)
    if dim <= 512 or radius_estimate > dim / 3.0:
        return _apply_exp_tridiag(sub, vecs)
    return _apply_exp_tridiag_chebyshev(sub, vecs)


def apply_squeeze(xi: complex, vecs: np.ndarray) -> np.ndarray:
    """exp(-(xi/2) a^dag^2 + (xi*/2) a^2) @ vecs.

    The two-photon generator preserves parity, so it splits into even and
    odd level chains, each Hermitian tridiagonal in the chain index.
    """
    dim = vecs.shape[0]
    levels = np.arange(dim, dtype=float)
    out = np.empty_like(np.asarray(vecs, dtype=complex))
    for start in (0, 1):
        idx = np.arange(start, dim, 2)
        low = levels[idx[:-1]]
        # chain subdiagonal of i*gen: -i (xi/2) sqrt((n+1)(n+2)) at level n
        sub = -0.5j * xi * np.sqrt((low + 1.0) * (low + 2.0))
        out[idx] = _apply_exp_tridiag(sub, np.asarray(vecs, dtype=complex)[idx])
    return out


def displacement_op(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    return apply_displacement(alpha, np.eye(dim, dtype=complex))


def squeeze_op(xi: complex, dim: int) -> np.ndarray:
    """S(xi) = exp(-(xi/2) a^dag^2 + (xi*/2) a^2) on the truncated space."""
    return apply_squeeze(xi, np.eye(dim, dtype=complex))


def thermal_tail_weight(nbar: float, dim: int) -> float:
    """Probability mass of the Bose-Einstein distribution beyond the cutoff."""
    if nbar == 0:
        return 0.0
    return (nbar / (nbar + 1.0)) ** dim


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities, renormalized within the truncation."""
    tail = thermal_tail_weight(nbar, dim)
    if tail > THERMAL_TAIL_TOL:
        raise TruncationError(
            f"thermal tail weight {tail:.2e} at dim {dim} exceeds "
            f"{THERMAL_TAIL_TOL:.0e}; use a larger truncation")
    if nbar == 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    w = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return w / w.sum()


def thermal_state(nbar: float, dim: int) -> np.ndarray:
    """Diagonal thermal density matrix with Boltzmann weights (nbar/(nbar+1))^k."""
    return np.diag(thermal_weights(nbar, dim)).astype(complex)


def build_rho_evolved(params: ModelParams, u: float, dim: int) -> np.ndarray:
    """Density matrix D(A) S((u+r) e^{i theta}) rho_thermal S^dag D^dag."""
    state = evolved_state(params, u)
    d_mat = displacement_op(state.displacement, dim)
    s_mat = squeeze_op(state.eff_squeeze
                       * np.exp(1j * state.squeeze_phase), dim)
    rho0 = thermal_state(params.nbar, dim)
    return d_mat @ s_mat @ rho0 @ s_mat.conj().T @ d_mat.conj().T


def hamiltonian_matrix(params: ModelParams, dim: int) -> np.ndarray:
    """Truncated H = c a^dag^2 + c* a^2 + b a + b* a^dag, units of 1/prep_time."""
    coeffs = hamiltonian_coeffs(params)
    a = annihilation(dim)
    ad = a.conj().T
    return (coeffs.c_coeff * (ad @ ad) + np.conj(coeffs.c_coeff) * (a @ a)
            + coeffs.b_coeff * a + np.conj(coeffs.b_coeff) * ad)


def _check_edge_mass(occupation: np.ndarray) -> None:
    """Raise ``TruncationError`` when the top max(8, dim // 64) levels of an
    occupation distribution carry more than ``EDGE_MASS_TOL``."""
    dim = len(occupation)
    edge = float(occupation[dim - max(8, dim // 64):].sum())
    if edge > EDGE_MASS_TOL:
        raise TruncationError(
            f"evolved state carries {edge:.2e} occupation near the "
            f"truncation edge at dim {dim}; use a larger truncation")


def evolve_via_hamiltonian(params: ModelParams, total_time: float,
                           dim: int) -> np.ndarray:
    """rho(total_time) = exp(-i H T) rho_thermal exp(i H T).

    With total_time = prep_time this reproduces the displaced-squeezed
    construction; total_time = prep_time + tau reaches the state at
    u = Omega tau.
    """
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    h_mat = hamiltonian_matrix(params, dim)
    u_mat = expm_antihermitian(-1j * h_mat * total_time)
    rho0 = thermal_state(params.nbar, dim)
    rho = u_mat @ rho0 @ u_mat.conj().T
    _check_edge_mass(np.diagonal(rho).real)
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) trace norm of rho - sigma."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@dataclass(frozen=True)
class FockMoments:
    """First and second moments read off a truncated Fock computation."""

    mean_a: complex
    mean_aa: complex
    mean_n: float
    mean_n2: float

    @property
    def var_n(self) -> float:
        return self.mean_n2 - self.mean_n ** 2

    def quad_mean(self, lam: float) -> float:
        return math.sqrt(2.0) * (self.mean_a * np.exp(-1j * lam)).real

    def quad_var(self, lam: float) -> float:
        second = ((self.mean_aa * np.exp(-2j * lam)).real
                  + self.mean_n + 0.5)
        return second - self.quad_mean(lam) ** 2


def moments_from_rho(rho: np.ndarray) -> FockMoments:
    """Moments of a dense density matrix."""
    dim = rho.shape[0]
    occ = np.diagonal(rho).real
    levels = np.arange(dim)
    root = np.sqrt(np.arange(1, dim, dtype=float))
    # Tr[rho a] picks the first superdiagonal of rho; Tr[rho a a] the second.
    first = np.diagonal(rho, offset=-1)
    mean_a = complex((first * root).sum())
    second = np.diagonal(rho, offset=-2)
    mean_aa = complex((second * root[:-1] * root[1:]).sum()) \
        if dim > 2 else 0j
    return FockMoments(mean_a=mean_a, mean_aa=mean_aa,
                       mean_n=float((occ * levels).sum()),
                       mean_n2=float((occ * levels ** 2).sum()))


def _thermal_vector_count(nbar: float, dim: int) -> int:
    if nbar == 0:
        return 1
    # keep levels until the discarded weight cannot move any moment at 1e-13
    count = int(math.ceil(math.log(1e14) / math.log((nbar + 1.0) / nbar))) + 1
    return min(count, dim)


def squeezed_fock_ladder(count: int, xi: complex, dim: int) -> np.ndarray:
    """The vectors S(xi)|k> for k < count, as columns."""
    vecs = np.zeros((dim, count), dtype=complex)
    vecs[np.arange(count), np.arange(count)] = 1.0
    return apply_squeeze(xi, vecs)


def ensemble_moments(vecs: np.ndarray, weights: np.ndarray) -> FockMoments:
    """Moments of a weighted ensemble of Fock-space vectors.

    Raises ``TruncationError`` when the ensemble leaks onto the truncation
    edge.
    """
    dim = vecs.shape[0]
    prob = (np.abs(vecs) ** 2) @ weights
    _check_edge_mass(prob)

    levels = np.arange(dim)
    root = np.sqrt(np.arange(1, dim, dtype=float))
    a_vecs = np.zeros_like(vecs)
    a_vecs[:-1] = root[:, None] * vecs[1:]
    aa_vecs = np.zeros_like(vecs)
    aa_vecs[:-1] = root[:, None] * a_vecs[1:]
    mean_a = complex((np.conj(vecs) * a_vecs).sum(axis=0) @ weights)
    mean_aa = complex((np.conj(vecs) * aa_vecs).sum(axis=0) @ weights)
    mean_n = float((prob * levels).sum())
    mean_n2 = float((prob * levels ** 2).sum())
    return FockMoments(mean_a=mean_a, mean_aa=mean_aa,
                       mean_n=mean_n, mean_n2=mean_n2)


def occupation_tail_scale(nbar: float, eff_squeeze: float) -> float:
    """Asymptotic 1/e length of the photon-number tail of the Gaussian state.

    The generating function of the number distribution of a Gaussian state
    with quadrature variances v has simple poles at z = (v + 1/2)/|v - 1/2|
    per quadrature; the pole closest to the unit circle sets the geometric
    tail.  Reduces to nbar + 1 scales for a thermal state and
    -1/ln tanh(rho) for squeezed vacuum.  Displacement shifts the
    distribution without changing the asymptotic rate.
    """
    rate = math.inf
    for v in ((nbar + 0.5) * math.exp(2.0 * eff_squeeze),
              (nbar + 0.5) * math.exp(-2.0 * eff_squeeze)):
        gap = abs(v - 0.5)
        if gap == 0.0:
            continue  # coherent-like quadrature: super-exponential, no pole
        rate = min(rate, math.log((v + 0.5) / gap))
    if not math.isfinite(rate):
        return 2.0
    return max(2.0, 1.0 / rate)


def suggest_dim(params: ModelParams, u: float) -> int:
    """Truncation sized so the N versus N + 20 self-check passes first try.

    Solves mean + nu * log(margin) for the dimension at which the geometric
    occupation tail can no longer move the second moment by more than
    ``SELF_CHECK_RTOL`` relative.  That margin shrinks as the moments grow,
    so a large displacement would leave mass on the truncation edge.  The
    dimension therefore also covers the Gaussian bulk: n <= (x^2 + p^2)/2
    with the principal quadratures x, p of the squeeze frame each taken out
    to its two-sided ``EDGE_MASS_TOL`` point.  Sizing uses the closed-form moments;
    the self-check remains the independent arbiter.
    """
    from .statistics import (mean_photon, photon_variance, quad_mean,
                             quad_variance_state)

    state = evolved_state(params, u)
    mean = mean_photon(state)
    spread = math.sqrt(max(photon_variance(state), 1.0))
    nu = occupation_tail_scale(params.nbar, state.eff_squeeze)
    m2_scale = max(1.0, photon_variance(state) + mean ** 2)
    # slice prefactor calibrated against measured N vs N+20 differences
    dim = mean + spread + 10.0 * nu
    for _ in range(4):
        slice_weight = (max(dim, 10.0) ** 2
                        / (nu * SELF_CHECK_RTOL * m2_scale))
        dim = mean + spread + nu * math.log(max(slice_weight, math.e))
    reach = math.sqrt(2.0) * erfcinv(EDGE_MASS_TOL)
    bulk = 0.0
    for lam in (0.5 * state.squeeze_phase,
                0.5 * (state.squeeze_phase + math.pi)):
        edge = abs(quad_mean(state, lam)) \
            + reach * math.sqrt(quad_variance_state(state, lam))
        bulk += 0.5 * edge ** 2
    return int(math.ceil(max(dim, bulk))) + 64


def _moments_agree(m1: FockMoments, m2: FockMoments, rtol: float) -> bool:
    pairs = [(m1.mean_a, m2.mean_a), (m1.mean_aa, m2.mean_aa),
             (m1.mean_n, m2.mean_n), (m1.mean_n2, m2.mean_n2)]
    return all(abs(x - y) <= rtol * max(1.0, abs(x), abs(y))
               for x, y in pairs)


def numeric_wigner(params: ModelParams, u: float, beta: complex) -> float:
    """Wigner density from the defining phase-space integral.

    Evaluates (1/pi^2) * integral of chi(eta) e^{-|eta|^2/2}
    e^{-beta* eta + beta eta*} over the complex eta plane with a
    Gauss-Legendre tensor grid, doubling the node count until two successive
    refinements differ by less than ``WIGNER_TOL``.
    """
    state = evolved_state(params, u)
    t_coeff, s_coeff = _hyperbolic_coeffs(state.eff_squeeze,
                                          state.squeeze_phase)
    nb_half = state.nbar + 0.5
    amp = state.displacement
    # widest principal axis of the Gaussian integrand
    sigma = 1.0 / math.sqrt(2.0 * nb_half * math.exp(-2.0 * state.eff_squeeze))
    half = WIGNER_HALFWIDTH_SIGMAS * sigma

    def evaluate(nodes: int) -> float:
        x, wts = np.polynomial.legendre.leggauss(nodes)
        x = x * half
        wts = wts * half
        eta = x[:, None] + 1j * x[None, :]
        exponent = (eta * np.conj(amp) - np.conj(eta) * amp
                    - nb_half * (eta ** 2 * np.conj(t_coeff)
                                 + np.conj(eta) ** 2 * t_coeff
                                 + np.abs(eta) ** 2 * s_coeff)
                    - np.conj(beta) * eta + beta * np.conj(eta))
        integrand = np.exp(exponent)
        total = wts @ integrand @ wts
        return float(total.real) / math.pi ** 2

    nodes = 64
    prev = evaluate(nodes)
    delta = math.inf
    while nodes < WIGNER_MAX_NODES:
        nodes *= 2
        cur = evaluate(nodes)
        delta = abs(cur - prev)
        if delta < WIGNER_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        f"phase-space quadrature not converged at {WIGNER_MAX_NODES} nodes; "
        f"estimated error {delta:.2e}")
