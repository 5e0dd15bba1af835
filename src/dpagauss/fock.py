"""Independent brute-force verification in a truncated Fock space.

Everything here is deliberately dumb: states are built by exponentiating
truncated generator matrices and moments are read off the vectors and their
thermal weights (Var n as the spread of the occupation about <n>, with no
cancellation), so the closed forms elsewhere in the package can be checked
against an arithmetic that shares nothing with them but the operators.

Both generators are tridiagonal chains (the squeeze one per parity chain)
with coefficients c sqrt(...) below and -c^* sqrt(...) above the diagonal.
A diagonal phase R = diag(e^{i j arg c}) turns each into a real
antisymmetric chain K; for real c, as on the oracle grid at phase 0, R is
the identity and a real block stays real.  One real kernel applies exp(K)
to a float64 block (a complex block runs as its float view), with one
propagator per generator:

* every displacement, the Chebyshev expansion of Tal-Ezer and Kosloff
  (J. Chem. Phys. 81, 3967 (1984)), orthogonal to machine precision: its
  Bessel weights come from Miller's backward recurrence, within about
  3e-16 of J_k, and a displaced ladder keeps its column norms within
  1e-14.  K maps even rows to odd ones and back, so the real recurrence
  runs on the even-row and the odd-row part of the block in turn, with one
  in-place half-height sparse product and one half-height axpy per degree,
  up to the last degree whose weight adds;
* every squeeze, a real symmetric tridiagonal eigensolve, exactly
  orthogonal, whose cos and sin terms separate by row parity.

The eigensolve is full (LAPACK stevd) for dense input blocks such as the
identity behind ``squeeze_op``.  When the input is supported only on the
first ``height`` rows of a chain of at least 192 + 2 * height levels, as
for the squeezed thermal ladder, it keeps only the eigenpairs in a window
|lambda| <= L (``_eigh_window``).  A zero-diagonal chain's eigenvalues are
the +-singular values of a bidiagonal, which one dqds pass (LAPACK dlasq1)
returns to high relative accuracy; inverse iteration then solves the
eigenvectors of the window's positive half, O(N) each, in blocks of 32.
Each block, and its mirror image, adds its cos and sin terms to the result
before the next block is solved, so a squeeze holds O(N x columns) memory
whatever the window.
dqds works on the whole spectrum in O(N^2), where bisection on the window
takes about O(N k) for k eigenvalues, so bisection is faster again past
12,000 to 20,000 levels per chain; the default grid's chains stay below
6,000.
The off-diagonals of a squeeze chain grow along it, so an eigenvector is
evanescent on the rows where 2 |T[m+1, m]| < |lambda|: L grows by half
until the eigenvector at the window edge, solved alone, carries at most
1e-16 on the support, and the dropped eigenpairs cannot reach the input.
The rule reads the chain alone, never a closed-form moment.  Each windowed
solve and each Chebyshev displacement logs one DEBUG record on the
``dpagauss.fock`` logger.

One underflow rule serves both propagators, whose off-diagonals grow along
the chain: a chain whose first squared off-diagonal is below the smallest
normal double (|xi| or |alpha| below about 1e-154) has exp(K) = I in double
precision and returns its block.  Every other chain is one block for
inverse iteration: no squared off-diagonal underflows.

The operative truncation gates are the occupation mass near the truncation
edge and the agreement between two truncations N and N + 20, applied by
one loop, ``_self_checked``, to the moment slabs of ``verify`` and to
``numeric_wigner``.  The latter sums the displaced photon-number parity on
the moments' squeezed ladder, so it checks the state itself rather than a
transform of its characteristic function.  Both propagators are unitary at
any truncation, so only the tests check that.
"""

from __future__ import annotations

import ctypes
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_lapack, lapack
from scipy.linalg.blas import daxpy
# Y += A @ X in place for CSR A; the public product always allocates Y
from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs

from .model import (EvolvedState, ModelParams, evolved_state,
                    hamiltonian_coeffs)

SELF_CHECK_RTOL = 1e-8
EDGE_MASS_TOL = 1e-9
THERMAL_TAIL_TOL = 1e-12
# values below this compare absolutely: the floor of the relative errors that
# verify gates, and of the Wigner density's N versus N + 20 self-check
RELATIVE_FLOOR = 1e-6
# largest truncation the self-checked loop tries
MAX_DIM = 40000

# windowed eigensolve: used on chains of at least _WINDOW_MIN_LEVELS +
# _WINDOW_LEVELS_PER_ROW * height levels.  Streamed block by block, it beats
# the full solve from 100 levels at heights 1 to 24 and from 200 at height
# 64 (one BLAS thread); the rule keeps a margin above that crossover
_WINDOW_MIN_LEVELS = 192
_WINDOW_LEVELS_PER_ROW = 2
# first window: twice the off-diagonal at twice the support height, plus
# this many first off-diagonals; a window too small grows by _WINDOW_GROWTH
_WINDOW_MARGIN = 60.0
_WINDOW_GROWTH = 1.5
_WINDOW_EDGE_TOL = 1e-16
# eigenvalues per inverse-iteration call: stein's reorthogonalization costs
# O(N k^2) in the k eigenvalues of one call, and the window streams through
# the cos/sin sums one such block at a time
_STEIN_BLOCK = 32

_log = logging.getLogger(__name__)


# the C signature under which scipy's Cython LAPACK exports dlasq1, the one
# that the ctypes prototype of _bind_dlasq1 declares
_DLASQ1_SIGNATURE = "void (int *, {0}, {0}, {0}, int *)".format(
    "__pyx_t_5scipy_6linalg_13cython_lapack_d *")


def _bind_dlasq1():
    """LAPACK dlasq1(n, d, e, work, info), which scipy.linalg.lapack does not
    wrap, from the function table of scipy's Cython LAPACK.

    A capsule's name is its C signature: one other than
    ``_DLASQ1_SIGNATURE`` raises ``ImportError`` before the pointer is cast.
    """
    capsule = cython_lapack.__pyx_capi__["dlasq1"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if name != _DLASQ1_SIGNATURE.encode():
        raise ImportError(f"scipy's Cython LAPACK exports dlasq1 as {name!r}, "
                          f"not {_DLASQ1_SIGNATURE!r}")
    address = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    array = np.ctypeslib.ndpointer(np.float64,
                                   flags="C_CONTIGUOUS, WRITEABLE")
    int_p = ctypes.POINTER(ctypes.c_int)
    return ctypes.CFUNCTYPE(None, int_p, array, array, array, int_p)(address)


_dlasq1 = _bind_dlasq1()


class TruncationError(RuntimeError):
    """The requested Fock-space dimension cannot support the computation."""


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a |n> = sqrt(n) |n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def expm_antihermitian(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for anti-Hermitian gen; exactly unitary by construction."""
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _positive_eigenvalues(mag: np.ndarray) -> np.ndarray:
    """The positive eigenvalues of the zero-diagonal chain whose
    off-diagonals have the moduli ``mag``, ascending, by dqds.

    Even rows couple only to odd ones, so up to a permutation the chain is
    [[0, B], [B^T, 0]] with B the bidiagonal with diagonal mag[0::2] and
    superdiagonal mag[1::2], and its eigenvalues are the +-singular values
    of B.  The dqds algorithm (Fernando and Parlett, Numer. Math. 67, 191
    (1994); LAPACK dlasq1) returns all of them to high relative accuracy,
    so the phases e^{-i lambda} stay exact, and scales tiny entries itself.
    An odd chain pads B's diagonal with one zero, whose zero singular value
    (the chain's eigenvalue 0) is dropped.
    """
    dim = len(mag) + 1
    size = (dim + 1) // 2
    diag, sup = np.zeros(size), np.zeros(size)
    diag[:dim // 2] = mag[0::2]
    sup[:size - 1] = mag[1::2]
    info = ctypes.c_int(0)
    _dlasq1(ctypes.byref(ctypes.c_int(size)), diag, sup, np.empty(4 * size),
            ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dlasq1 failed with info {info.value}")
    # descending on return
    return diag[:size - dim % 2][::-1]


def _stein(off: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The eigenvectors of the zero-diagonal chain ``off`` for its
    eigenvalues ``w``, by inverse iteration (LAPACK stein), as columns.

    The chain is one block: its squared off-diagonals do not underflow (see
    ``_expm_chain``).
    """
    dim = len(off) + 1
    v, info = lapack.dstein(np.zeros(dim), off, w,
                            np.ones(dim, dtype=np.int32),
                            np.full(dim, dim, dtype=np.int32))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"dstein: {info} eigenvectors failed to converge")
    return v


def _eigh_window(off: np.ndarray, positive: np.ndarray, span: float):
    """The eigenpairs of the zero-diagonal chain ``off`` with
    |lambda| <= span, as blocks (w, v, mirrored), each solved when the
    caller takes it.

    ``positive`` holds the chain's positive eigenvalues, ascending
    (``_positive_eigenvalues``).  P T P = -T for P = diag((-1)^j), so each
    pair (w, v) with w > 0 also gives (-w, P v): inverse iteration solves
    the eigenvectors of the positive w <= span in ascending blocks of
    ``_STEIN_BLOCK``, whose ``mirrored`` flag says that they stand for their
    mirror images too.  An odd chain's one eigenvalue 0 is its own mirror
    image; it comes first, as a block of its own.
    """
    dim = len(off) + 1
    if dim % 2:
        yield np.zeros(1), _stein(off, np.zeros(1)), False
    count = int(np.searchsorted(positive, span, side="right"))
    for lo in range(0, count, _STEIN_BLOCK):
        w = positive[lo:min(lo + _STEIN_BLOCK, count)]
        yield w, _stein(off, w), True


def _eigh_reaching(off: np.ndarray, height: int):
    """Eigenpairs of the zero-diagonal chain ``off`` that reach its first
    ``height`` rows, as blocks (w, v, mirrored) (see ``_eigh_window``):
    all of them in one block, or a window |lambda| <= L on a long chain.

    Assumes off-diagonals whose moduli grow along the chain, so the top
    components of an eigenvector shrink as |lambda| grows past
    2 |off[height]|.  The window's eigenvalues come from one dqds pass over
    the whole chain.  The edge rule runs first, on the eigenvector at the
    window edge alone, so a window that grows re-runs one inverse
    iteration; the final window's eigenvectors are then solved one block at
    a time.
    """
    dim = len(off) + 1
    if dim < _WINDOW_MIN_LEVELS + _WINDOW_LEVELS_PER_ROW * height:
        yield (*sla.eigh_tridiagonal(np.zeros(dim), off), False)
        return
    mag = np.abs(off)
    radius = float(np.max(mag[:-1] + mag[1:]))
    span = 2.0 * mag[min(2 * height, dim - 2)] + _WINDOW_MARGIN * mag[0]
    positive = _positive_eigenvalues(mag)
    growths = 0
    while span < radius:
        count = int(np.searchsorted(positive, span, side="right"))
        # the spectrum is symmetric: the two outermost share their moduli
        edge = float(np.abs(
            _stein(off, positive[count - 1:count])[:height]).max())
        if edge <= _WINDOW_EDGE_TOL:
            blocks = _eigh_window(off, positive, span)
            solved = count + dim % 2
            kept = 2 * solved - dim % 2
            break
        span *= _WINDOW_GROWTH
        growths += 1
    else:
        # the window covers the spectrum: the full solve is cheaper
        blocks = [(*sla.eigh_tridiagonal(np.zeros(dim), off), False)]
        edge, kept, solved = 0.0, dim, 0
    _log.debug("windowed eigensolve (dqds eigenvalues, inverse iteration "
               "eigenvectors): chain %d, support height %d, kept %d "
               "eigenpairs, window %.6g, edge component %.3g, growths %d, "
               "solved %d by inverse iteration",
               dim, height, kept, span, edge, growths, solved)
    yield from blocks


def _bessel_j(degree: int, radius: float) -> np.ndarray:
    """J_0(radius) .. J_degree(radius), by Miller's backward recurrence.

    J_{k-1} = (2k / radius) J_k - J_{k+1} is stable downwards (Gautschi,
    SIAM Rev. 9, 24 (1967)): started from 0 and 1 far enough past both
    ``degree`` and ``radius``, and normalized by J_0 + 2 sum_k J_2k = 1,
    it gives every J_k within about 3e-16 absolute up to radius 20,000.
    A term above 1e100 rescales the terms so far by a power of two,
    exactly, so no step overflows down to the smallest radius past the
    underflow rule of ``_expm_chain`` (about 1.5e-154, where 2k / radius
    reaches 1e156).
    """
    top = max(degree, math.ceil(radius))
    start = top + 21 + int(math.sqrt(40.0 * (top + 1)))
    terms = np.zeros(start + 1)
    later, current = 0.0, 1.0
    for k in range(start, 0, -1):
        terms[k] = current
        if abs(current) > 1e100:
            scale = 2.0 ** -math.frexp(current)[1]
            terms[k:] *= scale
            later, current = later * scale, current * scale
        later, current = current, (2.0 * k / radius) * current - later
    terms[0] = current
    return terms[:degree + 1] / (current + 2.0 * math.fsum(terms[2::2]))


def _expm_chain(sub: np.ndarray, block: np.ndarray,
                chebyshev: bool) -> np.ndarray:
    """exp(K) @ block for the real antisymmetric tridiagonal chain K with
    K[j+1, j] = sub[j] = -K[j, j+1].

    K is real, so a complex block runs as its float view, one real column
    per real and imaginary part.  With ``chebyshev`` the propagator is the
    Chebyshev expansion of e^{rho z} on the spectrum i[-rho, rho] of K:
    Q_0 = X, Q_1 = (K/rho) X, Q_{k+1} = (2K/rho) Q_k + Q_{k-1}, summed with
    weights (2 - delta_k0) J_k(rho) (``_bessel_j``), up to the last weight
    above 1e-18.
    K maps even rows to odd ones and back, so Q_k of a column on the rows
    of parity p sits on those of parity (k + p) mod 2: the recurrence runs
    on the even-row and on the odd-row part of X, each without its zero
    columns, with one ceil(N/2)-row sparse product and axpy per degree; a
    column with both parities runs in both parts, whose sums add.
    Otherwise K = D (-i T) D^* with D = diag(i^j) and T the symmetric chain
    with off-diagonals ``sub``, and with T = V diag(w) V^T and
    sigma_j = (-1)^(j//2) the real parts separate by row parity:
    a = V_even^T (sigma X)_even, b = -V_odd^T (sigma X)_odd, even rows
    sigma V_even (cos w a + sin w b) and odd rows
    -sigma V_odd (cos w b - sin w a).  The eigenpairs arrive in blocks
    (``_eigh_reaching``), and each block's cos and sin terms add into the
    even-row and the odd-row sums of the nonzero columns before the next
    block is solved, so no more than one block of eigenvectors is held.
    A mirrored block's images (-w, P v) have a' = a and b' = -b, so their
    term equals the block's own bit for bit and adds once more.  Only the
    rows of ``block`` up to its last nonzero one enter, and their count
    selects between the full and the windowed eigensolve.
    """
    if np.iscomplexobj(block):
        x = np.ascontiguousarray(block)
        return _expm_chain(sub, x.view(float), chebyshev).view(complex)
    x = np.asarray(block, dtype=float)
    # both generators' off-diagonals grow along the chain, so when the first
    # one squared underflows, ||K|| <= 2 max|sub| < 3e-154 dim and
    # exp(K) = I in double precision; the windowed eigensolve takes every
    # other chain as one unsplit block
    if not sub.size or sub[0] ** 2 < np.finfo(float).tiny:
        return x.copy()
    if chebyshev:
        mag = np.concatenate(([0.0], np.abs(sub), [0.0]))
        # Gershgorin: every eigenvalue of K lies in i[-radius, radius]
        radius = 1.000001 * float(np.max(mag[:-1] + mag[1:]))
        degree = int(math.ceil(radius + 11.0 * radius ** (1.0 / 3.0) + 30.0))
        weights = _bessel_j(degree, radius)
        weights[1:] *= 2.0
        # past the last weight that adds, the recurrence adds nothing
        steps = int(np.flatnonzero(np.abs(weights) > 1e-18)[-1])
        band = np.concatenate(([0.0], sub * (2.0 / radius), [0.0]))
        dim, half = len(x), (len(x) + 1) // 2
        # onto[t]: CSR arrays of 2K/rho from the rows of parity 1 - t onto
        # those of parity t (level j at half row j // 2), lower neighbour
        # first as in a full CSR row; only the zeros padding band drop out
        onto = []
        for rows in (np.arange(0, dim, 2), np.arange(1, dim, 2)):
            data = np.stack((band[rows], -band[rows + 1]), axis=1)
            idx = np.stack(((rows - 1) // 2, (rows + 1) // 2), axis=1)
            ptr = np.append(0, np.cumsum(np.count_nonzero(data, axis=1)))
            onto.append((len(rows), ptr.astype(np.int32),
                         idx[data != 0].astype(np.int32), data[data != 0]))
        parts = [np.flatnonzero(np.any(x[parity::2] != 0, axis=0))
                 for parity in (0, 1)]
        # sub[0] is |alpha| times sqrt(1)
        _log.debug("Chebyshev displacement: chain %d, |alpha| %.6g, "
                   "Gershgorin radius %.6g, degree %d, steps run %d, "
                   "columns %d on even rows and %d on odd rows", dim,
                   abs(sub[0]), radius, degree, steps, parts[0].size,
                   parts[1].size)
        out = np.zeros(x.shape)
        for parity, cols in enumerate(parts):
            if not cols.size:
                continue
            ops = [(n_row, half, cols.size, *csr) for n_row, *csr in onto]
            # flat (half, cols) arrays, zero below the part's own rows
            prev = np.zeros((half, cols.size))
            part = x[parity::2]
            np.take(part, cols, axis=1, out=prev[:len(part)], mode="clip")
            prev = prev.reshape(-1)
            cur = np.zeros_like(prev)
            _csr_matvecs(*ops[1 - parity], prev, cur)
            cur *= 0.5
            totals = [weights[0] * prev, weights[1] * cur]
            for k in range(2, steps + 1):
                _csr_matvecs(*ops[(parity + k) % 2], cur, prev)
                prev, cur = cur, prev
                if abs(weights[k]) > 1e-18:
                    daxpy(cur, totals[k % 2], a=weights[k])
            for start, total in zip((parity, 1 - parity), totals):
                target = out[start::2]
                # column by column: basic indexing adds in place
                for j, col in enumerate(cols):
                    target[:, col] += total[j::cols.size][:len(target)]
            del prev, cur, totals, total  # before the next part's
        return out
    rows = np.flatnonzero(np.any(x != 0, axis=1))
    height = int(rows[-1]) + 1 if rows.size else 1
    cols = np.flatnonzero(np.any(x[:height] != 0, axis=0))
    sigma = np.where(np.arange(len(x)) & 2, -1.0, 1.0)[:, None]
    sx = sigma[:height] * x[:height, cols]
    # the sums over the nonzero columns
    sums = np.zeros((len(x), cols.size))
    for w, v, mirrored in _eigh_reaching(sub, height):
        a = v[0:height:2].T @ sx[0::2]
        b = v[1:height:2].T @ sx[1::2]
        b *= -1.0
        cos, sin = np.cos(w)[:, None], np.sin(w)[:, None]
        for start, coeffs in ((0, cos * a + sin * b), (1, sin * a - cos * b)):
            term = v[start::2] @ coeffs
            sums[start::2] += term
            if mirrored:
                # the images (-w, P v) give a' = a and b' = -b: the same term
                sums[start::2] += term
            del term  # before the odd rows' product
        del v  # before the next block is solved
    sums *= sigma
    out = np.zeros(x.shape)
    out[:, cols] = sums
    return out


def _apply_chain(coeff: complex, root: np.ndarray, block: np.ndarray,
                 chebyshev: bool) -> np.ndarray:
    """exp(G) @ block for the chain generator G[j+1, j] = coeff root[j],
    G[j, j+1] = -coeff^* root[j].

    G = R (|coeff| J) R^* with J[j+1, j] = root[j] = -J[j, j+1] and
    R = diag(e^{i j arg coeff}).  For a real coeff R is the identity (the
    sign stays in the chain), so a real block stays real.
    """
    if coeff.imag == 0.0:
        return _expm_chain(coeff.real * root, block, chebyshev)
    phase = np.exp(1j * np.angle(coeff) * np.arange(len(root) + 1))[:, None]
    out = _expm_chain(abs(coeff) * root, phase.conj() * block, chebyshev)
    out *= phase
    return out


def apply_displacement(alpha: complex, vecs: np.ndarray) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) @ vecs, by the Chebyshev propagator.

    The generator couples neighboring levels only, with coefficient
    alpha sqrt(n+1), so its spectral radius grows like 2 |alpha| sqrt(dim)
    and the expansion degree with it.  Real alpha on a real block gives a
    real result; |alpha| below about 1.5e-154 returns a copy of the block.
    """
    root = np.sqrt(np.arange(1, vecs.shape[0], dtype=float))
    return _apply_chain(complex(alpha), root, vecs, True)


def apply_squeeze(xi: complex, vecs: np.ndarray) -> np.ndarray:
    """exp(-(xi/2) a^dag^2 + (xi*/2) a^2) @ vecs.

    The two-photon generator preserves parity, so it splits into even and
    odd level chains, each with coefficient -(xi/2) sqrt((n+1)(n+2)) at
    level n.  Real xi on a real block gives a real result.
    """
    vecs = np.asarray(vecs)
    xi = complex(xi)
    dim = vecs.shape[0]
    real = xi.imag == 0.0 and not np.iscomplexobj(vecs)
    out = np.empty(vecs.shape, dtype=float if real else complex)
    for start in (0, 1):
        low = np.arange(start, dim - 2, 2, dtype=float)
        out[start::2] = _apply_chain(-0.5 * xi,
                                     np.sqrt((low + 1.0) * (low + 2.0)),
                                     vecs[start::2], False)
    return out


def displacement_op(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    return apply_displacement(alpha, np.eye(dim))


def squeeze_op(xi: complex, dim: int) -> np.ndarray:
    """S(xi) = exp(-(xi/2) a^dag^2 + (xi*/2) a^2) on the truncated space."""
    return apply_squeeze(xi, np.eye(dim))


def thermal_tail_weight(nbar: float, dim: int) -> float:
    """Probability mass of the Bose-Einstein distribution beyond the cutoff."""
    return (nbar / (nbar + 1.0)) ** dim


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities, renormalized within the truncation."""
    tail = thermal_tail_weight(nbar, dim)
    if tail > THERMAL_TAIL_TOL:
        raise TruncationError(
            f"thermal tail weight {tail:.2e} at dim {dim} exceeds "
            f"{THERMAL_TAIL_TOL:.0e}; use a larger truncation")
    w = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return w / w.sum()


def build_rho_evolved(params: ModelParams, u: float, dim: int) -> np.ndarray:
    """Density matrix U diag(w) U^dag with U = D(A) S((u+r) e^{i theta}) and
    w the thermal weights."""
    state = evolved_state(params, u)
    u_mat = displacement_op(state.displacement, dim) @ squeeze_op(
        state.eff_squeeze * np.exp(1j * state.squeeze_phase), dim)
    return (u_mat * thermal_weights(params.nbar, dim)) @ u_mat.conj().T


def hamiltonian_matrix(params: ModelParams, dim: int) -> np.ndarray:
    """Truncated H = c a^dag^2 + c* a^2 + b a + b* a^dag, in units of 1/t."""
    c, b = hamiltonian_coeffs(params)
    a = annihilation(dim)
    ad = a.conj().T
    return c * (ad @ ad) + np.conj(c) * (a @ a) + b * a + np.conj(b) * ad


def _check_edge_mass(occupation: np.ndarray) -> None:
    """Raise ``TruncationError`` when the top max(8, dim // 64) levels of an
    occupation distribution carry more than ``EDGE_MASS_TOL``."""
    dim = len(occupation)
    edge = float(occupation[dim - max(8, dim // 64):].sum())
    if edge > EDGE_MASS_TOL:
        raise TruncationError(
            f"evolved state carries {edge:.2e} occupation near the "
            f"truncation edge at dim {dim}; use a larger truncation")


def _occupation(vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Photon-number distribution of a weighted ensemble of Fock-space
    vectors, through the edge-mass gate."""
    prob = (np.abs(vecs) ** 2) @ weights
    _check_edge_mass(prob)
    return prob


def evolve_via_hamiltonian(params: ModelParams, total_time: float,
                           dim: int) -> np.ndarray:
    """rho(total_time) = exp(-i H T) rho_thermal exp(i H T).

    Time is in units of the preparation time: total_time = 1 reproduces the
    displaced-squeezed construction, and total_time = 1 + tau = 1 + u/r
    reaches the state at u = Omega tau.
    """
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    h_mat = hamiltonian_matrix(params, dim)
    u_mat = expm_antihermitian(-1j * h_mat * total_time)
    rho = (u_mat * thermal_weights(params.nbar, dim)) @ u_mat.conj().T
    _check_edge_mass(np.diagonal(rho).real)
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) trace norm of rho - sigma."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@dataclass(frozen=True)
class FockMoments:
    """<a>, <a^2>, <n> and Var n read off a truncated Fock computation."""

    mean_a: complex
    mean_aa: complex
    mean_n: float
    var_n: float

    def quad_mean(self, lam: float) -> float:
        return math.sqrt(2.0) * (self.mean_a * np.exp(-1j * lam)).real

    def quad_var(self, lam: float) -> float:
        second = ((self.mean_aa * np.exp(-2j * lam)).real
                  + self.mean_n + 0.5)
        return second - self.quad_mean(lam) ** 2


def _ensemble_weights(nbar: float, dim: int) -> np.ndarray:
    """Renormalized thermal weights of the levels k whose S|k> enter an
    ensemble: the first levels, up to a discarded thermal weight of at most
    1e-14.

    That cut bounds the weight, not the moments: the dropped levels carry
    more photons.  At nbar 0.5, r 0.3, theta 0.7, |alpha| 0.5, phi 0.4,
    u 0.4 in 140 levels they move Var n by 1.2e-12 relative and <a^2> by
    9e-14, far inside the 1e-6 moment gate.
    """
    count = 1 if nbar == 0 else min(dim, int(math.ceil(
        math.log(1e14) / math.log((nbar + 1.0) / nbar))) + 1)
    weights = thermal_weights(nbar, dim)[:count]
    return weights / weights.sum()


def squeezed_fock_ladder(count: int, xi: complex, dim: int) -> np.ndarray:
    """The vectors S(xi)|k> for k < count, as columns."""
    return apply_squeeze(xi, np.eye(dim, count))


def ensemble_moments(vecs: np.ndarray, weights: np.ndarray) -> FockMoments:
    """Moments of a weighted ensemble of Fock-space vectors v.

    <a> = sum_n sqrt(n+1) v_n^* v_{n+1} and <a^2> = sum_n
    sqrt((n+1)(n+2)) v_n^* v_{n+2}, each weighted over the ensemble, and
    Var n = sum_n p_n (n - <n>)^2 over the occupation p.  Raises
    ``TruncationError`` when the ensemble leaks onto the truncation edge.
    """
    prob = _occupation(vecs, weights)
    levels = np.arange(len(prob))
    root = np.sqrt(levels[1:])
    mean_a = complex(root @ (vecs[:-1].conj() * vecs[1:]) @ weights)
    mean_aa = complex((root[:-1] * root[1:])
                      @ (vecs[:-2].conj() * vecs[2:]) @ weights)
    mean_n = float((prob * levels).sum())
    var_n = float((prob * (levels - mean_n) ** 2).sum())
    return FockMoments(mean_a=mean_a, mean_aa=mean_aa,
                       mean_n=mean_n, var_n=var_n)


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
    return max(2.0, 1.0 / rate)


def _erfc_root(tail: float) -> float:
    """The y >= 1 with erfc(y) = tail, for 0 < tail < erfc(1).

    erfc is convex and decreasing there, so Newton's method from y = 1
    climbs to the root without overshooting; it stops at the first step
    that no longer climbs.  At 1e-9 it takes 24 steps and returns the
    double nearest the root.
    """
    y = 1.0
    while True:
        step = ((math.erfc(y) - tail) * (0.5 * math.sqrt(math.pi))
                * math.exp(y * y))
        if not y + step > y:
            return y
        y += step


# two-sided EDGE_MASS_TOL point of a unit-variance quadrature
_EDGE_REACH = math.sqrt(2.0) * _erfc_root(EDGE_MASS_TOL)


def suggest_dim(state: EvolvedState) -> int:
    """Truncation at which the self-check of ``state`` passes first try.

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

    mean = mean_photon(state)
    var = photon_variance(state)
    spread = math.sqrt(max(var, 1.0))
    nu = occupation_tail_scale(state.nbar, state.eff_squeeze)
    m2_scale = max(1.0, var + mean ** 2)
    # slice prefactor calibrated against measured N vs N+20 differences
    dim = mean + spread + 10.0 * nu
    for _ in range(4):
        slice_weight = (max(dim, 10.0) ** 2
                        / (nu * SELF_CHECK_RTOL * m2_scale))
        dim = mean + spread + nu * math.log(max(slice_weight, math.e))
    bulk = 0.0
    for lam in (0.5 * state.squeeze_phase,
                0.5 * (state.squeeze_phase + math.pi)):
        edge = abs(quad_mean(state, lam)) \
            + _EDGE_REACH * math.sqrt(quad_variance_state(state, lam))
        bulk += 0.5 * edge ** 2
    return int(math.ceil(max(dim, bulk))) + 64


def _self_checked(evaluate, values, floor: float, dim: int, what: str):
    """(evaluate(N + 20), N + 20) for the first N, from ``dim`` on, at which
    each number ``values`` reads off evaluate(N) agrees with its partner at
    N + 20 within ``SELF_CHECK_RTOL`` of max(floor, |x|, |y|).

    N + 20 is skipped when N raises ``TruncationError``; a rejected N grows
    by a quarter, up to ``MAX_DIM`` levels.  Each attempt logs one DEBUG
    record: ``what``, N, the outcome and the elapsed seconds.
    """
    while dim <= MAX_DIM:
        start = time.perf_counter()
        try:
            first = evaluate(dim)
            second = evaluate(dim + 20)
        except TruncationError as exc:
            outcome = str(exc)
        else:
            agree = all(
                abs(x - y) <= SELF_CHECK_RTOL * max(floor, abs(x), abs(y))
                for x, y in zip(values(first), values(second)))
            outcome = "accepted" if agree else "N and N + 20 disagree"
        _log.debug("%s, truncation %d: %s (%.3f s)", what, dim, outcome,
                   time.perf_counter() - start)
        if outcome == "accepted":
            return second, dim + 20
        dim += max(1, dim // 4)
    raise TruncationError(f"{what} needs more than {MAX_DIM} Fock levels "
                          f"(next truncation {dim})")


def numeric_wigner(params: ModelParams, u: float,
                   beta: complex) -> tuple[float, int]:
    """Wigner density from the displaced parity, and the truncation used.

    W(beta) = (2/pi) Tr[rho D(beta) (-1)^n D^dag(beta)] (Royer, Phys. Rev. A
    15, 449 (1977)) = (2/pi) sum_n (-1)^n P_n, with P_n = sum_k w_k
    |<n| D(A - beta) S((u + r) e^{i theta}) |k>|^2 and w_k thermal, sized by
    ``suggest_dim`` on the state displaced by -beta.  Its self-check scale
    is the verification gate's, max(|W|, RELATIVE_FLOOR).
    """
    state = evolved_state(params, u)
    xi = state.eff_squeeze * np.exp(1j * state.squeeze_phase)
    shift = state.displacement - complex(beta)

    def parity_sum(dim: int) -> float:
        weights = _ensemble_weights(params.nbar, dim)
        ladder = squeezed_fock_ladder(len(weights), xi, dim)
        prob = _occupation(apply_displacement(shift, ladder), weights)
        return 2.0 / math.pi * float(prob[0::2].sum() - prob[1::2].sum())

    return _self_checked(parity_sum, lambda w: (w,), RELATIVE_FLOOR,
                         suggest_dim(replace(state, displacement=shift)),
                         f"Wigner density at beta = {beta}, u = {u}")
