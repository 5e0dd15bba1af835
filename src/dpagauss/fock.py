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
the identity and a real block stays real.  exp(K) runs on float64 blocks
(a complex block as its float view), with one propagator per generator:

* every displacement, the Chebyshev expansion of Tal-Ezer and Kosloff
  (J. Chem. Phys. 81, 3967 (1984)), orthogonal to machine precision: its
  Bessel weights come from Miller's backward recurrence, within about
  3e-16 of J_k, and a displaced ladder keeps its column norms within
  1e-14.  K maps even rows to odd ones and back, so the real recurrence
  runs on a block on the even rows and one on the odd rows in turn
  (``_displaced_parts``), with one in-place half-height sparse product and
  one half-height axpy per degree, up to the last degree whose weight adds;
* every squeeze, a real symmetric tridiagonal eigensolve, exactly
  orthogonal, whose cos and sin terms separate by row parity.

S(xi) preserves photon-number parity, so the squeezed thermal ladder S|k>
stays in two compact parts, even k on the even rows and odd k on the odd
rows (``squeezed_fock_ladder``).  The moment slabs and ``numeric_wigner``
displace one part at a time and fold its even-row and odd-row results into
the sums of every ensemble (``ensemble_moments``) before the next part is
displaced, so no dense ladder or dense displaced block is ever held.
Every thermal ensemble, the evolution cells' dense rho included, keeps the
levels up to a discarded weight of at most 1e-14 (``thermal_weights``).

The eigensolve is full (LAPACK stevd) on a chain of fewer than
192 + 2 * height levels, for input supported on its first ``height`` rows.
On a longer chain, as for the squeezed thermal ladder, it keeps only the
eigenpairs in a window |lambda| <= L (``_eigh_window``).  A zero-diagonal
chain's eigenvalues are the +-singular values of a bidiagonal, which one
dqds pass (LAPACK dlasq1) returns to high relative accuracy; inverse
iteration then solves the eigenvectors of the window's positive half, O(N)
each, in blocks of 32.  Each block, and its mirror image, adds its cos and
sin terms to the result before the next block is solved, so a squeeze
holds O(N x columns) memory whatever the window.
dqds works on the whole spectrum in O(N^2), where bisection on the window
takes about O(N k) for k eigenvalues, so bisection is faster again past
12,000 to 20,000 levels per chain; the default grid's chains stay below
6,000.
The off-diagonals of a squeeze chain grow along it, so an eigenvector is
evanescent on the rows where 2 |T[m+1, m]| < |lambda|: L grows by half
until the eigenvector at the window edge, solved alone, carries at most
1e-16 on the support, so that the dropped eigenpairs cannot reach the
input, or until it covers the spectrum.  The rule reads the chain alone,
never a closed-form moment.  Each windowed solve and each Chebyshev
displacement logs one DEBUG record on the ``dpagauss.fock`` logger.

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

The LAPACK, BLAS and CSR kernels come from three scipy extension modules
loaded from their files (``_compiled``), without the 18 MB and 0.2 s that
the ``__init__`` of ``scipy.linalg`` and ``scipy.sparse`` cost a process or
the 3 MB of f2py's ``_flapack`` and ``_fblas`` (``_bind``).
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .model import (EvolvedState, ModelParams, evolved_state,
                    hamiltonian_coeffs)


def _compiled(name: str):
    """The scipy extension module ``name``, loaded from its file without the
    ``__init__`` of its package, or reused if imported.  It enters itself in
    ``sys.modules`` as it loads and is taken out again, so that a later
    import of its package runs in full and binds its functions."""
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [path])
    if spec is None:
        raise ImportError(f"no {name} in {path}")
    module = importlib.util.module_from_spec(spec)  # ExtensionFileLoader
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


cython_lapack = _compiled("scipy.linalg.cython_lapack")
cython_blas = _compiled("scipy.linalg.cython_blas")
# Y += A @ X in place for CSR A; the public product always allocates Y
_csr_matvecs = _compiled("scipy.sparse._sparsetools").csr_matvecs

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


def _bind(module, name: str, args: str):
    """LAPACK or BLAS ``name`` from the capsule table of scipy's Cython
    ``module``, whose C arguments ``args`` spells (c char *, i int *,
    d double *), taking bytes for c and an address for each other.
    A capsule's name is its C signature: a missing capsule, or another
    signature, raises ``ImportError`` before the pointer is cast.  The
    callers pass the addresses of arrays whose dtype and layout they made
    themselves, held in local names until the call returns."""
    double = "__pyx_t_{}_d *".format("_".join(
        f"{len(part)}{part}" for part in module.__name__.split(".")))
    spelled = {"c": "char *", "i": "int *", "d": double}
    signature = "void ({})".format(", ".join(spelled[arg] for arg in args))
    capsule = module.__pyx_capi__.get(name)
    if capsule is None:
        raise ImportError(f"{module.__name__} exports no {name}")
    api = ctypes.pythonapi
    found = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if found != signature.encode():
        raise ImportError(f"{module.__name__} exports {name} as {found!r}, "
                          f"not {signature!r}")
    address = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, found)
    return ctypes.CFUNCTYPE(None, *(ctypes.c_char_p if arg == "c"
                                    else ctypes.c_void_p
                                    for arg in args))(address)


_dlasq1 = _bind(cython_lapack, "dlasq1", "idddi")
_dstein = _bind(cython_lapack, "dstein", "iddidiididiii")
_dstevd = _bind(cython_lapack, "dstevd", "cidddidiiii")
_daxpy = _bind(cython_blas, "daxpy", "iddidi")


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
    ints, work = np.intc([size, 0]), np.empty(4 * size)  # n, info
    _dlasq1(*[x.ctypes.data for x in (ints, diag, sup, work, ints[1:])])
    if ints[1] != 0:
        raise np.linalg.LinAlgError(f"dlasq1 failed with info {ints[1]}")
    # descending on return
    return diag[:size - dim % 2][::-1]


def _stein(off: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The eigenvectors of the zero-diagonal chain ``off`` for its
    eigenvalues ``w``, by inverse iteration (LAPACK stein), as columns.

    The chain is one block: its squared off-diagonals do not underflow (see
    ``_apply_chain``).
    """
    dim = len(off) + 1
    off, w = (np.ascontiguousarray(x, dtype=float) for x in (off, w))
    ints = np.intc([dim, len(w), 0])  # n, m, info
    v = np.empty((len(w), dim))  # column-major; iblock 1, isplit n: one block
    # dstein(n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifail, info)
    arrays = (ints, np.zeros(dim), off, ints[1:], w, np.ones(len(w), np.intc),
              ints, v, ints, np.empty(5 * dim), np.empty(dim, np.intc),
              np.empty(len(w), np.intc), ints[2:])
    _dstein(*[x.ctypes.data for x in arrays])
    if ints[2] != 0:
        raise np.linalg.LinAlgError(
            f"dstein: {ints[2]} eigenvectors failed to converge")
    return v.T


def _eigh_full(off: np.ndarray):
    """All eigenpairs (w, v) of the zero-diagonal chain ``off``, by stevd."""
    dim = len(off) + 1
    w, v = np.zeros(dim), np.empty((dim, dim))  # v column-major, as in _stein
    ints = np.intc([dim, 1 + 4 * dim + dim * dim, 3 + 5 * dim, 0])
    # ints holds n, lwork, liwork and info; dstevd(jobz, n, d, e, z, ldz,
    # work, lwork, iwork, liwork, info) overwrites its copy of off
    arrays = (ints, w, np.array(off, dtype=float), v, ints, np.empty(ints[1]),
              ints[1:], np.empty(ints[2], np.intc), ints[2:], ints[3:])
    _dstevd(b"V", *[x.ctypes.data for x in arrays])
    if ints[3] != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info {ints[3]}")
    return w, v.T


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
    iteration; the final window's eigenvectors, the whole spectrum's once
    it reaches the spectral radius, are then solved one block at a time.
    """
    dim = len(off) + 1
    if dim < _WINDOW_MIN_LEVELS + _WINDOW_LEVELS_PER_ROW * height:
        yield (*_eigh_full(off), False)
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
            break
        span *= _WINDOW_GROWTH
        growths += 1
    else:
        edge = 0.0  # the window covers the spectrum and drops nothing
    solved = int(np.searchsorted(positive, span, side="right")) + dim % 2
    kept = 2 * solved - dim % 2
    _log.debug("windowed eigensolve (dqds eigenvalues, inverse iteration "
               "eigenvectors): chain %d, support height %d, kept %d "
               "eigenpairs, window %.6g, edge component %.3g, growths %d, "
               "solved %d by inverse iteration",
               dim, height, kept, span, edge, growths, solved)
    yield from _eigh_window(off, positive, span)


def _bessel_j(degree: int, radius: float) -> np.ndarray:
    """J_0(radius) .. J_degree(radius), by Miller's backward recurrence.

    J_{k-1} = (2k / radius) J_k - J_{k+1} is stable downwards (Gautschi,
    SIAM Rev. 9, 24 (1967)): started from 0 and 1 far enough past both
    ``degree`` and ``radius``, and normalized by J_0 + 2 sum_k J_2k = 1,
    it gives every J_k within about 3e-16 absolute up to radius 20,000.
    A term above 1e100 rescales the terms so far by a power of two,
    exactly, so no step overflows down to the smallest radius past the
    underflow rule of ``_apply_chain`` (about 1.5e-154, where 2k / radius
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


def _apply_chain(coeff: complex, root: np.ndarray,
                 block: np.ndarray) -> np.ndarray:
    """exp(G) @ block for the chain generator G[j+1, j] = coeff root[j],
    G[j, j+1] = -coeff^* root[j], by its eigensolve.

    ``block`` holds the first rows of the input, whose other rows are zero,
    and the result has all len(root) + 1 rows of the chain.
    G = R K R^* with R = diag(e^{i j arg coeff}) and the real antisymmetric
    chain K[j+1, j] = |coeff| root[j] = -K[j, j+1]; for a real coeff R is
    the identity (the sign stays in K), so a real block stays real, and a
    complex one runs as its float view, one real column per real and
    imaginary part.  K = D (-i T) D^* with D = diag(i^j) and T the
    symmetric chain with the off-diagonals of K, and with T = V diag(w) V^T
    and sigma_j = (-1)^(j//2) the real parts separate by row parity:
    a = V_even^T (sigma X)_even, b = -V_odd^T (sigma X)_odd, even rows
    sigma V_even (cos w a + sin w b) and odd rows
    -sigma V_odd (cos w b - sin w a).  The eigenpairs arrive in blocks
    (``_eigh_reaching``), and each block's cos and sin terms add into the
    even-row and the odd-row sums before the next block is solved, so no
    more than one block of eigenvectors is held.  A mirrored block's images
    (-w, P v) have a' = a and b' = -b, so their term equals the block's own
    bit for bit and adds once more.  Only the rows of ``block`` up to its
    last nonzero one enter, and their count selects between the full and
    the windowed eigensolve.
    """
    if coeff.imag != 0.0:
        phase = np.exp(1j * np.angle(coeff) * np.arange(len(root) + 1))
        out = _apply_chain(abs(coeff), root,
                           phase[:len(block), None].conj() * block)
        out *= phase[:, None]
        return out
    if np.iscomplexobj(block):
        x = np.ascontiguousarray(block)
        return _apply_chain(coeff, root, x.view(float)).view(complex)
    x = np.asarray(block, dtype=float)
    sub = coeff.real * root
    dim = len(sub) + 1
    rows = np.flatnonzero(np.any(x != 0, axis=1))
    # both generators' off-diagonals grow along the chain, so when the first
    # one squared underflows, ||K|| <= 2 max|sub| < 3e-154 dim and
    # exp(K) = I in double precision; the windowed eigensolve takes every
    # other chain as one unsplit block.  A zero block stays zero.
    if not sub.size or sub[0] ** 2 < np.finfo(float).tiny or not rows.size:
        return np.pad(x, ((0, dim - len(x)), (0, 0)))
    height = int(rows[-1]) + 1
    sigma = np.where(np.arange(dim) & 2, -1.0, 1.0)[:, None]
    sx = sigma[:height] * x[:height]
    sums = np.zeros((dim, x.shape[1]))
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
    return np.multiply(sums, sigma, out=sums)


def _displaced_parts(alpha: complex, parts):
    """D(alpha) applied to ``parts[0]``, a block on the even rows, and then
    to ``parts[1]``, a block on the odd rows: yields each result as its even
    and its odd rows.

    As in ``_apply_chain``, the generator is R K R^* with K real, and a
    part runs as the float view of R^* part.  The Chebyshev expansion of
    e^{rho z} on the spectrum i[-rho, rho] of K: Q_0 = X, Q_1 = (K/rho) X,
    Q_{k+1} = (2K/rho) Q_k + Q_{k-1}, summed with weights
    (2 - delta_k0) J_k(rho) (``_bessel_j``) up to the last one above 1e-18.
    K maps even rows to odd ones and back, so Q_k of a part on the rows of
    parity p sits on those of parity (k + p) mod 2: each part runs on
    ceil(N/2)-row arrays, with one sparse product and axpy per degree.
    """
    dim = len(parts[0]) + len(parts[1])
    root = np.sqrt(np.arange(1, dim, dtype=float))
    phase = (None if alpha.imag == 0.0
             else np.exp(1j * np.angle(alpha) * np.arange(dim))[:, None])
    sub = (alpha.real if phase is None else abs(alpha)) * root
    if not sub.size or sub[0] ** 2 < np.finfo(float).tiny:  # _apply_chain
        for parity, part in enumerate(parts):
            other = np.zeros((len(parts[1 - parity]), part.shape[1]))
            yield (part, other)[::1 - 2 * parity]
        return
    mag = np.concatenate(([0.0], np.abs(sub), [0.0]))
    # Gershgorin: every eigenvalue of K lies in i[-radius, radius]
    radius = 1.000001 * float(np.max(mag[:-1] + mag[1:]))
    degree = int(math.ceil(radius + 11.0 * radius ** (1.0 / 3.0) + 30.0))
    weights = _bessel_j(degree, radius)
    weights[1:] *= 2.0
    # past the last weight that adds, the recurrence adds nothing
    steps = int(np.flatnonzero(np.abs(weights) > 1e-18)[-1])
    band = np.concatenate(([0.0], sub * (2.0 / radius), [0.0]))
    half = (dim + 1) // 2
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
    blocks = [part if phase is None else phase[parity::2].conj() * part
              for parity, part in enumerate(parts)]
    blocks = [np.ascontiguousarray(x).view(float) if np.iscomplexobj(x)
              else np.asarray(x, dtype=float) for x in blocks]
    # sub[0] is |alpha| times sqrt(1)
    _log.debug("Chebyshev displacement: chain %d, |alpha| %.6g, "
               "Gershgorin radius %.6g, degree %d, steps run %d, "
               "columns %d on even rows and %d on odd rows", dim,
               abs(sub[0]), radius, degree, steps, blocks[0].shape[1],
               blocks[1].shape[1])
    for parity, x in enumerate(blocks):
        width = x.shape[1]
        ops = [(n_row, half, width, *csr) for n_row, *csr in onto]
        # flat (half, width) arrays, zero below the part's own rows
        prev = np.zeros((half, width))
        prev[:len(x)] = x
        prev = prev.reshape(-1)
        cur = np.zeros_like(prev)
        _csr_matvecs(*ops[1 - parity], prev, cur)
        cur *= 0.5
        # totals[t] sums the terms on the rows of parity t
        totals = [weights[0] * prev, weights[1] * cur][::1 - 2 * parity]
        # by address: weights[k] is at weight + 8 k, Q_k in buffers[k % 2]
        ints = np.intc([prev.size, 1])
        size, one, weight, *buffers = [x.ctypes.data for x in
                                       (ints, ints[1:], weights, prev, cur)]
        sums = [total.ctypes.data for total in totals]
        for k in range(2, steps + 1):
            _csr_matvecs(*ops[(parity + k) % 2], cur, prev)
            prev, cur = cur, prev
            if abs(weights[k]) > 1e-18:
                _daxpy(size, weight + 8 * k, buffers[k % 2], one,
                       sums[(parity + k) % 2], one)
        del prev, cur  # before the next part's
        totals = [total.reshape(half, width)[:len(rows)]
                  for total, rows in zip(totals, parts)]
        if phase is not None or np.iscomplexobj(parts[parity]):
            totals = [total.view(complex) * (1 if phase is None else
                                             phase[start::2])
                      for start, total in enumerate(totals)]
        yield totals
        del totals  # the consumer holds one part's results at a time


def _squeeze_root(start: int, dim: int) -> np.ndarray:
    """sqrt((n+1)(n+2)) for the levels n = start, start + 2, ... < dim - 2."""
    low = np.arange(start, dim - 2, 2, dtype=float)
    return np.sqrt((low + 1.0) * (low + 2.0))


def _parity_parts(vecs: np.ndarray):
    """The columns of a dense block that are nonzero on its even rows and
    on its odd rows, and those rows' parts with just these columns."""
    cols = [np.flatnonzero(np.any(vecs[p::2] != 0, axis=0)) for p in (0, 1)]
    return cols, [vecs[p::2][:, c] for p, c in enumerate(cols)]


def apply_displacement(alpha: complex, vecs: np.ndarray) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) @ vecs, by the Chebyshev propagator.

    The generator couples neighboring levels only, with coefficient
    alpha sqrt(n+1), so its spectral radius grows like 2 |alpha| sqrt(dim)
    and the expansion degree with it.  The block's even-row and odd-row
    parts run without their zero columns (``_displaced_parts``).  Real
    alpha on a real block gives a real result; |alpha| below about
    1.5e-154 returns a copy of the block.
    """
    vecs = np.asarray(vecs)
    real = complex(alpha).imag == 0.0 and not np.iscomplexobj(vecs)
    out = np.zeros(vecs.shape, dtype=float if real else complex)
    cols, parts = _parity_parts(vecs)
    for c, (even, odd) in zip(cols, _displaced_parts(alpha, parts)):
        out[0::2, c] += even
        out[1::2, c] += odd
    return out


def apply_squeeze(xi: complex, vecs: np.ndarray) -> np.ndarray:
    """exp(-(xi/2) a^dag^2 + (xi*/2) a^2) @ vecs.

    The two-photon generator preserves parity, so it splits into even and
    odd level chains, each with coefficient -(xi/2) sqrt((n+1)(n+2)) at
    level n.  Real xi on a real block gives a real result.
    """
    vecs = np.asarray(vecs)
    xi = complex(xi)
    real = xi.imag == 0.0 and not np.iscomplexobj(vecs)
    out = np.zeros(vecs.shape, dtype=float if real else complex)
    for start, (c, part) in enumerate(zip(*_parity_parts(vecs))):
        out[start::2, c] = _apply_chain(
            -0.5 * xi, _squeeze_root(start, len(vecs)), part)
    return out


def displacement_op(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    return apply_displacement(alpha, np.eye(dim))


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """The renormalized thermal weights of the first levels, up to a
    discarded weight of at most 1e-14, or ``TruncationError`` when the
    weight beyond ``dim`` exceeds ``THERMAL_TAIL_TOL``.

    The cut bounds the weight, not the moments: the dropped levels carry
    more photons.  At nbar 0.5, r 0.3, theta 0.7, |alpha| 0.5, phi 0.4,
    u 0.4 in 140 levels they move Var n by 1.2e-12 relative and <a^2> by
    9e-14, far inside the 1e-6 moment gate.
    """
    tail = (nbar / (nbar + 1.0)) ** dim
    if tail > THERMAL_TAIL_TOL:
        raise TruncationError(
            f"thermal tail weight {tail:.2e} at dim {dim} exceeds "
            f"{THERMAL_TAIL_TOL:.0e}; use a larger truncation")
    count = 1 if nbar == 0 else min(dim, int(math.ceil(
        math.log(1e14) / math.log((nbar + 1.0) / nbar))) + 1)
    w = (nbar / (nbar + 1.0)) ** np.arange(dim)
    # within dim first, then after the cut: the oracle values keep their bits
    w = w[:count] / w.sum()
    return w / w.sum()


def build_rho_evolved(params: ModelParams, u: float, dim: int) -> np.ndarray:
    """Density matrix U diag(w) U^dag with U = D(A) S((u+r) e^{i theta}) on
    the levels of the thermal weights w."""
    state = evolved_state(params, u)
    w = thermal_weights(params.nbar, dim)
    u_mat = displacement_op(state.displacement, dim) @ apply_squeeze(
        state.eff_squeeze * np.exp(1j * state.squeeze_phase),
        np.eye(dim, len(w)))
    return (u_mat * w) @ u_mat.conj().T


def hamiltonian_matrix(params: ModelParams, dim: int) -> np.ndarray:
    """Truncated H = c a^dag^2 + c* a^2 + b a + b* a^dag, in units of 1/t,
    filled on its four diagonals: <n+2|H|n> = c sqrt(n+1) sqrt(n+2) and
    <n+1|H|n> = b* sqrt(n+1), and their conjugates above."""
    c, b = hamiltonian_coeffs(params)
    root = np.sqrt(np.arange(1, dim, dtype=float))
    pair = root[:-1] * root[1:]
    h = np.zeros((dim, dim), dtype=complex)
    for view, values in ((h[2:], c * pair), (h[:, 2:], np.conj(c) * pair),
                         (h[1:], np.conj(b) * root), (h[:, 1:], b * root)):
        np.fill_diagonal(view, values)
    return h


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

    Time is in units of the preparation time: total_time = 1 reproduces the
    displaced-squeezed construction, and total_time = 1 + tau = 1 + u/r
    reaches the state at u = Omega tau.
    """
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    h_mat = hamiltonian_matrix(params, dim)
    w = thermal_weights(params.nbar, dim)
    u_mat = expm_antihermitian(-1j * h_mat * total_time)[:, :len(w)]
    rho = (u_mat * w) @ u_mat.conj().T
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


def squeezed_fock_ladder(count: int, xi: complex,
                         dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The vectors S(xi)|k> for k < count as the columns of two compact
    parts, S|k> for even k on the even rows and for odd k on the odd rows.

    S(xi) preserves photon-number parity, so these are the nonzero blocks
    of ``apply_squeeze(xi, np.eye(dim, count))``, bit for bit.
    """
    return tuple(_apply_chain(-0.5 * complex(xi), _squeeze_root(start, dim),
                              np.eye((count + 1 - start) // 2))
                 for start in (0, 1))


def _ensemble_sums(blocks, weights):
    """The occupation p, one row per ensemble, through the edge-mass gate,
    and the <a> and <a^2> sums of ``ensemble_moments``."""
    prob = mean_a = mean_aa = 0.0
    blocks = iter(blocks)
    for w in weights:
        # not zip, whose reused result tuple would hold the last block
        even, odd = next(blocks)
        occupation = np.empty((w.shape[1], len(even) + len(odd)))
        occupation[:, 0::2] = (np.abs(even) ** 2 @ w).T
        occupation[:, 1::2] = (np.abs(odd) ** 2 @ w).T
        prob = prob + occupation
        # <a> pairs each row with the next one, of the other parity, and
        # <a^2> with the next one of its own parity
        root = np.sqrt(np.arange(1, occupation.shape[1], dtype=float))
        mean_a = mean_a + (
            root[0::2] @ (even[:len(odd)].conj() * odd)
            + root[1::2] @ (odd[:len(even) - 1].conj() * even[1:])) @ w
        root = root[:-1] * root[1:]
        mean_aa = mean_aa + (root[0::2] @ (even[:-1].conj() * even[1:])
                             + root[1::2] @ (odd[:-1].conj() * odd[1:])) @ w
        del even, odd  # before the next block is made
    for row in prob:
        _check_edge_mass(row)
    return prob, mean_a, mean_aa


def ensemble_moments(blocks, weights) -> list[FockMoments]:
    """Moments of weighted ensembles of Fock-space vectors v, one per
    column of the weights.

    ``blocks`` yields blocks of vectors as their even and their odd rows,
    and ``weights`` holds each block's (columns x ensembles) weights: a
    dense block v enters as ``[(v[0::2], v[1::2])]``, a moment slab's two
    displaced ladder parts one at a time.  <a> = sum_n sqrt(n+1)
    v_n^* v_{n+1} and <a^2> = sum_n sqrt((n+1)(n+2)) v_n^* v_{n+2}, each
    weighted over the ensemble, and Var n = sum_n p_n (n - <n>)^2 over the
    occupation p.  Raises ``TruncationError`` when an ensemble leaks onto
    the truncation edge.
    """
    prob, mean_a, mean_aa = _ensemble_sums(blocks, weights)
    levels = np.arange(prob.shape[1])
    mean_n = (prob * levels).sum(axis=1)
    var_n = (prob * (levels - mean_n[:, None]) ** 2).sum(axis=1)
    return [FockMoments(complex(a), complex(aa), float(n), float(v))
            for a, aa, n, v in zip(mean_a, mean_aa, mean_n, var_n)]


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
        weights = thermal_weights(params.nbar, dim)[:, None]
        ladder = squeezed_fock_ladder(len(weights), xi, dim)
        prob = _ensemble_sums(_displaced_parts(shift, ladder),
                              (weights[0::2], weights[1::2]))[0][0]
        return 2.0 / math.pi * float(prob[0::2].sum() - prob[1::2].sum())

    return _self_checked(parity_sum, lambda w: (w,), RELATIVE_FLOOR,
                         suggest_dim(replace(state, displacement=shift)),
                         f"Wigner density at beta = {beta}, u = {u}")
