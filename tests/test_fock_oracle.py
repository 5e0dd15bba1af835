import ctypes
import importlib.machinery
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy
import scipy.linalg as sla
from scipy import sparse
from scipy.linalg import cython_blas, cython_lapack, lapack
from scipy.linalg.blas import daxpy

import dpagauss.fock as fock
import dpagauss.verify as verify
import dpagauss.wigner as wigner
from dpagauss import ModelParams, evolved_state, wigner_beta


def dense_ladder(count, xi, dim):
    """S(xi)|k> for k < count as the columns of one dense block."""
    return fock.apply_squeeze(xi, np.eye(dim, count))


def dense_moments(vecs, weights):
    """``ensemble_moments`` of one weighted ensemble of a dense block."""
    return fock.ensemble_moments([(vecs[0::2], vecs[1::2])],
                                 [weights[:, None]])[0]


def test_thermal_state_properties():
    rho = np.diag(fock.thermal_weights(0.0, 12))
    assert rho[0, 0] == 1.0 and np.abs(rho).sum() == 1.0
    # the vacuum's limits come from the general expressions: no thermal
    # tail even beyond a single level
    assert fock.thermal_weights(0.0, 1).tolist() == [1.0]
    assert fock.occupation_tail_scale(0.0, 0.0) == 2.0

    # the tail beyond 60 levels, 2^-60, passes the 1e-12 check, and the
    # ensemble keeps the 48 levels that leave 2^-48 < 1e-14
    rho = np.diag(fock.thermal_weights(1.0, 60))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    occ = np.diagonal(rho).real
    assert len(occ) == 48
    assert (occ * np.arange(48)).sum() == pytest.approx(1.0, abs=1e-10)


def test_thermal_state_truncation_error():
    with pytest.raises(fock.TruncationError):
        fock.thermal_weights(1.0, 10)


def test_commutator_on_interior_block():
    dim = 40
    a = fock.annihilation(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    interior = comm[:dim - 1, :dim - 1]
    assert np.abs(interior - np.eye(dim - 1)).max() < 1e-12


def test_displacement_operator():
    dim = 60
    assert np.abs(fock.displacement_op(0.0, dim) - np.eye(dim)).max() == 0.0

    alpha = 0.8 - 0.5j
    d_mat = fock.displacement_op(alpha, dim)
    assert np.abs(d_mat.conj().T @ d_mat - np.eye(dim)).max() < 1e-10
    # coherent-state amplitudes against the Poisson closed form
    column = d_mat[:, 0]
    for n in range(25):
        expected = (math.exp(-0.5 * abs(alpha) ** 2) * alpha ** n
                    / math.sqrt(math.factorial(n)))
        assert column[n] == pytest.approx(expected, abs=1e-8)


def test_displacement_chebyshev_path_matches_dense_exponential():
    # a large truncation with a modest shift, and a small one whose spectral
    # radius 2 |alpha| sqrt(N) is about 2 N
    for dim, alpha in ((680, 1.3 + 0.4j), (120, 9.0 - 6.3j)):
        a = fock.annihilation(dim)
        dense = sla.expm(alpha * a.conj().T - np.conj(alpha) * a)
        fast = fock.displacement_op(alpha, dim)
        assert np.abs(dense - fast).max() < 1e-10


def test_displacement_never_runs_the_eigensolve(monkeypatch):
    ladder = dense_ladder(48, 0.5, 300)

    def eigensolve(*args):
        raise AssertionError("a displacement ran the eigensolve")

    monkeypatch.setattr(fock, "_eigh_reaching", eigensolve)
    d_mat = fock.displacement_op(0.8 - 0.5j, 60)
    assert np.abs(d_mat.conj().T @ d_mat - np.eye(60)).max() < 1e-10
    displaced = fock.apply_displacement(2.0, ladder)
    assert np.abs(np.linalg.norm(displaced, axis=0) - 1.0).max() <= 1e-12


def test_each_displacement_logs_its_chebyshev_degree(caplog, capsys):
    ladder = dense_ladder(48, 0.5, 300)
    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    # a complex block runs as its float view, one real column per real
    # and imaginary part of each of its nonzero columns
    for alpha, block, parts in ((2.0, ladder, (24, 24)),
                                (0.8 - 0.5j, np.eye(61), (62, 60))):
        caplog.clear()
        fock.apply_displacement(alpha, block)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith("Chebyshev displacement")
        dim, mag, radius, degree, steps, *columns = record.args
        assert dim == len(block) and mag == abs(alpha)
        assert tuple(columns) == parts
        # Gershgorin radius of the chain |alpha| sqrt(n), widened by 1e-6
        assert radius == pytest.approx(1.000001 * abs(alpha) * (
            math.sqrt(dim - 2) + math.sqrt(dim - 1)), rel=1e-14)
        assert degree == math.ceil(radius + 11.0 * radius ** (1.0 / 3.0)
                                   + 30.0)
        # the recurrence stops at the last weight 2 |J_k| above 1e-18
        weights = np.abs(fock._bessel_j(degree, radius))
        assert weights[steps] > 5e-19 and weights[steps + 1:].max() <= 5e-19
        assert steps < degree
    assert capsys.readouterr() == ("", "")


# Chebyshev radii of a 6,000-level chain at |alpha| = 1e-153, just above the
# underflow rule, and of chains the default grid and larger truncations reach
@pytest.mark.parametrize("radius, orders", [
    (1.000001e-153 * (math.sqrt(5998) + math.sqrt(5999)), None),
    (7.75, None),
    (654.5, range(0, 782, 13)),
    # scipy's jv is 1.2e-14 off at k = 1000 and 1.4e-15 at 3773
    (3977.0, (0, 1, 1000, 2000, 3000, 3773, 3977, 4182)),
    (20000.0, (0, 1, 1000, 20000)),
], ids=["1.5e-151", "7.75", "654.5", "3977", "20000"])
def test_chebyshev_weights_are_bessel_values(radius, orders):
    degree = int(math.ceil(radius + 11.0 * radius ** (1.0 / 3.0) + 30.0))
    values = fock._bessel_j(degree, radius)
    assert values.shape == (degree + 1,) and np.isfinite(values).all()
    for k in range(degree + 1) if orders is None else orders:
        with mpmath.workdps(40):
            exact = mpmath.besselj(k, radius, maxprec=80000, maxterms=200000)
            assert abs(values[k] - exact) <= 1e-15, k


def test_bessel_recurrence_holds_off_the_degree_rule():
    # orders below the radius: the recurrence starts past the radius too
    values = fock._bessel_j(20, 654.5)
    with mpmath.workdps(40):
        for k in range(21):
            assert abs(values[k] - mpmath.besselj(k, 654.5)) <= 1e-15, k
    # from the underflow rule's edge up, 2k / radius falls from 1e156: no
    # term overflows on the way down, whatever the rescaling meets
    for radius in np.geomspace(math.sqrt(np.finfo(float).tiny), 1e-3, 301):
        degree = int(math.ceil(radius + 11.0 * radius ** (1.0 / 3.0)
                               + 30.0))
        values = fock._bessel_j(degree, radius)
        assert np.isfinite(values).all()
        with mpmath.workdps(40):
            for k in (0, 1):
                exact = mpmath.besselj(k, radius)
                assert abs(values[k] - exact) <= 4e-16 * exact, (radius, k)


def test_displaced_ladder_keeps_its_column_norms():
    # exact weights keep the propagator orthogonal to machine precision:
    # 4.4e-15, against 1.8e-13 with scipy's jv weights
    ladder = dense_ladder(48, 2.05, 3099)
    displaced = fock.apply_displacement(35.7291, ladder)
    drift = np.linalg.norm(displaced, axis=0) - np.linalg.norm(ladder, axis=0)
    assert np.abs(drift).max() <= 1e-14
    # and so do the parts that the moment slabs displace one at a time
    parts = fock.squeezed_fock_ladder(48, 2.05, 3099)
    for part, (even, odd) in zip(parts,
                                 fock._displaced_parts(35.7291, parts)):
        drift = (np.hypot(np.linalg.norm(even, axis=0),
                          np.linalg.norm(odd, axis=0))
                 - np.linalg.norm(part, axis=0))
        assert np.abs(drift).max() <= 1e-14


def test_squeeze_operator():
    dim = 80
    xi = 0.6 * np.exp(0.9j)
    s_mat = fock.apply_squeeze(xi, np.eye(dim))
    assert np.abs(s_mat.conj().T @ s_mat - np.eye(dim)).max() < 1e-10
    a = fock.annihilation(dim)
    dense = sla.expm(-0.5 * xi * (a.conj().T @ a.conj().T)
                     + 0.5 * np.conj(xi) * (a @ a))
    assert np.abs(dense - s_mat).max() < 1e-11
    # squeezed-vacuum mean photon number sinh^2 r
    column = s_mat[:, 0]
    mean_n = (np.abs(column) ** 2 * np.arange(dim)).sum()
    assert mean_n == pytest.approx(math.sinh(0.6) ** 2, abs=1e-6)


def test_build_rho_evolved_structure():
    params = ModelParams(alpha_mag=0.5, alpha_phase=0.4, squeeze_mag=0.3,
                         squeeze_phase=0.7, nbar=0.5)
    rho = fock.build_rho_evolved(params, 0.4, 140)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def moments_from_rho(rho):
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
    mean_n = float((occ * levels).sum())
    return fock.FockMoments(mean_a=mean_a, mean_aa=mean_aa, mean_n=mean_n,
                            var_n=float((occ * (levels - mean_n) ** 2).sum()))


def test_vector_and_dense_moments_agree():
    # the slab driver fixes theta = phi = 0
    nbar, r, alpha, u = 0.5, 0.3, 0.5, 0.4
    params = ModelParams(alpha, squeeze_mag=r, nbar=nbar)
    dense = moments_from_rho(fock.build_rho_evolved(params, u, 140))
    vec = verify._slab_moments(r, u, (nbar,), (alpha,), 140)[(nbar, alpha)]
    assert dense.mean_a == pytest.approx(vec.mean_a, abs=1e-12)
    assert dense.mean_aa == pytest.approx(vec.mean_aa, abs=1e-12)
    assert dense.mean_n == pytest.approx(vec.mean_n, abs=1e-11)
    assert dense.var_n == pytest.approx(vec.var_n, rel=1e-11)


def test_complex_ensemble_moments_match_the_density_matrix():
    # complex alpha and xi, which the default grid (theta = phi = 0) never
    # reaches: a conjugation slip in the shifted overlaps shows here
    params = ModelParams(alpha_mag=0.5, alpha_phase=0.4, squeeze_mag=0.3,
                         squeeze_phase=0.7, nbar=0.5)
    state = evolved_state(params, 0.4)
    weights = fock.thermal_weights(params.nbar, 140)[:, None]
    ladder = fock.squeezed_fock_ladder(
        len(weights), state.eff_squeeze * np.exp(1j * state.squeeze_phase),
        140)
    (vec,) = fock.ensemble_moments(
        fock._displaced_parts(state.displacement, ladder),
        (weights[0::2], weights[1::2]))
    dense = moments_from_rho(fock.build_rho_evolved(params, 0.4, 140))
    assert abs(vec.mean_a.imag) > 0.1 and abs(vec.mean_aa.imag) > 0.1
    # relative: the thermal levels the ensemble drops move Var n = 8.5 by
    # 1.2e-12 of itself
    for name in ("mean_a", "mean_aa", "mean_n", "var_n"):
        assert getattr(vec, name) == pytest.approx(getattr(dense, name),
                                                   rel=1e-11)


def test_photon_variance_is_read_without_cancellation():
    # (|500000> + |500001>)/sqrt 2: <n^2> - <n>^2 gives 0.24993896484375,
    # two ulps of <n^2> = 2.5e11 away from Var n = 1/4
    dim = 1_000_000
    vec = np.zeros((dim, 1))
    vec[500000:500002] = math.sqrt(0.5)
    moments = dense_moments(vec, np.ones(1))
    assert moments.var_n == pytest.approx(0.25, rel=1e-15)


def test_moments_match_closed_forms():
    entries = verify.moment_slab_report(0.2, 0.5, (0.3,), (0.5,))
    by_name = {entry["quantity"]: entry for entry in entries}
    for name in ("mean_photon", "photon_variance"):
        closed = by_name[name]["closed_form"]
        assert abs(by_name[name]["oracle"] - closed) <= 1e-6 * closed
    assert by_name["mean_photon"]["N_used"] >= 20


def test_coherent_projector_reference():
    params = ModelParams(alpha_mag=0.6)
    rho = fock.build_rho_evolved(params, 0.0, 50)
    vec = fock.displacement_op(0.6, 50)[:, 0]
    assert np.abs(rho - np.outer(vec, vec.conj())).max() < 1e-12


def test_hamiltonian_evolution_trivial():
    params = ModelParams(alpha_mag=0.0, squeeze_mag=0.0, nbar=0.8)
    rho = fock.evolve_via_hamiltonian(params, 2.5, 80)
    weights = fock.thermal_weights(0.8, 80)
    thermal = np.diag(np.pad(weights, (0, 80 - len(weights))))
    assert np.abs(rho - thermal).max() < 1e-13
    with pytest.raises(ValueError, match="total_time must be >= 0"):
        fock.evolve_via_hamiltonian(params, -1.0, 80)


@pytest.mark.parametrize("alpha_mag,phi,r,theta,nbar", [
    (0.0, 0.0, 0.3, 0.0, 0.5),
    (1.0, 0.0, 0.5, 0.0, 0.0),
    (0.5, 0.3, 0.3, 0.7, 1.0),
])
def test_hamiltonian_evolution_matches_construction(alpha_mag, phi, r, theta,
                                                    nbar):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta, nbar=nbar)
    dim = max(fock.suggest_dim(evolved_state(params, 0.3)), 96)
    # preparation stage reproduces the displaced-squeezed construction
    rho_h = fock.evolve_via_hamiltonian(params, 1.0, dim)
    rho_g = fock.build_rho_evolved(params, 0.0, dim)
    assert fock.trace_distance(rho_h, rho_g) <= 1e-6
    # and so does the later slice u = Omega tau
    tau = 0.3 / r
    rho_h = fock.evolve_via_hamiltonian(params, 1.0 + tau, dim)
    rho_g = fock.build_rho_evolved(params, 0.3, dim)
    assert fock.trace_distance(rho_h, rho_g) <= 1e-6


def _hamiltonian_displaced_state(dim):
    # |A| = 2 at u = 0: about four photons, which reach the top eight of
    # 20 levels (mass 1e-4 and 1e-3) but not those of 80 (1e-31)
    params = ModelParams(alpha_mag=2.0, squeeze_mag=0.1)
    return fock.evolve_via_hamiltonian(params, 1.0, dim)


def _displaced_vacuum_moments(dim):
    vacuum = np.zeros((dim, 1), dtype=complex)
    vacuum[0] = 1.0
    return dense_moments(fock.apply_displacement(2.0, vacuum), np.ones(1))


@pytest.mark.parametrize("evolve", [_hamiltonian_displaced_state,
                                    _displaced_vacuum_moments],
                         ids=["evolve_via_hamiltonian", "ensemble_moments"])
def test_edge_mass_gate_rejects_a_short_truncation(evolve):
    with pytest.raises(fock.TruncationError, match="truncation edge"):
        evolve(20)
    evolve(80)


def test_numeric_wigner_vacuum_and_thermal(monkeypatch):
    # the oracle must not read the closed forms it checks
    def closed_form(*args):
        raise AssertionError("the oracle read a closed form")

    for name in ("wigner_beta", "wigner_quadrature"):
        monkeypatch.setattr(wigner, name, closed_form)
        monkeypatch.setattr(fock, name, closed_form, raising=False)
    vac = ModelParams(alpha_mag=0.0)
    assert abs(fock.numeric_wigner(vac, 0.0, 0j)[0] - 2.0 / math.pi) \
        <= 1e-12
    thermal = ModelParams(alpha_mag=0.0, nbar=0.6)
    beta = 0.4 - 0.2j
    expected = math.exp(-abs(beta) ** 2 / 1.1) / (math.pi * 1.1)
    assert abs(fock.numeric_wigner(thermal, 0.0, beta)[0] - expected) \
        <= 1e-12


def test_numeric_wigner_matches_closed_form():
    params = ModelParams(alpha_mag=0.3, alpha_phase=0.2, squeeze_mag=0.1,
                         squeeze_phase=0.4, nbar=0.2)
    beta = 0.45 + 0.2j
    closed = wigner_beta(evolved_state(params, 0.3), beta)
    assert fock.numeric_wigner(params, 0.3, beta)[0] == pytest.approx(
        closed, abs=1e-9)


# W = 1.15e-21 far in the tail: a parity sum gated by edge mass alone, at
# the suggested truncation, gives a relative error of 8.2e-7 here
TAIL_POINT = (ModelParams(alpha_mag=0.0519, alpha_phase=-1.9971,
                          squeeze_mag=0.7347, squeeze_phase=1.7335,
                          nbar=0.5781), 0.7946, -2.5945 + 0.0853j)


def test_numeric_wigner_self_check_resolves_the_tail():
    params, u, beta = TAIL_POINT
    state = evolved_state(params, u)
    closed = wigner_beta(state, beta)
    oracle, dim = fock.numeric_wigner(params, u, beta)
    assert verify._rel_err(closed, oracle) <= 1e-7
    # sized on the state displaced by -beta, which the parity sum reads
    shifted = replace(state, displacement=state.displacement - beta)
    assert dim > fock.suggest_dim(shifted) + 20


def fock_records(caplog):
    """(what, N, outcome) of each truncation attempt logged by the oracle."""
    return [rec.args[:3] for rec in caplog.records
            if rec.name == "dpagauss.fock" and "truncation" in rec.msg]


def test_numeric_wigner_grows_a_short_truncation(monkeypatch, caplog):
    monkeypatch.setattr(fock, "suggest_dim", lambda state: 24)
    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    params, u, beta = TAIL_POINT
    closed = wigner_beta(evolved_state(params, u), beta)
    oracle, dim = fock.numeric_wigner(params, u, beta)
    assert verify._rel_err(closed, oracle) <= 1e-7
    outcomes = [outcome for _, _, outcome in fock_records(caplog)]
    assert "thermal tail weight" in outcomes[0]
    # past the edge-mass gate, the self-check alone still grows N
    assert "N and N + 20 disagree" in outcomes
    assert outcomes.index("accepted") == len(outcomes) - 1


def test_truncation_attempts_are_logged(monkeypatch, caplog, capsys):
    monkeypatch.setattr(fock, "suggest_dim", lambda state: 24)
    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    oracle, dim = fock.numeric_wigner(ModelParams(alpha_mag=2.0), 0.0,
                                      0.1 + 0.2j)
    what = "Wigner density at beta = (0.1+0.2j), u = 0.0"
    (first, first_dim, rejected), accepted = fock_records(caplog)
    assert (first, first_dim) == (what, 24)
    assert rejected.startswith("evolved state carries") \
        and "truncation edge at dim 24" in rejected
    assert accepted == (what, 30, "accepted") and dim == 50
    for rec in caplog.records:
        assert rec.levelno == logging.DEBUG and rec.args[3] >= 0.0
    assert capsys.readouterr() == ("", "")


def test_verification_light_grid_passes():
    report = verify.run_verification(
        nbars=(0.0, 0.5), rs=(0.1,), alphas=(0.0, 0.8), us=(0.0, 0.4),
        evolution_grid=((0.5, 0.3, 0.5, 0.2),),
        wigner_points=((0.2, 0.1, 0.3, 0.5, 0.45 + 0.2j),),
        workers=1)
    assert verify.all_passed(report)
    kinds = {entry["quantity"] for entry in report}
    assert "quad_variance" in kinds
    assert "evolution_trace_distance" in kinds
    assert "wigner_density" in kinds
    for entry in report:
        assert entry["rel_err"] <= 1e-6


@pytest.mark.parametrize("run", [
    lambda: verify.moment_slab_report(3.0, 3.0, (0.0,), (0.0,)),
    lambda: fock.numeric_wigner(ModelParams(alpha_mag=0.0, squeeze_mag=3.0),
                                3.0, 0j),
], ids=["slab", "numeric_wigner"])
def test_slab_never_starts_above_the_truncation_cap(run, monkeypatch):
    calls = []
    monkeypatch.setattr(fock, "suggest_dim",
                        lambda state: fock.MAX_DIM + 1)
    monkeypatch.setattr(fock, "squeezed_fock_ladder",
                        lambda *args: calls.append(args))
    with pytest.raises(fock.TruncationError, match=str(fock.MAX_DIM)):
        run()
    assert calls == []


def test_pool_starts_the_heaviest_slab_and_keeps_entry_order(monkeypatch):
    submitted = []

    class RecordingPool:
        def __init__(self, workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            submitted.extend(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(verify, "_pool", RecordingPool)
    monkeypatch.setattr(verify, "_run_task", lambda task: [task])
    serial = verify.run_verification(workers=1)
    assert verify.run_verification(workers=2) == serial
    slabs = [args for kind, args in submitted if kind == "moments"]
    dims = [verify._slab_dim(*args) for args in slabs]
    assert dims == sorted(dims, reverse=True)
    assert slabs[0][:2] == (1.0, 2.0)
    # the evolution and Wigner cells follow the slabs, in entry order
    assert submitted[len(slabs):] == serial[len(slabs):]
    assert sorted(map(repr, submitted)) == sorted(map(repr, serial))


def _pool_child_blas_env(task):
    """Pool task stand-in: the BLAS settings a worker sees, and whether it
    imported verify afresh (a forked worker would inherit the patch)."""
    env = {name: os.environ.get(name) for name in verify.POOL_BLAS_ENV}
    return [(env, verify._run_task is not _pool_child_blas_env)]


def test_pool_workers_start_fresh_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(verify, "_run_task", _pool_child_blas_env)
    report = verify.run_verification(
        nbars=(0.0,), rs=(0.1,), alphas=(0.0,), us=(0.0,), evolution_grid=(),
        wigner_points=((0.0, 0.1, 0.0, 0.0, 0.3),), workers=2)
    assert report == [(verify.POOL_BLAS_ENV, True)] * 2
    # the parent's environment is restored once the pool is done
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


def test_verification_rejects_empty_grid():
    with pytest.raises(ValueError):
        verify.run_verification(nbars=(), rs=(0.1,), alphas=(0.5,),
                                us=(0.0,))


def test_chebyshev_kernel_matches_eigensolve():
    dim = 2000
    alpha = 1.3 + 0.7j
    ladder = dense_ladder(48, 0.8 * np.exp(0.3j), dim)
    root = np.sqrt(np.arange(1, dim, dtype=float))
    fast = fock.apply_displacement(alpha, ladder)
    exact = fock._apply_chain(alpha, root, ladder)
    assert np.abs(fast - exact).max() <= 1e-12
    assert np.abs(np.linalg.norm(fast, axis=0) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("coeff", [-1.3, 1.1 * np.exp(0.7j)],
                         ids=["real", "complex"])
def test_chain_kernel_matches_dense_exponential(coeff):
    dim = 700
    root = np.sqrt(np.arange(1, dim, dtype=float))
    gen = np.diag(coeff * root, -1) - np.diag(np.conj(coeff) * root, 1)
    dense = sla.expm(gen)[:, :16]
    # the eigensolve, then the Chebyshev propagator of the same chain
    for result in (fock._apply_chain(complex(coeff), root, np.eye(dim, 16)),
                   fock.apply_displacement(coeff, np.eye(dim, 16))):
        assert np.abs(result - dense).max() <= 1e-12
        assert np.iscomplexobj(result) == (np.imag(coeff) != 0.0)


def dense_displacement(alpha, dim):
    a = fock.annihilation(dim)
    return sla.expm(alpha * a.conj().T - np.conj(alpha) * a)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 299, 300])
def test_split_chebyshev_mixed_parity_blocks_match_dense_exponential(dim):
    # columns with both parities run in the even-row and the odd-row part,
    # whose sums add; the third column is all zero and stays zero
    rng = np.random.default_rng(dim)
    blocks = (rng.uniform(-1.0, 1.0, (dim, 7)),
              rng.uniform(-1.0, 1.0, (dim, 7))
              + 1j * rng.uniform(-1.0, 1.0, (dim, 7)))
    for block in blocks:
        block[:, 2] = 0.0
    for alpha in (-0.9, 1.3 - 0.8j, 2.5j):
        dense = dense_displacement(alpha, dim)
        for block in blocks:
            fast = fock.apply_displacement(alpha, block)
            assert np.abs(fast - dense @ block).max() <= 1e-12
            assert not fast[:, 2].any()


def test_split_chebyshev_products_are_half_height(monkeypatch):
    # S|k> has the parity of k, so each part of the 48-column ladder is 24
    # columns of one parity, and every product maps 300 rows onto 300
    calls = []
    original = fock._csr_matvecs

    def recording(n_row, n_col, n_vecs, *args):
        calls.append((n_row, n_col, n_vecs))
        return original(n_row, n_col, n_vecs, *args)

    ladder = dense_ladder(48, 0.5, 600)
    monkeypatch.setattr(fock, "_csr_matvecs", recording)
    displaced = fock.apply_displacement(2.0, ladder)
    assert calls and {call[2] for call in calls} == {24}
    assert max(max(n_row, n_col) for n_row, n_col, _ in calls) <= 300
    root = np.sqrt(np.arange(1, 600, dtype=float))
    exact = fock._apply_chain(2.0, root, ladder)
    assert np.abs(displaced - exact).max() <= 1e-12


def full_height_chebyshev(sub, block):
    """The Chebyshev recurrence of ``fock._displaced_parts`` on full-height
    arrays, with the same in-place CSR product and axpy per degree."""
    mag = np.concatenate(([0.0], np.abs(sub), [0.0]))
    radius = 1.000001 * float(np.max(mag[:-1] + mag[1:]))
    degree = int(math.ceil(radius + 11.0 * radius ** (1.0 / 3.0) + 30.0))
    weights = fock._bessel_j(degree, radius)
    weights[1:] *= 2.0
    band = sub * (2.0 / radius)
    two_k = sparse.diags([band, -band], [-1, 1], format="csr")
    dim, cols = block.shape
    prev = block.astype(float, copy=True)
    cur = two_k @ prev
    cur *= 0.5
    total = weights[0] * prev
    total += weights[1] * cur
    for k in range(2, degree + 1):
        fock._csr_matvecs(dim, dim, cols, two_k.indptr, two_k.indices,
                          two_k.data, cur.reshape(-1), prev.reshape(-1))
        prev, cur = cur, prev
        if abs(weights[k]) > 1e-18:
            daxpy(cur.reshape(-1), total.reshape(-1), a=weights[k])
    return total


@pytest.mark.parametrize("dim", [2, 5, 299, 600])
def test_split_chebyshev_sums_in_the_full_height_order(dim):
    # on columns of one parity the half-height parts add the same terms in
    # the same order as the full recurrence, so a ladder keeps its bits
    root = np.sqrt(np.arange(1, dim, dtype=float))
    ladder = dense_ladder(min(dim, 16), 0.5, dim)
    for alpha in (2.0, -0.7):
        full = full_height_chebyshev(alpha * root, ladder)
        assert np.array_equal(fock.apply_displacement(alpha, ladder), full)


@pytest.mark.parametrize("dim, count", [(300, 48), (301, 47), (2200, 48),
                                        (2201, 47)])
@pytest.mark.parametrize("xi", [0.5, 0.8 * np.exp(0.3j)],
                         ids=["real", "complex"])
def test_squeezed_ladder_parts_are_the_nonzero_blocks(dim, count, xi):
    # S(xi) keeps the parity of k: the dense ladder is zero off the blocks
    # of even k on even rows and odd k on odd rows, and each part is its
    # block bit for bit, through the full and the windowed eigensolve
    full = dense_ladder(count, xi, dim)
    parts = fock.squeezed_fock_ladder(count, xi, dim)
    assert [part.shape for part in parts] == [((dim + 1) // 2,
                                               (count + 1) // 2),
                                              (dim // 2, count // 2)]
    for p, part in enumerate(parts):
        assert part.dtype == full.dtype
        assert np.array_equal(part, full[p::2, p::2])
        assert not full[p::2, 1 - p::2].any()


def dense_reference(vecs, weights):
    """<a>, <a^2>, <n> and Var n of the ensembles weighted by the columns of
    ``weights``, summed over the dense block ``vecs`` row after row."""
    prob = (np.abs(vecs) ** 2) @ weights
    levels = np.arange(len(prob))
    root = np.sqrt(levels[1:])
    mean_a = root @ (vecs[:-1].conj() * vecs[1:]) @ weights
    mean_aa = (root[:-1] * root[1:]) @ (vecs[:-2].conj() * vecs[2:]) @ weights
    mean_n = levels @ prob
    var_n = ((levels[:, None] - mean_n) ** 2 * prob).sum(axis=0)
    return list(zip(mean_a, mean_aa, mean_n, var_n))


def assert_moments_match(moments, reference):
    for cell, expected in zip(moments, reference):
        for value, exact in zip(astuple(cell), expected):
            assert abs(value - exact) <= 1e-14 * abs(exact), (value, exact)


# nbar 1 takes 48 ladder columns and nbar 0.2 takes 19
@pytest.mark.parametrize("dim", [400, 401])
@pytest.mark.parametrize("nbars", [(0.0, 1.0), (0.0, 0.2)],
                         ids=["even-count", "odd-count"])
def test_slab_moments_match_the_dense_path(dim, nbars):
    r, u, alphas = 0.3, 0.4, (0.0, 0.8, 1.5)
    weights = [fock.thermal_weights(nbar, dim) for nbar in nbars]
    count = max(map(len, weights))
    assert count == (48 if 1.0 in nbars else 19)
    table = np.zeros((count, len(nbars)))
    for i, weight in enumerate(weights):
        table[:len(weight), i] = weight
    ladder = dense_ladder(count, r + u, dim)
    slab = verify._slab_moments(r, u, nbars, alphas, dim)
    for alpha in alphas:
        state = evolved_state(ModelParams(alpha, squeeze_mag=r), u)
        shift = state.displacement
        assert_moments_match(
            [slab[(nbar, alpha)] for nbar in nbars],
            dense_reference(fock.apply_displacement(shift, ladder), table))

    # a complex squeeze and a complex shift, as in numeric_wigner
    xi, shift = 0.7 * np.exp(0.9j), 0.6 - 0.4j
    parts = fock.squeezed_fock_ladder(count, xi, dim)
    moments = fock.ensemble_moments(fock._displaced_parts(shift, parts),
                                    (table[0::2], table[1::2]))
    assert abs(moments[-1].mean_a.imag) > 0.1
    assert_moments_match(moments, dense_reference(
        fock.apply_displacement(shift, dense_ladder(count, xi, dim)), table))


def test_phase_zero_oracle_runs_in_real_arithmetic(monkeypatch):
    dim = 2200
    assert [part.dtype for part in fock.squeezed_fock_ladder(48, 3.0, dim)] \
        == [np.float64] * 2
    block = np.eye(dim, 4)
    assert fock.apply_displacement(2.0, block).dtype == np.float64
    assert fock.apply_displacement(2.0, block[:600]).dtype == np.float64
    seen = []
    original = fock.ensemble_moments

    def recording(blocks, weights):
        def passing():
            for even, odd in blocks:
                seen.append((even.dtype, odd.dtype))
                yield even, odd
        return original(passing(), weights)

    monkeypatch.setattr(fock, "ensemble_moments", recording)
    moments = verify._slab_moments(0.2, 0.5, (0.0, 1.0), (0.0, 0.5), 200)
    # two displaced parts per alpha
    assert len(moments) == 4 and seen == [(np.float64, np.float64)] * 4


# thermal ladders whose parity chains (24 rows of support) are long enough
# for the windowed eigensolve: 3,000 levels each, or one odd chain of 3,001
# levels, which carries the eigenvalue 0
WINDOW_XI = 3.0 * np.exp(0.3j)


@pytest.fixture(scope="module", params=[6000, 6001])
def full_spectrum_ladder(request):
    """The dimension and S(xi)|k> for k < 48 from a full eigensolve of each
    parity chain.

    The chain generator is R (|c| J) R^* with c = -xi/2,
    R = diag(e^{i m arg c}) and J real antisymmetric, and
    J = D (-i T) D^* with D = diag(i^m) and T = V diag(w) V^T the real
    symmetric chain.  So exp(|c| J)[m, l] is
    Re(i^(m-l) sum_p V[m, p] V[l, p] e^{-i w_p}): the cos w_p sum for even
    m - l and the sin w_p sum for odd m - l, with sign (-1)^floor((m-l)/2).
    """
    dim = request.param
    out = np.zeros((dim, 48), dtype=complex)
    coeff = -0.5 * WINDOW_XI
    for start in (0, 1):
        idx = np.arange(start, dim, 2)
        low = idx[:-1].astype(float)
        off = abs(coeff) * np.sqrt((low + 1.0) * (low + 2.0))
        w, v = sla.eigh_tridiagonal(np.zeros(len(idx)), off)
        rot = np.exp(1j * np.angle(coeff) * np.arange(len(idx)))
        for col in range(start, 48, 2):
            lead = col // 2
            gap = np.arange(len(idx)) - lead
            sign = np.where((gap // 2) % 2, -1.0, 1.0)
            even = v @ (np.cos(w) * v[lead])
            odd = v @ (np.sin(w) * v[lead])
            real = sign * np.where(gap & 1, odd, even)
            out[idx, col] = rot * real * rot[lead].conj()
    return dim, out


def parts_error(parts, full):
    """Largest deviation of the ladder parts from the blocks of ``full``
    that they stand for, S|k> for k of parity p on the rows of parity p."""
    return max(np.abs(part - full[p::2, p::2]).max()
               for p, part in enumerate(parts))


def window_records(caplog):
    return [rec.args for rec in caplog.records
            if rec.name == "dpagauss.fock" and rec.levelno == logging.DEBUG]


def test_windowed_squeeze_ladder_matches_full_spectrum(full_spectrum_ladder,
                                                       caplog, capsys):
    dim, full = full_spectrum_ladder
    # silent by default: no record and no output without logging set up
    fock.squeezed_fock_ladder(1, 1.0, 2200)
    assert window_records(caplog) == []
    assert capsys.readouterr() == ("", "")

    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    ladder = fock.squeezed_fock_ladder(48, WINDOW_XI, dim)
    assert parts_error(ladder, full) <= 1e-12
    for part in ladder:
        assert np.abs(np.linalg.norm(part, axis=0) - 1.0).max() <= 1e-13
    # one record per parity chain: chain length, support height, eigenpairs
    # kept, final window, edge component, growths, and the eigenpairs that
    # inverse iteration solved: the non-negative half of those kept
    records = window_records(caplog)
    chains = [(dim + 1) // 2, dim // 2]
    assert [args[:2] for args in records] == [(n, 24) for n in chains]
    for n, (_, _, kept, span, edge, growths, solved) in zip(chains,
                                                            records):
        assert 0 < kept < n and span > 0.0
        assert edge <= 1e-16 and growths == 0
        assert kept == 2 * solved - n % 2


def test_windowed_squeeze_grows_a_too_small_window(full_spectrum_ladder,
                                                   monkeypatch, caplog):
    dim, full = full_spectrum_ladder
    monkeypatch.setattr(fock, "_WINDOW_MARGIN", 0.0)
    calls = []
    original = fock._dlasq1

    # the bindings take addresses: dlasq1(n, d, e, work, info) reads its
    # bidiagonal's size at the first
    def recording(*args):
        calls.append(ctypes.c_int.from_address(args[0]).value)
        return original(*args)

    monkeypatch.setattr(fock, "_dlasq1", recording)
    stein = []
    original_stein = fock._dstein

    def recording_stein(*args):
        # dstein(n, d, e, m, w, ...): m counts the eigenvalues w
        stein.append(ctypes.c_int.from_address(args[3]).value)
        return original_stein(*args)

    monkeypatch.setattr(fock, "_dstein", recording_stein)
    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    ladder = fock.squeezed_fock_ladder(48, WINDOW_XI, dim)
    assert parts_error(ladder, full) <= 1e-12
    records = window_records(caplog)
    assert len(records) == 2
    assert all(args[4] <= 1e-16 and args[5] >= 1 for args in records)
    # one dqds pass per parity chain, on its bidiagonal of half the levels:
    # a growing window re-runs inverse iteration only
    chains = ((dim + 1) // 2, dim // 2)
    assert calls == [((n + 1) // 2) for n in chains]
    # each trial window solves the eigenvector at its edge alone; only the
    # final one solves its other eigenpairs, in blocks of 32 after an odd
    # chain's eigenvalue 0
    expected = []
    for n, (*_, growths, solved) in zip(chains, records):
        positive = solved - n % 2
        expected += ([1] * (growths + 1) + [1] * (n % 2)
                     + [32] * (positive // 32) + [positive % 32])
    assert stein == [size for size in expected if size]


def sturm_eigenvalue(off, value):
    """The eigenvalue of the zero-diagonal chain ``off`` within 1e-13
    relative of ``value``, to about 1e-21 relative, by bisection on 40-digit
    Sturm counts."""
    with mpmath.workdps(40):
        squares = [mpmath.mpf(float(x)) ** 2 for x in off]

        def below(x):
            # eigenvalues below x: negative pivots of T - x I
            count, pivot = 0, -x
            for square in squares:
                count += pivot < 0
                pivot = -x - square / pivot
            return count + (pivot < 0)

        lo, hi = (mpmath.mpf(value) * (1 + s * 1e-13) for s in (-1, 1))
        rank = below(lo)
        assert below(hi) == rank + 1
        while hi - lo > hi * 1e-21:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) == rank else (lo, mid)
        return (lo + hi) / 2


@pytest.mark.parametrize("levels", [3000, 3001], ids=["even", "odd"])
def test_window_eigenpairs_mirror_the_two_sided_solve(levels):
    # the even-level squeeze chain at |xi| = 3
    low = np.arange(0, 2 * levels - 2, 2, dtype=float)
    off = 1.5 * np.sqrt((low + 1.0) * (low + 2.0))
    span = 200.0
    diag = np.zeros(levels)
    count, w_ref, iblock, isplit, info = lapack.dstebz(
        diag, off, 1, -span, span, 0, 0, 2.0 * np.finfo(float).tiny, "B")
    assert info == 0
    w_ref = w_ref[:count]
    v_ref = np.column_stack([
        lapack.dstein(diag, off, w_ref[lo:lo + 32],
                      np.roll(iblock, -lo), isplit)[0]
        for lo in range(0, count, 32)])

    blocks = list(fock._eigh_window(
        off, fock._positive_eigenvalues(np.abs(off)), span))
    # blocks of at most 32 solved eigenpairs; those with w > 0 are flagged
    # to stand for their mirror images (-w, P v) too, and an odd chain's
    # eigenvalue 0 comes first, alone
    assert all(len(bw) <= 32 and mirrored == bool(np.all(bw > 0.0))
               for bw, _, mirrored in blocks)
    assert [len(bw) for bw, _, _ in blocks[:levels % 2]] == [1] * (levels % 2)
    solved_w = np.concatenate([bw for bw, _, _ in blocks])
    solved_v = np.column_stack([bv for _, bv, _ in blocks])
    mirror = np.concatenate([np.full(len(bw), mirrored)
                             for bw, _, mirrored in blocks])
    parity = np.where(np.arange(levels) % 2, -1.0, 1.0)[:, None]
    w = np.concatenate((-solved_w[mirror][::-1], solved_w))
    v = np.column_stack((parity * solved_v[:, mirror][:, ::-1], solved_v))
    solved = len(solved_w)
    # dqds eigenvalues: the smallest, a middle and the largest positive one
    # of the window, within the worst relative error of bisection (stebz)
    # on these chains
    positive = w[w > 0.0]
    for value in positive[[0, len(positive) // 2, -1]]:
        exact = sturm_eigenvalue(off, value)
        assert abs(value - exact) <= 4.4e-15 * exact
    assert np.array_equal(w, -w[::-1])
    assert np.count_nonzero(w == 0.0) == levels % 2
    assert len(w) == count and solved == (count + 1) // 2
    signs = np.sign(np.sum(v_ref * v, axis=0))
    assert np.abs(v_ref * signs - v).max() <= 1e-12


@pytest.mark.parametrize("dim", [6000, 6001])
def test_split_squeeze_chain_is_the_identity(dim, monkeypatch):
    # the first squared off-diagonal underflows (|xi| or |alpha| below about
    # 1.5e-154), where stebz would split the squeeze chain: both propagators
    # return the block itself
    def refuse(*args):
        raise AssertionError("a chain below the underflow rule ran a "
                             "propagator")

    monkeypatch.setattr(fock, "_eigh_reaching", refuse)
    monkeypatch.setattr(fock, "_bessel_j", refuse)
    eye = np.eye(dim, 48)
    for coeff in (1e-300, 1e-160, 1e-155):
        for apply in (fock.apply_squeeze, fock.apply_displacement):
            assert np.array_equal(apply(coeff, eye), eye)


@pytest.mark.parametrize("coeff", [1e-153, 1e-150])
def test_chain_above_the_underflow_rule_runs_its_propagator(coeff,
                                                            monkeypatch):
    calls = []

    def recording(name):
        original = getattr(fock, name)

        def record(*args):
            calls.append(name)
            return original(*args)
        return record

    for name in ("_eigh_reaching", "_dlasq1", "_bessel_j"):
        monkeypatch.setattr(fock, name, recording(name))
    eye = np.eye(6000, 48)
    # one windowed eigensolve per parity chain, whose dqds pass scales the
    # tiny entries itself, then one Chebyshev expansion
    assert np.abs(fock.apply_squeeze(coeff, eye) - eye).max() <= 5e-15
    assert calls == ["_eigh_reaching", "_dlasq1"] * 2
    assert np.abs(fock.apply_displacement(coeff, eye) - eye).max() <= 1e-14
    assert calls == ["_eigh_reaching", "_dlasq1"] * 2 + ["_bessel_j"]


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_compiled_kernels_match_scipy_public_api():
    # fock loads its kernels from scipy's extension modules before anything
    # imports scipy.linalg or scipy.sparse; the public API gives their bits
    run_fresh("""
import numpy as np
import dpagauss.fock as fock

# the two parity chains of a squeeze at 61 levels: 31 and 30 levels
chains = [0.35 * fock._squeeze_root(start, 61) for start in (0, 1)]
full = [fock._eigh_full(off) for off in chains]
off = chains[0]
levels = len(off) + 1
w = full[0][0][-5:]
stein_args = (np.zeros(levels), off, w, np.ones(levels, dtype=np.int32),
              np.full(levels, levels, dtype=np.int32))
stein = fock._stein(off, w)
x = np.linspace(-1.0, 2.0, 7)
axpy, a, ints = np.cos(x), np.array([0.3]), np.array([len(x), 1], np.intc)
fock._daxpy(ints.ctypes.data, a.ctypes.data, x.ctypes.data,
            ints.ctypes.data + ints.itemsize, axpy.ctypes.data,
            ints.ctypes.data + ints.itemsize)
# 2 x 3 CSR times a 3 x 2 block, added into a 2 x 2 block
csr = (np.array([0, 2, 3], dtype=np.int32), np.array([0, 2, 1], dtype=np.int32),
       np.array([0.5, -1.5, 2.0]))
block = np.arange(6.0)
matvecs = np.ones(4)
fock._csr_matvecs(2, 3, 2, *csr, block, matvecs)

import scipy.linalg as sla
from scipy.linalg import blas, lapack
from scipy.sparse import _sparsetools

for off, (w_ours, v_ours) in zip(chains, full):
    w_ref, v_ref = sla.eigh_tridiagonal(np.zeros(len(off) + 1), off)
    assert np.array_equal(w_ours, w_ref) and np.array_equal(v_ours, v_ref)
stein_ref, info = lapack.dstein(*stein_args)
assert info == 0 and np.array_equal(stein, stein_ref)
assert np.array_equal(axpy, blas.daxpy(x, np.cos(x), a=0.3))
ref = np.ones(4)
_sparsetools.csr_matvecs(2, 3, 2, *csr, block, ref)
assert np.array_equal(matvecs, ref) and not np.array_equal(ref, np.ones(4))
""")


def test_compiled_kernels_leave_scipy_importable():
    # importing fock enters no scipy.linalg or scipy.sparse module; a later
    # import of those packages runs in full and binds the same cython_lapack
    # and cython_blas
    run_fresh("""
import sys

before = set(sys.modules)
import dpagauss.fock as fock

added = sorted(name for name in set(sys.modules) - before
               if name.startswith(("scipy.linalg", "scipy.sparse")))
assert not added, added
import numpy as np
import scipy.linalg
import scipy.sparse

assert scipy.linalg.cython_lapack is fock.cython_lapack
assert scipy.linalg.cython_blas is fock.cython_blas
w = scipy.linalg.eigh_tridiagonal(np.zeros(3), np.ones(2))[0]
assert np.allclose(w, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)]), w
assert (scipy.sparse.csr_matrix(np.eye(2)) @ np.ones(2)).tolist() == [1.0, 1.0]
""")
    # a module already imported is reused, not loaded a second time
    run_fresh("""
import scipy.linalg
import scipy.sparse._sparsetools
import dpagauss.fock as fock

assert fock.cython_lapack is scipy.linalg.cython_lapack
assert fock.cython_blas is scipy.linalg.cython_blas
assert fock._csr_matvecs is scipy.sparse._sparsetools.csr_matvecs
""")


def capsule_name(capsule):
    """The name of a capsule, its C signature in a Cython function table."""
    return ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)


# the C arguments of each routine that fock binds, as fock spells them
BOUND_ROUTINES = [(cython_lapack, "dlasq1", "idddi"),
                  (cython_lapack, "dstein", "iddidiididiii"),
                  (cython_lapack, "dstevd", "cidddidiiii"),
                  (cython_blas, "daxpy", "iddidi")]


@pytest.mark.parametrize("module, name, args", BOUND_ROUTINES,
                         ids=[name for _, name, _ in BOUND_ROUTINES])
def test_binding_refuses_another_signature(module, name, args):
    # a scipy that exported the routine under another C signature: the
    # binding names both instead of casting the pointer
    other = {"dlasq1": "dlasq2", "dstein": "dstebz", "dstevd": "dstev",
             "daxpy": "dscal"}[name]
    table = SimpleNamespace(__name__=module.__name__, __pyx_capi__={
        name: module.__pyx_capi__[other]})
    assert fock._bind(module, name, args)
    with pytest.raises(ImportError) as raised:
        fock._bind(table, name, args)
    message = str(raised.value)
    for capsule in (module.__pyx_capi__[other], module.__pyx_capi__[name]):
        assert repr(capsule_name(capsule).decode()) in message
    assert f"exports {name} as" in message


def test_binding_names_a_missing_routine():
    # a scipy whose Cython LAPACK no longer exports dstein
    table = SimpleNamespace(__name__=cython_lapack.__name__, __pyx_capi__={
        name: capsule for name, capsule in cython_lapack.__pyx_capi__.items()
        if name != "dstein"})
    with pytest.raises(ImportError,
                       match="scipy.linalg.cython_lapack exports no dstein"):
        fock._bind(table, "dstein", "iddidiididiii")


def test_compiled_names_a_module_that_scipy_moved(monkeypatch):
    # a scipy without scipy/linalg/cython_blas*.so: the loader names the
    # module and the directory it searched
    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_blas",
                        raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, path: None)
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError, match=re.escape(
            f"no scipy.linalg.cython_blas in {folder}")):
        fock._compiled("scipy.linalg.cython_blas")


@pytest.mark.parametrize("evaluate, limit_mb", [
    (lambda: fock.squeezed_fock_ladder(48, 3.0, 16869), 7.5),
    (lambda: verify._slab_moments(1.0, 2.0, verify.DEFAULT_NBARS,
                                  verify.DEFAULT_ALPHAS, 11851), 9.5),
], ids=["ladder-16869", "slab-r1-u2"])
def test_oracle_memory_stays_bounded(evaluate, limit_mb):
    # the squeeze window streams through the cos/sin sums one inverse
    # iteration block at a time, and the ladder stays in its two compact
    # parity parts through the displacement and the moment sums, one part
    # at a time: 6.7 and 8.5 MB traced, against 18.1 and 14.7 MB with a
    # dense ladder and 43.3 and 29.6 MB when every window eigenvector was
    # held at once
    tracemalloc.start()
    try:
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6, f"{peak / 1e6:.1f} MB"


def test_window_reaching_the_spectral_radius_streams(monkeypatch, caplog):
    # an edge rule no eigenvector meets grows each window past the spectral
    # radius, and the whole spectrum streams block by block as a window
    # does: 2.6 MB traced, against 145.6 MB for a dense full solve
    default = fock.squeezed_fock_ladder(48, 3.0, 6000)
    monkeypatch.setattr(fock, "_WINDOW_EDGE_TOL", 0.0)
    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    tracemalloc.start()
    try:
        ladder = fock.squeezed_fock_ladder(48, 3.0, 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6, f"{peak / 1e6:.1f} MB"
    # every eigenpair kept, the non-negative half solved, none dropped
    assert [(args[2], args[4], args[6]) for args in window_records(caplog)] \
        == [(3000, 0.0, 1500)] * 2
    for part, expected in zip(ladder, default):
        assert np.abs(part - expected).max() <= 1e-14


def record_slab_dims(monkeypatch):
    """Wrap verify._slab_moments; returns the list of (dim, accepted)."""
    calls = []
    original = verify._slab_moments

    def recording(r, u, nbars, alphas, dim):
        try:
            result = original(r, u, nbars, alphas, dim)
        except fock.TruncationError:
            calls.append((dim, False))
            raise
        calls.append((dim, True))
        return result

    monkeypatch.setattr(verify, "_slab_moments", recording)
    return calls


def test_default_heavy_displacement_slab_accepted_first_try(monkeypatch):
    calls = record_slab_dims(monkeypatch)
    report = verify.moment_slab_report(0.05, 2.0, verify.DEFAULT_NBARS,
                                       verify.DEFAULT_ALPHAS)
    assert verify.all_passed(report)
    first = calls[0][0]
    assert calls == [(first, True), (first + 20, True)]


def test_suggest_dim_does_not_grow_heavy_squeeze_slab():
    dims = [fock.suggest_dim(evolved_state(
                ModelParams(alpha, squeeze_mag=1.0, nbar=nbar), 2.0))
            for nbar in verify.DEFAULT_NBARS
            for alpha in verify.DEFAULT_ALPHAS]
    assert max(dims) <= 11831


def test_rejected_truncation_grows_by_at_most_a_quarter(monkeypatch):
    monkeypatch.setattr(fock, "suggest_dim", lambda state: 40)
    calls = record_slab_dims(monkeypatch)
    report = verify.moment_slab_report(0.1, 0.4, (0.5,), (0.8,))
    assert verify.all_passed(report)
    # an attempt is a truncation N, with its N + 20 partner computed only
    # when N itself was accepted
    attempts = [calls[0][0]]
    for (dim, accepted), (next_dim, _) in zip(calls, calls[1:]):
        if not (accepted and next_dim == dim + 20):
            attempts.append(next_dim)
    assert attempts[0] == 40 and len(attempts) > 2
    assert all(b <= 1.25 * a for a, b in zip(attempts, attempts[1:]))
