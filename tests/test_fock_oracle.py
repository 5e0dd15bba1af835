import logging
import math

import numpy as np
import pytest
import scipy.linalg as sla

import dpagauss.fock as fock
import dpagauss.verify as verify
from dpagauss import ModelParams, evolved_state, wigner_beta


def test_thermal_state_properties():
    rho = fock.thermal_state(0.0, 12)
    assert rho[0, 0] == 1.0 and np.abs(rho).sum() == 1.0

    rho = fock.thermal_state(1.0, 60)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    occ = np.diagonal(rho).real
    assert (occ * np.arange(60)).sum() == pytest.approx(1.0, abs=1e-10)
    assert fock.thermal_tail_weight(1.0, 60) < 1e-12


def test_thermal_state_truncation_error():
    with pytest.raises(fock.TruncationError):
        fock.thermal_state(1.0, 10)


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
    dim = 680  # above the eigensolver cutoff
    alpha = 1.3 + 0.4j
    a = fock.annihilation(dim)
    dense = sla.expm(alpha * a.conj().T - np.conj(alpha) * a)
    fast = fock.displacement_op(alpha, dim)
    assert np.abs(dense - fast).max() < 1e-10


def test_squeeze_operator():
    dim = 80
    xi = 0.6 * np.exp(0.9j)
    s_mat = fock.squeeze_op(xi, dim)
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


def test_vector_and_dense_moments_agree():
    # the slab driver fixes theta = phi = 0
    nbar, r, alpha, u = 0.5, 0.3, 0.5, 0.4
    params = verify._cell_params(nbar, r, alpha)
    dense = fock.moments_from_rho(fock.build_rho_evolved(params, u, 140))
    vec = verify._slab_moments(r, u, (nbar,), (alpha,), 140)[(nbar, alpha)]
    assert dense.mean_a == pytest.approx(vec.mean_a, abs=1e-12)
    assert dense.mean_aa == pytest.approx(vec.mean_aa, abs=1e-12)
    assert dense.mean_n == pytest.approx(vec.mean_n, abs=1e-11)
    assert dense.mean_n2 == pytest.approx(vec.mean_n2, rel=1e-11)


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
    assert np.abs(rho - fock.thermal_state(0.8, 80)).max() < 1e-13


@pytest.mark.parametrize("alpha_mag,phi,r,theta,nbar", [
    (0.0, 0.0, 0.3, 0.0, 0.5),
    (1.0, 0.0, 0.5, 0.0, 0.0),
    (0.5, 0.3, 0.3, 0.7, 1.0),
])
def test_hamiltonian_evolution_matches_construction(alpha_mag, phi, r, theta,
                                                    nbar):
    params = ModelParams(alpha_mag=alpha_mag, alpha_phase=phi, squeeze_mag=r,
                         squeeze_phase=theta, nbar=nbar)
    dim = max(fock.suggest_dim(params, 0.3), 96)
    # preparation stage reproduces the displaced-squeezed construction
    rho_h = fock.evolve_via_hamiltonian(params, params.prep_time, dim)
    rho_g = fock.build_rho_evolved(params, 0.0, dim)
    assert fock.trace_distance(rho_h, rho_g) <= 1e-6
    # and so does the later slice u = Omega tau
    tau = 0.3 * params.prep_time / r
    rho_h = fock.evolve_via_hamiltonian(params, params.prep_time + tau, dim)
    rho_g = fock.build_rho_evolved(params, 0.3, dim)
    assert fock.trace_distance(rho_h, rho_g) <= 1e-6


def _hamiltonian_displaced_state(dim):
    # |A| = 2 at u = 0: about four photons, which reach the top eight of
    # 20 levels (mass 1e-4 and 1e-3) but not those of 80 (1e-31)
    params = ModelParams(alpha_mag=2.0, squeeze_mag=0.1)
    return fock.evolve_via_hamiltonian(params, params.prep_time, dim)


def _displaced_vacuum_moments(dim):
    vacuum = np.zeros((dim, 1), dtype=complex)
    vacuum[0] = 1.0
    return fock.ensemble_moments(fock.apply_displacement(2.0, vacuum),
                                 np.ones(1))


@pytest.mark.parametrize("evolve", [_hamiltonian_displaced_state,
                                    _displaced_vacuum_moments],
                         ids=["evolve_via_hamiltonian", "ensemble_moments"])
def test_edge_mass_gate_rejects_a_short_truncation(evolve):
    with pytest.raises(fock.TruncationError, match="truncation edge"):
        evolve(20)
    evolve(80)


def test_numeric_wigner_vacuum_and_thermal():
    vac = ModelParams(alpha_mag=0.0)
    assert fock.numeric_wigner(vac, 0.0, 0j) == pytest.approx(
        2.0 / math.pi, abs=1e-6)
    thermal = ModelParams(alpha_mag=0.0, nbar=0.6)
    beta = 0.4 - 0.2j
    expected = (math.exp(-abs(beta) ** 2 / 1.1) / (math.pi * 1.1))
    assert fock.numeric_wigner(thermal, 0.0, beta) == pytest.approx(
        expected, abs=1e-6)


def test_numeric_wigner_matches_closed_form():
    params = ModelParams(alpha_mag=0.3, alpha_phase=0.2, squeeze_mag=0.1,
                         squeeze_phase=0.4, nbar=0.2)
    beta = 0.45 + 0.2j
    closed = wigner_beta(evolved_state(params, 0.3), beta)
    assert fock.numeric_wigner(params, 0.3, beta) == pytest.approx(
        closed, abs=1e-9)


def test_numeric_wigner_reports_nonconvergence():
    params = ModelParams(alpha_mag=0.3, squeeze_mag=0.4, nbar=0.5)
    with pytest.raises(fock.QuadratureError):
        fock.numeric_wigner(params, 0.8, 0.2 + 0.1j, max_nodes=64)


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


def test_slab_never_starts_above_the_truncation_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(fock, "suggest_dim",
                        lambda params, u: verify.MAX_DIM + 1)
    monkeypatch.setattr(verify, "_slab_moments",
                        lambda *args: calls.append(args))
    with pytest.raises(fock.TruncationError, match=str(verify.MAX_DIM)):
        verify.moment_slab_report(3.0, 3.0, (0.0,), (0.0,))
    assert calls == []


def test_verification_rejects_empty_grid():
    with pytest.raises(ValueError):
        verify.run_verification(nbars=(), rs=(0.1,), alphas=(0.5,),
                                us=(0.0,))


def test_chebyshev_kernel_matches_eigensolve():
    dim = 2000
    alpha = 1.3 + 0.7j
    ladder = fock.squeezed_fock_ladder(48, 0.8 * np.exp(0.3j), dim)
    sub = 1j * alpha * np.sqrt(np.arange(1, dim, dtype=float))
    fast = fock._apply_exp_tridiag_chebyshev(sub, ladder)
    exact = fock._apply_exp_tridiag(sub, ladder)
    assert np.abs(fast - exact).max() <= 1e-12
    assert np.abs(np.linalg.norm(fast, axis=0) - 1.0).max() <= 1e-12


# a thermal ladder whose parity chains (3,000 levels, 24 rows of support)
# are long enough for the windowed eigensolve
WINDOW_XI = 3.0 * np.exp(0.3j)
WINDOW_DIM = 6000


@pytest.fixture(scope="module")
def full_spectrum_ladder():
    """S(xi)|k> for k < 48 from a full eigensolve of each parity chain."""
    out = np.zeros((WINDOW_DIM, 48), dtype=complex)
    for start in (0, 1):
        idx = np.arange(start, WINDOW_DIM, 2)
        low = idx[:-1].astype(float)
        sub = -0.5j * WINDOW_XI * np.sqrt((low + 1.0) * (low + 2.0))
        # H = G T G^* with T real: G_k = e^{i (arg sub_0 + ... + arg sub_k-1)}
        gauge = np.exp(1j * np.concatenate(([0.0],
                                            np.cumsum(np.angle(sub)))))
        w, v = sla.eigh_tridiagonal(np.zeros(len(idx)), np.abs(sub))
        cols = np.arange(start, 48, 2)
        out[idx[:, None], cols] = gauge[:, None] * (
            (v * np.exp(-1j * w)) @ (v[cols // 2].T
                                     * gauge[cols // 2].conj()))
    return out


def window_records(caplog):
    return [rec.args for rec in caplog.records
            if rec.name == "dpagauss.fock" and rec.levelno == logging.DEBUG]


def test_windowed_squeeze_ladder_matches_full_spectrum(full_spectrum_ladder,
                                                       caplog, capsys):
    # silent by default: no record and no output without logging set up
    fock.squeezed_fock_ladder(1, 1.0, 2200)
    assert window_records(caplog) == []
    assert capsys.readouterr() == ("", "")

    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    ladder = fock.squeezed_fock_ladder(48, WINDOW_XI, WINDOW_DIM)
    assert np.abs(ladder - full_spectrum_ladder).max() <= 1e-12
    assert np.abs(np.linalg.norm(ladder, axis=0) - 1.0).max() <= 1e-13
    # one record per parity chain: chain length, support height, eigenpairs
    # kept, final window, edge component, growths
    records = window_records(caplog)
    assert [args[:2] for args in records] == [(3000, 24), (3000, 24)]
    for _, _, kept, span, edge, growths in records:
        assert 0 < kept < 3000 and span > 0.0
        assert edge <= 1e-16 and growths == 0


def test_windowed_squeeze_grows_a_too_small_window(full_spectrum_ladder,
                                                   monkeypatch, caplog):
    monkeypatch.setattr(fock, "_WINDOW_MARGIN", 0.0)
    caplog.set_level(logging.DEBUG, logger="dpagauss.fock")
    ladder = fock.squeezed_fock_ladder(48, WINDOW_XI, WINDOW_DIM)
    assert np.abs(ladder - full_spectrum_ladder).max() <= 1e-12
    records = window_records(caplog)
    assert len(records) == 2
    assert all(args[4] <= 1e-16 and args[5] >= 1 for args in records)


def record_slab_dims(monkeypatch):
    """Wrap verify._slab_moments; returns the list of (dim, accepted)."""
    calls = []
    original = verify._slab_moments

    def recording(r, u, nbars, alphas, dim):
        result = original(r, u, nbars, alphas, dim)
        calls.append((dim, result is not None))
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
    dims = [fock.suggest_dim(verify._cell_params(nbar, 1.0, alpha), 2.0)
            for nbar in verify.DEFAULT_NBARS
            for alpha in verify.DEFAULT_ALPHAS]
    assert max(dims) <= 11831


def test_rejected_truncation_grows_by_at_most_a_quarter(monkeypatch):
    monkeypatch.setattr(fock, "suggest_dim", lambda params, u: 40)
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
