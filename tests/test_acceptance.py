"""Acceptance suite: every criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import os
import time
from dataclasses import astuple

import numpy as np
import pytest

import dpagauss.fock as fock
import dpagauss.verify as verify
from dpagauss import (
    BehaviorKind,
    EvolvedState,
    Mechanism,
    ModelParams,
    classicality_factor,
    classify_behavior,
    critical_alpha_q0_root,
    crossover_time,
    evolved_state,
    find_critical_alpha,
    field_nonclassical,
    mandel_q,
    mandel_q_curve,
    snr_max,
    squeezing_criterion,
    variance_product,
    wigner_beta,
)
from dpagauss.statistics import quad_variance


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_caption_factors():
    for nbar, r, expected in ((0.2, 0.1, 1.1462), (0.1, 0.2, 0.8044),
                              (1.0, 1.0, 0.4060)):
        assert classicality_factor(nbar, r, 0.0) == pytest.approx(
            expected, abs=5e-5)
    _report(1, "classicality factors 1.1462 / 0.8044 / 0.4060 within 5e-5")


def test_criterion_2_critical_points():
    start = time.time()
    first = find_critical_alpha(0.2, 0.1)
    second = find_critical_alpha(0.1, 0.2)
    third = find_critical_alpha(1.0, 1.0)
    elapsed = time.time() - start

    assert first.alpha_c == pytest.approx(0.3494, abs=5e-4)
    assert first.tangency_u == pytest.approx(0.3857, abs=1e-3)
    assert first.mechanism is Mechanism.INTERIOR_TANGENCY

    assert second.alpha_c == pytest.approx(0.4961, abs=5e-4)
    assert second.tangency_u == pytest.approx(0.2097, abs=1e-3)
    assert second.mechanism is Mechanism.INTERIOR_TANGENCY

    assert third.alpha_c == pytest.approx(9.7140, abs=1e-3)
    assert third.mechanism is Mechanism.BOUNDARY_Q0_ZERO
    assert third.alpha_c == pytest.approx(critical_alpha_q0_root(1.0, 1.0),
                                          abs=1e-6)
    assert elapsed < 5.0
    _report(2, f"critical displacements 0.3494 / 0.4961 / 9.7140 with "
               f"tangency times, {elapsed:.2f}s")


def test_criterion_3_mandel_zero_root():
    assert abs(float(mandel_q_curve(0.1, 0.2, 0.6507, 0.0))) <= 1e-3
    _report(3, "u = 0 Mandel parameter vanishes at |alpha| = 0.6507")


def test_criterion_4_figure_shapes():
    us = np.linspace(0.0, 10.0, 4001)
    assert mandel_q_curve(0.2, 0.1, 0.3, us).min() > 0.0
    assert classify_behavior(0.2, 0.1, 0.3).kind is \
        BehaviorKind.STRICTLY_CLASSICAL

    two = classify_behavior(0.2, 0.1, 0.4)
    assert two.kind is BehaviorKind.MIXED_TWO_CROSSINGS
    assert len(two.zeros) == 2

    one = classify_behavior(1.0, 1.0, 12.0)
    assert float(mandel_q_curve(1.0, 1.0, 12.0, 0.0)) < 0.0
    assert one.kind is BehaviorKind.NEGATIVE_START_ONE_CROSSING
    assert len(one.zeros) == 1
    _report(4, "curve shapes: strictly classical / two zeros / negative "
               "start with one crossing")


# largest rel_err per quantity that the default verification grid may show
ORACLE_ERRORS = {"quad_mean": 1.5e-8, "quad_variance": 3.5e-8,
                 "mean_photon": 2e-9, "photon_variance": 7.5e-8,
                 "evolution_trace_distance": 5e-12, "wigner_density": 2e-14}


def test_criterion_5_oracle_equivalence():
    start = time.time()
    report = verify.run_verification(workers=os.cpu_count() or 1)
    elapsed = time.time() - start

    failures = [entry for entry in report if not entry["pass"]]
    assert not failures, failures[:3]
    moments = [e for e in report if e["quantity"] in
               ("quad_mean", "quad_variance", "mean_photon",
                "photon_variance")]
    assert len(moments) == 4 * 81
    assert max(e["rel_err"] for e in moments) <= 1e-6
    evolution = [e for e in report
                 if e["quantity"] == "evolution_trace_distance"]
    assert evolution and max(e["oracle"] for e in evolution) <= 1e-6
    # the oracle's accuracy, with a margin over the largest errors it has
    # shown on this grid (1.40e-8, 3.26e-8, 1.74e-9, 6.80e-8, 3.73e-12 and
    # 1.12e-14): a change to the oracle that loses digits shows here, far
    # inside the gates
    worst = {}
    for e in report:
        worst[e["quantity"]] = max(worst.get(e["quantity"], 0.0), e["rel_err"])
    assert set(worst) == set(ORACLE_ERRORS)
    for quantity, bound in ORACLE_ERRORS.items():
        assert worst[quantity] <= bound, (quantity, worst[quantity])
    assert elapsed < 120.0
    _report(5, f"closed forms match the Fock oracle over the 81-cell grid "
               f"and the Hamiltonian mapping holds, {elapsed:.0f}s")


def _oracle_cell(nbar, r, alpha, u):
    """The oracle's moments of one cell, through the slab truncation loop:
    N and N + 20 agree and the edge mass is gated, as in ``verify``."""
    cells, _ = fock._self_checked(
        lambda dim: verify._slab_moments(r, u, (nbar,), (alpha,), dim),
        lambda cells: [x for cell in cells.values() for x in astuple(cell)],
        1.0, verify._slab_dim(r, u, (nbar,), (alpha,)),
        f"cell (nbar={nbar}, r={r}, alpha={alpha}, u={u})")
    return cells[(nbar, alpha)]


def test_oracle_attests_both_transitions():
    # The Mandel parameter changes sign at alpha_c, at the solver's
    # tangency u* (u = 0 for the boundary mechanism).  The oracle reaches
    # only small u, where N grows like e^{2(u + r)}, so it attests Q near
    # u* and not "classical for every u <= U_MAX": that half stays a claim
    # of the closed-form scan.  Margins are about 7e-4 to 1.1e-3.
    for nbar, r in ((0.2, 0.1), (0.1, 0.2), (1.0, 1.0)):
        critical = find_critical_alpha(nbar, r)
        u_star = critical.tangency_u or 0.0
        for factor, sign in ((0.999, 1.0), (1.001, -1.0)):
            cell = _oracle_cell(nbar, r, factor * critical.alpha_c, u_star)
            q = (cell.var_n - cell.mean_n) / cell.mean_n
            assert sign * q > 0.0, (nbar, r, factor, q)
    # The squeezed quadrature (lambda = theta / 2 = 0) crosses the coherent
    # width 1/2 at crossover_time, whatever |alpha|.  Margins are about
    # 1.2e-4 to 7.7e-4.
    for nbar, r, alpha in ((1.0, 0.1, 0.5), (0.2, 0.05, 2.0), (3.0, 0.2, 1.0)):
        u_c = crossover_time(nbar, r)
        for alpha_mag in (0.0, alpha):
            for factor, sign in ((0.999, 1.0), (1.001, -1.0)):
                cell = _oracle_cell(nbar, r, alpha_mag, factor * u_c)
                excess = cell.quad_var(0.0) - 0.5
                assert sign * excess > 0.0, (nbar, r, alpha_mag, factor,
                                             excess)


def test_transition_window_opens_with_the_mechanism_exponent():
    # Just above alpha_c, min over u of Q falls linearly in eps = |alpha| /
    # alpha_c - 1.  At an interior tangency Q is quadratic about its
    # minimum, so the negative window u2 - u1 opens like eps^(1/2); at the
    # boundary Q(0) turns negative with a finite slope in u, so the single
    # crossing u1 moves off u = 0 like eps.  Measured exponents are 0.4992,
    # 0.4992 and 0.9899 between eps = 1e-2 and 1e-3.
    for nbar, r in ((0.2, 0.1), (0.1, 0.2), (1.0, 1.0)):
        critical = find_critical_alpha(nbar, r)
        shapes = [classify_behavior(nbar, r, (1.0 + eps) * critical.alpha_c)
                  for eps in (1e-2, 1e-3)]
        if critical.mechanism is Mechanism.INTERIOR_TANGENCY:
            kind, exponent = BehaviorKind.MIXED_TWO_CROSSINGS, 0.5
            sizes = [shape.zeros[1] - shape.zeros[0] for shape in shapes]
        else:
            kind, exponent = BehaviorKind.NEGATIVE_START_ONE_CROSSING, 1.0
            sizes = [shape.zeros[0] for shape in shapes]
        assert all(shape.kind is kind for shape in shapes), (nbar, r)
        assert math.log10(sizes[0] / sizes[1]) == pytest.approx(
            exponent, abs=0.02), (nbar, r, sizes)


def test_criterion_6_wigner_integrity():
    rng = np.random.default_rng(20250809)

    # normalization by adaptive quadrature
    from test_wigner import adaptive_wigner_norm, random_state
    for _ in range(3):
        state = random_state(rng)
        assert abs(adaptive_wigner_norm(state) - 1.0) <= 1e-6

    # closed form against the Fock-space parity sum at 100 random points
    for _ in range(20):
        params = ModelParams(alpha_mag=rng.uniform(0.0, 1.5),
                             alpha_phase=rng.uniform(-math.pi, math.pi),
                             squeeze_mag=rng.uniform(0.02, 0.8),
                             squeeze_phase=rng.uniform(-math.pi, math.pi),
                             nbar=rng.uniform(0.0, 1.5))
        u = rng.uniform(0.0, 0.8)
        state = evolved_state(params, u)
        sig = math.sqrt((state.nbar + 0.5)
                        * math.exp(2.0 * state.eff_squeeze))
        for _ in range(5):
            beta = state.displacement + complex(rng.uniform(-1, 1),
                                                rng.uniform(-1, 1)) * sig
            closed = wigner_beta(state, beta)
            numeric, _ = fock.numeric_wigner(params, u, beta)
            assert abs(closed - numeric) / max(abs(closed), 1e-6) <= 1e-6

    # exponent-coefficient identity, read from the peak
    # W(A) = (2/pi) (4 a^2 b^2 - c^2)^{-1/2}, and positivity
    for _ in range(1000):
        state = random_state(rng)
        beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        det = (2.0 / (math.pi * wigner_beta(state, state.displacement))) ** 2
        assert det == pytest.approx(4.0 * (state.nbar + 0.5) ** 2, rel=1e-12)
        assert wigner_beta(state, beta) > 0.0
    _report(6, "normalization, Fock-space parity agreement at 100 points, "
               "coefficient identity and positivity")


def test_criterion_7_criteria_equivalence():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        nbar = rng.uniform(0.0, 2.0)
        r = rng.uniform(1e-3, 1.5)
        u = rng.uniform(0.0, 3.0)
        theta = rng.uniform(-math.pi, math.pi)
        assert squeezing_criterion(nbar, r, theta, 0.5 * theta, u) == \
            field_nonclassical(nbar, r, u)
    _report(7, "variance criterion at alignment matches the "
               "quasiprobability criterion at 1000 points")


def test_criterion_8_heisenberg_bound_and_snr():
    rng = np.random.default_rng(4321)
    for _ in range(1000):
        nbar = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.0, 1.5)
        theta = rng.uniform(-math.pi, math.pi)
        lam = rng.uniform(-math.pi, math.pi)
        u = rng.uniform(0.0, 3.0)
        floor = (nbar + 0.5) ** 2
        assert variance_product(nbar, r, theta, lam, u) >= floor * (1 - 1e-15)
        aligned = variance_product(nbar, r, theta, 0.5 * theta, u)
        assert aligned == pytest.approx(floor, rel=1e-12)
        assert floor >= 0.25

    for alpha_mag, r in ((0.3, 0.2), (1.1, 0.7), (2.0, 1.4)):
        params = ModelParams(alpha_mag=alpha_mag, squeeze_mag=r)
        assert snr_max(params, 0.0) == pytest.approx(
            4.0 * math.exp(2.0 * r) * alpha_mag ** 2, rel=1e-12)
    _report(8, "variance product bounded by (nbar+1/2)^2 with equality at "
               "alignment; zero-time SNR maximum is 4 e^{2r} |alpha|^2")


def test_criterion_9_limit_cases():
    assert mandel_q(EvolvedState(displacement=1.3 + 0j,
                                 eff_squeeze=0.0)) == pytest.approx(
        0.0, abs=1e-10)
    assert mandel_q(EvolvedState(displacement=0j, eff_squeeze=0.0,
                                 nbar=0.9)) == pytest.approx(0.9, abs=1e-10)

    nbar, alpha = 0.6, 0.7 - 0.4j
    state = EvolvedState(displacement=alpha, eff_squeeze=0.0, nbar=nbar)
    rng = np.random.default_rng(2)
    for _ in range(100):
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        reference = (math.exp(-abs(beta - alpha) ** 2 / (nbar + 0.5))
                     / (math.pi * (nbar + 0.5)))
        assert wigner_beta(state, beta) == pytest.approx(reference,
                                                         rel=1e-10)
    # variance criterion reference: no squeezing keeps every quadrature at
    # the coherent width
    assert quad_variance(0.0, 0.0, 0.0, 0.123, 0.0) == pytest.approx(
        0.5, abs=1e-15)
    _report(9, "coherent and thermal Mandel limits; zero-squeeze state is "
               "the displaced thermal Gaussian")
