"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import itertools
import math
import time

import numpy as np

from oscontrol import (
    ChainSpec,
    ControlModel,
    ControlSchedule,
    CovarianceState,
    QuadraticHamiltonian,
    RecurrenceQuery,
    audit_symplecticity,
    build_chain,
    closure,
    controllability_report,
    evolve_covariance,
    expm,
    find_recurrence,
    full_dimension,
    identity_distance,
    is_symplectic,
    mode_distance,
    propagate,
    spectrum_certificate,
    symplectic_eigenvalues,
    symplectic_form,
    verify_bracket_identities,
    williamson_decompose,
)
from oscontrol.chain import IDENTITY_NAMES
from oracles import random_positive_definite, random_symmetric

TWO_PI = 2.0 * math.pi


def _criterion(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sample_matrices():
    """The shared 200-sample set for the spectral and Williamson criteria."""
    rng = np.random.default_rng(20260810)
    samples = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cond = float(rng.uniform(1.5, 1e3))
        samples.append((n, random_positive_definite(rng, n, cond=cond)))
    return samples


SAMPLES = _sample_matrices()


def test_criterion_1_chain_controllability_dimensions():
    started = time.perf_counter()
    expected = {2: 10, 3: 21, 4: 36, 5: 55, 6: 78}
    dims = {}
    for n in range(2, 7):
        model = build_chain(ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.2))
        sub = closure([model.drift, *model.controls])
        dims[n] = sub.dimension
    elapsed = time.perf_counter() - started
    ok = dims == expected and all(dims[n] == full_dimension(n) for n in dims) and elapsed < 60.0
    _criterion(1, ok, f"closure dimensions {dims} (expected {expected}) in {elapsed:.2f}s")


def test_criterion_2_identity_suite_with_mutations():
    held = True
    for g in (0.1, 0.2, 0.4):
        for omega1 in (0.5, 1.0, 2.0):
            for chi in (0.5, 1.0, 2.0):
                spec = ChainSpec(n=3, omega=1.0, g1=g, g2=g, omega1=omega1, chi=chi)
                report = verify_bracket_identities(spec)
                held = held and report.all_pass and all(r.holds is True for r in report.records)
                if not report.all_pass:
                    _criterion(2, False, f"identities failed at g={g}, omega1={omega1}, chi={chi}")
    caught = 0
    canonical = ChainSpec(n=3, omega=1.0, g1=0.2, g2=0.2)
    for name in IDENTITY_NAMES:
        report = verify_bracket_identities(canonical, mutate={name: 1.01})
        record = next(r for r in report.records if r.name == name)
        caught += record.holds is False and not report.all_pass
    ok = held and caught == len(IDENTITY_NAMES)
    _criterion(
        2, ok,
        f"12 identities hold exactly mod {report.prime} over 27 parameter points; "
        f"{caught} of {len(IDENTITY_NAMES)} 1% mutations break their identity",
    )


def test_criterion_3_spectral_fact():
    worst_real = 0.0
    all_diag = True
    for n, A in SAMPLES:
        cert = spectrum_certificate(QuadraticHamiltonian(n, A))
        worst_real = max(worst_real, cert.max_real_part)
        all_diag = all_diag and cert.diagonalizable
    ok = worst_real < 1e-9 and all_diag
    _criterion(
        3, ok,
        f"200 positive-definite samples: max |Re eig(A Omega)| = {worst_real:.2e} < 1e-9, "
        f"all diagonalizable = {all_diag}",
    )


def test_criterion_4_williamson_round_trip():
    worst_resid = 0.0
    worst_sympl = True
    worst_nu_gap = 0.0
    for n, A in SAMPLES:
        H = QuadraticHamiltonian(n, A)
        dec = williamson_decompose(H)
        worst_resid = max(worst_resid, dec.residual / np.linalg.norm(A))
        worst_sympl = worst_sympl and is_symplectic(dec.V, 1e-8)
        worst_nu_gap = max(worst_nu_gap, float(np.max(np.abs(dec.nu - symplectic_eigenvalues(H)))))
    analytic = []
    for a, b in ((4.0, 1.0), (2.0, 0.5), (7.3, 0.9)):
        nu = williamson_decompose(QuadraticHamiltonian(1, np.diag([a, b]))).nu[0]
        analytic.append(abs(nu - math.sqrt(a * b)))
    ok = worst_resid <= 1e-8 and worst_sympl and worst_nu_gap <= 1e-8 and max(analytic) <= 1e-12
    _criterion(
        4, ok,
        f"200 samples: relative residual {worst_resid:.2e} <= 1e-8, V symplectic to 1e-8, "
        f"nu agreement {worst_nu_gap:.2e} <= 1e-8; diag(a,b) case off by {max(analytic):.2e} <= 1e-12",
    )


def test_criterion_5_recurrence():
    tau_err = 0.0
    dist_worst = 0.0
    for n in (1, 2, 3):
        H = QuadraticHamiltonian(n, np.eye(2 * n))
        res = find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.1, min_time=1.0))
        assert res.found
        tau_err = max(tau_err, abs(res.tau - TWO_PI))
        dist_worst = max(dist_worst, res.achieved_distance)

    A = np.diag([1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)])
    H2 = QuadraticHamiltonian(2, A)
    res2 = find_recurrence(
        RecurrenceQuery(hamiltonian=H2, epsilon=0.5, min_time=10.0, max_time=1e5 * TWO_PI)
    )

    nu = symplectic_eigenvalues(H2)
    K = res2.conditioning  # the K the search filtered with
    G = -A @ symplectic_form(2)
    chain_ok = all(
        identity_distance(expm(G, t)) <= K * mode_distance(nu, t) + 1e-9
        for t in np.linspace(0.05, 60.0, 200)
    )
    ok = tau_err <= 1e-6 and dist_worst < 1e-8 and res2.found and chain_ok
    _criterion(
        5, ok,
        f"identity recurrence tau within {tau_err:.2e} of 2pi (<= 1e-6), distance {dist_worst:.2e} < 1e-8; "
        f"incommensurate pair found tau = {res2.tau:.4f} within horizon; proof-chain inequality held "
        f"at 200 sampled times to 1e-9",
    )


def test_criterion_6_free_particle_never_recurs():
    A = np.diag([0.0, 2.0])
    G = -A @ symplectic_form(1)
    gaps = [abs(identity_distance(expm(G, t)) - 2.0 * t) for t in (1.0, 10.0, 100.0)]
    # any grid bounded away from zero keeps the distance at least 2 * t_min
    t_min = 0.37
    grid_min = min(identity_distance(expm(G, t)) for t in np.linspace(t_min, 50.0, 500))
    ok = max(gaps) <= 1e-12 and grid_min >= 2.0 * t_min - 1e-12
    _criterion(
        6, ok,
        f"free-particle distance equals 2t to {max(gaps):.2e} (<= 1e-12) at t in (1, 10, 100); "
        f"grid minimum {grid_min:.6f} >= 2 t_min = {2 * t_min:.6f}",
    )


def test_criterion_7_positive_triple():
    # the fixed triple {H0, H0 + N_1, H0 + N_1 + S_1 / 2}, N_1 = H1 / omega1 and
    # S_1 = H2 / chi, at the canonical controls and at controls of other signs
    checked = 0
    for n, omega1, chi in itertools.product((2, 3, 4), (1.0, -0.5), (1.0, 3.0)):
        spec = ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.2, omega1=omega1, chi=chi)
        rep = controllability_report(spec)
        assert rep.triple_message is None and rep.positivity.actual
        assert rep.verdict == "CONTROLLABLE"
        # the triple members, built here: each positive definite, and their
        # closure is the raw controls' closure that the report decided on
        model = build_chain(spec)
        H0, H1, H2 = (H.A for H in (model.drift, *model.controls))
        N1, S1 = H1 / omega1, H2 / chi
        triple = [H0, H0 + N1, H0 + N1 + S1 / 2]
        assert all(np.linalg.eigvalsh(A)[0] > 0.0 for A in triple)
        mixed = closure([QuadraticHamiltonian(n, A) for A in triple])
        assert rep.rank.dimension == mixed.dimension == full_dimension(n)
        checked += 1
    _criterion(
        7, checked == 12,
        f"fixed triple positive definite, closure dimension n(2n+1), for {checked}/12 "
        f"chains (n = 2..4, omega1 in (1, -0.5), chi in (1, 3))",
    )


def test_criterion_8_passive_restriction():
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        model = build_chain(ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.0))
        seeds = [model.drift, model.controls[0]]
        sub = closure(seeds)
        omega = symplectic_form(n)
        # the seeds' generators commute with Omega exactly, so every bracket does
        commute = max(
            float(np.linalg.norm(G @ omega - omega @ G))
            for G in (-H.A @ omega for H in seeds)
        )
        ok = ok and sub.passive and commute == 0.0 and sub.dimension == n * n
        details.append(f"n={n}: dim {sub.dimension} == {n * n}, seed commutation defect {commute:.1e}")
    _criterion(8, ok, "; ".join(details))


def test_criterion_9_evolution_audits():
    rng = np.random.default_rng(1729)
    n, m = 3, 2
    worst_audit = 0.0
    worst_concat = 0.0
    worst_nu = 0.0
    sigma = np.diag([3.0, 3.0, 0.5, 0.5, 1.2, 1.2])
    nu_before = symplectic_eigenvalues(sigma)
    for _ in range(100):
        drift = QuadraticHamiltonian(n, random_symmetric(rng, 2 * n, scale=0.5))
        controls = tuple(
            QuadraticHamiltonian(n, random_symmetric(rng, 2 * n, scale=0.5)) for _ in range(m)
        )
        model = ControlModel(drift=drift, controls=controls)
        segments = [
            (float(rng.uniform(0.01, 0.25)), tuple(rng.uniform(-1.0, 1.0, size=m)))
            for _ in range(20)
        ]
        schedule = ControlSchedule.from_pairs(segments)
        S = propagate(model, schedule)
        worst_audit = max(worst_audit, audit_symplecticity(S))
        first = ControlSchedule.from_pairs(segments[:11])
        second = ControlSchedule.from_pairs(segments[11:])
        S_cat = propagate(model, second) @ propagate(model, first)
        worst_concat = max(worst_concat, float(np.linalg.norm(S - S_cat)))
        nu_after = symplectic_eigenvalues(evolve_covariance(CovarianceState(sigma), S).sigma)
        worst_nu = max(worst_nu, float(np.max(np.abs(nu_after - nu_before))))
    ok = worst_audit < 1e-9 and worst_concat <= 1e-10 and worst_nu <= 1e-7
    _criterion(
        9, ok,
        f"100 random 20-segment schedules: audit {worst_audit:.2e} < 1e-9, "
        f"concatenation {worst_concat:.2e} <= 1e-10, nu drift {worst_nu:.2e} <= 1e-7",
    )
