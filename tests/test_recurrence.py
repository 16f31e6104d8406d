import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oscontrol import (
    ChainSpec,
    DefinitenessError,
    ModelDocument,
    QuadraticHamiltonian,
    RecurrenceQuery,
    build_chain,
    conditioning_bound,
    expm,
    find_recurrence,
    identity_distance,
    is_symplectic,
    mode_distance,
    symplectic_eigenvalues,
    symplectic_form,
    williamson_decompose,
)
from oracles import (
    outer_mode_distance,
    pairing_route_bound,
    random_positive_definite,
    scalar_refine,
)
from oscontrol import recurrence

TWO_PI = 2.0 * math.pi
MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_mode_distance_exact_period():
    assert mode_distance([1.0], TWO_PI) == pytest.approx(0.0, abs=1e-12)


def test_mode_distance_half_period():
    # |exp(-i pi) - 1| = 2, so the distance is sqrt(2 * 4) = 2 sqrt(2)
    assert mode_distance([1.0], math.pi) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_mode_distance_incommensurate_pair_against_complex_oracle():
    nu = [1.0, math.sqrt(2.0)]
    t = TWO_PI
    expected = math.sqrt(
        2.0 * sum(abs(np.exp(-1j * v * t) - 1.0) ** 2 for v in nu)
    )
    assert expected > 0.0  # sqrt(2) is irrational, mode 2 has not recurred
    assert mode_distance(nu, t) == pytest.approx(expected, abs=1e-12)


def test_mode_distance_vectorised_and_validated():
    ts = np.linspace(0.0, 10.0, 33)
    d = mode_distance([1.0, 2.0], ts)
    assert d.shape == ts.shape
    with pytest.raises(ValueError):
        mode_distance([], 1.0)
    with pytest.raises(ValueError):
        mode_distance([1.0, -2.0], 1.0)


def test_mode_distance_is_periodic_for_commensurate_frequencies():
    nu = [1.0, 2.0]
    ts = np.linspace(0.1, 20.0, 57)
    assert np.allclose(mode_distance(nu, ts + TWO_PI), mode_distance(nu, ts), atol=1e-9)


def test_conditioning_bound_identity_single_mode():
    assert conditioning_bound(QuadraticHamiltonian(1, np.eye(2))) == pytest.approx(2.0, abs=1e-12)


def test_conditioning_bound_explicit_two_by_two():
    # V = diag(sqrt(2), 1/sqrt(2)) composed with the unitary pairing
    K = conditioning_bound(QuadraticHamiltonian(1, np.diag([4.0, 1.0])))
    V = np.diag([math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    U = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)
    W = V @ U
    expected = np.linalg.norm(W) * np.linalg.norm(np.linalg.inv(W))
    assert K == pytest.approx(expected, abs=1e-12)


def test_conditioning_bound_matches_pairing_route():
    rng = np.random.default_rng(41)
    for i in range(20):
        n = 1 + i % 4
        H = QuadraticHamiltonian(n, random_positive_definite(rng, n, cond=100.0))
        assert conditioning_bound(H) == pytest.approx(
            pairing_route_bound(williamson_decompose(H).V), rel=1e-12
        )


def test_conditioning_bound_floor_under_congruence_scaling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = random_positive_definite(rng, n, cond=100.0)
        assert conditioning_bound(QuadraticHamiltonian(n, A)) >= 2 * n - 1e-9


def test_find_recurrence_identity_two_modes():
    H = QuadraticHamiltonian(2, np.eye(4))
    result = find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.1, min_time=1.0))
    assert result.found
    assert result.tau == pytest.approx(TWO_PI, abs=1e-6)
    assert result.achieved_distance < 1e-8
    assert result.tau > 1.0


def test_find_recurrence_incommensurate_within_horizon():
    A = np.diag([1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)])
    H = QuadraticHamiltonian(2, A)
    result = find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.5, min_time=10.0))
    assert result.found
    assert result.tau > 10.0
    assert result.achieved_distance < 0.5
    # post-hoc audit: never trust the search
    S = scipy.linalg.expm(-A @ symplectic_form(2) * result.tau)
    assert is_symplectic(S, 1e-9)
    assert identity_distance(S) == pytest.approx(result.achieved_distance, abs=1e-10)
    # the proof-chain inequality at the found time
    assert result.achieved_distance <= result.conditioning * result.mode_distance_at_tau + 1e-9


def test_find_recurrence_commensurate_lands_on_common_period():
    # frequencies 1 and 3/2 share the period 4 pi
    A = np.diag([1.0, 1.0, 1.5, 1.5])
    H = QuadraticHamiltonian(2, A)
    q = RecurrenceQuery(hamiltonian=H, epsilon=0.05, min_time=1.0)
    result = find_recurrence(q)
    grid_cell = (TWO_PI / 1.5) / q.grid_points_per_period
    assert result.found
    assert abs(result.tau - 2.0 * TWO_PI) <= grid_cell


def test_find_recurrence_rejects_indefinite():
    H = QuadraticHamiltonian(1, np.diag([0.0, 2.0]))
    with pytest.raises(DefinitenessError):
        find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.1))


def test_free_particle_distance_grows_linearly():
    # raw propagator of A = diag(0, 2): exp(-A Omega t) = [[1, 0], [2t, 1]]
    G = -np.diag([0.0, 2.0]) @ symplectic_form(1)
    for t in (0.5, 1.0, 10.0):
        assert identity_distance(expm(G, t)) == pytest.approx(2.0 * t, abs=1e-12)


def test_recurrence_query_validation():
    H = QuadraticHamiltonian(1, np.eye(2))
    with pytest.raises(ValueError):
        RecurrenceQuery(hamiltonian=H, epsilon=0.0)
    with pytest.raises(ValueError):
        RecurrenceQuery(hamiltonian=H, epsilon=0.1, min_time=-1.0)
    with pytest.raises(ValueError):
        RecurrenceQuery(hamiltonian=H, epsilon=0.1, min_time=5.0, max_time=4.0)
    with pytest.raises(ValueError):
        RecurrenceQuery(hamiltonian=H, epsilon=0.1, grid_points_per_period=4)


def test_proof_chain_inequality_on_sampled_times():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        A = random_positive_definite(rng, n, cond=50.0)
        H = QuadraticHamiltonian(n, A)
        nu = symplectic_eigenvalues(H)
        K = conditioning_bound(H)
        G = -A @ symplectic_form(n)
        for t in np.linspace(0.05, 25.0, 40):
            assert identity_distance(expm(G, t)) <= K * mode_distance(nu, t) + 1e-9


def test_hyperbolic_distance_escapes_monotonically():
    # an indefinite A has a real exponent: the distance to the identity only
    # grows, so no recurrence exists (criterion 6 pins the free particle)
    A = np.diag([1.0, -1.0])
    G = -A @ symplectic_form(1)
    dists = [identity_distance(expm(G, t)) for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
    # exp(-A Omega t) is orthogonally similar to diag(e^t, e^-t), so the
    # distance is sqrt((e^t - 1)^2 + (e^-t - 1)^2)
    assert dists[0] == pytest.approx(math.hypot(math.e - 1.0, 1.0 / math.e - 1.0), rel=1e-12)


def test_find_recurrence_terminates_at_large_times():
    # beyond t ~ 8e3 the float spacing exceeds the nominal refinement width;
    # the refiner must floor its target at the local ulp instead of spinning
    A = np.diag([1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)])
    H = QuadraticHamiltonian(2, A)
    result = find_recurrence(
        RecurrenceQuery(hamiltonian=H, epsilon=0.5, min_time=50000.0, max_time=80000.0)
    )
    assert result.found
    assert result.tau > 50000.0
    assert result.achieved_distance < 0.5


def test_find_recurrence_reports_honest_negative():
    # badly approximable pair at a tight epsilon with a short horizon
    A = np.diag([1.0, 1.0, GOLDEN, GOLDEN])
    H = QuadraticHamiltonian(2, A)
    result = find_recurrence(
        RecurrenceQuery(hamiltonian=H, epsilon=1e-6, min_time=1.0, max_time=200.0)
    )
    assert not result.found
    assert result.tau is None
    assert result.best_distance_seen > 0.0
    assert math.isfinite(result.best_distance_seen)


def test_negative_fallback_below_epsilon_is_found(monkeypatch):
    # no refined grid minimum of the n = 4 chain drift passes the filter
    # epsilon / K at epsilon = 0.3, but the one true distance evaluated at
    # the best of them is 0.085; that evaluation certifies a recurrence
    drift = build_chain(ChainSpec(n=4, g1=0.2, g2=0.2)).drift
    calls = _count_expm(monkeypatch)
    result = find_recurrence(RecurrenceQuery(hamiltonian=drift, epsilon=0.3))
    assert result.found
    assert calls == [result.tau]
    assert result.tau > 0.0
    assert result.mode_distance_at_tau * result.conditioning > 0.3  # not the bound's doing
    G = -np.asarray(drift.A) @ symplectic_form(4)
    reference = np.linalg.norm(scipy.linalg.expm(G * result.tau) - np.eye(8))
    assert result.achieved_distance < 0.3
    assert result.achieved_distance == pytest.approx(reference, rel=1e-6)
    assert result.best_distance_seen == result.achieved_distance


def _count_expm(monkeypatch) -> list:
    calls = []

    def counted(G, t=1.0):
        calls.append(t)
        return expm(G, t)

    monkeypatch.setattr("oscontrol.recurrence.expm", counted)
    return calls


def test_found_recurrence_costs_one_propagator_evaluation(monkeypatch):
    doc = ModelDocument.from_path(MODELS / "incommensurate_pair.json")
    H = doc.hamiltonian(doc.drift)
    calls = _count_expm(monkeypatch)
    result = find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.5))
    assert result.found
    assert calls == [result.tau]


def test_negative_result_costs_one_propagator_evaluation(monkeypatch):
    H = QuadraticHamiltonian(2, np.diag([1.0, 1.0, GOLDEN, GOLDEN]))
    calls = _count_expm(monkeypatch)
    result = find_recurrence(
        RecurrenceQuery(hamiltonian=H, epsilon=1e-6, min_time=1.0, max_time=200.0)
    )
    assert not result.found
    assert len(calls) == 1


def test_achieved_distance_matches_closed_form_at_large_times():
    # for diagonal A the propagator is the block rotation R(nu t), whose
    # distance from the identity is exactly mode_distance(nu, t)
    r2 = math.sqrt(2.0)
    H = QuadraticHamiltonian(2, np.diag([1.0, 1.0, r2, r2]))
    result = find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.5, min_time=5e4))
    assert result.found
    assert result.tau > 5e4
    assert result.achieved_distance == pytest.approx(mode_distance([1.0, r2], result.tau), abs=1e-9)


def test_mode_distance_matches_the_outer_product_oracle():
    # the kernel sums the modes in order; so does numpy's row sum below 8 modes
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        nu = rng.uniform(0.1, 5.0, n)
        ts = np.concatenate([rng.uniform(0.0, 1e5, 500), rng.uniform(0.0, 1e12, 100)])
        assert np.array_equal(mode_distance(nu, ts), outer_mode_distance(nu, ts))
        assert mode_distance(nu, float(ts[0])) == outer_mode_distance(nu, ts[:1])[0]


def _brackets(rng, nu):
    """Grid-cell brackets at small and large t, some clipped at a min_time."""
    h = (TWO_PI / max(nu)) / 16
    lo, hi = [], []
    for kind in ("plain", "clipped", "large") * 20:
        t = rng.uniform(1e7, 1e12) if kind == "large" else rng.uniform(0.0, 1e5)
        floor = rng.uniform(t - h, t) if kind == "clipped" else 0.0
        lo.append(max(t - h, floor))
        hi.append(t + h)
    return np.array(lo), np.array(hi)


def test_batched_refine_matches_the_scalar_refine_bit_for_bit():
    # every bracket of a batch must end where a refine of it alone ends,
    # each stopping at its own ulp-floored width; both evaluate one kernel
    rng = np.random.default_rng(29)
    checked = floored = 0
    for n in (1, 2, 3, 4):
        nu = tuple(rng.uniform(0.3, 3.0, n).tolist())
        lo, hi = _brackets(rng, nu)
        t_star, d_star = recurrence._refine(nu, lo, hi)

        def fun(t, nu=nu):
            return float(recurrence._mode_distance(nu, np.array([t]))[0])

        for i in range(len(lo)):
            assert (t_star[i], d_star[i]) == scalar_refine(fun, float(lo[i]), float(hi[i]))
            assert lo[i] <= t_star[i] <= hi[i]
            floored += 4.0 * np.spacing(hi[i]) > 1e-12
            checked += 1
    assert checked >= 200
    assert floored >= 60


def _count_grid_points(monkeypatch) -> list:
    sizes = []

    def counted(nu, t):
        sizes.append(np.size(t))
        return mode_distance(nu, t)

    monkeypatch.setattr("oscontrol.recurrence.mode_distance", counted)
    return sizes


def test_refine_does_not_count_as_grid_points(monkeypatch):
    # one chunk: the grid indices 0..n_points - 1 go through mode_distance once,
    # and the refine of the candidates calls the kernel directly
    H = QuadraticHamiltonian(2, np.eye(4))
    query = RecurrenceQuery(hamiltonian=H, epsilon=0.1, min_time=1.0, max_time=10.0)
    sizes = _count_grid_points(monkeypatch)
    result = find_recurrence(query)
    assert result.found
    assert result.tau == pytest.approx(TWO_PI, abs=1e-6)
    h = TWO_PI / query.grid_points_per_period
    n_points = math.floor((10.0 - 1.0) / h)
    assert sizes == [n_points]
    # a horizon of two grid points is scanned point by point, once
    sizes.clear()
    find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=0.1, min_time=1.0, max_time=1.0 + 2.5 * h))
    assert sizes == [2]


@pytest.mark.parametrize(
    "min_time,max_time,found",
    [
        (1.0, 1.1, False), (6.0, 6.2, True), (5.5, 6.2, True), (1.0, 6.2, True),
        (0.5, 3.0, False), (0.0, 3.0, False), (0.0, 0.3, False), (0.0, 0.9, False),
        (6.3, 7.0, False), (6.2, 7.0, True),
    ],
)
def test_a_short_horizon_is_searched_up_to_its_end_and_no_further(min_time, max_time, found):
    # a horizon shorter than one grid step (2 pi / 16), or a grid with no
    # interior minimum, once left best_distance_seen at inf; a refine at the
    # horizon's end once returned tau = 2 pi past max_time = 6.2. From
    # min_time = 0 or 6.3 the distance only rises, and a refine once slid
    # down to min_time and offered the start of the horizon as tau
    H = QuadraticHamiltonian(1, np.eye(2))
    query = RecurrenceQuery(hamiltonian=H, epsilon=0.5, min_time=min_time, max_time=max_time)
    result = find_recurrence(query)
    assert math.isfinite(result.best_distance_seen)
    assert result.found is found
    if found:
        assert min_time + 0.05 < result.tau <= max_time
        assert result.achieved_distance == result.best_distance_seen < 0.5
    else:
        assert result.tau is None
        assert result.best_distance_seen > 0.1


def test_grid_point_budget_stops_the_scan(monkeypatch):
    monkeypatch.setattr(recurrence, "GRID_POINT_BUDGET", 1000)
    H = QuadraticHamiltonian(2, np.diag([1.0, 1.0, GOLDEN, GOLDEN]))
    sizes = _count_grid_points(monkeypatch)
    result = find_recurrence(RecurrenceQuery(hamiltonian=H, epsilon=1e-6, min_time=1.0))
    assert not result.found
    assert result.budget_exhausted
    assert sum(sizes) == 1000
    assert math.isfinite(result.best_distance_seen)
    # a search inside the budget reaches its horizon, as before
    sizes.clear()
    within = find_recurrence(
        RecurrenceQuery(hamiltonian=H, epsilon=1e-6, min_time=1.0, max_time=200.0)
    )
    assert not within.found and not within.budget_exhausted
    assert 0 < sum(sizes) <= 1000


def test_refine_batches_do_not_change_the_answer(monkeypatch):
    # the first confirmed candidate lies past the first batch, so the
    # search runs a second, doubled batch; one candidate per batch and the
    # whole chunk in one batch must find the same tau and distances
    nu = [1.0, math.sqrt(2.0), math.sqrt(3.0)]
    H = QuadraticHamiltonian(3, np.diag(np.repeat(nu, 2)))
    query = RecurrenceQuery(hamiltonian=H, epsilon=0.5, min_time=1.0)
    refine = recurrence._refine
    sizes = []

    def counted(nu, lo, hi):
        sizes.append(len(lo))
        return refine(nu, lo, hi)

    monkeypatch.setattr(recurrence, "_refine", counted)
    result = find_recurrence(query)
    assert result.found
    assert sizes == [64, 128]
    for first in (1, 1 << 30):
        monkeypatch.setattr(recurrence, "_FIRST_BATCH", first)
        assert find_recurrence(query) == result
