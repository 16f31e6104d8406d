import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscontrol import (
    ChainSpec,
    QuadraticHamiltonian,
    build_chain,
    closure,
    contains,
    from_terms,
    full_dimension,
    generator,
    hop,
    number,
    squeeze,
)
from oscontrol.closure import PRIMES, _symmetric
from oracles import bracket_form, brute_force_closure_rank, brute_force_closure_rank_mod_p

# the package exports the function closure under the submodule's name
closure_module = importlib.import_module("oscontrol.closure")

G_GRID = (0.05, 0.1, 0.15, 0.2)


def _chain_seeds(n, g1, g2, omega=1.0, omega1=1.0, chi=1.0):
    model = build_chain(ChainSpec(n=n, omega=omega, g1=g1, g2=g2, omega1=omega1, chi=chi))
    return [model.drift, *model.controls]


def test_single_generator_closes_at_dimension_one():
    seed = from_terms(1, [number(1, 1.0)])
    sub = closure([seed])
    assert sub.dimension == 1


def test_number_and_squeeze_span_full_single_mode_algebra():
    seeds = [
        from_terms(1, [number(1, 1.0)], label="rot"),
        from_terms(1, [squeeze(1, 1.0)], label="sq"),
    ]
    sub = closure(seeds)
    assert sub.dimension == full_dimension(1) == 3
    # brute-force oracle over the 3-dimensional ambient space
    assert brute_force_closure_rank([generator(s) for s in seeds]) == 3


@pytest.mark.parametrize("n,expected", [(2, 10), (3, 21)])
def test_chain_closure_dimension_with_gram_oracle(n, expected):
    seeds = _chain_seeds(n, 0.2, 0.2)
    sub = closure(seeds)
    assert sub.dimension == expected == full_dimension(n)
    assert brute_force_closure_rank([generator(s) for s in seeds]) == expected
    # the produced basis is in reduced echelon form, so its rank is its row count
    assert np.array_equal(sub.echelon[:, sub.pivots], np.eye(expected))


def test_rank_criterion_reports():
    sub_full = closure(
        [
            from_terms(1, [number(1, 1.0)]),
            from_terms(1, [squeeze(1, 1.0)]),
        ]
    )
    assert sub_full.full_rank
    assert (sub_full.dimension, full_dimension(sub_full.n)) == (3, 3)

    sub_single = closure([from_terms(1, [number(1, 1.0)])])
    assert not sub_single.full_rank
    assert (sub_single.dimension, full_dimension(sub_single.n)) == (1, 3)


def test_rank_criterion_chain_n3():
    sub = closure(_chain_seeds(3, 0.2, 0.2))
    assert sub.full_rank
    assert sub.dimension == full_dimension(3) == 21


@pytest.mark.parametrize("g", [0.1, 0.2])
def test_chain_closure_full_rank_across_sizes(g):
    for n in range(2, 7):
        sub = closure(_chain_seeds(n, g, g))
        assert sub.dimension == full_dimension(n)
        # each round admits an element or ends the closure: it needs no budget
        assert sub.bracket_depth_reached <= full_dimension(n)


def test_contains_basis_elements_and_orthogonal_directions():
    rot = from_terms(1, [number(1, 1.0)])
    sq = from_terms(1, [squeeze(1, 1.0)])
    sub = closure([rot])
    assert contains(sub, rot)
    assert contains(sub, QuadraticHamiltonian(1, -0.375 * rot.A))
    assert not contains(sub, sq)


def test_contains_rejects_dimension_mismatch():
    sub = closure([from_terms(1, [number(1, 1.0)])])
    with pytest.raises(ValueError):
        contains(sub, from_terms(2, [number(1, 1.0)]))


def test_passive_restriction_contains_distant_beam_splitter():
    # rotating-wave chain (g2 = 0) with the rotation control only: the
    # reachable set stays passive but connects non-adjacent sites
    n = 3
    model = build_chain(ChainSpec(n=n, g1=0.2, g2=0.0))
    sub = closure([model.drift, model.controls[0]])
    assert sub.passive
    assert sub.dimension <= n * n
    bs_13 = from_terms(n, [hop(1, 3, 1.0)], label="bs13")
    assert contains(sub, bs_13)


@pytest.mark.parametrize("n", range(3, 11))
def test_passive_chain_reaches_n_squared(n):
    # rotation control only with g2 = 0: the whole passive algebra u(n)
    model = build_chain(ChainSpec(n=n, g1=0.2, g2=0.0))
    sub = closure([model.drift, model.controls[0]])
    assert sub.dimension == n * n
    assert sub.passive


def _count_close_calls(monkeypatch, seeds):
    calls = []
    inner = closure_module._close

    def counted(*args, **kwargs):
        calls.append(args[2])  # the prime
        return inner(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(closure_module, "_close", counted)
        sub = closure(seeds)
    return sub, calls


@pytest.mark.parametrize("n", [10, 16])
def test_passive_closure_at_n_squared_is_not_rerun(monkeypatch, n):
    # a passive algebra lies in u(n), so no second prime can exceed n^2
    model = build_chain(ChainSpec(n=n, g1=0.2, g2=0.0))
    sub, calls = _count_close_calls(monkeypatch, [model.drift, model.controls[0]])
    assert sub.passive and sub.dimension == n * n
    assert calls == [PRIMES[0]]


def test_passive_closure_short_of_n_squared_is_rerun(monkeypatch):
    # two commuting rotations span 2 < n^2 = 4, so the second prime is tried
    rotations = [from_terms(2, [number(j, 1.0)]) for j in (1, 2)]
    sub, calls = _count_close_calls(monkeypatch, rotations)
    assert sub.passive and sub.dimension == 2
    assert calls == list(PRIMES)


def test_passivity_check_examples():
    # passivity is read off the seeds: u(n) is a subalgebra, so the closure
    # is passive exactly when every seed commutes with Omega
    rotations = [from_terms(2, [number(j, 1.0)]) for j in (1, 2)]
    assert closure(rotations).passive

    full = closure(
        [
            from_terms(1, [number(1, 1.0)]),
            from_terms(1, [squeeze(1, 1.0)]),
        ]
    )
    assert not full.passive
    # one squeeze among passive seeds makes the whole algebra active
    assert not closure([rotations[0], from_terms(2, [squeeze(2, 1e-300)])]).passive


def test_closure_basis_stays_in_sp():
    # a coordinate vector holds the upper triangle of a symmetric A, so every
    # basis element is some G = -A Omega in sp(2n, R); the rows are residues
    # mod the prime, centred
    sub = closure(_chain_seeds(3, 0.2, 0.2))
    assert sub.echelon.shape == (sub.dimension, full_dimension(3))
    assert np.array_equal(sub.echelon, np.rint(sub.echelon))
    assert np.max(np.abs(sub.echelon)) <= (sub.prime + 1) // 2


def test_closure_dimension_never_exceeds_full():
    for n in (1, 2, 3, 4):
        sub = closure(_chain_seeds(n, 0.2, 0.2))
        assert sub.dimension <= full_dimension(n)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
# draws that closed at 19 of 21 when candidates were taken in (basis, seed) order
@example(seed=151, n=3)
@example(seed=25630, n=3)
@example(seed=125576043, n=3)
def test_closure_invariant_under_seed_recombination(seed, n):
    rng = np.random.default_rng(seed)
    seeds = _chain_seeds(n, 0.2, 0.2)
    base_dim = closure(seeds).dimension
    while True:
        W = rng.uniform(-1.0, 1.0, size=(3, 3))
        if abs(np.linalg.det(W)) > 0.1:  # keep the recombination well conditioned
            break
    mixed = [
        QuadraticHamiltonian(n, sum(W[i, j] * seeds[j].A for j in range(3)), label=f"mix{i}")
        for i in range(3)
    ]
    assert closure(mixed).dimension == base_dim


def test_zero_seeds_close_at_dimension_zero():
    # a zero Hamiltonian generates nothing; this once raised from an empty
    # frontier
    zero = QuadraticHamiltonian(2, np.zeros((4, 4)))
    sub = closure([zero, zero])
    assert (sub.dimension, sub.bracket_depth_reached) == (0, 0)
    assert sub.passive
    assert contains(sub, zero)
    assert not contains(sub, from_terms(2, [number(1, 1.0)]))


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([])
    mixed = [from_terms(1, [number(1, 1.0)]), from_terms(2, [number(1, 1.0)])]
    with pytest.raises(ValueError):
        closure(mixed)


def test_closure_is_deterministic():
    seeds = _chain_seeds(3, 0.2, 0.2)
    a = closure(seeds)
    b = closure(seeds)
    assert a.dimension == b.dimension
    assert np.array_equal(a.pivots, b.pivots)
    assert np.array_equal(a.echelon, b.echelon)
    assert a.sources == b.sources


def _integer_multiple(M):
    """M times the largest denominator of its entries, a power of two."""
    scaled = M * float(max(float(v).as_integer_ratio()[1] for v in np.ravel(M)))
    assert np.array_equal(scaled, np.rint(scaled))
    return scaled


@pytest.mark.parametrize("g", G_GRID)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_dimension_matches_exact_modular_oracle(n, g):
    # a float64 is m 2^e, so 2^k G is an integer matrix spanning the same
    # line as G, exactly; the float oracle at its default rtol finds 35 at
    # n = 4, g = 0.05, where the exact count is 36
    seeds = _chain_seeds(n, g, g)
    integer_seeds = [_integer_multiple(generator(s)) for s in seeds]
    exact = brute_force_closure_rank_mod_p(integer_seeds)
    assert closure(seeds).dimension == exact == full_dimension(n)


@pytest.mark.parametrize("g", G_GRID)
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_single_seed_closes_at_dimension_one(n, g):
    # [H0 / ||H0||, H0] is zero; in floating point it is rounding noise, which
    # must not be normalised into a basis direction (it once gave 5 at n = 3)
    drift = _chain_seeds(n, g, g)[0]
    sub = closure([drift])
    assert sub.dimension == 1
    assert sub.candidates == 2  # the seed and its bracket with itself, exactly zero
    assert sub.prime == PRIMES[0]  # the retry with the second prime found no more


@pytest.mark.parametrize("n,g", [(2, 0.2), (4, 0.05), (6, 0.2)])
def test_basis_elements_are_in_sp_and_contained(n, g):
    seeds = _chain_seeds(n, g, g)
    sub = closure(seeds)
    assert sub.pivots.shape == (sub.dimension,)
    assert sub.echelon.shape == (sub.dimension, n * (2 * n + 1))
    assert np.array_equal(sub.echelon[:, sub.pivots], np.eye(sub.dimension))
    for H in seeds:
        assert contains(sub, H)
    # brackets of basis elements stay inside: the span is closed
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        bracket = bracket_form(seeds[a].A, seeds[b].A)
        assert contains(sub, QuadraticHamiltonian(n, bracket))


def test_contains_is_exact():
    # membership mod p has no tolerance: a hop 1e-8 the size of the rotation
    # is outside the rotation's line, and an exact multiple is inside
    rot = from_terms(2, [number(1, 1.0)])
    sub = closure([rot])
    off = from_terms(2, [hop(1, 2, 1e-8)])
    assert not contains(sub, QuadraticHamiltonian(2, rot.A + off.A))
    assert contains(sub, QuadraticHamiltonian(2, 3.0 * rot.A))
    assert contains(sub, QuadraticHamiltonian(2, np.zeros((4, 4))))


def test_closure_certificate_recorded():
    sub = closure(_chain_seeds(3, 0.2, 0.2))
    assert sub.prime == PRIMES[0]
    assert sub.full_rank
    # seeds, then three brackets for each element accepted before full rank
    assert sub.dimension < sub.candidates <= 3 + 3 * sub.dimension


def test_unlucky_prime_is_retried_with_the_second(monkeypatch):
    # 1048573 squeeze(1) is zero mod the first prime, not mod the second
    seeds = [
        from_terms(1, [number(1, 1.0)]),
        from_terms(1, [squeeze(1, float(PRIMES[0]))]),
    ]
    with monkeypatch.context() as m:
        m.setattr(closure_module, "PRIMES", PRIMES[:1])
        first = closure(seeds)
    assert (first.dimension, first.prime) == (1, PRIMES[0])
    sub = closure(seeds)
    assert sub.dimension == 3
    assert sub.prime == PRIMES[1]
    assert sub.full_rank


def test_exactness_guard_rejects_n_beyond_127():
    # n(2n+1) ((p + 1)/2)^2 must stay below 2^53 for every product to be exact
    with pytest.raises(ValueError, match="n <= 127"):
        closure([from_terms(128, [number(1, 1.0)])])



def test_symmetric_passes_an_exactly_symmetric_matrix_through_unchanged():
    # 0.5 * (A + A^T) once overflowed at 1e308; 0.5 * A + 0.5 * A^T would
    # flush 5e-324 to zero
    A = np.array([[1e308, 5e-324, 0.0, -1.7e308],
                  [5e-324, -1e308, 0.3, 0.0],
                  [0.0, 0.3, 5e-324, 1.0],
                  [-1.7e308, 0.0, 1.0, 2.0]])
    out = _symmetric(QuadraticHamiltonian(2, A))
    assert out.tobytes() == A.tobytes()


def test_symmetric_averages_a_rounding_level_asymmetry():
    A = np.array([[1.0, 0.3], [0.3 + 2e-16, 2.0]])
    out = _symmetric(QuadraticHamiltonian(1, A))
    assert out[0, 1] == out[1, 0] == 0.5 * (0.3 + (0.3 + 2e-16))
    assert out[0, 0] == 1.0 and out[1, 1] == 2.0


def test_closure_of_an_entry_near_the_largest_double():
    # once an OverflowError from _residue, after A + A^T overflowed to inf
    big = QuadraticHamiltonian(1, np.diag([1e308, 1.0]), label="H0")
    sub = closure([big, from_terms(1, [squeeze(1, 1.0)], label="H1")])
    assert sub.dimension == 3 and sub.full_rank
