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
    passivity_check,
    squeeze,
)
from oracles import brute_force_closure_rank, brute_force_closure_rank_mod_p, gram_rank

G_GRID = (0.05, 0.1, 0.15, 0.2)


def _chain_seeds(n, g1, g2, omega=1.0, omega1=1.0, chi=1.0):
    model = build_chain(ChainSpec(n=n, omega=omega, g1=g1, g2=g2, omega1=omega1, chi=chi))
    return [model.drift, *model.controls]


def test_single_generator_closes_at_dimension_one():
    seed = from_terms(1, [number(1, 1.0)])
    sub = closure([seed])
    assert sub.dimension == 1
    assert sub.closed


def test_number_and_squeeze_span_full_single_mode_algebra():
    seeds = [
        from_terms(1, [number(1, 1.0)], label="rot"),
        from_terms(1, [squeeze(1, 1.0)], label="sq"),
    ]
    sub = closure(seeds)
    assert sub.dimension == full_dimension(1) == 3
    assert sub.closed
    # brute-force oracle over the 3-dimensional ambient space
    assert brute_force_closure_rank([generator(s) for s in seeds]) == 3


@pytest.mark.parametrize("n,expected", [(2, 10), (3, 21)])
def test_chain_closure_dimension_with_gram_oracle(n, expected):
    seeds = _chain_seeds(n, 0.2, 0.2)
    sub = closure(seeds)
    assert sub.dimension == expected == full_dimension(n)
    assert sub.closed
    assert brute_force_closure_rank([generator(s) for s in seeds]) == expected
    # the produced basis itself has full SVD rank
    assert gram_rank(sub.matrices) == expected


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
        assert sub.closed


def test_contains_basis_elements_and_orthogonal_directions():
    rot = from_terms(1, [number(1, 1.0)])
    sq = from_terms(1, [squeeze(1, 1.0)])
    sub = closure([rot])
    assert contains(sub, rot)
    assert contains(sub, QuadraticHamiltonian(1, sub.matrices[0]))
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
    assert passivity_check(sub, tol=1e-9)
    assert sub.dimension <= n * n
    bs_13 = from_terms(n, [hop(1, 3, 1.0)], label="bs13")
    assert contains(sub, bs_13, tol=1e-9)


@pytest.mark.parametrize("n", range(3, 11))
def test_passive_chain_reaches_n_squared(n):
    # rotation control only with g2 = 0: the whole passive algebra u(n)
    model = build_chain(ChainSpec(n=n, g1=0.2, g2=0.0))
    sub = closure([model.drift, model.controls[0]])
    assert sub.dimension == n * n
    assert passivity_check(sub, tol=1e-9)


def test_passivity_check_examples():
    rotations = [from_terms(2, [number(j, 1.0)]) for j in (1, 2)]
    assert passivity_check(closure(rotations))

    full = closure(
        [
            from_terms(1, [number(1, 1.0)]),
            from_terms(1, [squeeze(1, 1.0)]),
        ]
    )
    assert not passivity_check(full)


def test_closure_basis_stays_in_sp():
    # G = -A Omega is in sp(2n, R) exactly when A is symmetric, and the
    # basis matrices are brackets P + P^T, symmetric with no rounding
    sub = closure(_chain_seeds(3, 0.2, 0.2))
    for A in sub.matrices:
        assert np.array_equal(A, A.T)


def test_closure_dimension_never_exceeds_full():
    for n in (1, 2, 3, 4):
        sub = closure(_chain_seeds(n, 0.2, 0.2))
        assert sub.dimension <= full_dimension(n)


def test_orthonormal_vectors_are_orthonormal():
    sub = closure(_chain_seeds(2, 0.2, 0.2))
    Q = sub.orthonormal_vectors
    assert np.linalg.norm(Q @ Q.T - np.eye(sub.dimension)) <= 1e-10


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


def test_closure_tolerance_stable_over_a_decade():
    seeds = _chain_seeds(3, 0.2, 0.2)
    assert closure(seeds, tol=1e-9).dimension == closure(seeds, tol=1e-10).dimension


def test_closure_max_rounds_exhaustion_is_flagged_not_raised():
    seeds = _chain_seeds(3, 0.2, 0.2)
    sub = closure(seeds, max_rounds=1)
    assert not sub.closed
    assert sub.dimension < full_dimension(3)
    assert sub.bracket_depth_reached == 1


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure(_chain_seeds(2, 0.2, 0.2), tol=-1.0)
    mixed = [from_terms(1, [number(1, 1.0)]), from_terms(2, [number(1, 1.0)])]
    with pytest.raises(ValueError):
        closure(mixed)


def test_closure_is_deterministic():
    seeds = _chain_seeds(3, 0.2, 0.2)
    a = closure(seeds)
    b = closure(seeds)
    assert a.dimension == b.dimension
    assert np.array_equal(a.orthonormal_vectors, b.orthonormal_vectors)
    assert np.array_equal(a.matrices, b.matrices)
    assert a.sources == b.sources


@pytest.mark.parametrize("g", G_GRID)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_dimension_matches_exact_modular_oracle(n, g):
    # every g on the grid is k/20, so 20 G is an integer matrix spanning the
    # same line; the float oracle at its default rtol finds 35 at n = 4,
    # g = 0.05, where the exact count is 36
    seeds = _chain_seeds(n, g, g)
    integer_seeds = [np.rint(20.0 * generator(s)) for s in seeds]
    for s, M in zip(seeds, integer_seeds):
        assert np.allclose(20.0 * generator(s), M, rtol=0.0, atol=1e-12)
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
    assert sub.closed
    assert sub.rank_gap is None


@pytest.mark.parametrize("n,g", [(2, 0.2), (4, 0.05), (6, 0.2)])
def test_basis_elements_are_in_sp_and_contained(n, g):
    sub = closure(_chain_seeds(n, g, g))
    assert sub.orthonormal_vectors.shape == (sub.dimension, n * (2 * n + 1))
    assert sub.matrices.shape == (sub.dimension, 2 * n, 2 * n)
    for A in sub.matrices:
        assert np.array_equal(A, A.T)
        assert contains(sub, QuadraticHamiltonian(n, A))


def test_contains_uses_frobenius_geometry():
    # the off-diagonal coordinates carry sqrt(2): a generator at relative
    # distance d from the span has residual d, whatever entries it touches
    rot = from_terms(2, [number(1, 1.0)])
    sub = closure([rot])
    off = from_terms(2, [hop(1, 2, 1e-8)])
    mixed = QuadraticHamiltonian(2, rot.A + off.A)
    # ||A||_F = ||G||_F, so the relative distance is the same for either
    rel = np.linalg.norm(off.A) / np.linalg.norm(mixed.A)
    assert not contains(sub, mixed, tol=0.99 * rel)
    assert contains(sub, mixed, tol=1.01 * rel)


def test_closure_margins_recorded():
    sub = closure(_chain_seeds(3, 0.2, 0.2))
    assert sub.min_accepted_residual is not None
    assert sub.tol < sub.min_accepted_residual <= 1.0
    assert sub.rank_gap is not None and sub.rank_gap > 1.0
    # a rejected candidate sits at or below tol, so the gap is at least
    # min_accepted / tol
    assert sub.rank_gap >= sub.min_accepted_residual / sub.tol
