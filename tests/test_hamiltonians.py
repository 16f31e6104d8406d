import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscontrol import (
    QuadraticHamiltonian,
    commutator,
    from_terms,
    generator,
    generic,
    hop,
    number,
    pair,
    squeeze,
    symplectic_form,
)
from oscontrol.hamiltonians import SYMMETRY_TOL
from oracles import (
    bracket_form, expand_hop, expand_number, expand_pair, expand_squeeze, random_symmetric,
)


def test_number_term_single_mode():
    omega = 1.7
    H = from_terms(1, [number(1, omega)])
    assert np.array_equal(H.A, np.diag([omega, omega]))


def test_squeeze_term_single_mode():
    chi = 0.4
    H = from_terms(1, [squeeze(1, chi)])
    assert np.array_equal(H.A, np.diag([2 * chi, -2 * chi]))


def test_hop_term_two_modes_against_expansion():
    g = 0.3
    H = from_terms(2, [hop(1, 2, g)])
    expected = np.zeros((4, 4))
    expected[:2, 2:] = g * np.eye(2)
    expected[2:, :2] = g * np.eye(2)
    assert np.array_equal(H.A, expected)
    assert np.allclose(H.A, expand_hop(2, 1, 2, g), atol=1e-15)


def test_pair_term_against_expansion():
    g = 0.25
    H = from_terms(3, [pair(2, 3, g)])
    assert np.allclose(H.A, expand_pair(3, 2, 3, g), atol=1e-15)


def test_number_and_squeeze_against_expansion():
    assert np.allclose(from_terms(2, [number(2, 1.3)]).A, expand_number(2, 2, 1.3), atol=1e-15)
    assert np.allclose(from_terms(2, [squeeze(1, 0.7)]).A, expand_squeeze(2, 1, 0.7), atol=1e-15)


def test_generic_fragment_added_verbatim():
    frag = np.diag([1.0, 2.0])
    H = from_terms(1, [generic(frag), number(1, 1.0)])
    assert np.array_equal(H.A, frag + np.eye(2))


def test_from_terms_index_errors():
    with pytest.raises(ValueError):
        from_terms(2, [number(3, 1.0)])
    with pytest.raises(ValueError):
        from_terms(2, [hop(1, 5, 1.0)])
    with pytest.raises(ValueError):
        hop(1, 1, 1.0)
    with pytest.raises(ValueError):
        pair(2, 2, 1.0)


def test_from_terms_always_symmetric():
    H = from_terms(3, [number(1, 1.0), hop(1, 3, 0.5), pair(2, 3, -0.2), squeeze(2, 0.9)])
    assert np.array_equal(H.A, H.A.T)


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(list(range(4))))
def test_from_terms_order_independent(perm):
    terms = [number(1, 0.9), hop(1, 2, 0.3), pair(1, 2, -0.4), squeeze(2, 1.1)]
    base = from_terms(2, terms).A
    shuffled = from_terms(2, [terms[i] for i in perm]).A
    assert np.array_equal(base, shuffled)


def test_quadratic_hamiltonian_validation():
    with pytest.raises(ValueError):
        QuadraticHamiltonian(1, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        QuadraticHamiltonian(2, np.eye(2))  # wrong shape
    with pytest.raises(ValueError):
        QuadraticHamiltonian(1, np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_generator_of_identity_hamiltonian():
    H = QuadraticHamiltonian(1, np.eye(2))
    assert np.array_equal(generator(H), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_generator_of_free_particle():
    # H = p^2 has A = diag(0, 2); its generator is the nilpotent shear
    H = QuadraticHamiltonian(1, np.diag([0.0, 2.0]))
    assert np.array_equal(generator(H), np.array([[0.0, 0.0], [2.0, 0.0]]))


def test_generator_of_squeeze():
    chi = 0.8
    H = from_terms(1, [squeeze(1, chi)])
    assert np.array_equal(generator(H), np.array([[0.0, -2 * chi], [-2 * chi, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c1=st.floats(-3, 3), c2=st.floats(-3, 3))
def test_generator_linear_in_coefficients(seed, c1, c2):
    rng = np.random.default_rng(seed)
    A1 = random_symmetric(rng, 4)
    A2 = random_symmetric(rng, 4)
    combined = generator(QuadraticHamiltonian(2, c1 * A1 + c2 * A2))
    parts = c1 * generator(QuadraticHamiltonian(2, A1)) + c2 * generator(QuadraticHamiltonian(2, A2))
    assert np.allclose(combined, parts, atol=1e-12)


def test_generator_membership_invariant():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        A = random_symmetric(rng, 2 * n)
        G = generator(QuadraticHamiltonian(n, A))
        # Omega is a signed permutation, so G Omega = A with no rounding
        GOm = G @ symplectic_form(n)
        assert np.array_equal(GOm, A)
        assert np.array_equal(GOm, GOm.T)
        assert not G.flags.writeable


def test_bracket_with_itself_is_zero():
    H = from_terms(2, [number(1, 1.0), hop(1, 2, 0.5)])
    assert np.array_equal(bracket_form(H.A, H.A), np.zeros((4, 4)))
    assert np.array_equal(commutator(generator(H), generator(H)), np.zeros((4, 4)))


def test_bracket_of_squeeze_with_number_gives_antisymmetric_squeeze():
    # half the bracket of the unit squeeze with the unit rotation lands on
    # the a^dag2 - a^2 direction, whose A-form is -(qp + pq)
    H2 = from_terms(1, [squeeze(1, 1.0)], label="H2")
    H1 = from_terms(1, [number(1, 1.0)], label="H1")
    anti = np.array([[0.0, -2.0], [-2.0, 0.0]])
    assert np.allclose(0.5 * bracket_form(H2.A, H1.A), anti, atol=1e-15)
    # the same direction through the package's generators
    half = 0.5 * commutator(generator(H2), generator(H1))
    assert np.allclose(half, generator(QuadraticHamiltonian(1, anti)), atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_bracket_generator_homomorphism(seed, n):
    rng = np.random.default_rng(seed)
    H1 = QuadraticHamiltonian(n, random_symmetric(rng, 2 * n))
    H2 = QuadraticHamiltonian(n, random_symmetric(rng, 2 * n))
    lhs = generator(QuadraticHamiltonian(n, bracket_form(H1.A, H2.A)))
    rhs = commutator(generator(H1), generator(H2))
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_positive_definiteness_by_smallest_eigenvalue():
    omega = 0.9
    H = from_terms(1, [number(1, omega)])
    assert np.linalg.eigvalsh(H.A)[0] == pytest.approx(omega, abs=0.0)


def _near_symmetric(rng, exponent, ratio, tol):
    # B + t E with E antisymmetric: ||A - A^T||_F is about ratio times the bound
    B = rng.standard_normal((4, 4)) * 2.0 ** exponent
    B = B + B.T
    E = rng.standard_normal((4, 4))
    E = E - E.T
    t = ratio * tol * max(1.0, np.linalg.norm(B)) / np.linalg.norm(E - E.T)
    return B + t * E


@pytest.mark.parametrize("exponent", [-40, 0, 20, 150, 500])
def test_symmetry_check_decides_as_the_unscaled_rule(exponent):
    # the check runs on A scaled by a power of two, so it overflows nowhere;
    # where the unscaled norms are finite, it decides as they do
    rng = np.random.default_rng(exponent + 40)
    seen = set()
    for ratio in (0.5, 1 - 1e-12, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-12, 2.0):
        A = _near_symmetric(rng, exponent, ratio, SYMMETRY_TOL)
        unscaled = np.linalg.norm(A - A.T) > SYMMETRY_TOL * max(1.0, np.linalg.norm(A))
        try:
            QuadraticHamiltonian(2, A)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == unscaled, (exponent, ratio)
        seen.add(rejected)
    assert seen == {True, False}


def test_symmetry_check_of_an_entry_near_the_largest_double_warns_nothing():
    # ||A||_F above about 1.3e154 once overflowed numpy's norm with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        QuadraticHamiltonian(1, [[1e308, 0.0], [0.0, 1.0]])
        QuadraticHamiltonian(2, np.full((4, 4), -1.7e308))
        with pytest.raises(ValueError, match="A must be symmetric"):
            QuadraticHamiltonian(1, [[1.0, 1e308], [-1e308, 1.0]])
