import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oscontrol import commutator, expm, identity_distance, is_symplectic, symplectic_form
from oracles import omega_from_formula, random_symmetric


def test_form_n1_explicit():
    assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_form_n2_is_block_diagonal():
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected = np.zeros((4, 4))
    expected[:2, :2] = block
    expected[2:, 2:] = block
    assert np.array_equal(symplectic_form(2), expected)


def test_form_matches_element_formula():
    for n in range(1, 17):
        assert np.array_equal(symplectic_form(n), omega_from_formula(n))


def test_form_antisymmetric_squares_to_minus_identity():
    for n in range(1, 17):
        omega = symplectic_form(n)
        assert np.array_equal(omega, -omega.T)
        assert np.allclose(omega @ omega, -np.eye(2 * n), atol=0)
        assert np.allclose(omega @ omega.T, np.eye(2 * n), atol=0)


def test_form_is_cached_and_read_only():
    omega = symplectic_form(3)
    assert symplectic_form(3) is omega
    assert not omega.flags.writeable
    with pytest.raises(ValueError):
        omega[0, 1] = 2.0
    assert np.array_equal(omega, omega_from_formula(3))


@pytest.mark.parametrize("bad", [0, -2, 1.5])
def test_form_rejects_bad_mode_count(bad):
    with pytest.raises(ValueError):
        symplectic_form(bad)


def test_is_symplectic_identity():
    for n in (1, 2, 3):
        assert is_symplectic(np.eye(2 * n), 1e-12)


def test_is_symplectic_single_mode_squeeze():
    assert is_symplectic(np.diag([2.0, 0.5]), 1e-12)


def test_is_symplectic_rejects_uniform_scaling():
    assert not is_symplectic(np.diag([2.0, 2.0]), 1e-12)


def test_is_symplectic_shape_and_tol_errors():
    with pytest.raises(ValueError):
        is_symplectic(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        is_symplectic(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        is_symplectic(np.eye(2), tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_is_symplectic_rejects_a_tolerance_that_is_nan_negative_or_infinite(tol):
    # a nan tolerance once answered False for the identity itself
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        is_symplectic(np.eye(2), tol)


def test_commutator_with_itself_vanishes():
    X = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(commutator(X, X), np.zeros((3, 3)))


def test_commutator_with_identity_vanishes():
    omega = symplectic_form(2)
    assert np.array_equal(commutator(omega, np.eye(4)), np.zeros((4, 4)))


def test_commutator_elementary_matrices():
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    E21 = E12.T
    assert np.array_equal(commutator(E12, E21), np.diag([1.0, -1.0]))


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(4))


def test_expm_zero_time_is_identity():
    G = np.array([[0.3, -1.2], [0.7, 0.1]])
    assert np.array_equal(expm(G, 0.0), np.eye(2))


def test_expm_rotation_generator_quarter_turn():
    omega = symplectic_form(1)
    assert np.allclose(expm(omega, np.pi / 2), omega, atol=1e-15)


def test_expm_nilpotent_truncates():
    G = np.array([[0.0, 0.0], [2.0, 0.0]])
    for t in (0.5, 1.0, -3.0):
        assert np.allclose(expm(G, t), np.array([[1.0, 0.0], [2.0 * t, 1.0]]), atol=1e-15)


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        expm(np.eye(2), np.inf)


THETA13 = 5.371920351148152


def _rotation_stack(rng, n, k):
    """Oscillator generators G = -A Omega with exp(G t) in closed form.

    A = Q D Q^T with Q orthogonal symplectic (from a random unitary) and D
    the mode frequencies nu_j on each (q_j, p_j) block, so
    exp(G t) = Q R(nu t) Q^T with R the block rotation [[cos, -sin], [sin, cos]].
    """
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    G, rot = [], []
    for _ in range(k):
        U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        Q = np.kron(U.real, np.eye(2)) - np.kron(U.imag, J)
        nu = rng.uniform(0.5, 2.0, n)
        G.append(-Q @ np.kron(np.diag(nu), np.eye(2)) @ symplectic_form(n) @ Q.T)
        rot.append((Q, nu))
    return np.array(G), rot


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_stacked_expm_matches_scipy_slice_by_slice(m):
    rng = np.random.default_rng(100 + m)
    G, rot = _rotation_stack(rng, m // 2, 12)
    # half the slices stay under theta_13, half need 2-4 squarings
    target = np.concatenate([rng.uniform(0.05, 1.0, 6), rng.uniform(4.0, 8.0, 6)]) * THETA13
    t = target / np.abs(G).sum(axis=1).max(axis=1)
    E = expm(G, t)
    assert E.shape == (12, m, m)
    for i, (Q, nu) in enumerate(rot):
        c, s = np.cos(nu * t[i]), np.sin(nu * t[i])
        exact = Q @ scipy.linalg.block_diag(*[[[a, -b], [b, a]] for a, b in zip(c, s)]) @ Q.T
        reference = scipy.linalg.expm(G[i] * t[i])
        scale = np.linalg.norm(exact)
        assert np.linalg.norm(E[i] - exact) <= 1e-13 * scale
        # scipy's own error grows with ||G t||_1: against a 40-digit reference
        # it reached 6e-13 at 8 theta_13 for m = 2, where this kernel stayed
        # near 4e-15, so the bound against scipy scales with the norm
        assert np.linalg.norm(E[i] - reference) <= 2e-13 * max(1.0, target[i] / THETA13) * scale


def test_stacked_expm_zero_generator_or_time_is_identity():
    rng = np.random.default_rng(7)
    eye = np.broadcast_to(np.eye(4), (3, 4, 4))
    assert np.array_equal(expm(np.zeros((3, 4, 4)), np.array([0.5, 1e3, -2.0])), eye)
    assert np.array_equal(expm(rng.normal(size=(3, 4, 4)), np.zeros(3)), eye)
    # a zero slice or time inside a stack that squares its other slices
    G = rng.normal(size=(3, 4, 4))
    G[1] = 0.0
    E = expm(G, np.array([50.0, 50.0, 0.0]))
    assert np.array_equal(E[1], np.eye(4)) and np.array_equal(E[2], np.eye(4))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_single_matrix_expm_matches_scipy(m):
    # the 2-D call (one generator, scalar t) against an independent kernel,
    # unscaled and with several squarings, under the stacked test's bound
    rng = np.random.default_rng(200 + m)
    G = -random_symmetric(rng, m) @ symplectic_form(m // 2)
    for target in (0.5 * THETA13, 6.0 * THETA13):
        t = target / np.abs(G).sum(axis=0).max()
        E = expm(G, t)
        assert E.shape == (m, m)
        reference = scipy.linalg.expm(G * t)
        scale = np.linalg.norm(reference)
        assert np.linalg.norm(E - reference) <= 2e-13 * max(1.0, target / THETA13) * scale


@pytest.mark.parametrize("where", ["G", "t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stacked_expm_rejects_non_finite(where, bad):
    G = np.zeros((5, 4, 4))
    t = np.ones(5)
    if where == "G":
        G[3, 2, 1] = bad
    else:
        t[4] = bad
    with pytest.raises(ValueError):
        expm(G, t)


@pytest.mark.parametrize("t", [np.ones(2), np.ones(4), np.ones((3, 1)), 1.0])
def test_stacked_expm_rejects_time_stack_mismatch(t):
    with pytest.raises(ValueError):
        expm(np.zeros((3, 2, 2)), t)


def test_identity_distance_examples():
    assert identity_distance(np.eye(6)) == 0.0
    assert identity_distance(2.0 * np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("theta", [0.1, 0.5, np.pi / 3, 2.0, np.pi])
def test_identity_distance_of_rotation(theta):
    # independent oracle: ||R(theta) - 1||_F = 2 sqrt(2) |sin(theta/2)|
    S = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    assert identity_distance(S) == pytest.approx(2.0 * np.sqrt(2.0) * abs(np.sin(theta / 2)), abs=1e-14)


def test_identity_distance_zero_only_at_identity():
    S = np.eye(4)
    S[0, 1] += 1e-7
    assert identity_distance(S) > 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    t1=st.floats(-2.0, 2.0),
    t2=st.floats(-2.0, 2.0),
)
def test_hamiltonian_exponentials_group_property(seed, n, t1, t2):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, 2 * n)
    G = -A @ symplectic_form(n)
    lhs = expm(G, t1 + t2)
    rhs = expm(G, t1) @ expm(G, t2)
    assert np.linalg.norm(lhs - rhs) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), t=st.floats(-2.0, 2.0))
def test_hamiltonian_exponentials_are_symplectic(seed, n, t):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, 2 * n)
    S = expm(-A @ symplectic_form(n), t)
    assert is_symplectic(S, 1e-9)
