import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oscontrol import (
    ChainSpec,
    DefinitenessError,
    QuadraticHamiltonian,
    RecurrenceQuery,
    build_chain,
    find_recurrence,
    is_symplectic,
    spectrum_certificate,
    symplectic_eigenvalues,
    symplectic_form,
    williamson_decompose,
)
from oracles import pairing_route_bound, random_positive_definite, random_symplectic


def test_symplectic_eigenvalues_of_identity():
    for n in (1, 2, 3):
        nu = symplectic_eigenvalues(QuadraticHamiltonian(n, np.eye(2 * n)))
        assert np.allclose(nu, np.ones(n), atol=1e-12)


@pytest.mark.parametrize("a,b", [(4.0, 1.0), (2.5, 0.3), (1.0, 1.0), (9.0, 0.25)])
def test_symplectic_eigenvalue_single_mode_analytic(a, b):
    # 2x2 characteristic polynomial of A Omega gives nu = sqrt(ab) exactly
    nu = symplectic_eigenvalues(QuadraticHamiltonian(1, np.diag([a, b])))
    assert nu[0] == pytest.approx(np.sqrt(a * b), abs=1e-12)


def test_symplectic_eigenvalues_chain_drift_against_dense_eigensolve():
    drift = build_chain(ChainSpec(n=3, omega=1.0, g1=0.2, g2=0.2)).drift
    nu = symplectic_eigenvalues(drift)
    # oracle: the full 6x6 spectrum of A Omega must be exactly the pairs +/- i nu
    ev = np.linalg.eigvals(drift.A @ symplectic_form(3))
    assert np.max(np.abs(ev.real)) < 1e-12
    paired = np.sort(np.concatenate([nu, -nu]))
    assert np.allclose(np.sort(ev.imag), paired, atol=1e-10)


def test_symplectic_eigenvalues_rejects_indefinite():
    with pytest.raises(DefinitenessError) as info:
        symplectic_eigenvalues(QuadraticHamiltonian(1, np.diag([1.0, -1.0])))
    assert info.value.smallest_eigenvalue == pytest.approx(-1.0)
    assert "smallest eigenvalue" in str(info.value)


def test_williamson_identity_matrix():
    dec = williamson_decompose(QuadraticHamiltonian(2, np.eye(4)))
    assert np.allclose(dec.nu, [1.0, 1.0], atol=1e-12)
    assert dec.residual <= 1e-12
    assert is_symplectic(dec.V, 1e-8)


def test_williamson_single_mode_analytic_case():
    dec = williamson_decompose(QuadraticHamiltonian(1, np.diag([4.0, 1.0])))
    assert dec.nu[0] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(dec.V, np.diag([np.sqrt(2.0), 1 / np.sqrt(2.0)]), atol=1e-12)


@pytest.mark.parametrize("nu0", [(1.0, 1.0, 1.0), (1.0, 2.0, 2.0)])
def test_williamson_degenerate_spectra_under_congruence(nu0):
    # a degenerate nu leaves the eigenvectors of each +nu free up to a
    # unitary mixing; every pair the phase rule builds must still be valid
    rng = np.random.default_rng(7)
    for _ in range(5):
        S = random_symplectic(rng, 3, strength=0.6)
        A = S @ np.diag(np.repeat(nu0, 2)) @ S.T
        H = QuadraticHamiltonian(3, 0.5 * (A + A.T))
        dec = williamson_decompose(H)
        assert is_symplectic(dec.V, 1e-8)
        assert dec.residual <= 1e-8 * np.linalg.norm(H.A)
        assert np.allclose(dec.nu, nu0, rtol=1e-9)
        assert np.allclose(dec.nu, symplectic_eigenvalues(H), rtol=1e-9)
        K = find_recurrence(RecurrenceQuery(H, epsilon=0.1, max_time=1.0)).conditioning
        assert K == pytest.approx(pairing_route_bound(dec.V), rel=1e-12)


def test_williamson_diagonal_three_modes_hand_computed():
    # diag(a, b) per mode gives nu = sqrt(ab) and the block
    # diag((a/b)^(1/4), (b/a)^(1/4)); columns follow ascending nu
    A = np.diag([4.0, 1.0, 1.0, 9.0, 0.25, 1.0])  # nu = 2, 3, 0.5
    dec = williamson_decompose(QuadraticHamiltonian(3, A))
    expected = np.zeros((6, 6))
    expected[4:6, 0:2] = np.diag([1 / np.sqrt(2.0), np.sqrt(2.0)])
    expected[0:2, 2:4] = np.diag([np.sqrt(2.0), 1 / np.sqrt(2.0)])
    expected[2:4, 4:6] = np.diag([1 / np.sqrt(3.0), np.sqrt(3.0)])
    eps = np.finfo(float).eps
    np.testing.assert_allclose(dec.nu, [0.5, 2.0, 3.0], rtol=4 * eps, atol=0)
    np.testing.assert_allclose(dec.V, expected, rtol=4 * eps, atol=4 * eps)


def _schur_symplectic_eigenvalues(A: np.ndarray) -> np.ndarray:
    """nu from the real Schur form of A^(1/2) Omega A^(1/2), sorted."""
    n = A.shape[0] // 2
    root = scipy.linalg.sqrtm(A).real
    M = root @ symplectic_form(n) @ root
    T = scipy.linalg.schur(0.5 * (M - M.T), output="real")[0]
    return np.sort(np.abs(np.diag(T, 1)[0::2]))


def test_williamson_nu_matches_schur_reference():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        A = random_positive_definite(rng, n, cond=float(rng.uniform(2, 300)))
        nu_ref = _schur_symplectic_eigenvalues(A)
        assert np.min(np.diff(nu_ref), initial=1.0) > 1e-6 * nu_ref[-1]  # nondegenerate
        dec = williamson_decompose(QuadraticHamiltonian(n, A))
        assert np.all(np.abs(dec.nu - nu_ref) <= 1e-12 * nu_ref)


def test_williamson_round_trip_known_eigenvalues():
    rng = np.random.default_rng(42)
    V0 = random_symplectic(rng, 2, strength=0.7)
    D0 = np.diag([1.0, 1.0, 2.0, 2.0])
    A = V0 @ D0 @ V0.T
    dec = williamson_decompose(QuadraticHamiltonian(2, 0.5 * (A + A.T)))
    assert np.allclose(dec.nu, [1.0, 2.0], atol=1e-8)
    assert np.linalg.norm(A - dec.V @ dec.D @ dec.V.T) <= 1e-8 * np.linalg.norm(A)


def test_williamson_properties_random_sample():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        A = random_positive_definite(rng, n, cond=200.0)
        H = QuadraticHamiltonian(n, A)
        dec = williamson_decompose(H)
        assert dec.residual <= 1e-8 * np.linalg.norm(A)
        assert is_symplectic(dec.V, 1e-8)
        assert np.all(np.diff(dec.nu) >= 0)
        assert np.allclose(dec.nu, symplectic_eigenvalues(H), atol=1e-8)


def test_symplectic_eigenvalues_congruence_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = random_positive_definite(rng, n, cond=50.0)
        S = random_symplectic(rng, n, strength=0.5)
        nu_a = symplectic_eigenvalues(QuadraticHamiltonian(n, A))
        congruent = S.T @ A @ S
        nu_b = symplectic_eigenvalues(QuadraticHamiltonian(n, 0.5 * (congruent + congruent.T)))
        assert np.allclose(nu_a, nu_b, atol=1e-7 * max(1.0, np.max(nu_a)))


def test_symplectic_eigenvalues_scale_linearly():
    rng = np.random.default_rng(5)
    A = random_positive_definite(rng, 2, cond=30.0)
    nu = symplectic_eigenvalues(QuadraticHamiltonian(2, A))
    for c in (0.5, 2.0, 7.5):
        nu_c = symplectic_eigenvalues(QuadraticHamiltonian(2, c * A))
        assert np.allclose(nu_c, c * nu, atol=1e-9 * c)


def test_spectrum_certificate_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = random_positive_definite(rng, n, cond=100.0)
        cert = spectrum_certificate(QuadraticHamiltonian(n, A))
        assert cert.max_real_part < 1e-10
        assert cert.diagonalizable
        assert cert.diagonalizer_condition < 1e8


def test_spectrum_certificate_free_particle_jordan_block():
    # A = diag(0, 2) makes A Omega nilpotent: double zero eigenvalue, defective
    cert = spectrum_certificate(QuadraticHamiltonian(1, np.diag([0.0, 2.0])))
    assert np.allclose(cert.eigenvalues, [0.0, 0.0], atol=1e-12)
    assert not cert.diagonalizable


def test_spectrum_certificate_hyperbolic():
    cert = spectrum_certificate(QuadraticHamiltonian(1, np.diag([1.0, -1.0])))
    assert np.allclose(np.sort(cert.eigenvalues.real), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(cert.eigenvalues.imag, [0.0, 0.0], atol=1e-12)
    assert cert.max_real_part == pytest.approx(1.0, abs=1e-12)


def test_plain_matrix_input_is_validated_like_a_hamiltonian():
    bad = {
        "symmetric": np.array([[1.0, 5.0], [0.0, 1.0]]),
        "shape": np.eye(3),
        "non-finite": np.diag([1.0, np.nan]),
    }
    for fn in (spectrum_certificate, symplectic_eigenvalues, williamson_decompose):
        for message, A in bad.items():
            with pytest.raises(ValueError, match=message):
                fn(A)


def test_williamson_rejects_indefinite_with_offender():
    A = np.diag([2.0, 1.0, 1.0, -0.5])
    with pytest.raises(DefinitenessError) as info:
        williamson_decompose(QuadraticHamiltonian(2, A))
    assert info.value.smallest_eigenvalue == pytest.approx(-0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_williamson_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    A = random_positive_definite(rng, n, cond=float(rng.uniform(2, 500)))
    dec = williamson_decompose(QuadraticHamiltonian(n, A))
    assert np.linalg.norm(A - dec.V @ dec.D @ dec.V.T) <= 1e-8 * np.linalg.norm(A)
