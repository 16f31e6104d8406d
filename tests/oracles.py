"""Independent oracles the tests check production code against.

Everything here deliberately takes a different route from the package:
the symplectic form comes from the Kronecker-delta element formula, operator
expansions go through an explicit mode-operator algebra instead of the term
dictionary, and ranks come from SVD of stacked vectorised matrices instead
of incremental Gram-Schmidt.
"""

from __future__ import annotations

import math

import numpy as np


def omega_from_formula(n: int) -> np.ndarray:
    """Element-by-element symplectic form, 1-based indices j, k in 1..2n."""
    dim = 2 * n
    omega = np.zeros((dim, dim))
    for j in range(1, dim + 1):
        for k in range(1, dim + 1):
            term1 = (1 - (-1) ** j) / 2 if j + 1 == k else 0.0
            term2 = (1 + (-1) ** j) / 2 if j == k + 1 else 0.0
            omega[j - 1, k - 1] = term1 - term2
    return omega


def bracket_form(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """The A-form C of [iH1, iH2] = i (1/2) R^T C R: C = P + P^T with P = A2 Omega A1.

    -C Omega is then the commutator [G1, G2] of the generators G = -A Omega.
    """
    P = A2 @ omega_from_formula(A1.shape[0] // 2) @ A1
    return P + P.T


# --- mode-operator expansion ------------------------------------------------
# a_j = (q_j + i p_j)/sqrt(2) is a complex linear form u over R; the
# quadratic part of a product L1 L2 of linear forms u, v is
# (1/2) R^T (u v^T + v u^T) R plus a scalar constant, which drops.


def lowering(n: int, j: int) -> np.ndarray:
    u = np.zeros(2 * n, dtype=complex)
    u[2 * (j - 1)] = 1 / np.sqrt(2)
    u[2 * (j - 1) + 1] = 1j / np.sqrt(2)
    return u


def raising(n: int, j: int) -> np.ndarray:
    return lowering(n, j).conj()


def quad_form(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.outer(u, v) + np.outer(v, u)


def _realize(A: np.ndarray) -> np.ndarray:
    assert np.max(np.abs(A.imag)) < 1e-14, "expansion of a Hermitian expression must be real"
    return A.real


def expand_number(n: int, j: int, coeff: float = 1.0) -> np.ndarray:
    """coeff * a_j^dag a_j, constant dropped."""
    return _realize(coeff * quad_form(raising(n, j), lowering(n, j)))


def expand_hop(n: int, j: int, k: int, coeff: float = 1.0) -> np.ndarray:
    """coeff * (a_j a_k^dag + a_j^dag a_k)."""
    a, ad = lowering, raising
    A = quad_form(a(n, j), ad(n, k)) + quad_form(ad(n, j), a(n, k))
    return _realize(coeff * A)


def expand_pair(n: int, j: int, k: int, coeff: float = 1.0) -> np.ndarray:
    """coeff * (a_j a_k + a_j^dag a_k^dag)."""
    a, ad = lowering, raising
    A = quad_form(a(n, j), a(n, k)) + quad_form(ad(n, j), ad(n, k))
    return _realize(coeff * A)


def expand_squeeze(n: int, j: int, coeff: float = 1.0) -> np.ndarray:
    """coeff * (a_j^2 + a_j^dag2)."""
    a, ad = lowering, raising
    A = quad_form(a(n, j), a(n, j)) + quad_form(ad(n, j), ad(n, j))
    return _realize(coeff * A)


def expand_chain_drift(n: int, omega: float, g1: float, g2: float) -> np.ndarray:
    """Term-by-term expansion of the chain drift, independent of from_terms."""
    A = sum(expand_number(n, j, omega) for j in range(1, n + 1))
    for j in range(1, n):
        A = A + expand_hop(n, j, j + 1, g1) + expand_pair(n, j, j + 1, g2)
    return A


# --- rank oracles -----------------------------------------------------------


def gram_rank(mats, rtol: float = 1e-9) -> int:
    """Numerical rank of the span of matrices via SVD of their stack."""
    stack = np.array([np.ravel(M) / np.linalg.norm(M) for M in mats])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > rtol * s[0]))


def brute_force_closure_rank(seed_mats, rtol: float = 1e-9, max_rounds: int = 12) -> int:
    """All-pairs bracket generation with SVD rank tracking.

    Unlike the production algorithm this brackets every pair of collected
    elements each round; a candidate is kept whenever it grows the SVD rank
    of the whole collection.
    """
    collection = [np.asarray(M, dtype=float) for M in seed_mats]
    rank = gram_rank(collection, rtol)
    for _ in range(max_rounds):
        grown = False
        current = list(collection)
        for i, X in enumerate(current):
            for Y in current[i + 1:]:
                cand = X @ Y - Y @ X
                if np.linalg.norm(cand) == 0.0:
                    continue
                new_rank = gram_rank(collection + [cand], rtol)
                if new_rank > rank:
                    collection.append(cand)
                    rank = new_rank
                    grown = True
        if not grown:
            break
    return rank


def brute_force_closure_rank_mod_p(seed_mats, p: int = 1_000_003, max_rounds: int = 12) -> int:
    """All-pairs bracket generation over the integers modulo a prime p.

    The seeds must be integer matrices. Reduction mod p commutes with the
    bracket, so this is the rank mod p of the integer span of the brackets:
    a lower bound on the rank over Q with no tolerance anywhere. When it
    reaches the dimension of the ambient algebra it is exact. The products
    stay in int64 while (2n) p^2 < 2^63.
    """
    collection = []
    for M in seed_mats:
        M = np.asarray(M, dtype=float)
        if not np.array_equal(M, np.rint(M)):
            raise ValueError("seed matrices must have integer entries")
        collection.append(M.astype(np.int64) % p)
    echelon: list = []  # (pivot column, row with a unit pivot)

    def grows(M: np.ndarray) -> bool:
        v = M.ravel() % p
        for col, row in echelon:
            if v[col]:
                v = (v - v[col] * row) % p
        nonzero = np.flatnonzero(v)
        if not nonzero.size:
            return False
        col = int(nonzero[0])
        echelon.append((col, v * pow(int(v[col]), p - 2, p) % p))
        return True

    for M in collection:
        grows(M)
    for _ in range(max_rounds):
        grown = False
        current = list(collection)
        for i, X in enumerate(current):
            for Y in current[i + 1:]:
                cand = (X @ Y - Y @ X) % p
                if grows(cand):
                    collection.append(cand)
                    grown = True
        if not grown:
            break
    return len(echelon)


# --- recurrence oracles -----------------------------------------------------


def outer_mode_distance(nu, t) -> np.ndarray:
    """sqrt(8 sum_k sin^2(nu_k t / 2)) through the (len(t), n) outer product."""
    nu = np.asarray(nu, dtype=float)
    s = np.sin(0.5 * np.outer(np.atleast_1d(np.asarray(t, dtype=float)).ravel(), nu))
    return np.sqrt(8.0 * np.sum(s * s, axis=1))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_refine(fun, lo: float, hi: float, xatol: float = 1e-12) -> tuple[float, float]:
    """Golden-section minimisation with a width target in absolute time.

    One bracket at a time, one scalar evaluation per step: the reference
    the lockstep refine of many brackets must reproduce bit for bit.
    """
    a, b = lo, hi
    tol = max(xatol, 4.0 * np.spacing(max(abs(a), abs(b))))
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(256):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fun(d)
    x = c if fc <= fd else d
    return float(x), float(min(fc, fd))


# --- random matrix factories ------------------------------------------------


def random_symmetric(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    M = rng.uniform(-scale, scale, size=(dim, dim))
    return 0.5 * (M + M.T)


def random_positive_definite(
    rng: np.random.Generator, n: int, cond: float = 100.0
) -> np.ndarray:
    """Random SPD 2n x 2n matrix with condition number at most ``cond``."""
    dim = 2 * n
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.geomspace(1.0, cond, dim)
    rng.shuffle(eigs)
    A = (Q * eigs) @ Q.T
    return 0.5 * (A + A.T)


def random_symplectic(rng: np.random.Generator, n: int, strength: float = 1.0) -> np.ndarray:
    """exp(-A Omega s) for random symmetric A; symplectic by construction."""
    import scipy.linalg

    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    A = random_symmetric(rng, 2 * n)
    return scipy.linalg.expm(-A @ omega * strength)


def pairing_route_bound(V: np.ndarray) -> float:
    """||W||_F ||W^{-1}||_F for W = V U, U pairing each block into +/- i nu."""
    pairing = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
    W = V @ np.kron(np.eye(V.shape[0] // 2), pairing)
    return float(np.linalg.norm(W) * np.linalg.norm(np.linalg.inv(W)))
