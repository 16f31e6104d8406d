"""Dense real-matrix utilities for the symplectic group and its Lie algebra.

Every matrix in this package uses the interleaved quadrature ordering
(q1, p1, ..., qn, pn), so the symplectic form is block diagonal with n
copies of the 2x2 rotation generator. ``expm`` is the package's one
exponential: scaling and squaring around the degree-18 Taylor polynomial,
which serves 1-norms up to theta_18 = 1.0908... with a backward error of at
most 2^-53 and takes matrix products only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "symplectic_form",
    "audit_symplecticity",
    "commutator",
    "expm",
    "identity_distance",
]


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


@functools.lru_cache(maxsize=None)
def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for n bosonic modes.

    Block diagonal with n copies of [[0, 1], [-1, 0]]; antisymmetric,
    orthogonal, and squares to minus the identity. The array is cached per
    n and read-only, so callers share it and must not write to it.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    omega = np.kron(np.eye(int(n)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def _symmetric_part(M: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2, formed without M + M^T, which overflows near the largest double.

    An entry equal to its transpose passes through bit for bit.
    """
    return np.where(M == M.T, M, 0.5 * M + 0.5 * M.T)


def _unit_scaled(M: np.ndarray) -> tuple[np.ndarray, float]:
    """(s M, s) for the power of two s <= 1 that brings M's largest entry below 1.

    numpy's Frobenius norm squares the entries and overflows once ||M||_F
    passes about 1.3e154; that of s M does not. Scaling by a power of two is
    exact, so a comparison of norms taken on s M, against bounds times s,
    decides as the unscaled one wherever that one does not overflow. A
    matrix whose entries are all below 1, or that has a non-finite one,
    has s = 1.
    """
    big = float(np.max(np.abs(M), initial=0.0))
    s = 2.0 ** -max(0, math.frexp(big)[1])  # frexp gives exponent 0 for inf and nan
    return M * s, s


def audit_symplecticity(S) -> float:
    """The defect ``||S Omega S^T - Omega||_F`` for logging and acceptance."""
    S = _as_square(S, "S")
    if S.shape[0] % 2:
        raise ValueError(f"symplectic matrices have even dimension, got {S.shape}")
    omega = symplectic_form(S.shape[0] // 2)
    return float(np.linalg.norm(S @ omega @ S.T - omega))


def commutator(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX."""
    X = _as_square(X, "X")
    Y = _as_square(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch in commutator: {X.shape} vs {Y.shape}")
    return X @ Y - Y @ X


# Taylor coefficients c_k = 1/k!, k = 0..18, so T_18(X) = sum_k c_k X^k, padded
# with c_19 = 0 into the Paterson-Stockmeyer blocks: row j holds c_4j..c_4j+3.
_TAYLOR18_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(19)] + [0.0]).reshape(5, 4)
# The largest 1-norm T_18 serves unscaled (Al-Mohy & Higham 2009, Sec. 3):
# with sum_k h_k x^k = log(e^{-x} T_18(x)) = sum_{k>=19} h_k x^k, theta_18 is the
# largest theta with sum_{k>=19} |h_k| theta^{k-1} <= 2^-53, so T_18(X) =
# exp(X + dX) with ||dX||_1 <= 2^-53 ||X||_1 wherever ||X||_1 <= theta_18. The
# series is summed in exact rationals in tests/test_symplectic.py.
_THETA18 = 1.0908637192900361


def expm(G, t=1.0) -> np.ndarray:
    """Matrix exponential ``exp(G t)`` of one generator or of a stack.

    ``G`` of shape (k, m, m) with ``t`` of shape (k,) gives the stack
    ``exp(G_i t_i)``; ``G`` of shape (m, m) with a scalar ``t`` runs as a
    stack of one. One kernel serves both: scaling and squaring with the
    degree-18 Taylor polynomial T_18 in batched numpy, which needs matrix
    products only, no solve. Each slice is scaled by its own power of two,
    ``s_i = max(0, ceil(log2(||G_i t_i||_1 / theta_18)))`` with
    ``theta_18 = 1.0908...``, the 1-norm below which T_18's backward error is
    at most 2^-53 (bounded as in Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31 (2009) 970). T_18 is evaluated by Paterson-Stockmeyer in X^4: X^2, X^3,
    X^4 and four Horner steps, seven batched matrix products in all. Each slice is
    then squared ``s_i`` times. A zero slice or time gives the identity
    exactly.

    Every entry of ``G`` and ``t`` must be finite. Accuracy is pinned by the
    group property exp(G(t1+t2)) = exp(G t1) exp(G t2), and by slice-by-slice
    comparisons with SciPy's exponential and with closed forms in the tests.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim == 3 and G.shape[1] == G.shape[2]:
        return _expm_stack(G, t)
    return _expm_stack(_as_square(G, "G")[None], np.reshape(t, 1))[0]


def _expm_stack(G: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != G.shape[:1]:
        raise ValueError(
            f"a stack of {G.shape[0]} generators needs {G.shape[0]} times, got shape {t.shape}"
        )
    if not np.all(np.isfinite(G)):
        raise ValueError("generator has non-finite entries")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    X = G * t[:, None, None]
    norms = np.abs(X).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norms / _THETA18, 1.0))).astype(int)
    X *= np.ldexp(1.0, -s)[:, None, None]

    c = _TAYLOR18_BLOCKS
    diag = np.arange(G.shape[1])
    powers = np.empty((3, *X.shape))  # X, X^2, X^3
    powers[0] = X
    np.matmul(X, X, out=powers[1])
    np.matmul(powers[1], X, out=powers[2])
    X4 = powers[1] @ powers[1]
    # T_18 = B_0 + X^4 (B_1 + X^4 (B_2 + X^4 (B_3 + X^4 B_4))) with
    # B_j = c_4j + c_4j+1 X + c_4j+2 X^2 + c_4j+3 X^3, all five from one product
    B = np.tensordot(c[:, 1:], powers, axes=1)
    B[:, :, diag, diag] += c[:, :1, None]
    E = B[4]
    for j in (3, 2, 1, 0):
        E = E @ X4
        E += B[j]
    for j in range(int(s.max(initial=0))):
        idx = np.flatnonzero(s > j)
        E[idx] = E[idx] @ E[idx]
    return E


def identity_distance(S) -> float:
    """Frobenius distance ``||S - 1||_F`` of a propagator from the identity."""
    S = _as_square(S, "S")
    return float(np.linalg.norm(S - np.eye(S.shape[0])))
