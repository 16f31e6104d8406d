"""Dense real-matrix utilities for the symplectic group and its Lie algebra.

Every matrix in this package uses the interleaved quadrature ordering
(q1, p1, ..., qn, pn), so the symplectic form is block diagonal with n
copies of the 2x2 rotation generator.
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


# Degree-13 Pade coefficients b_0..b_13 (Higham 2005), divided by b_0 so that
# V = 1 + ... and a zero argument solves to the identity exactly.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
]) / 64764752532480000.0
_THETA13 = 5.371920351148152  # largest 1-norm the degree-13 approximant serves unscaled


def expm(G, t=1.0) -> np.ndarray:
    """Matrix exponential ``exp(G t)`` of one generator or of a stack.

    ``G`` of shape (k, m, m) with ``t`` of shape (k,) gives the stack
    ``exp(G_i t_i)``; ``G`` of shape (m, m) with a scalar ``t`` runs as a
    stack of one. One kernel serves both: scaling and squaring with the
    degree-13 Pade approximant in batched numpy (Higham, SIAM J. Matrix Anal.
    Appl. 26 (2005) 1179; Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31
    (2009) 970). Each slice is scaled by its own power of two,
    ``s_i = max(0, ceil(log2(||G_i t_i||_1 / theta_13)))`` with
    ``theta_13 = 5.3719...``; the approximant ``(V - U)^{-1} (V + U)`` is
    solved for the whole stack at once, and each slice is squared ``s_i``
    times.

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
    s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    X *= np.ldexp(1.0, -s)[:, None, None]

    b = _PADE13
    diag = np.arange(G.shape[1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    W = X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2
    W[:, diag, diag] += b[1]
    U = X @ W
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2
    V[:, diag, diag] += b[0]
    E = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0))):
        idx = np.flatnonzero(s > j)
        E[idx] = E[idx] @ E[idx]
    return E


def identity_distance(S) -> float:
    """Frobenius distance ``||S - 1||_F`` of a propagator from the identity."""
    S = _as_square(S, "S")
    return float(np.linalg.norm(S - np.eye(S.shape[0])))
