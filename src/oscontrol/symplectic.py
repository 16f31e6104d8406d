"""Dense real-matrix utilities for the symplectic group and its Lie algebra.

Every matrix in this package uses the interleaved quadrature ordering
(q1, p1, ..., qn, pn), so the symplectic form is block diagonal with n
copies of the 2x2 rotation generator.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

__all__ = [
    "symplectic_form",
    "is_symplectic",
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


def audit_symplecticity(S) -> float:
    """The defect ``||S Omega S^T - Omega||_F`` for logging and acceptance."""
    S = _as_square(S, "S")
    if S.shape[0] % 2:
        raise ValueError(f"symplectic matrices have even dimension, got {S.shape}")
    omega = symplectic_form(S.shape[0] // 2)
    return float(np.linalg.norm(S @ omega @ S.T - omega))


def is_symplectic(S, tol: float = 1e-12) -> bool:
    """True iff ``||S Omega S^T - Omega||_F <= tol``."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return audit_symplecticity(S) <= tol


def commutator(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX."""
    X = _as_square(X, "X")
    Y = _as_square(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch in commutator: {X.shape} vs {Y.shape}")
    return X @ Y - Y @ X


def expm(G, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(G t)``.

    Scaling-and-squaring Pade evaluation; accuracy is pinned by the group
    property exp(G(t1+t2)) = exp(G t1) exp(G t2) in the test suite rather
    than by an algorithm guarantee.
    """
    G = _as_square(G, "G")
    if not np.all(np.isfinite(G)):
        raise ValueError("generator has non-finite entries")
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return scipy.linalg.expm(G * t)


def identity_distance(S) -> float:
    """Frobenius distance ``||S - 1||_F`` of a propagator from the identity."""
    S = _as_square(S, "S")
    return float(np.linalg.norm(S - np.eye(S.shape[0])))
