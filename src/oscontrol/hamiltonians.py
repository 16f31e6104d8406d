"""Quadratic Hamiltonians H = (1/2) R^T A R and their symplectic generators.

A Hamiltonian is carried as its real symmetric 2n x 2n coefficient matrix A
over the quadrature vector R = (q1, p1, ..., qn, pn). ``QuadraticHamiltonian``
is the one type of Lie-algebra element in the package's API: the closure
takes Hamiltonians, and its symmetry check is the only sp(2n, R) membership
check. The map iH -> G = -A Omega (``generator``) represents the
Hilbert-space commutator algebra faithfully on 2n x 2n matrices: the bracket
[iH1, iH2] = i (1/2) R^T C R has C = P + P^T with P = A2 Omega A1, and
-C Omega = [G1, G2] is the matrix commutator of the generators. That is the
load-bearing fact behind every closure computation in this package.

Term coefficients are angular frequencies (hbar = 1). Constant offsets such
as the 1/2 in a^dag a + 1/2 generate global phases only and are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .symplectic import _unit_scaled, symplectic_form

__all__ = [
    "QuadraticHamiltonian",
    "HamiltonianTerm",
    "number",
    "hop",
    "pair",
    "squeeze",
    "generic",
    "from_terms",
    "generator",
]

SYMMETRY_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """A real symmetric 2n x 2n matrix A defining H = (1/2) R^T A R."""

    n: int
    A: np.ndarray
    label: str = ""

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"mode count must be a positive integer, got {self.n!r}")
        A = np.asarray(self.A, dtype=float)
        dim = 2 * self.n
        if A.shape != (dim, dim):
            raise ValueError(f"A must have shape ({dim}, {dim}), got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A has non-finite entries")
        scaled, s = _unit_scaled(A)  # both sides times s: neither norm overflows
        if np.linalg.norm(scaled - scaled.T) > SYMMETRY_TOL * max(s, np.linalg.norm(scaled)):
            raise ValueError(f"A must be symmetric to {SYMMETRY_TOL}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "A", _readonly(A))


@dataclass(frozen=True, eq=False)
class HamiltonianTerm:
    """One additive contribution to A, tagged by the mode-operator expression it came from."""

    kind: str
    modes: tuple[int, ...]
    coeff: float
    fragment: Optional[np.ndarray] = None


def number(j: int, coeff: float) -> HamiltonianTerm:
    """coeff * a_j^dag a_j  ->  (coeff/2)(q_j^2 + p_j^2), constant dropped."""
    return HamiltonianTerm("number", (int(j),), float(coeff))


def hop(j: int, k: int, coeff: float) -> HamiltonianTerm:
    """coeff * (a_j a_k^dag + h.c.)  ->  coeff (q_j q_k + p_j p_k)."""
    if j == k:
        raise ValueError(f"hop term needs two distinct modes, got j = k = {j}")
    return HamiltonianTerm("hop", (int(j), int(k)), float(coeff))


def pair(j: int, k: int, coeff: float) -> HamiltonianTerm:
    """coeff * (a_j a_k + h.c.)  ->  coeff (q_j q_k - p_j p_k)."""
    if j == k:
        raise ValueError(f"pair term needs two distinct modes, got j = k = {j}")
    return HamiltonianTerm("pair", (int(j), int(k)), float(coeff))


def squeeze(j: int, coeff: float) -> HamiltonianTerm:
    """coeff * (a_j^2 + a_j^dag2)  ->  coeff (q_j^2 - p_j^2)."""
    return HamiltonianTerm("squeeze", (int(j),), float(coeff))


def generic(fragment) -> HamiltonianTerm:
    """A raw symmetric 2n x 2n fragment added verbatim to A."""
    return HamiltonianTerm("generic", (), 1.0, np.asarray(fragment, dtype=float))


def _check_mode(j: int, n: int, kind: str) -> int:
    if not 1 <= j <= n:
        raise ValueError(f"{kind} term mode index {j} out of range [1, {n}]")
    return j - 1


def from_terms(n: int, terms: Iterable[HamiltonianTerm], label: str = "") -> QuadraticHamiltonian:
    """Assemble A additively from mode-operator terms.

    The quadrature dictionary (hbar = 1, a_j = (q_j + i p_j)/sqrt(2)):

    * ``number(j, w)``   adds ``w * I2`` to diagonal block j,
    * ``hop(j, k, g)``   adds ``g * I2`` to off-diagonal blocks (j,k), (k,j),
    * ``pair(j, k, g)``  adds ``g * diag(1, -1)`` to the same blocks,
    * ``squeeze(j, x)``  adds ``diag(2x, -2x)`` to diagonal block j,
    * ``generic(F)``     adds the symmetric fragment F verbatim.

    Assembly is additive and order independent; the result is exactly
    symmetric by construction.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    n = int(n)
    A = np.zeros((2 * n, 2 * n))
    for term in terms:
        c = term.coeff
        if not np.isfinite(c):
            raise ValueError(f"{term.kind} term has non-finite coefficient {c}")
        if term.kind == "number":
            j = _check_mode(term.modes[0], n, "number")
            A[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] += c * np.eye(2)
        elif term.kind == "squeeze":
            j = _check_mode(term.modes[0], n, "squeeze")
            A[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] += np.diag([2.0 * c, -2.0 * c])
        elif term.kind in ("hop", "pair"):
            j = _check_mode(term.modes[0], n, term.kind)
            k = _check_mode(term.modes[1], n, term.kind)
            block = c * np.eye(2) if term.kind == "hop" else c * np.diag([1.0, -1.0])
            A[2 * j: 2 * j + 2, 2 * k: 2 * k + 2] += block
            A[2 * k: 2 * k + 2, 2 * j: 2 * j + 2] += block
        elif term.kind == "generic":
            F = term.fragment
            if F is None or F.shape != (2 * n, 2 * n):
                shape = None if F is None else F.shape
                raise ValueError(f"generic fragment must have shape ({2*n}, {2*n}), got {shape}")
            A += F
        else:
            raise ValueError(f"unknown term kind {term.kind!r}")
    return QuadraticHamiltonian(n=n, A=A, label=label)


def generator(H: QuadraticHamiltonian) -> np.ndarray:
    """Map iH to its symplectic-algebra representative G = -A Omega (read-only).

    G is in sp(2n, R) by construction: G Omega = A is symmetric.
    """
    G = -H.A @ symplectic_form(H.n)
    G.setflags(write=False)
    return G
