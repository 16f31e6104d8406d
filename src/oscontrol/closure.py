"""Bracket closure of quadratic Hamiltonians and the Lie algebra rank criterion.

Coordinates. The closure takes ``QuadraticHamiltonian`` seeds and works on
their symmetric matrices A throughout; the generator G = -A Omega of sp(2n, R)
is never formed. A coordinate vector holds the n(2n+1) upper-triangle
entries of A, the off-diagonal ones weighted by sqrt(2), so the Euclidean
geometry of the vectors is the Frobenius geometry of the generators:
||vec A|| = ||A||_F = ||G||_F, and likewise for inner products. A full-rank
basis is therefore a square matrix.

Brackets. [G_b, G_s] = -C Omega with C = A_s Omega A_b - A_b Omega A_s,
which equals P + P^T for P = A_s Omega A_b and so is exactly symmetric in
floating point (``hamiltonians.bracket_hamiltonians`` uses the same formula). One batched product brackets the whole frontier (the basis
elements added in the previous round) against every seed at once.

Acceptance. Closure proceeds breadth first, one round per bracket depth.
A round's candidates are normalised and projected off the rows accepted in
earlier rounds in one BLAS pass (classical Gram-Schmidt). A candidate whose
residual is then no larger than the relative tolerance is rejected, since
projection only shrinks a residual; most are, and the rest get a second
pass (reorthogonalisation). The candidate with the largest residual enters
the basis if that residual is larger than the tolerance; the others are
projected off it, and the choice repeats (Gram-Schmidt with column
pivoting). The round ends when no residual is above the tolerance.
The basis keeps the normalised raw brackets, and those are what the next
round brackets. Taking the largest residual first matters for them: the
new part of a raw bracket tends to shrink with its parent's, so a basis
element that is barely new makes its subtree barely new. Taken in (basis
index, seed index) order instead, a recombined chain seed set at n = 3
lost 2 of 21 dimensions with residuals near 1e-9.
Bracketing against seeds only (rather than all pairs) generates the same
algebra; the recombination-invariance property test covers this.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .hamiltonians import QuadraticHamiltonian
from .symplectic import symplectic_form

__all__ = [
    "LieSubspace",
    "full_dimension",
    "closure",
    "contains",
    "passivity_check",
]

DEFAULT_TOL = 1e-9

# rejected-candidate residuals within this factor below tol are kept as
# diagnostics for borderline rank decisions
_NEAR_TOL_WINDOW = 1e-2
_MAX_REJECTED_KEPT = 32

# The computed bracket of A_b and A_s is within 2 (2n) eps ||A_b|| ||A_s|| of
# the exact one (Omega is a signed permutation, so only the one product
# rounds). A bracket no larger than twice that bound is rounding noise: its
# direction carries no information, so it is treated as zero.
_ZERO_BRACKET_FACTOR = 4.0


def full_dimension(n: int) -> int:
    """Dimension n(2n+1) of the full symplectic algebra sp(2n, R)."""
    return n * (2 * n + 1)


@dataclass(frozen=True, eq=False)
class LieSubspace:
    """An orthonormalised basis of the subalgebra generated by a seed set.

    ``full_rank`` is the rank criterion: the dimension equals n(2n+1).

    ``min_accepted_residual`` is the smallest residual that entered the
    basis and ``rank_gap`` that residual divided by the largest rejected
    one, or None when no candidate was rejected with a nonzero residual.
    A gap near 1 means the dimension hangs on the tolerance.
    """

    n: int
    matrices: np.ndarray  # (dimension, 2n, 2n), the normalised symmetric A of each element
    sources: tuple[str, ...]
    orthonormal_vectors: np.ndarray  # (dimension, n(2n+1)), orthonormal rows
    closed: bool
    bracket_depth_reached: int
    tol: float
    rejected_residuals: tuple[float, ...] = ()
    min_accepted_residual: Optional[float] = None
    rank_gap: Optional[float] = None

    @property
    def dimension(self) -> int:
        return len(self.sources)

    @property
    def full_rank(self) -> bool:
        return self.dimension == full_dimension(self.n)


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(2 * n)
    return rows, cols, np.where(rows == cols, 1.0, np.sqrt(2.0))


def _coordinates(A: np.ndarray) -> np.ndarray:
    """Coordinate vectors, shape (..., n(2n+1)), of symmetric (..., 2n, 2n) matrices."""
    rows, cols, weights = _upper_triangle(A.shape[-1] // 2)
    return A[..., rows, cols] * weights


def _symmetric(H: QuadraticHamiltonian) -> np.ndarray:
    """H.A with the rounding-level asymmetry its validation allows removed."""
    return 0.5 * (H.A + H.A.T)


def _project_once(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V minus its components along the orthonormal rows of Q, in one pass."""
    return V - (V @ Q.T) @ Q


def _project_out(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V minus its components along the orthonormal rows of Q, in two passes.

    The second pass removes what cancellation left behind in the first.
    """
    return _project_once(Q, _project_once(Q, V))


def closure(
    seeds: Iterable[QuadraticHamiltonian],
    tol: float = DEFAULT_TOL,
    max_rounds: int | None = None,
) -> LieSubspace:
    """Generate the Lie subalgebra spanned by repeated brackets of the seeds iH.

    Each basis element is named after its seed's label (``seed<i>`` when
    the label is empty) or the bracket it came from.

    Candidates are normalised before the independence test, so ``tol`` is a
    relative threshold. Processing order is deterministic (largest residual
    first, ties to the lower basis index, then seed index), making results
    reproducible bit for bit.

    An exhausted round budget is reported as ``closed=False``, not raised.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("closure needs at least one seed Hamiltonian")
    n = seeds[0].n
    if any(H.n != n for H in seeds):
        raise ValueError(f"mixed mode counts in seeds: {sorted({H.n for H in seeds})}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    dim_full = full_dimension(n)
    if max_rounds is None:
        max_rounds = 2 * dim_full

    omega = symplectic_form(n)
    seed_A = np.array([_symmetric(H) for H in seeds])
    seed_names = [H.label or f"seed{i}" for i, H in enumerate(seeds)]
    k = len(seeds)

    Q = np.zeros((dim_full, dim_full))  # orthonormal rows, one per basis element
    basis_A: list[np.ndarray] = []  # the normalised A of each basis element
    names: list[str] = []
    accepted: list[float] = []
    rejected: list[float] = []
    largest_rejected = 0.0

    def reject(res: np.ndarray) -> None:
        nonlocal largest_rejected
        if res.size:
            largest_rejected = max(largest_rejected, float(res.max()))
            rejected.extend(res[res >= tol * _NEAR_TOL_WINDOW].tolist())

    def admit(C: np.ndarray, zero_bound: np.ndarray, name) -> bool:
        """Admit one round's candidates C, largest residual first; True if any entered."""
        V = _coordinates(C)
        norms = np.linalg.norm(V, axis=1)
        live = np.flatnonzero(norms > zero_bound)
        start = len(basis_A)
        R = _project_once(Q[:start], V[live] / norms[live, None])
        res = np.linalg.norm(R, axis=1)
        # projection only shrinks a residual, so these can never enter
        out = res <= tol
        reject(res[out])
        live, R = live[~out], _project_once(Q[:start], R[~out])
        res = np.linalg.norm(R, axis=1)
        while live.size and len(basis_A) < dim_full:
            j = int(res.argmax())
            if res[j] <= tol:
                reject(res)
                break
            i, size = live[j], len(basis_A)
            Q[size] = R[j] / res[j]
            basis_A.append(C[i] / norms[i])
            names.append(name(i))
            accepted.append(float(res[j]))
            R[j] = 0.0  # taken; its residual stays 0
            R = _project_out(Q[size:size + 1], R)
            res = np.linalg.norm(R, axis=1)
        return len(basis_A) > start

    admit(seed_A, np.zeros(k), lambda i: seed_names[i])

    seed_A_omega = seed_A @ omega
    seed_norms = np.linalg.norm(seed_A, axis=(1, 2))
    zero_scale = _ZERO_BRACKET_FACTOR * (2 * n) * np.finfo(float).eps
    closed = len(basis_A) >= dim_full
    depth = 0
    frontier = 0  # basis elements before this index were bracketed already
    while not closed and depth < max_rounds:
        hi = len(basis_A)
        B = np.array(basis_A[frontier:hi])
        P = seed_A_omega[None] @ B[:, None]  # (b, s) -> A_s Omega A_b
        C = (P + P.swapaxes(-1, -2)).reshape(-1, 2 * n, 2 * n)
        zero_bound = zero_scale * np.outer(np.linalg.norm(B, axis=(1, 2)), seed_norms).ravel()
        added = admit(
            C, zero_bound,
            lambda i: f"[{names[frontier + i // k]},{seed_names[i % k]}]",
        )
        frontier = hi
        depth += 1
        # nothing outside sp(2n, R) can appear once the basis is full
        closed = len(basis_A) >= dim_full or not added

    matrices = np.array(basis_A).reshape(-1, 2 * n, 2 * n)
    vectors = Q[:len(basis_A)].copy()
    for a in (matrices, vectors):
        a.setflags(write=False)
    rejected.sort(reverse=True)
    min_accepted = min(accepted) if accepted else None
    rank_gap = None
    if min_accepted is not None and largest_rejected > 0.0:
        rank_gap = min_accepted / largest_rejected
    return LieSubspace(
        n=n,
        matrices=matrices,
        sources=tuple(names),
        orthonormal_vectors=vectors,
        closed=closed,
        bracket_depth_reached=depth,
        tol=tol,
        rejected_residuals=tuple(rejected[:_MAX_REJECTED_KEPT]),
        min_accepted_residual=min_accepted,
        rank_gap=rank_gap,
    )


def contains(sub: LieSubspace, H: QuadraticHamiltonian, tol: float = DEFAULT_TOL) -> bool:
    """True iff iH lies in the span of the subspace, relatively to tol."""
    if H.n != sub.n:
        raise ValueError(f"mode count mismatch: subspace has {sub.n}, Hamiltonian has {H.n}")
    v = _coordinates(_symmetric(H))
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return True
    res = np.linalg.norm(_project_out(sub.orthonormal_vectors, v / norm))
    return bool(res <= tol)


def passivity_check(sub: LieSubspace, tol: float = DEFAULT_TOL) -> bool:
    """True iff every basis generator commutes with the symplectic form.

    Passive (photon-number conserving) generators commute with Omega; the
    passive subalgebra has dimension at most n^2.
    """
    omega = symplectic_form(sub.n)
    # G Omega - Omega G = A + Omega A Omega for G = -A Omega, exactly
    return all(np.linalg.norm(A + omega @ A @ omega) <= tol for A in sub.matrices)
