"""Bracket closure of quadratic Hamiltonians and the Lie algebra rank criterion.

Exactness. Every float64 is a dyadic rational m 2^e, and reduction modulo an
odd prime p is a ring homomorphism from Z[1/2] onto F_p that commutes with
brackets. The closure of the reduced seeds is therefore the reduction of the
rational closure of the seeds exactly as given, and its dimension over F_p
is at most the dimension of the real closure. Full rank mod p proves full
rank, with no tolerance anywhere. A closure that stops short of its upper
bound is run once more with a second prime, since an unlucky prime can only
lower the count; the larger dimension is reported, with the prime that
reached it. The bound is n(2n+1), or n^2 when every seed is passive: the
algebra then lies in u(n), so a count of n^2 cannot grow and is not rerun.

Arithmetic. Residues are held centred, |x| <= (p + 1)/2, in float64, and
reduced as x - p rint(x / p). With p = 2^20 - 3 a dot product of up to
n(2n+1) residue pairs stays below 2^53 while n <= 127, so every BLAS
product is an exact integer. This is the FFLAS/FFPACK approach (Dumas,
Giorgi and Pernet, ACM TOMS 35 (2008) 19).

Coordinates. A vector holds the n(2n+1) upper-triangle entries of the
symmetric matrix A of a Hamiltonian; the generator G = -A Omega of
sp(2n, R) is never formed.

Brackets. [G_b, G_s] = -C Omega with C = P + P^T for P = A_s Omega A_b.
C is symmetric, so only its upper triangle is formed, as P[upper] + P[lower]:
that is the bracket's coordinate vector. Closure runs breadth first, one
round per bracket depth: a round brackets the raw residues of the elements
the previous round accepted (its frontier) against every seed. Bracketing
against seeds only, rather than all pairs, generates the same algebra.

Basis. The accepted elements are held in reduced row echelon form [I | F]
over permuted coordinates, the first r positions being the pivots. A block
of at most 64 candidates is reduced against the basis in one product over
the free columns, W_free - W_piv F; a Gauss-Jordan pass in candidate order
then accepts the candidates that are still nonzero, and F is updated once
per block. Candidates are taken in (frontier index, seed index) order, so
the result is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from .hamiltonians import QuadraticHamiltonian
from .symplectic import _symmetric_part, symplectic_form

__all__ = [
    "LieSubspace",
    "PRIMES",
    "full_dimension",
    "closure",
    "contains",
]

# 2^20 - 3, then 2^20 - 5 for a closure that stops short with the first
PRIMES = (1_048_573, 1_048_571)

_BLOCK = 64


def full_dimension(n: int) -> int:
    """Dimension n(2n+1) of the full symplectic algebra sp(2n, R)."""
    return n * (2 * n + 1)


@dataclass(frozen=True, eq=False)
class LieSubspace:
    """The subalgebra generated by a seed set, as an echelon basis over F_prime.

    ``full_rank`` is the rank criterion: the dimension equals n(2n+1).
    ``echelon`` holds one row per basis element in the upper-triangle
    coordinates, as centred residues mod ``prime``; row i is 1 at coordinate
    ``pivots[i]`` and 0 at every other pivot. ``passive`` is True exactly
    when every seed commutes with Omega, so that the algebra lies in the
    passive subalgebra u(n) of dimension n^2. ``candidates`` counts the seeds
    and brackets the closure reduced against its basis. ``certificate`` names
    how the dimension was decided, for the reports.
    """

    certificate: ClassVar[str] = "exact_mod_p"

    n: int
    prime: int
    sources: tuple[str, ...]
    pivots: np.ndarray  # (dimension,), coordinate indices
    echelon: np.ndarray  # (dimension, n(2n+1)), residues mod prime
    bracket_depth_reached: int
    passive: bool
    candidates: int

    @property
    def dimension(self) -> int:
        return len(self.sources)

    @property
    def full_rank(self) -> bool:
        return self.dimension == full_dimension(self.n)


def _require_exact_size(n: int) -> None:
    """Raise ValueError when n is too large for the exact closure.

    A dot product of n(2n+1) pairs of centred residues, each at most
    (p + 1)/2 for the larger prime of ``PRIMES``, must stay below 2^53. That
    holds for n <= 127.
    """
    bound = (2 ** 53 - 1) // ((max(PRIMES) + 1) // 2) ** 2  # largest admissible n(2n+1)
    if full_dimension(n) > bound:
        limit = (math.isqrt(8 * bound + 1) - 1) // 4  # largest n with n(2n+1) <= bound
        raise ValueError(f"exact closure is limited to n <= {limit}, got n = {n}")


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a 2n x 2n matrix of its upper triangle and of the transposed entries."""
    rows, cols = np.triu_indices(2 * n)
    return rows * (2 * n) + cols, cols * (2 * n) + rows


def _symmetric(H: QuadraticHamiltonian) -> np.ndarray:
    """H.A with the rounding-level asymmetry its validation allows removed."""
    return _symmetric_part(H.A)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce integer-valued x (|x| < 2^53) mod p in place, to |x| <= (p + 1)/2."""
    q = x / p
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _residue(x: float, p: int) -> int:
    """The centred residue mod p of the dyadic rational x."""
    num, den = x.as_integer_ratio()
    r = num * pow(den, -1, p) % p
    return r - p if r > p // 2 else r


def _to_field(A: np.ndarray, p: int) -> np.ndarray:
    """The exact centred residues mod p of a float array, as float64."""
    values, inverse = np.unique(A.ravel(), return_inverse=True)
    residues = np.array([_residue(float(v), p) for v in values], dtype=float)
    return residues[inverse].reshape(A.shape)


class _Echelon:
    """A reduced row echelon basis [I | F] over F_p on permuted coordinates.

    ``perm[j]`` is the coordinate at position j; positions below ``rank``
    are the pivots, and row i of ``F`` has its pivot at position i. Only the
    free part ``F[:rank, rank:]`` is kept.
    """

    def __init__(self, size: int, p: int):
        self.p = p
        self.rank = 0
        self.perm = np.arange(size)
        self.F = np.zeros((size, size))

    def admit(self, W: np.ndarray) -> list[int]:
        """Accept, in order, the rows of W that are new; return their indices.

        W holds residues in the original coordinates, at most one block.
        """
        p, r = self.p, self.rank
        W = W[:, self.perm]
        R = W[:, r:]
        if r:
            R -= W[:, :r] @ self.F[:r, r:]
            _reduce(R, p)
        # Gauss-Jordan in candidate order: each accepted row is eliminated
        # from every other row of the block, so a row still nonzero when its
        # turn comes is new. A row is reduced only when its turn comes: each
        # elimination adds at most ((p + 1)/2)^2 to an entry. A row that the
        # basis already reduced to zero stays zero.
        cols: list[int] = []  # each accepted row's pivot, relative to position r
        taken: list[int] = []
        for i in R.any(axis=1).nonzero()[0]:
            w = R[i]
            if taken:
                _reduce(w, p)
            nonzero = w.nonzero()[0]
            if not nonzero.size:
                continue
            c = int(nonzero[0])
            w *= pow(int(w[c]), -1, p)
            _reduce(w, p)
            factors = _reduce(R[:, c].copy(), p)
            factors[i] = 0.0
            R -= factors[:, None] * w
            cols.append(c)
            taken.append(int(i))
        if taken:
            self._extend(_reduce(R[taken], p), cols)
        return taken

    def _extend(self, B: np.ndarray, cols: list[int]) -> None:
        """Append the rows B, pivoted at free positions rank + cols."""
        p, r, k = self.p, self.rank, len(cols)
        F = self.F
        pos = r + np.array(cols)
        if r:
            F[:r, r:] -= F[:r, pos] @ B
            _reduce(F[:r, r:], p)
        F[r:r + k, r:] = B
        # move the new pivots to positions r .. r + k - 1, in row order, and
        # the free columns they displace to the positions they leave
        vacated = pos[pos >= r + k]
        kept = np.ones(k, dtype=bool)
        kept[pos[pos < r + k] - r] = False
        dest = np.concatenate([np.arange(r, r + k), vacated])
        src = np.concatenate([pos, r + np.flatnonzero(kept)])
        F[:r + k, dest] = F[:r + k, src]
        self.perm[dest] = self.perm[src]
        self.rank = r + k

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The pivots and the echelon rows in the original coordinates."""
        r, size = self.rank, len(self.perm)
        E = np.zeros((r, size))
        E[:, self.perm[:r]] = np.eye(r)
        E[:, self.perm[r:]] = self.F[:r, r:]
        return self.perm[:r].copy(), E


def _close(
    seed_A: np.ndarray, seed_names: list[str], p: int, passive: bool,
) -> LieSubspace:
    """The breadth-first closure of the seeds over F_p.

    Each round admits at least one element or leaves an empty frontier, so
    the loop ends within n(2n+1) rounds.
    """
    k = len(seed_A)
    n = seed_A.shape[-1] // 2
    dim_full = full_dimension(n)
    upper, lower = _upper_triangle(n)
    seeds = _to_field(seed_A, p)
    seeds_omega = seeds @ symplectic_form(n)  # a signed column permutation, exact
    basis = _Echelon(dim_full, p)
    names: list[str] = []

    def admit(V: np.ndarray, name) -> np.ndarray:
        """Admit candidate coordinates V block by block; the raw rows that entered."""
        taken = []
        for lo in range(0, len(V), _BLOCK):
            if basis.rank == dim_full:
                break
            entered = [lo + i for i in basis.admit(V[lo:lo + _BLOCK])]
            names.extend(name(i) for i in entered)
            taken.extend(entered)
        return V[taken]

    def matrices(V: np.ndarray) -> np.ndarray:
        M = np.empty((len(V), 4 * n * n))
        M[:, upper] = V
        M[:, lower] = V
        return M.reshape(-1, 2 * n, 2 * n)

    frontier = matrices(admit(seeds.reshape(k, -1)[:, upper], lambda i: seed_names[i]))
    candidates = k
    chunk = max(1, _BLOCK // k)  # frontier elements per block of candidates
    depth = 0
    start = 0  # index in names of the first frontier element
    # nothing outside sp(2n, R) can appear once the basis is full
    while basis.rank < dim_full and len(frontier):
        next_start = len(names)
        entered = []
        for lo in range(0, len(frontier), chunk):
            if basis.rank == dim_full:
                break
            P = (seeds_omega[None] @ frontier[lo:lo + chunk, None]).reshape(-1, 4 * n * n)
            V = _reduce(P[:, upper] + P[:, lower], p)  # P + P^T, P = A_s Omega A_b
            candidates += len(V)
            base = start + lo
            entered.append(
                admit(V, lambda i: f"[{names[base + i // k]},{seed_names[i % k]}]")
            )
        frontier = matrices(np.concatenate(entered))
        start = next_start
        depth += 1

    pivots, echelon = basis.rows()
    for a in (pivots, echelon):
        a.setflags(write=False)
    return LieSubspace(
        n=n,
        prime=p,
        sources=tuple(names),
        pivots=pivots,
        echelon=echelon,
        bracket_depth_reached=depth,
        passive=passive,
        candidates=candidates,
    )


def closure(seeds: Iterable[QuadraticHamiltonian]) -> LieSubspace:
    """Generate the Lie subalgebra spanned by repeated brackets of the seeds iH.

    Each basis element is named after its seed's label (``seed<i>`` when
    the label is empty) or the bracket it came from. The dimension is exact
    over F_p for the first prime of ``PRIMES`` that reaches the larger
    count; see the module docstring for why full rank mod p proves full rank.

    Raises ValueError, before any work, for an empty or mixed seed set and
    for n > 127 (see :func:`_require_exact_size`).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("closure needs at least one seed Hamiltonian")
    n = seeds[0].n
    if any(H.n != n for H in seeds):
        raise ValueError(f"mixed mode counts in seeds: {sorted({H.n for H in seeds})}")
    _require_exact_size(n)

    seed_A = np.array([_symmetric(H) for H in seeds])
    seed_names = [H.label or f"seed{i}" for i, H in enumerate(seeds)]
    omega = symplectic_form(n)
    # u(n) is a subalgebra, and -Omega A Omega permutes and negates entries exactly
    passive = all(np.array_equal(A, -(omega @ A @ omega)) for A in seed_A)
    bound = n * n if passive else full_dimension(n)
    best = None
    for p in PRIMES:
        sub = _close(seed_A, seed_names, p, passive)
        if best is None or sub.dimension > best.dimension:
            best = sub
        if best.dimension == bound:
            break
    return best


def contains(sub: LieSubspace, H: QuadraticHamiltonian) -> bool:
    """True iff the residue of iH mod ``sub.prime`` lies in the span of the basis."""
    if H.n != sub.n:
        raise ValueError(f"mode count mismatch: subspace has {sub.n}, Hamiltonian has {H.n}")
    v = _to_field(_symmetric(H), sub.prime).ravel()[_upper_triangle(sub.n)[0]]
    if sub.dimension:
        v -= v[sub.pivots] @ sub.echelon
        _reduce(v, sub.prime)
    return not v.any()
