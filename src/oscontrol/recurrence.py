"""Dynamical-recurrence certificates for propagators exp(-A Omega t).

For positive-definite A the propagator is quasi-periodic: the Williamson
normal form A = V D V^T gives exp(-A Omega t) = V R(nu t) V^{-1} with R the
block rotation by the symplectic eigenvalues nu, and the distance to the
identity obeys

    ||exp(-A Omega t) - 1||_F  <=  K * mode_distance(nu, t),

where K = ||V||_F^2 is constant in time and mode_distance is the cheap
n-cosine bound sqrt(sum_k 8 sin^2(nu_k t / 2)). One normal form supplies both
nu and K. The recurrence search exploits that inequality: scan mode_distance
on a grid and refine its local minima; a refined minimum with
K * mode_distance <= epsilon is certified by the bound, and one evaluation
of the true propagator distance confirms it.

One kernel evaluates the mode distance everywhere: it sums the modes in
order into one vector the length of the times, so a grid chunk of 2^18
points costs a few passes per mode and no (points x modes) temporary. The
grid scan calls ``mode_distance`` once per chunk; the refine calls the
kernel directly, golden-section on a batch of a chunk's candidate minima in
lockstep, each with its own bracket, width target and stop. The batches
follow grid order and double in size, and the refined minima are confirmed
in grid order, so the answer is the one a candidate-by-candidate search
gives.

The search is existence-driven, not optimal: horizon exhaustion is an honest
``found=False``, never an exception. Its work is bounded: past
``GRID_POINT_BUDGET`` grid points the scan stops short of the horizon, and
the result says so in ``budget_exhausted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hamiltonians import QuadraticHamiltonian
from .symplectic import expm, identity_distance, symplectic_form
from .williamson import williamson_decompose

__all__ = [
    "RecurrenceQuery",
    "RecurrenceResult",
    "mode_distance",
    "conditioning_bound",
    "find_recurrence",
]

DEFAULT_GRID_POINTS_PER_PERIOD = 16
DEFAULT_HORIZON_PERIODS = 1e5
# grid points one search may scan: a few seconds even where every grid minimum
# is a refined candidate; the default horizon of nu_max / nu_min < 10 fits
GRID_POINT_BUDGET = 1 << 24
_CHUNK = 1 << 18
_FIRST_BATCH = 64  # candidates in a chunk's first lockstep refine


def _mode_distance(nu: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sqrt(8 sum_k sin^2(nu_k t / 2)) at a 1-d float array of times t.

    The one kernel of the mode distance: the modes are summed in order into
    one preallocated vector, then scaled and rooted in place.
    """
    total = np.zeros_like(t)
    term = np.empty_like(t)
    for v in nu:
        np.multiply(t, 0.5 * v, out=term)
        np.sin(term, out=term)
        np.multiply(term, term, out=term)
        total += term
    total *= 8.0
    return np.sqrt(total, out=total)


def mode_distance(nu, t):
    """The normal-mode distance sqrt(2 sum_k |exp(-i nu_k t) - 1|^2).

    Equals sqrt(sum_k 8 sin^2(nu_k t / 2)); quasi-periodic in t. Accepts a
    scalar or an array of times.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size == 0:
        raise ValueError("nu must be nonempty")
    if np.any(nu <= 0) or not np.all(np.isfinite(nu)):
        raise ValueError("mode frequencies must be positive and finite")
    t_arr = np.asarray(t, dtype=float)
    d = _mode_distance(tuple(nu.tolist()), t_arr.ravel())
    if t_arr.ndim == 0:
        return float(d[0])
    return d.reshape(t_arr.shape)


def conditioning_bound(H) -> float:
    """The constant K = ||V||_F^2 for the Williamson basis V of A.

    K equals ||W||_F ||W^{-1}||_F for the diagonaliser W = V U of A Omega,
    where U pairs each normal-mode block into +/- i nu: U is unitary, and
    V^{-1} = -Omega V^T Omega has the norm of V. K >= 2n always, with equality when V is orthogonal (for instance
    A = identity).
    """
    return float(np.linalg.norm(williamson_decompose(H).V) ** 2)


@dataclass(frozen=True)
class RecurrenceQuery:
    """Search request: find tau > min_time with distance below epsilon."""

    hamiltonian: QuadraticHamiltonian
    epsilon: float
    min_time: float = 0.0
    max_time: Optional[float] = None
    grid_points_per_period: int = DEFAULT_GRID_POINTS_PER_PERIOD

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.min_time >= 0.0 and np.isfinite(self.min_time)):
            raise ValueError(f"min_time must be nonnegative and finite, got {self.min_time}")
        if self.max_time is not None and not self.max_time > self.min_time:
            raise ValueError(f"max_time {self.max_time} must exceed min_time {self.min_time}")
        if self.max_time is not None and not np.isfinite(self.max_time):
            raise ValueError(f"max_time must be finite, got {self.max_time}")
        if self.grid_points_per_period < 8:
            raise ValueError(
                f"grid_points_per_period must be at least 8, got {self.grid_points_per_period}"
            )


@dataclass(frozen=True)
class RecurrenceResult:
    """Search outcome; tau and the distances are None when nothing was found.

    ``nu`` holds the symplectic eigenvalues, ascending, from the same
    Williamson decomposition that supplies K. ``budget_exhausted`` says the
    grid scan stopped at ``GRID_POINT_BUDGET`` points before the horizon, so
    a negative result covers only the times scanned.
    """

    found: bool
    tau: Optional[float]
    achieved_distance: Optional[float]
    mode_distance_at_tau: Optional[float]
    conditioning: float  # K = ||V||_F^2
    best_distance_seen: float
    nu: tuple[float, ...]
    budget_exhausted: bool  # the scan stopped at GRID_POINT_BUDGET, short of max_time


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _bracket_tol(lo: np.ndarray, hi: np.ndarray, xatol: float = 1e-12) -> np.ndarray:
    """The width at which _refine stops on [lo, hi]: xatol, floored at a few ulps."""
    return np.maximum(xatol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))


def _refine(
    nu: tuple[float, ...], lo: np.ndarray, hi: np.ndarray, xatol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimisation of the mode distance on brackets [lo, hi].

    All brackets are refined in lockstep; each keeps its own width target
    and stops on its own, so each ends where a refine of it alone would.
    The target is in absolute time: the mode distance is V-shaped at a
    recurrence, so function values stay informative arbitrarily close to
    the minimiser, and a library bounded minimiser with a relative
    sqrt(eps)*|x| floor would stall three decades too early for the
    distances this search must certify. The target is floored at a few ulps
    of the bracket (an interval at large t cannot shrink below the float
    spacing there) and iterations are capped. Returns the minimisers and
    their mode distances.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    tol = _bracket_tol(a, b, xatol)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = _mode_distance(nu, c), _mode_distance(nu, d)
    for _ in range(256):
        live = b - a > tol
        if not live.any():
            break
        left = fc <= fd  # the minimum lies in [a, d]
        go_left, go_right = live & left, live & ~left
        np.copyto(b, d, where=go_left)
        np.copyto(d, c, where=go_left)
        np.copyto(fd, fc, where=go_left)
        np.copyto(a, c, where=go_right)
        np.copyto(c, d, where=go_right)
        np.copyto(fc, fd, where=go_right)
        step = _INV_GOLDEN * (b - a)
        x = np.where(left, b - step, a + step)
        fx = _mode_distance(nu, x)  # finished brackets are evaluated too, and discarded
        np.copyto(c, x, where=go_left)
        np.copyto(fc, fx, where=go_left)
        np.copyto(d, x, where=go_right)
        np.copyto(fd, fx, where=go_right)
    return np.where(fc <= fd, c, d), np.minimum(fc, fd)


def find_recurrence(query: RecurrenceQuery) -> RecurrenceResult:
    """Locate a recurrence time tau > min_time with distance below epsilon.

    mode_distance is scanned on a uniform grid with spacing
    (2 pi / nu_max) / grid_points_per_period and each local minimum is
    refined. A refined minimum t* with bound K * d* <= epsilon is an
    epsilon-recurrence by the bound; one evaluation of the true propagator
    distance at t* confirms it, and the first confirmed t* is returned as
    tau with mode_distance_at_tau = d*. When no candidate passed the bound,
    the refined best grid minimum gets one true-distance evaluation, and a
    distance below epsilon there is returned as found too; a grid with no
    interior minimum offers its last point, and a horizon shorter than one
    grid step is scanned with one step that ends on it. Refines stay inside
    [min_time, max_time], so tau never passes the horizon. A refine that
    ends on the lower end of its bracket found the distance rising there,
    as it does from the identity at t = 0: that is not a return, and its
    point is never tau.
    Otherwise the result is negative, and best_distance_seen is the smallest
    true distance evaluated. A scan that reaches GRID_POINT_BUDGET points
    stops there with budget_exhausted set; the fallback evaluation still
    runs on what it saw.
    """
    H = query.hamiltonian
    dec = williamson_decompose(H)  # raises DefinitenessError when A is not > 0
    nu = dec.nu
    K = float(np.linalg.norm(dec.V) ** 2)
    G = -np.asarray(H.A) @ symplectic_form(H.n)

    h = (2.0 * math.pi / float(nu[-1])) / query.grid_points_per_period
    t_end = query.max_time
    if t_end is None:
        t_end = query.min_time + DEFAULT_HORIZON_PERIODS * (2.0 * math.pi / float(nu[0]))
    h = min(h, t_end - query.min_time)  # a horizon shorter than one step still scans its end
    threshold = query.epsilon / K

    nu_modes = tuple(float(v) for v in nu)
    # refinement can lower a grid value by at most lipschitz * h, so grid
    # minima above threshold + margin provably cannot pass the filter
    lipschitz = math.sqrt(2.0 * sum(v * v for v in nu_modes))
    margin = lipschitz * h

    def true_distance(t: float) -> float:
        return identity_distance(expm(G, t))

    n_points = int(math.floor((t_end - query.min_time) / h))
    budget_exhausted = n_points > GRID_POINT_BUDGET
    n_points = min(n_points, GRID_POINT_BUDGET)
    best_true = math.inf
    best_grid: Optional[tuple[float, float]] = None  # lowest unrefined grid minimum

    def result(tau=None, dist=None, d_star=None) -> RecurrenceResult:
        return RecurrenceResult(
            found=tau is not None,
            tau=tau,
            achieved_distance=dist,
            mode_distance_at_tau=d_star,
            conditioning=K,
            best_distance_seen=best_true,
            nu=nu_modes,
            budget_exhausted=budget_exhausted,
        )

    def refine(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimisers, their mode distances, and whether each is a return."""
        lo, hi = np.maximum(centers - h, query.min_time), np.minimum(centers + h, t_end)
        t_star, d_star = _refine(nu_modes, lo, hi)
        return t_star, d_star, t_star - lo > _bracket_tol(lo, hi)

    def consider(centers: np.ndarray) -> Optional[RecurrenceResult]:
        """Refine the grid minima at ``centers`` and confirm them in grid order.

        A lockstep refine takes some 60 steps of a few dozen numpy calls
        whatever its size, so one bracket costs about as much as 64, while a
        chunk can hold thousands of candidates of which the first may
        already be confirmed. So the candidates go in batches that double
        from ``_FIRST_BATCH``: the batches per chunk grow as log2, and the
        refines past the first confirmed candidate are at most as many as
        those before it, plus 64.
        """
        nonlocal best_true
        start, size = 0, _FIRST_BATCH
        while start < centers.size:
            batch = refine(centers[start:start + size])
            for t_star, d_star, returns in zip(*(x.tolist() for x in batch)):
                if d_star <= threshold and returns:
                    dist = true_distance(t_star)
                    best_true = min(best_true, dist)
                    if dist < query.epsilon:
                        return result(t_star, dist, d_star)
            start, size = start + size, 2 * size
        return None

    if 1 <= n_points <= 2:
        ts = query.min_time + np.arange(1, n_points + 1) * h
        d = mode_distance(nu, ts)
        k_best = int(np.argmin(d))
        best_grid = (float(ts[k_best]), float(d[k_best]))
        hit = consider(ts)
        if hit is not None:
            return hit
    elif n_points > 2:
        # chunked scan with one-point overlap so interior minima at chunk
        # boundaries are not missed
        j = 1
        while j <= n_points - 1:
            j_hi = min(j + _CHUNK, n_points - 1)
            idx = np.arange(j - 1, j_hi + 1)  # one lookback, one lookahead
            ts = query.min_time + idx * h
            d = mode_distance(nu, ts)
            interior = np.nonzero((d[1:-1] <= d[:-2]) & (d[1:-1] <= d[2:]))[0] + 1
            if interior.size:
                k_best = int(interior[np.argmin(d[interior])])
                if best_grid is None or d[k_best] < best_grid[1]:
                    best_grid = (float(ts[k_best]), float(d[k_best]))
                hit = consider(ts[interior[d[interior] <= threshold + margin]])
                if hit is not None:
                    return hit
            j = j_hi + 1

    if best_grid is None and n_points > 2:
        # no interior grid minimum: offer the last grid point, never min_time
        t_last = query.min_time + n_points * h
        best_grid = (t_last, float(_mode_distance(nu_modes, np.array([t_last]))[0]))

    if not math.isfinite(best_true) and best_grid is not None:
        # report an honest true distance at the best bound seen; the bound
        # is loose by up to K, so that distance may itself be below epsilon
        t_star, d_star, returns = (x[0].item() for x in refine(np.array([best_grid[0]])))
        if not returns:
            best_true = true_distance(best_grid[0])
        else:
            best_true = true_distance(t_star)
            if best_true < query.epsilon:
                return result(t_star, best_true, d_star)
    return result()
