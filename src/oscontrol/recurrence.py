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

The search is existence-driven, not optimal: horizon exhaustion is an honest
``found=False``, never an exception.
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
_CHUNK = 1 << 18


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
    s = np.sin(0.5 * np.outer(np.atleast_1d(t_arr).ravel(), nu))
    d = np.sqrt(8.0 * np.sum(s * s, axis=1))
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
        if self.grid_points_per_period < 8:
            raise ValueError(
                f"grid_points_per_period must be at least 8, got {self.grid_points_per_period}"
            )


@dataclass(frozen=True)
class RecurrenceResult:
    """Search outcome; tau and the distances are None when nothing was found.

    ``nu`` holds the symplectic eigenvalues, ascending, from the same
    Williamson decomposition that supplies K.
    """

    found: bool
    tau: Optional[float]
    achieved_distance: Optional[float]
    mode_distance_at_tau: Optional[float]
    conditioning: float  # K = ||V||_F^2
    best_distance_seen: float
    nu: tuple[float, ...]


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine(fun, lo: float, hi: float, xatol: float = 1e-12) -> tuple[float, float]:
    """Golden-section minimisation with a width target in absolute time.

    The mode distance is V-shaped at a recurrence, so function values
    stay informative arbitrarily close to the minimiser; a library bounded
    minimiser with a relative sqrt(eps)*|x| floor would stall three decades
    too early for the distances this search must certify. The target is
    floored at a few ulps of the bracket (an interval at large t cannot
    shrink below the float spacing there) and iterations are capped.
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


def find_recurrence(query: RecurrenceQuery) -> RecurrenceResult:
    """Locate a recurrence time tau > min_time with distance below epsilon.

    mode_distance is scanned on a uniform grid with spacing
    (2 pi / nu_max) / grid_points_per_period and each local minimum is
    refined. A refined minimum t* with bound K * d* <= epsilon is an
    epsilon-recurrence by the bound; one evaluation of the true propagator
    distance at t* confirms it, and the first confirmed t* is returned as
    tau with mode_distance_at_tau = d*. When no candidate passed the bound,
    the refined best grid minimum gets one true-distance evaluation, and a
    distance below epsilon there is returned as found too. Otherwise the
    result is negative, and best_distance_seen is the smallest true distance
    evaluated.
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
    threshold = query.epsilon / K

    nu_list = [float(v) for v in nu]
    # refinement can lower a grid value by at most lipschitz * h, so grid
    # minima above threshold + margin provably cannot pass the filter
    lipschitz = math.sqrt(2.0 * sum(v * v for v in nu_list))
    margin = lipschitz * h

    def true_distance(t: float) -> float:
        return identity_distance(expm(G, t))

    def mode_at(t: float) -> float:
        return math.sqrt(8.0 * sum(math.sin(0.5 * v * t) ** 2 for v in nu_list))

    n_points = int(math.floor((t_end - query.min_time) / h))
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
            nu=tuple(nu_list),
        )

    def consider(t_center: float) -> Optional[RecurrenceResult]:
        nonlocal best_true
        t_star, d_star = _refine(mode_at, max(t_center - h, query.min_time), t_center + h)
        if d_star <= threshold and t_star > query.min_time:
            dist = true_distance(t_star)
            best_true = min(best_true, dist)
            if dist < query.epsilon:
                return result(t_star, dist, d_star)
        return None

    if n_points <= 2:
        for j in range(1, n_points + 1):
            t = query.min_time + j * h
            if best_grid is None or mode_at(t) < best_grid[1]:
                best_grid = (t, mode_at(t))
            hit = consider(t)
            if hit is not None:
                return hit
    else:
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
                for k in interior[d[interior] <= threshold + margin]:
                    hit = consider(float(ts[k]))
                    if hit is not None:
                        return hit
            j = j_hi + 1

    if not math.isfinite(best_true) and best_grid is not None:
        # report an honest true distance at the best bound seen; the bound
        # is loose by up to K, so that distance may itself be below epsilon
        t_star, d_star = _refine(
            mode_at, max(best_grid[0] - h, query.min_time), best_grid[0] + h
        )
        best_true = true_distance(t_star)
        if best_true < query.epsilon and t_star > query.min_time:
            return result(t_star, best_true, d_star)
    return result()
