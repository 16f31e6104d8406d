"""Propagation under piecewise-constant controls and covariance transport.

The evolution equation dS/dt = -A(f, t) Omega S with S(0) = 1 is integrated
exactly over segments of constant control values: later segments multiply on
the left, so S = exp(-A_N Omega d_N) ... exp(-A_1 Omega d_1). A schedule is
one (k, 1 + m) array of rows (d_i, f_{1,i}, ..., f_{m,i}). The product is
formed chunk by chunk: each run of up to 256 segments becomes one stack of
generators and one stacked, solve-free Taylor exponential
(``symplectic.expm``), whose factors are then multiplied into S in segment
order. The same machinery
drives classical and quantum oscillator networks; covariance physicality is
therefore an opt-in check, not a constructor requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .hamiltonians import QuadraticHamiltonian, _readonly
from .symplectic import _symmetric_part, _unit_scaled, audit_symplecticity, expm, symplectic_form
from .williamson import AnalysisError

__all__ = [
    "ControlModel",
    "ControlSchedule",
    "CovarianceState",
    "propagate",
    "evolve_covariance",
]


@dataclass(frozen=True, eq=False)
class ControlModel:
    """A drift Hamiltonian plus switchable control Hamiltonians."""

    drift: QuadraticHamiltonian
    controls: tuple[QuadraticHamiltonian, ...] = ()

    def __post_init__(self):
        controls = tuple(self.controls)
        for c in controls:
            if c.n != self.drift.n:
                raise ValueError(
                    f"control {c.label!r} has {c.n} modes, drift has {self.drift.n}"
                )
        object.__setattr__(self, "controls", controls)

    @property
    def n(self) -> int:
        return self.drift.n

    @property
    def num_controls(self) -> int:
        return len(self.controls)


@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """Piecewise-constant controls as one read-only array.

    ``segments`` has shape (k, 1 + m): row i holds segment i's duration
    followed by its m control values f_{1,i}, ..., f_{m,i}. Durations must be
    positive and finite and control values finite; each diagnostic names the
    first offending row as ``segments[i]``.
    """

    segments: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))

    def __post_init__(self):
        segments = _readonly(self.segments)
        if segments.ndim != 2 or segments.shape[1] == 0:
            raise ValueError(
                f"segments must have shape (k, 1 + m) (duration, then m control values), "
                f"got {segments.shape}"
            )
        durations = segments[:, 0]
        bad = ~((durations > 0.0) & np.isfinite(durations))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"segments[{i}]: segment duration must be positive and finite, "
                f"got {float(durations[i])}"
            )
        bad = ~np.isfinite(segments[:, 1:]).all(axis=1)
        if bad.any():
            raise ValueError(f"segments[{int(np.argmax(bad))}]: segment control values must be finite")
        object.__setattr__(self, "segments", segments)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, Sequence[float]]]) -> "ControlSchedule":
        """The schedule of (duration, control values) pairs, one row each.

        Every row must supply as many control values as row 0.
        """
        rows: list = []
        for i, (duration, values) in enumerate(pairs):
            row = [duration, *values]
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"segments[{i}]: segment supplies {len(row) - 1} control values, "
                    f"segments[0] supplies {len(rows[0]) - 1}"
                )
            rows.append(row)
        return cls(np.array(rows, dtype=float)) if rows else cls()

    @property
    def total_duration(self) -> float:
        # left to right, as the segments were given; numpy's pairwise sum
        # would change the last digits of long schedules
        return float(sum(self.segments[:, 0].tolist()))


_CHUNK = 256  # segments per stacked exponential; bounds the stack at _CHUNK (2n)^2 floats
_COVARIANCE_SYMPLECTIC_TOL = 1e-8  # evolve_covariance's audit, relative to max(1, ||S||_F^2)


def propagate(model: ControlModel, schedule: ControlSchedule) -> np.ndarray:
    """Integrate the controlled symplectic evolution over a schedule.

    Returns S = exp(-A_N Omega d_N) ... exp(-A_1 Omega d_1) with
    A_i = A_drift + sum_k f_{k,i} A_k. An empty schedule gives the identity.
    A nonempty schedule's control count is checked against the model before
    any exponential. The schedule is then taken in chunks of ``_CHUNK``
    rows: each chunk's generators are assembled with one ``tensordot``,
    exponentiated by one stacked ``expm`` call, and multiplied into S on the
    left in segment order. A product that overflows double precision,
    which an indefinite segment Hamiltonian can drive, raises
    ``AnalysisError``.
    """
    segments = schedule.segments
    if len(segments) and segments.shape[1] - 1 != model.num_controls:
        raise ValueError(
            f"schedule supplies {segments.shape[1] - 1} control values per segment, "
            f"model has {model.num_controls} controls"
        )
    dim = 2 * model.n
    omega = symplectic_form(model.n)
    controls = np.array([c.A for c in model.controls]).reshape(model.num_controls, dim, dim)
    S = np.eye(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for lo in range(0, len(segments), _CHUNK):
            chunk = segments[lo:lo + _CHUNK]
            A = model.drift.A + np.tensordot(chunk[:, 1:], controls, axes=1)
            for E in expm(-A @ omega, chunk[:, 0]):
                S = E @ S
    if not np.isfinite(S).all():
        raise AnalysisError(
            "propagator S has non-finite entries: the evolution overflows double precision"
        )
    return S


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """A symmetric covariance matrix sigma of a Gaussian state (vacuum = 1/2).

    ``check_physical=True`` additionally enforces the uncertainty relation
    sigma + (i/2) Omega >= 0; it is opt-in because the same carrier serves
    purely classical symplectic dynamics.
    """

    sigma: np.ndarray
    check_physical: bool = False

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise ValueError(f"sigma must be square with even dimension, got {sigma.shape}")
        scaled, s = _unit_scaled(sigma)
        bound = 1e-10 * max(s, np.linalg.norm(scaled))  # s times 1e-10 * max(1, ||sigma||_F)
        if np.linalg.norm(scaled - scaled.T) > bound:
            raise ValueError("sigma must be symmetric")
        if self.check_physical:
            omega = symplectic_form(sigma.shape[0] // 2)
            w = np.linalg.eigvalsh(sigma + 0.5j * omega)
            if w[0] * s < -bound:
                raise ValueError(
                    f"sigma violates the uncertainty relation: "
                    f"min eig(sigma + i Omega / 2) = {w[0]:.6e}"
                )
        object.__setattr__(self, "sigma", _readonly(sigma))

    @classmethod
    def vacuum(cls, n: int) -> "CovarianceState":
        return cls(sigma=0.5 * np.eye(2 * n))

    @property
    def n(self) -> int:
        return self.sigma.shape[0] // 2


def evolve_covariance(state: CovarianceState, S) -> CovarianceState:
    """Transport a covariance matrix: sigma -> S sigma S^T.

    S must be symplectic to 1e-8 relative to ``max(1, ||S||_F^2)``, the
    scale of the rounding in S Omega S^T; the transport then preserves the
    symplectic eigenvalues of sigma (purity and temperature invariants).
    A shape mismatch raises ``ValueError`` before any work. An S that fails
    the audit or has a non-finite entry, and an S sigma S^T that overflows
    double precision, raise ``AnalysisError``: a failed numerical check
    rather than a bad input.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != state.sigma.shape:
        raise ValueError(f"shape mismatch: sigma {state.sigma.shape}, S {S.shape}")
    tol = _COVARIANCE_SYMPLECTIC_TOL
    defect = audit_symplecticity(S)
    if not defect <= tol * max(1.0, np.linalg.norm(S) ** 2):  # a NaN audit fails too
        raise AnalysisError(f"S is not symplectic to {tol} * ||S||_F^2: audit {defect:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        out = S @ state.sigma @ S.T
    if not np.isfinite(out).all():
        raise AnalysisError(
            "covariance S sigma S^T has non-finite entries: "
            "the transport overflows double precision"
        )
    return CovarianceState(sigma=_symmetric_part(out))
