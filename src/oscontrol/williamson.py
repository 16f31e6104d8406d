"""Williamson normal form and spectral certificates for A Omega.

A positive-definite symmetric A factors as A = V D V^T with V symplectic and
D = diag(nu_1, nu_1, ..., nu_n, nu_n); the nu_j are the symplectic eigenvalues
and coincide with the positive imaginary parts of the spectrum of A Omega.
That spectrum being purely imaginary (with a well-conditioned diagonaliser)
is exactly what makes the propagator exp(-A Omega t) quasi-periodic, so the
spectrum certificate produced here doubles as the recurrence precondition.

The decomposition is built through the symmetric square root of A:
M = A^{1/2} Omega A^{1/2} is antisymmetric, so iM is Hermitian with
eigenvalues -nu_n..-nu_1, nu_1..nu_n, and one Hermitian ``eigh`` of iM gives
nu already sorted. An eigenvector u = x + iy of +nu yields the real
orthonormal pair (sqrt(2) y, sqrt(2) x) with M y = -nu x and M x = nu y, a
block [[0, nu], [-nu, 0]] of the real normal form Z^T M Z, and
V = A^{1/2} Z D^{-1/2}. The phase of each u is fixed by rotating its
largest-magnitude entry onto the positive imaginary axis, which makes the
rotation inside each 2x2 block canonical. Postconditions (reconstruction
residual and symplecticity of V) validate the route; no uniqueness of V is
claimed when symplectic eigenvalues are degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import QuadraticHamiltonian
from .symplectic import audit_symplecticity, symplectic_form

__all__ = [
    "AnalysisError",
    "DefinitenessError",
    "WilliamsonDecomposition",
    "SpectrumCertificate",
    "symplectic_eigenvalues",
    "williamson_decompose",
    "spectrum_certificate",
    "DIAGONALIZER_CONDITION_CAP",
]

_DEFINITENESS_TOL = 1e-10
_RESIDUAL_TOL = 1e-8  # relative bound on ||A - V D V^T||_F

# eigenvector bases with condition number beyond this cap carry no numerical
# rank information in double precision; the matrix is reported
# non-diagonalisable-within-precision
DIAGONALIZER_CONDITION_CAP = 1e8


class AnalysisError(ValueError):
    """A numerical analysis could not produce a trustworthy result.

    The input was well formed, but a precondition or a postcondition of the
    computation failed; the CLI reports this as a negative analysis (exit
    1), not as a usage error.
    """


class DefinitenessError(AnalysisError):
    """Raised when an operation requires a positive-definite matrix."""

    def __init__(self, message: str, smallest_eigenvalue: float):
        super().__init__(message)
        self.smallest_eigenvalue = float(smallest_eigenvalue)


def _coerce_symmetric(H) -> np.ndarray:
    """The matrix A of a QuadraticHamiltonian or of a plain symmetric matrix.

    A plain matrix is wrapped in a QuadraticHamiltonian, so it meets the
    constructor's shape, finiteness and symmetry checks.
    """
    if isinstance(H, QuadraticHamiltonian):
        return H.A
    A = np.asarray(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
        raise ValueError(f"A must be square with even dimension, got shape {A.shape}")
    return QuadraticHamiltonian(A.shape[0] // 2, A).A


def _positive_definite(w: np.ndarray) -> bool:
    """The one definiteness rule: the ascending spectrum w of A has w[0] > 1e-10 * ||A||_2."""
    return bool(w[0] > _DEFINITENESS_TOL * max(abs(w[0]), abs(w[-1])))


def _require_positive_definite(w: np.ndarray) -> None:
    """Raise DefinitenessError unless :func:`_positive_definite` holds."""
    if not _positive_definite(w):
        scale = max(abs(w[0]), abs(w[-1]))
        raise DefinitenessError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.6e} "
            f"(threshold {_DEFINITENESS_TOL:.1e} * ||A||_2 = {_DEFINITENESS_TOL * scale:.6e})",
            smallest_eigenvalue=w[0],
        )


def symplectic_eigenvalues(H) -> np.ndarray:
    """Symplectic eigenvalues nu_1 <= ... <= nu_n of a positive-definite A.

    Computed directly as the positive imaginary parts of the eigenvalues of
    A Omega, which pair as +/- i nu_j. This route is independent of
    :func:`williamson_decompose` and cross-checks it in the tests.
    """
    A = _coerce_symmetric(H)
    _require_positive_definite(np.linalg.eigvalsh(A))
    n = A.shape[0] // 2
    ev = np.linalg.eigvals(A @ symplectic_form(n))
    nu = np.sort(ev.imag[ev.imag > 0.0])
    if nu.size != n:
        raise AnalysisError(
            f"spectrum of A Omega did not split into +/- i nu pairs "
            f"(found {nu.size} positive imaginary parts, expected {n})"
        )
    return nu


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """A = V D V^T with V symplectic and D the paired diagonal of nu."""

    n: int
    V: np.ndarray
    nu: np.ndarray  # ascending, length n
    residual: float  # ||A - V D V^T||_F actually achieved

    @property
    def D(self) -> np.ndarray:
        return np.diag(np.repeat(self.nu, 2))


def williamson_decompose(H) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite quadratic Hamiltonian.

    The decomposition fails if ``||A - V D V^T||_F > 1e-8 ||A||_F``. The
    message then says whether the residual is within its rounding bound
    ``8 n eps ||V||_F^2 nu_n`` (the tolerance is below rounding level) or
    beyond it (the input is too ill-conditioned).

    Args:
        H: QuadraticHamiltonian (or plain symmetric matrix), positive definite.

    Returns:
        WilliamsonDecomposition with nu sorted ascending. V is canonicalised
        by the phase rule of the module docstring, so diagonal inputs give
        the hand-computed V; it is unique only up to symplectic-orthogonal
        freedom when eigenvalues are degenerate.

    Raises:
        DefinitenessError: A is not positive definite.
        AnalysisError: the residual or the symplecticity audit of V failed.
    """
    A = _coerce_symmetric(H)
    n = A.shape[0] // 2
    omega = symplectic_form(n)

    # symmetric square root through the eigendecomposition of A, whose
    # spectrum also decides definiteness; then nu_1 >= lam[0] > 0, so the
    # spectrum of iM splits into n negative and n positive eigenvalues
    lam, Q = np.linalg.eigh(A)
    _require_positive_definite(lam)
    root = (Q * np.sqrt(lam)) @ Q.T

    M = root @ omega @ root
    w, U = np.linalg.eigh(0.5j * (M - M.T))  # exactly Hermitian
    nu = w[n:]
    u = U[:, n:]

    # phase rule: the largest-magnitude entry of each u (the lowest index
    # among ties at rounding level) becomes purely imaginary and positive,
    # which makes the largest entry of each first column of Z positive
    mag = np.abs(u)
    k = np.argmax(mag >= (1.0 - 8.0 * np.finfo(float).eps) * mag.max(axis=0), axis=0)
    pivot = u[k, np.arange(n)]
    u = u * (1j * np.conj(pivot) / np.abs(pivot))
    Z = np.empty((2 * n, 2 * n))
    Z[:, 0::2] = np.sqrt(2.0) * u.imag
    Z[:, 1::2] = np.sqrt(2.0) * u.real

    V = root @ Z / np.sqrt(np.repeat(nu, 2))

    D = np.diag(np.repeat(nu, 2))
    residual = float(np.linalg.norm(A - V @ D @ V.T))
    tol = _RESIDUAL_TOL
    scale = max(np.linalg.norm(A), np.finfo(float).tiny)
    if residual > tol * scale:
        # forming V D V^T alone rounds by about 2n eps ||V||_F^2 nu_n; a
        # residual within four times that is as good as double precision
        # gets, so only a larger one blames the input
        rounding = 8 * n * np.finfo(float).eps * np.linalg.norm(V) ** 2 * nu[-1]
        cause = (
            f"the tolerance is below rounding level (rounding bound {rounding:.3e})"
            if residual <= rounding
            else "input is too ill-conditioned"
        )
        raise AnalysisError(
            f"Williamson reconstruction residual {residual:.3e} exceeds "
            f"{tol:.1e} * ||A||_F = {tol * scale:.3e}; {cause}"
        )
    # relative to ||V||_F^2, the scale of the rounding in V Omega V^T; a NaN audit fails too
    if not audit_symplecticity(V) <= 1e-8 * max(1.0, np.linalg.norm(V) ** 2):
        raise AnalysisError("Williamson basis V failed the symplecticity audit")
    V.setflags(write=False)
    nu.setflags(write=False)
    return WilliamsonDecomposition(n=n, V=V, nu=nu, residual=residual)


@dataclass(frozen=True, eq=False)
class SpectrumCertificate:
    """Spectral facts about A Omega used by the recurrence argument.

    ``diagonalizable`` is a within-precision verdict: the eigenvector matrix
    must have finite condition number below DIAGONALIZER_CONDITION_CAP.
    """

    eigenvalues: np.ndarray  # complex, sorted by (real, imag)
    max_real_part: float
    diagonalizable: bool
    diagonalizer_condition: float


def spectrum_certificate(H) -> SpectrumCertificate:
    """Certify the spectrum of A Omega for any symmetric A.

    Definiteness is deliberately not required: the certificate also covers
    semi-definite extensions and detects non-recurring counterexamples such
    as the free-particle Hamiltonian p^2, whose A Omega is a nilpotent
    Jordan block. Verdicts are data, not exceptions.
    """
    A = _coerce_symmetric(H)
    n = A.shape[0] // 2
    ev, W = np.linalg.eig(A @ symplectic_form(n))
    order = np.lexsort((ev.imag, ev.real))
    ev = ev[order]
    ev.setflags(write=False)
    sing = np.linalg.svd(W, compute_uv=False)
    cond = float("inf") if sing[-1] == 0.0 else float(sing[0] / sing[-1])
    return SpectrumCertificate(
        eigenvalues=ev,
        max_real_part=float(np.max(np.abs(ev.real))) if ev.size else 0.0,
        diagonalizable=bool(np.isfinite(cond) and cond < DIAGONALIZER_CONDITION_CAP),
        diagonalizer_condition=cond,
    )
