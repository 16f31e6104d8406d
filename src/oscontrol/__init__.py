"""Controllability analysis for coupled harmonic oscillators.

Quadratic Hamiltonians H = (1/2) R^T A R generate linear symplectic dynamics
S(t) = exp(-A Omega t). This package decides which symplectic evolutions a
control setup can reach (Lie algebra bracket closure and the rank
criterion), computes Williamson normal forms and the spectral certificates
that make positive-definite dynamics recur, searches for explicit
recurrence times, and machine-verifies the bracket-identity chain proving
that a locally controlled oscillator chain is fully controllable.
"""

__version__ = "0.1.0"

from .symplectic import (
    audit_symplecticity,
    commutator,
    expm,
    identity_distance,
    symplectic_form,
)
from .hamiltonians import (
    HamiltonianTerm,
    QuadraticHamiltonian,
    from_terms,
    generator,
    generic,
    hop,
    number,
    pair,
    squeeze,
)
from .closure import (
    LieSubspace,
    closure,
    contains,
    full_dimension,
)
from .williamson import (
    AnalysisError,
    DefinitenessError,
    SpectrumCertificate,
    WilliamsonDecomposition,
    spectrum_certificate,
    symplectic_eigenvalues,
    williamson_decompose,
)
from .recurrence import (
    RecurrenceQuery,
    RecurrenceResult,
    find_recurrence,
    mode_distance,
)
from .evolution import (
    ControlModel,
    ControlSchedule,
    CovarianceState,
    evolve_covariance,
    propagate,
)
from .chain import (
    ChainInduction,
    ChainSpec,
    ControllabilityReport,
    IdentityReport,
    PositivityCheck,
    build_chain,
    controllability_report,
    verify_bracket_identities,
)
from .documents import DocumentError, ModelDocument, ScheduleDocument

__all__ = [
    "__version__",
    # symplectic
    "symplectic_form", "audit_symplecticity", "commutator", "expm", "identity_distance",
    # hamiltonians
    "QuadraticHamiltonian", "HamiltonianTerm",
    "number", "hop", "pair", "squeeze", "generic",
    "from_terms", "generator",
    # closure
    "LieSubspace", "full_dimension", "closure", "contains",
    # williamson
    "AnalysisError", "DefinitenessError", "WilliamsonDecomposition", "SpectrumCertificate",
    "symplectic_eigenvalues", "williamson_decompose", "spectrum_certificate",
    # recurrence
    "RecurrenceQuery", "RecurrenceResult",
    "mode_distance", "find_recurrence",
    # evolution
    "ControlModel", "ControlSchedule", "CovarianceState",
    "propagate", "evolve_covariance",
    # chain
    "ChainSpec", "PositivityCheck", "IdentityReport",
    "ChainInduction", "ControllabilityReport", "build_chain", "verify_bracket_identities",
    "controllability_report",
    # documents
    "DocumentError", "ModelDocument", "ScheduleDocument",
]
