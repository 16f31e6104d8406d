"""The locally controlled harmonic-oscillator chain, end to end.

A uniform chain of n oscillators carries an always-on Hamiltonian with
nearest-neighbour excitation-exchange (coupling g1) and pair-creation
(coupling g2) terms, controlled through a phase rotation and a squeezing
term on site 1 only. This module builds that model, machine-checks the
bracket-identity chain that generates the full symplectic algebra from the
local controls, and assembles the whole pipeline into a controllability
verdict: ``controllability_report`` is the one place that decides the drift's
definiteness and the positive-definite generating triple.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Mapping, NamedTuple, Optional, Union

import numpy as np

from . import hamiltonians as ham
from .closure import (
    PRIMES, LieSubspace, _reduce, _require_exact_size, _residue, _to_field, closure,
    full_dimension,
)
from .evolution import ControlModel
from .hamiltonians import QuadraticHamiltonian
from .williamson import _positive_definite

__all__ = [
    "ChainSpec",
    "TripleParams",
    "PositivityCheck",
    "IdentityRecord",
    "IdentityReport",
    "ChainInduction",
    "ControllabilityReport",
    "build_chain",
    "identity_suite_unmet",
    "verify_bracket_identities",
    "controllability_report",
    "IDENTITY_NAMES",
]


def _set_finite(obj, names) -> None:
    """Store each named field of a frozen dataclass as a float, rejecting non-finite values."""
    for name in names:
        v = float(getattr(obj, name))
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
        object.__setattr__(obj, name, v)


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the uniform chain with site-1 controls.

    omega is the common oscillator frequency; g1 and g2 the exchange and
    pair couplings; omega1 and chi the strengths of the local rotation and
    squeezing controls. Couplings renormalise as g_tilde = g / omega.
    """

    n: int
    omega: float = 1.0
    g1: float = 0.0
    g2: float = 0.0
    omega1: float = 1.0
    chi: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"chain length must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        _set_finite(self, ("omega", "g1", "g2", "omega1", "chi"))
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")


def build_chain(spec: ChainSpec) -> ControlModel:
    """Assemble the chain drift and the two site-1 controls.

    Drift: number terms omega on every site, hop(j, j+1, g1) and
    pair(j, j+1, g2) on every bond. Controls: number(1, omega1) and
    squeeze(1, chi), strictly local to site 1.
    """
    n = spec.n
    drift_terms = [ham.number(j, spec.omega) for j in range(1, n + 1)]
    drift_terms += [ham.hop(j, j + 1, spec.g1) for j in range(1, n)]
    drift_terms += [ham.pair(j, j + 1, spec.g2) for j in range(1, n)]
    return ControlModel(drift=ham.from_terms(n, drift_terms, label="H0"), controls=_controls(spec))


def _controls(spec: ChainSpec) -> tuple[QuadraticHamiltonian, QuadraticHamiltonian]:
    """The site-1 controls number(1, omega1) and squeeze(1, chi)."""
    return (
        ham.from_terms(spec.n, [ham.number(1, spec.omega1)], label="H1"),
        ham.from_terms(spec.n, [ham.squeeze(1, spec.chi)], label="H2"),
    )


def _window(spec: ChainSpec, model: ControlModel, m: int) -> tuple[ChainSpec, ControlModel]:
    """The chain on sites 1..m of ``model``, the chain of ``spec``: (spec, model).

    Its drift is the top-left 2m x 2m block of ``model``'s, which is the
    m-site chain's drift exactly.
    """
    window = replace(spec, n=m)
    drift = QuadraticHamiltonian(m, model.drift.A[:2 * m, :2 * m], label="H0")
    return window, ControlModel(drift=drift, controls=_controls(window))


class PositivityCheck(NamedTuple):
    """The sufficient coupling condition, and the drift's definiteness by the one rule."""

    sufficient: bool
    actual: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class TripleParams:
    """Mixing weights for the positive-definite generating triple."""

    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 0.5

    def __post_init__(self):
        _set_finite(self, ("alpha", "beta", "delta"))


def _triple_message(
    spec: ChainSpec, params: TripleParams, model: ControlModel, drift_eigenvalues: np.ndarray,
) -> Optional[str]:
    """Why the triple {H0, H0 + alpha H1, H0 + beta H1 + delta H2} fails, or None.

    The constraints alpha omega1 > 0 and 0 < delta chi < beta omega1 are
    necessary design constraints, not a definiteness proof, so each member
    T0, T1, T2 is also checked positive definite. T0 is the drift, whose
    spectrum the caller already has.
    """
    if not params.alpha * spec.omega1 > 0:
        return (
            f"triple constraint violated: alpha * omega1 = "
            f"{params.alpha * spec.omega1:g} must be positive"
        )
    if not 0 < params.delta * spec.chi < params.beta * spec.omega1:
        return (
            f"triple constraint violated: need 0 < delta * chi < beta * omega1, "
            f"got delta * chi = {params.delta * spec.chi:g}, "
            f"beta * omega1 = {params.beta * spec.omega1:g}"
        )
    H0, H1, H2 = (H.A for H in (model.drift, *model.controls))
    for label, A in (
        ("T0", None),
        ("T1", H0 + params.alpha * H1),
        ("T2", H0 + params.beta * H1 + params.delta * H2),
    ):
        w = drift_eigenvalues if A is None else np.linalg.eigvalsh(A)
        if not _positive_definite(w):
            return (
                f"triple member {label} is not positive definite: "
                f"smallest eigenvalue {w[0]:.6e}"
            )
    return None


# --------------------------------------------------------------------------
# Generator fixtures for the bracket-identity suite.
#
# The symmetric operators (number, exchange, pair creation, squeeze) come
# from the term builders of ``hamiltonians``. The three antisymmetric ones,
# i (1/2) R^T A R with a q-p coupling block, have no term builder and are
# assembled here. Derivations expand a_j = (q_j + i p_j)/sqrt(2) and drop
# scalar constants (which vanish in the 2n x 2n representation). Blocks are
# written in the interleaved (q, p) ordering; j, k are 1-based sites.
# --------------------------------------------------------------------------


def _blocks(n: int) -> np.ndarray:
    return np.zeros((2 * n, 2 * n))


def _put(A: np.ndarray, j: int, k: int, blk: np.ndarray) -> np.ndarray:
    A[2 * (j - 1): 2 * j, 2 * (k - 1): 2 * k] += blk
    return A


def _exchange_anti_form(n: int, j: int, k: int) -> np.ndarray:
    # a_j^dag a_k - a_j a_k^dag = i (q_j p_k - p_j q_k)
    A = _blocks(n)
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    _put(A, j, k, b)
    return _put(A, k, j, b.T)


def _pair_anti_form(n: int, j: int, k: int) -> np.ndarray:
    # a_j^dag a_k^dag - a_j a_k = -i (q_j p_k + p_j q_k)
    A = _blocks(n)
    b = np.array([[0.0, -1.0], [-1.0, 0.0]])
    _put(A, j, k, b)
    return _put(A, k, j, b.T)


def _squeeze_anti_form(n: int, j: int) -> np.ndarray:
    # a_j^dag2 - a_j^2 = -i (q_j p_j + p_j q_j)  ->  block_j = [[0,-2],[-2,0]]
    return _put(_blocks(n), j, j, np.array([[0.0, -2.0], [-2.0, 0.0]]))


@dataclass(frozen=True, eq=False)
class IdentityRecord:
    """One bracket identity checked over F_p: its two sides and whether they agree.

    The sides are 6 x 6 generators on the chain's 3-site window, whatever
    the chain's length, as centred residues mod the report's prime.
    """

    name: str
    description: str
    lhs: np.ndarray
    rhs: np.ndarray
    holds: bool


@dataclass(frozen=True, eq=False)
class IdentityReport:
    records: tuple[IdentityRecord, ...]
    prime: int
    all_pass: bool


def _bracket(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """[X, Y] mod p. The operands are reduced first, so every product is an exact integer."""
    X, Y = (_reduce(np.array(Z, dtype=float), p) for Z in (X, Y))
    return _reduce(X @ Y - Y @ X, p)


def _divide(X: np.ndarray, d: int, p: int) -> np.ndarray:
    """X / d mod p for an integer d; a multiple of p raises ValueError."""
    return _reduce(_reduce(np.array(X, dtype=float), p) * pow(d % p, -1, p), p)


class _Units(NamedTuple):
    """The identity suite's parameter-free unit generators on one window."""

    sq_anti_1: np.ndarray
    sq_anti_2: np.ndarray
    sq_sym_2: np.ndarray
    ex_anti_12: np.ndarray
    ex_sym_12: np.ndarray
    pr_anti_12: np.ndarray
    pr_sym_12: np.ndarray
    num_2: np.ndarray
    ex_sym_23: Optional[np.ndarray]  # None on the 2-site window
    ex_sym_13: Optional[np.ndarray]


@functools.lru_cache(maxsize=None)
def _unit_generators(n: int) -> _Units:
    """The unit generators on the n-site window, built once per window size.

    They are read-only, and their entries are 0, +-1 and +-2: they are their
    own centred residues mod any prime of the closure, so the identity table
    uses them as they are.
    """

    def term(t: ham.HamiltonianTerm) -> np.ndarray:
        return ham.generator(ham.from_terms(n, [t]))

    def anti(A: np.ndarray) -> np.ndarray:
        return ham.generator(QuadraticHamiltonian(n, A))

    return _Units(
        sq_anti_1=anti(_squeeze_anti_form(n, 1)),
        sq_anti_2=anti(_squeeze_anti_form(n, 2)),
        sq_sym_2=term(ham.squeeze(2, 1.0)),
        ex_anti_12=anti(_exchange_anti_form(n, 1, 2)),
        ex_sym_12=term(ham.hop(1, 2, 1.0)),
        pr_anti_12=anti(_pair_anti_form(n, 1, 2)),
        pr_sym_12=term(ham.pair(1, 2, 1.0)),
        num_2=term(ham.number(2, 1.0)),
        ex_sym_23=term(ham.hop(2, 3, 1.0)) if n >= 3 else None,
        ex_sym_13=term(ham.hop(1, 3, 1.0)) if n >= 3 else None,
    )


def _identity_table(
    spec: ChainSpec, model: ControlModel, p: int,
) -> list[tuple[str, str, Callable[[int], np.ndarray], np.ndarray]]:
    """The identity suite as data, over F_p: (name, description, lhs builder, rhs).

    ``model`` is the chain of ``spec``, of 3 sites, or of 2 sites without
    long-distance-13, the one identity that needs site 3. Every identity
    touches sites 1-3 only. Every input float is a dyadic rational, so its
    residue mod p is exact; each bracket and division reduces its operands
    first, so every product is an exact integer below 2^53, and so is every
    linear combination the table forms of residues with residue weights.

    Each lhs builder takes an integer scale factor applied to the identity's one
    mutable coefficient, so the test harness can prove non-vacuity by
    perturbing coefficients individually. Operands are always the seeds and
    the unit-coefficient generators of ``_unit_generators``, never the
    output of a previous identity, so a mutation stays confined to its own
    record. In table order, each lhs is formed from the seeds
    {iH0, iH1, iH2} and the rhs of earlier identities only; long-distance-13
    alone also uses the bond (2, 3). So every rhs but that one lies in the
    Lie algebra of the seeds.

    Bracket combinations carry exact parameter scalings. The derivations fix
    three places where the unit-coefficient shorthand would break down for
    general parameters: the exchange-mix combination needs the symmetric mix
    weighted by 2 * omega, the symmetric pair creator needs the reversed
    bracket order [iH1, .], and the site-2 squeeze closes with a factor 1/2.
    """
    n = spec.n
    w, w1, x, g = (_residue(v, p) for v in (spec.omega, spec.omega1, spec.chi, spec.g1))
    br, div = functools.partial(_bracket, p=p), functools.partial(_divide, p=p)

    h0, h1, h2 = (_to_field(ham.generator(H), p) for H in (model.drift, *model.controls))
    (sq_anti_1, sq_anti_2, sq_sym_2, ex_anti_12, ex_sym_12, pr_anti_12, pr_sym_12, num_2,
     ex_sym_23, ex_sym_13) = _unit_generators(n)
    mix_12 = ex_anti_12 + pr_anti_12
    mix_sym_12 = ex_sym_12 + pr_sym_12

    table: list[tuple[str, str, Callable[[int], np.ndarray], np.ndarray]] = []

    def add(name, description, lhs, rhs):
        table.append((name, description, lhs, rhs))

    # [iH2, iH1] = 2 omega1 chi (a1^dag2 - a1^2): both controls live on site 1
    add(
        "squeeze-anti-1",
        "half bracket of the squeezing control with the rotation control",
        lambda s: div(s * br(h2, h1), 2 * w1 * x),
        sq_anti_1,
    )
    # [iH0, iH1] = omega1 g [(a1^dag a2 - a1 a2^dag) + (a1^dag a2^dag - a1 a2)]:
    # the drift's number part commutes with iH1, only the bond (1,2) survives
    add(
        "coupling-mix-12",
        "bracket of the drift with the rotation control, normalised by omega1 g",
        lambda s: div(s * br(h0, h1), w1 * g),
        mix_12,
    )
    # [iH1, mix] = omega1 * i(a1^dag a2^dag + a1^dag a2 + a1 a2^dag + a1 a2):
    # the rotation flips the antisymmetric mix into the symmetric one
    add(
        "coupling-mix-sym-12",
        "rotation-control bracket of the antisymmetric coupling mix",
        lambda s: div(s * br(h1, mix_12), w1),
        mix_sym_12,
    )
    # [[mix, iH0] + 2 omega mix_sym, iH1] = 2 omega omega1 (a1^dag a2 - a1 a2^dag):
    # [mix, iH0] = -2 omega pair_sym - 4 g number_2 - 2 g squeeze_sym_2 (the
    # bond (2,3) contribution cancels identically), the g-dependent part
    # commutes with iH1, and the symmetric mix restores the exchange part;
    # the symmetric-mix weight must scale with omega, not omega1
    add(
        "exchange-anti-12",
        "composite bracket isolating the antisymmetric exchange between sites 1 and 2",
        lambda s: div(br(br(mix_12, h0) + s * 2 * w * mix_sym_12, h1), 2 * w * w1),
        ex_anti_12,
    )
    # mix - exchange = pair part, a linear identity independent of parameters
    add(
        "pair-anti-12",
        "antisymmetric pair creator as coupling mix minus exchange",
        lambda s: mix_12 - s * ex_anti_12,
        pr_anti_12,
    )
    # [pair_anti, exchange_anti] = (a2^dag2 - a2^2) - (a1^dag2 - a1^2), so the
    # site-1 squeeze from the first identity completes the site-2 squeeze
    add(
        "squeeze-anti-2",
        "site-2 antisymmetric squeeze from the two-site pair and exchange generators",
        lambda s: br(pr_anti_12, ex_anti_12) + s * sq_anti_1,
        sq_anti_2,
    )
    # [iH1, pair_anti] = omega1 * i(a1^dag a2^dag + a1 a2); bracket order
    # matters, the reversed order flips the sign
    add(
        "pair-sym-12",
        "symmetric pair creator from the rotation control and the antisymmetric pair",
        lambda s: div(s * br(h1, pr_anti_12), w1),
        pr_sym_12,
    )
    # [iH1, mix - 2 exchange] = omega1 (pair_sym - exchange_sym)
    add(
        "coupling-diff-12",
        "rotation bracket of the exchange-suppressed mix",
        lambda s: div(br(h1, mix_12 - s * 2 * ex_anti_12), w1),
        pr_sym_12 - ex_sym_12,
    )
    # symmetric mix minus the previous difference leaves twice the exchange
    add(
        "exchange-sym-12",
        "symmetric exchange (beam-splitter) generator between sites 1 and 2",
        lambda s: div(s * (mix_sym_12 - (pr_sym_12 - ex_sym_12)), 2),
        ex_sym_12,
    )
    # [exchange_sym, exchange_anti] = 2 i (N2 - N1), so adding back twice the
    # normalised rotation control leaves the site-2 number generator
    add(
        "number-2",
        "site-2 number generator from the exchange pair and the rotation control",
        lambda s: div(div(s * 2 * h1, w1) + br(ex_sym_12, ex_anti_12), 2),
        num_2,
    )
    # [i N2, a2^dag2 - a2^2] = 2 i (a2^dag2 + a2^2); the factor 1/2 is exact
    add(
        "squeeze-sym-2",
        "site-2 symmetric squeeze from the site-2 number and antisymmetric squeeze",
        lambda s: div(s * br(num_2, sq_anti_2), 2),
        sq_sym_2,
    )
    if n < 3:
        return table
    # [i(a2^dag a3 + a2 a3^dag), a1 a2^dag - a1^dag a2] = i(a1^dag a3 + a1 a3^dag):
    # distant sites connect through one shared-site bracket with unit scalar
    add(
        "long-distance-13",
        "beam-splitter between sites 1 and 3 through the shared site 2",
        lambda s: s * br(ex_sym_23, -ex_anti_12),
        ex_sym_13,
    )
    return table


IDENTITY_NAMES = (
    "squeeze-anti-1",
    "coupling-mix-12",
    "coupling-mix-sym-12",
    "exchange-anti-12",
    "pair-anti-12",
    "squeeze-anti-2",
    "pair-sym-12",
    "coupling-diff-12",
    "exchange-sym-12",
    "number-2",
    "squeeze-sym-2",
    "long-distance-13",
)


def identity_suite_unmet(spec: ChainSpec) -> list[str]:
    """The preconditions of the bracket-identity suite that ``spec`` fails.

    The suite needs n >= 3 (the long-distance identity spans three sites),
    g1 == g2 (the uniform q-q coupling case the identity chain covers), and
    omega, g1, omega1 and chi nonzero mod p = ``PRIMES[0]``, the field the
    suite is checked in, so the normalisations exist. An empty list means
    the suite applies.
    """
    unmet = []
    if spec.n < 3:
        unmet.append(f"n >= 3 (long-distance bracket spans three sites), got n = {spec.n}")
    if spec.g1 != spec.g2:
        unmet.append(f"the uniform coupling case g1 == g2, got g1 = {spec.g1:g}, g2 = {spec.g2:g}")
    p = PRIMES[0]
    for name in ("omega", "g1", "omega1", "chi"):
        if not _residue(getattr(spec, name), p):
            unmet.append(f"nonzero {name} mod p = {p} for its normalisations")
    return unmet


def _records(
    spec: ChainSpec, model: ControlModel, m: int, p: int, mutate: Mapping[str, int],
) -> tuple[IdentityRecord, ...]:
    """The identity table on the m-site window of ``model``, checked mod p."""
    records = []
    for name, description, lhs_builder, rhs in _identity_table(*_window(spec, model, m), p):
        lhs = _reduce(lhs_builder(mutate.get(name, 1)), p)
        holds = not _reduce(lhs - rhs, p).any()
        records.append(IdentityRecord(name, description, lhs, rhs, holds))
    return tuple(records)


def verify_bracket_identities(
    spec: ChainSpec,
    mutate: Optional[Mapping[str, float]] = None,
    model: Optional[ControlModel] = None,
) -> IdentityReport:
    """Machine-check the bracket-identity chain behind local controllability, exactly.

    Every identity touches sites 1-3 only, so the suite runs on the chain's
    3-site window at the spec's (omega, g, omega1, chi), and each record's
    ``lhs`` and ``rhs`` are 6 x 6 generators whatever ``spec.n``. The check
    is over F_p, p = ``PRIMES[0]``: an identity holds when its two sides
    agree mod p, with no tolerance. ``model`` is the chain of ``spec`` when
    the caller has built it already; the window is read from it. Otherwise
    the 3-site chain is built.

    Raises ``ValueError`` naming every precondition of
    :func:`identity_suite_unmet` that ``spec`` fails.

    ``mutate`` maps identity names to finite multiplicative factors on that
    identity's designated coefficient, each entering as its residue mod p;
    it exists so tests can prove the harness is not vacuous.
    """
    unmet = identity_suite_unmet(spec)
    if unmet:
        raise ValueError(f"identity suite needs {'; '.join(unmet)}")
    if model is None:
        model = build_chain(replace(spec, n=3))
    elif model.n != spec.n:
        raise ValueError(f"model has {model.n} sites, spec has n = {spec.n}")

    mutate = dict(mutate or {})
    unknown = set(mutate) - set(IDENTITY_NAMES)
    if unknown:
        raise ValueError(f"unknown identity names in mutate: {sorted(unknown)}")
    if not all(np.isfinite(v) for v in mutate.values()):
        raise ValueError(f"mutate factors must be finite, got {mutate}")

    p = PRIMES[0]
    records = _records(spec, model, 3, p, {k: _residue(float(v), p) for k, v in mutate.items()})
    return IdentityReport(records=records, prime=p, all_pass=all(r.holds for r in records))


@dataclass(frozen=True)
class ChainInduction:
    """Full rank of the chain's closure, proved by the paper's induction over F_prime.

    It stands where the closure's ``LieSubspace`` would, with the fields the
    report reads: the dimension is n(2n+1), the algebra is closed, no
    bracket depth was explored, and it is not passive (the squeeze seed is
    not). See :func:`_chain_induction` for the proof.
    """

    n: int
    prime: int

    certificate: ClassVar[str] = "chain_induction"
    full_rank: ClassVar[bool] = True
    closed: ClassVar[bool] = True
    bracket_depth_reached: ClassVar[None] = None
    passive: ClassVar[bool] = False

    @property
    def dimension(self) -> int:
        return full_dimension(self.n)


@functools.lru_cache(maxsize=None)
def _gluing_lemma() -> LieSubspace:
    """The closure of sp(4) on sites {1, 2}, sp(2) on site 3 and hop(2, 3).

    It has no parameters, so it runs once per process. It is sp(6), of
    dimension 21, over ``PRIMES[0]``.
    """
    seeds = []
    for sites in (range(0, 4), range(4, 6)):  # coordinates of sites {1, 2}, then {3}
        for a, b in itertools.combinations_with_replacement(sites, 2):
            E = np.zeros((6, 6))
            E[a, b] = E[b, a] = 1.0
            seeds.append(QuadraticHamiltonian(3, E))
    seeds.append(ham.from_terms(3, [ham.hop(2, 3, 1.0)]))
    return closure(seeds)


def _chain_induction(
    spec: ChainSpec, model: ControlModel, identities: Optional[IdentityReport],
) -> Optional[ChainInduction]:
    """Prove full rank from fixed-size exact checks over F_p, or return None.

    p = ``PRIMES[0]``, ``model`` is the chain of ``spec`` with both controls,
    and ``identities`` is its 3-site suite (:func:`verify_bracket_identities`),
    or None where ``identity_suite_unmet(spec)`` is not empty. Let L be the
    Lie algebra the residues of {iH0, iH1, iH2} generate over F_p. Three
    checks prove by induction on k that L contains sp(2k) on sites 1..k:

    (a) the identity suite holds mod p on the 3-site window chain at
        (omega, g, omega1 = chi = 1);
    (b) the suite without long-distance-13 holds mod p on the 2-site window;
    (c) the gluing lemma: sp(4) on sites {1, 2}, sp(2) on site 3 and
        hop(2, 3) close to sp(6).

    Checks (a) and (b) are read at the spec's own (omega1, chi), which gives
    the same residues. The preconditions make the residues r(omega1) and
    r(chi) nonzero; the residue of iH1 is exactly r(omega1) N_1 and that of
    iH2 exactly r(chi) S_1, since N_1 and S_1 have entries 0, +-1 and +-2.
    Every identity is linear in iH1, or in iH1 and iH2 together, and divides
    the matching scalar out again, so each lhs residue is the one at
    omega1 = chi = 1.

    Base: N_1 = H1 / omega1 and S_1 = H2 / chi are in L, and with
    squeeze-anti-1 they span sp(2) on site 1.

    Step k -> k + 1, for k < n. The drift minus its terms on sites 1..k,
    plus omega N_k, is the same chain on sites k..n, and it lies in L, as do
    N_k and the site-k squeeze S_k. So {that drift, N_k, S_k} is the chain
    on sites k..n at omega1 = chi = 1, inside L. The suite brackets with the
    drift only through [H0, H1] and [mix, H0], which see the drift's terms
    on sites k, k + 1 and k + 2 alone; so check (a) holds on the longer
    chain too, and check (b) where only sites k, k + 1 are left. In table
    order each identity's rhs is built from the seeds and earlier rhs, so L
    holds sp(2) on site k + 1 (number-2, squeeze-anti-2, squeeze-sym-2) and
    all four bond (k, k + 1) generators (exchange and pair, symmetric and
    antisymmetric). As a vector space, sp(2k + 2) on sites 1..k + 1 is
    sp(2k) on 1..k, plus sp(2) on k + 1, plus the couplings of each site
    j <= k to k + 1. The bond gives j = k. For j < k, sp(4) on {j, k} lies
    in sp(2k), and check (c), relabelled to sites (j, k, k + 1), puts the
    (j, k + 1) couplings in L.

    At k = n, L = sp(2n) over F_p, of dimension n(2n+1); by the closure
    module's argument the real closure has that dimension too. Any check
    that fails returns None, so the caller's closure decides: the
    certificate can skip work, never change a verdict.
    """
    if identities is None or not identities.all_pass:
        return None
    p = identities.prime
    if not all(r.holds for r in _records(spec, model, 2, p, {})):
        return None
    lemma = _gluing_lemma()
    if not (lemma.prime == p and lemma.full_rank):
        return None
    return ChainInduction(n=spec.n, prime=p)


VERDICT_CONTROLLABLE = "CONTROLLABLE"
VERDICT_RANK_ONLY = "RANK_ONLY"
VERDICT_NOT_ESTABLISHED = "NOT_ESTABLISHED"


@dataclass(frozen=True, eq=False)
class ControllabilityReport:
    """End-to-end verdict for a chain spec.

    ``rank`` is the one source of the closure's dimension and of how it was
    decided: a ``ChainInduction`` where the paper's induction applies, else
    the ``LieSubspace`` of the closure. ``model`` is the chain analysed.
    ``identities`` is its 3-site bracket-identity suite, checked once over
    F_p, where the suite applies and the squeeze control is included; else
    None. The induction certificate reads the same report.

    CONTROLLABLE: rank criterion met (``rank.full_rank``) and the
    generating triple validated positive definite (``triple_message`` is
    None). ``positivity.actual`` and triple member T0 are the same decision:
    the drift's spectrum under ``williamson``'s one definiteness rule. The
    triple's closure is not recomputed: the triple is an invertible
    recombination of {H0, H1, H2} and a Lie closure depends only on the span
    of its seeds, so it equals the seeds' closure. RANK_ONLY: rank met but
    no triple validated; ``triple_message`` says why. NOT_ESTABLISHED: rank
    not met.
    """

    spec: ChainSpec
    triple_params: TripleParams
    model: ControlModel
    rank: Union[ChainInduction, LieSubspace]
    identities: Optional[IdentityReport]
    positivity: PositivityCheck
    triple_message: Optional[str]
    verdict: str


def controllability_report(
    spec: ChainSpec,
    params: TripleParams = TripleParams(),
    include_squeeze_control: bool = True,
) -> ControllabilityReport:
    """Run the whole pipeline: build, rank, positivity, triple, verdict.

    The rank comes from the chain's induction certificate where it applies
    (:func:`_chain_induction`), else from the exact closure. This is the one
    place the drift's definiteness and the triple are decided, both by
    ``williamson``'s rule on the drift's one spectrum.

    ``include_squeeze_control=False`` restricts the controls to the local
    rotation only, the regime where the reachable set stays passive.

    Raises ValueError for n > 127, the closure's limit, before the chain is
    built.
    """
    _require_exact_size(spec.n)
    model = build_chain(spec)
    identities = None
    if include_squeeze_control and not identity_suite_unmet(spec):
        identities = verify_bracket_identities(spec, model=model)
    rank = _chain_induction(spec, model, identities)
    if rank is None:
        controls = model.controls if include_squeeze_control else model.controls[:1]
        rank = closure([model.drift, *controls])
    # one spectrum and one rule decide both positivity.actual and member T0
    drift_eigenvalues = np.linalg.eigvalsh(model.drift.A)
    g1, g2 = spec.g1 / spec.omega, spec.g2 / spec.omega
    positivity = PositivityCheck(
        sufficient=g1 > 0 and g2 > 0 and g1 + g2 < 0.5,
        actual=_positive_definite(drift_eigenvalues),
        min_eigenvalue=float(drift_eigenvalues[0]),
    )
    if include_squeeze_control:
        triple_message = _triple_message(spec, params, model, drift_eigenvalues)
    else:
        triple_message = "triple not attempted: squeeze control excluded"

    if rank.full_rank and triple_message is None:
        verdict = VERDICT_CONTROLLABLE
    elif rank.full_rank:
        verdict = VERDICT_RANK_ONLY
    else:
        verdict = VERDICT_NOT_ESTABLISHED

    return ControllabilityReport(
        spec=spec,
        triple_params=params,
        model=model,
        rank=rank,
        identities=identities,
        positivity=positivity,
        triple_message=triple_message,
        verdict=verdict,
    )
