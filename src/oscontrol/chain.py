"""The locally controlled harmonic-oscillator chain, end to end.

A uniform chain of n oscillators carries an always-on Hamiltonian with
nearest-neighbour excitation-exchange (coupling g1) and pair-creation
(coupling g2) terms, controlled through a phase rotation and a squeezing
term on site 1 only. This module builds that model, machine-checks the
bracket-identity chain that generates the full symplectic algebra from the
local controls, and assembles the whole pipeline into a controllability
verdict: ``controllability_report`` is the one place that decides the drift's
definiteness, and with it the positive-definite generating triple.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, NamedTuple, Optional, Union

import numpy as np

from . import hamiltonians as ham
from .closure import (
    PRIMES, LieSubspace, _reduce, _require_exact_size, _residue, _to_field, closure,
    full_dimension,
)
from .evolution import ControlModel
from .hamiltonians import QuadraticHamiltonian
from .symplectic import _unit_scaled
from .williamson import _positive_definite

__all__ = [
    "ChainSpec",
    "PositivityCheck",
    "IdentityRecord",
    "IdentityReport",
    "ChainInduction",
    "ControllabilityReport",
    "build_chain",
    "identity_suite_unmet",
    "verify_bracket_identities",
    "controllability_report",
]


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
        for name in ("omega", "g1", "g2", "omega1", "chi"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        # the drift's bond blocks are g1 +- g2 and the squeeze control's diagonal is +-2 chi
        if not np.isfinite(abs(self.g1) + abs(self.g2)):
            raise ValueError(
                f"g1 and g2 overflow the drift: |g1| + |g2| must be finite, "
                f"got g1 = {self.g1}, g2 = {self.g2}"
            )
        if not np.isfinite(2 * abs(self.chi)):
            raise ValueError(
                f"chi overflows the squeeze control: 2 |chi| must be finite, got chi = {self.chi}"
            )


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
    controls = (
        ham.from_terms(n, [ham.number(1, spec.omega1)], label="H1"),
        ham.from_terms(n, [ham.squeeze(1, spec.chi)], label="H2"),
    )
    return ControlModel(drift=ham.from_terms(n, drift_terms, label="H0"), controls=controls)


def _drift_radius(spec: ChainSpec) -> float:
    """r = 2 (|g1| + |g2|) cos(pi / (n + 1)), the drift's spectral radius about omega.

    Its q and p blocks are tridiagonal Toeplitz, omega on the diagonal and
    g1 +- g2 beside it, so its spectrum is omega + 2 (g1 +- g2) cos(pi k / (n + 1)),
    k = 1..n; for n = 1, with no bond, it is exactly omega, and r = 0. r is
    formed so that it overflows only where r itself does, and cos(pi / (n + 1))
    rounds to 1.0 long before n + 1 = 2^64, where a longer chain reads it.
    Raises ValueError naming n, g1 and g2 when r is not finite.
    """
    if spec.n == 1:
        return 0.0
    r = (abs(spec.g1) + abs(spec.g2)) * (2 * math.cos(math.pi / min(spec.n + 1, 2 ** 64)))
    if not math.isfinite(r):
        raise ValueError(
            f"g1 and g2 overflow the drift's spectrum: 2 (|g1| + |g2|) cos(pi / (n + 1)) "
            f"must be finite, got n = {spec.n}, g1 = {spec.g1}, g2 = {spec.g2}"
        )
    return r


def _drift_extremes(spec: ChainSpec) -> np.ndarray:
    """The drift's extreme eigenvalues omega -+ r (see :func:`_drift_radius`).

    omega + r may overflow to inf; :func:`_drift_positive_definite` decides
    definiteness without forming it.
    """
    r = _drift_radius(spec)
    return np.array([spec.omega - r, spec.omega + r])


def _drift_positive_definite(spec: ChainSpec) -> bool:
    """``williamson``'s definiteness rule on the drift's extremes, taken on s A.

    s is the power of two that brings omega and r below 1
    (``symplectic._unit_scaled``), so s omega + s r cannot overflow where
    omega + r does. Scaling by a power of two is exact, and the rule is
    invariant under it, so it decides as on A wherever omega + r is finite.
    """
    (omega, r), _ = _unit_scaled(np.array([spec.omega, _drift_radius(spec)]))
    return _positive_definite(np.array([omega - r, omega + r]))


class PositivityCheck(NamedTuple):
    """The sufficient coupling condition, and the drift's definiteness by the one rule."""

    sufficient: bool
    actual: bool
    min_eigenvalue: float


def _triple_message(spec: ChainSpec, positivity: PositivityCheck) -> Optional[str]:
    """Why the triple {H0, H0 + N_1, H0 + N_1 + S_1 / 2} fails, or None.

    N_1 = H1 / omega1 and S_1 = H2 / chi are the unit rotation and squeeze on
    site 1. T1 - T0 = N_1 is the identity on site 1 and T2 - T0 = N_1 + S_1 / 2
    is diag(2, 0) there, both positive semidefinite, so in the Loewner order
    T2 >= T0 and T1 >= T0: T0 > 0 makes every member positive definite, and
    the drift's spectrum decides the triple. The triple spans
    span{H0, H1, H2} when omega1 and chi are nonzero.
    """
    for name, control in (("omega1", "H1"), ("chi", "H2")):
        if getattr(spec, name) == 0:
            return f"triple not formed: {name} = 0, so the control {control} vanishes"
    if not positivity.actual:
        return (
            f"triple member T0 is not positive definite: "
            f"smallest eigenvalue {positivity.min_eigenvalue:.6e}"
        )
    return None


# --------------------------------------------------------------------------
# Generator fixtures for the bracket-identity suite.
#
# The symmetric operators (number, exchange, pair creation, squeeze) come
# from the term builders of ``hamiltonians``. The three antisymmetric ones,
# i (1/2) R^T A R with a q-p coupling block, have no term builder and are
# assembled here, as 6 x 6 forms on the 3-site window. Derivations expand
# a_j = (q_j + i p_j)/sqrt(2) and drop scalar constants (which vanish in the
# 2n x 2n representation). Blocks are written in the interleaved (q, p)
# ordering; j, k are 1-based sites.
# --------------------------------------------------------------------------


def _put(A: np.ndarray, j: int, k: int, blk: np.ndarray) -> np.ndarray:
    A[2 * (j - 1): 2 * j, 2 * (k - 1): 2 * k] += blk
    return A


def _exchange_anti_form(j: int, k: int) -> np.ndarray:
    # a_j^dag a_k - a_j a_k^dag = i (q_j p_k - p_j q_k)
    A = np.zeros((6, 6))
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    _put(A, j, k, b)
    return _put(A, k, j, b.T)


def _pair_anti_form(j: int, k: int) -> np.ndarray:
    # a_j^dag a_k^dag - a_j a_k = -i (q_j p_k + p_j q_k)
    A = np.zeros((6, 6))
    b = np.array([[0.0, -1.0], [-1.0, 0.0]])
    _put(A, j, k, b)
    return _put(A, k, j, b.T)


def _squeeze_anti_form(j: int) -> np.ndarray:
    # a_j^dag2 - a_j^2 = -i (q_j p_j + p_j q_j)  ->  block_j = [[0,-2],[-2,0]]
    return _put(np.zeros((6, 6)), j, j, np.array([[0.0, -2.0], [-2.0, 0.0]]))


@dataclass(frozen=True, eq=False)
class IdentityRecord:
    """One bracket identity checked over F_p: its two sides and whether they agree.

    The sides are 6 x 6 generators on the chain's 3-site window, whatever
    the chain's length, as centred residues mod the report's prime.
    """

    name: str
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
    """The identity suite's parameter-free unit generators on the 3-site window."""

    sq_anti_1: np.ndarray
    sq_anti_2: np.ndarray
    sq_sym_2: np.ndarray
    ex_anti_12: np.ndarray
    ex_sym_12: np.ndarray
    pr_anti_12: np.ndarray
    pr_sym_12: np.ndarray
    num_2: np.ndarray
    ex_sym_23: np.ndarray
    ex_sym_13: np.ndarray


@functools.lru_cache(maxsize=None)
def _unit_generators() -> _Units:
    """The unit generators on the 3-site window, built once per process.

    They are read-only, and their entries are 0, +-1 and +-2: they are their
    own centred residues mod any prime of the closure, so the identity table
    uses them as they are.
    """

    def term(t: ham.HamiltonianTerm) -> np.ndarray:
        return ham.generator(ham.from_terms(3, [t]))

    def anti(A: np.ndarray) -> np.ndarray:
        return ham.generator(QuadraticHamiltonian(3, A))

    return _Units(
        sq_anti_1=anti(_squeeze_anti_form(1)),
        sq_anti_2=anti(_squeeze_anti_form(2)),
        sq_sym_2=term(ham.squeeze(2, 1.0)),
        ex_anti_12=anti(_exchange_anti_form(1, 2)),
        ex_sym_12=term(ham.hop(1, 2, 1.0)),
        pr_anti_12=anti(_pair_anti_form(1, 2)),
        pr_sym_12=term(ham.pair(1, 2, 1.0)),
        num_2=term(ham.number(2, 1.0)),
        ex_sym_23=term(ham.hop(2, 3, 1.0)),
        ex_sym_13=term(ham.hop(1, 3, 1.0)),
    )


def _identity_table(
    spec: ChainSpec, model: ControlModel, p: int,
) -> list[tuple[str, Callable[[int], np.ndarray], np.ndarray]]:
    """The identity suite as data, over F_p: (name, lhs builder, rhs).

    ``model`` is the 3-site chain of ``spec``. Every input float is a dyadic
    rational, so its residue mod p is exact; each bracket and division
    reduces its operands first, so every product is an exact integer below
    2^53, and so is every linear combination the table forms of residues
    with residue weights.

    Each lhs builder takes an integer scale factor applied to the identity's
    one designated coefficient. The suite passes 1; the tests pass another
    residue, one identity at a time, to prove the check is not vacuous.
    Operands are always the seeds and the unit-coefficient generators of
    ``_unit_generators``, never the output of a previous identity, so a
    mutation stays confined to its own record. In table order, each lhs is
    formed from the seeds {iH0, iH1, iH2} and the rhs of earlier identities
    only; long-distance-13 alone also uses the bond (2, 3). So every rhs but
    that one lies in the Lie algebra of the seeds. In each of the other eleven identities, every
    bracket has an operand supported on sites {1, 2}, and so does every rhs.

    Bracket combinations carry exact parameter scalings. The derivations fix
    three places where the unit-coefficient shorthand would break down for
    general parameters: the exchange-mix combination needs the symmetric mix
    weighted by 2 * omega, the symmetric pair creator needs the reversed
    bracket order [iH1, .], and the site-2 squeeze closes with a factor 1/2.
    """
    w, w1, x, g = (_residue(v, p) for v in (spec.omega, spec.omega1, spec.chi, spec.g1))
    br, div = functools.partial(_bracket, p=p), functools.partial(_divide, p=p)

    h0, h1, h2 = (_to_field(ham.generator(H), p) for H in (model.drift, *model.controls))
    (sq_anti_1, sq_anti_2, sq_sym_2, ex_anti_12, ex_sym_12, pr_anti_12, pr_sym_12, num_2,
     ex_sym_23, ex_sym_13) = _unit_generators()
    mix_12 = ex_anti_12 + pr_anti_12
    mix_sym_12 = ex_sym_12 + pr_sym_12

    return [
        # [iH2, iH1] = 2 omega1 chi (a1^dag2 - a1^2): both controls live on site 1
        ("squeeze-anti-1", lambda s: div(s * br(h2, h1), 2 * w1 * x), sq_anti_1),
        # [iH0, iH1] = omega1 g [(a1^dag a2 - a1 a2^dag) + (a1^dag a2^dag - a1 a2)]:
        # the drift's number part commutes with iH1, only the bond (1,2) survives
        ("coupling-mix-12", lambda s: div(s * br(h0, h1), w1 * g), mix_12),
        # [iH1, mix] = omega1 * i(a1^dag a2^dag + a1^dag a2 + a1 a2^dag + a1 a2):
        # the rotation flips the antisymmetric mix into the symmetric one
        ("coupling-mix-sym-12", lambda s: div(s * br(h1, mix_12), w1), mix_sym_12),
        # [[mix, iH0] + 2 omega mix_sym, iH1] = 2 omega omega1 (a1^dag a2 - a1 a2^dag):
        # [mix, iH0] = -2 omega pair_sym - 4 g number_2 - 2 g squeeze_sym_2 (the
        # bond (2,3) contribution cancels identically), the g-dependent part
        # commutes with iH1, and the symmetric mix restores the exchange part;
        # the symmetric-mix weight must scale with omega, not omega1
        (
            "exchange-anti-12",
            lambda s: div(br(br(mix_12, h0) + s * 2 * w * mix_sym_12, h1), 2 * w * w1),
            ex_anti_12,
        ),
        # mix - exchange = pair part, a linear identity independent of parameters
        ("pair-anti-12", lambda s: mix_12 - s * ex_anti_12, pr_anti_12),
        # [pair_anti, exchange_anti] = (a2^dag2 - a2^2) - (a1^dag2 - a1^2), so the
        # site-1 squeeze from the first identity completes the site-2 squeeze
        ("squeeze-anti-2", lambda s: br(pr_anti_12, ex_anti_12) + s * sq_anti_1, sq_anti_2),
        # [iH1, pair_anti] = omega1 * i(a1^dag a2^dag + a1 a2); bracket order
        # matters, the reversed order flips the sign
        ("pair-sym-12", lambda s: div(s * br(h1, pr_anti_12), w1), pr_sym_12),
        # [iH1, mix - 2 exchange] = omega1 (pair_sym - exchange_sym)
        (
            "coupling-diff-12",
            lambda s: div(br(h1, mix_12 - s * 2 * ex_anti_12), w1),
            pr_sym_12 - ex_sym_12,
        ),
        # symmetric mix minus the previous difference leaves twice the exchange
        (
            "exchange-sym-12",
            lambda s: div(s * (mix_sym_12 - (pr_sym_12 - ex_sym_12)), 2),
            ex_sym_12,
        ),
        # [exchange_sym, exchange_anti] = 2 i (N2 - N1), so adding back twice the
        # normalised rotation control leaves the site-2 number generator
        ("number-2", lambda s: div(div(s * 2 * h1, w1) + br(ex_sym_12, ex_anti_12), 2), num_2),
        # [i N2, a2^dag2 - a2^2] = 2 i (a2^dag2 + a2^2); the factor 1/2 is exact
        ("squeeze-sym-2", lambda s: div(s * br(num_2, sq_anti_2), 2), sq_sym_2),
        # [i(a2^dag a3 + a2 a3^dag), a1 a2^dag - a1^dag a2] = i(a1^dag a3 + a1 a3^dag):
        # distant sites connect through one shared-site bracket with unit scalar
        ("long-distance-13", lambda s: s * br(ex_sym_23, -ex_anti_12), ex_sym_13),
    ]


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


def verify_bracket_identities(spec: ChainSpec) -> IdentityReport:
    """Machine-check the bracket-identity chain behind local controllability, exactly.

    Every identity touches sites 1-3 only, so the suite runs on the 3-site
    chain at the spec's (omega, g, omega1, chi), whose drift is the top-left
    6 x 6 block of the chain's, and each record's ``lhs`` and ``rhs`` are
    6 x 6 generators whatever ``spec.n``. The check is over F_p,
    p = ``PRIMES[0]``: an identity holds when its two sides agree mod p,
    with no tolerance.

    Raises ``ValueError`` naming every precondition of
    :func:`identity_suite_unmet` that ``spec`` fails.
    """
    unmet = identity_suite_unmet(spec)
    if unmet:
        raise ValueError(f"identity suite needs {'; '.join(unmet)}")
    window = replace(spec, n=3)
    p = PRIMES[0]
    records = []
    for name, lhs_builder, rhs in _identity_table(window, build_chain(window), p):
        lhs = _reduce(lhs_builder(1), p)
        records.append(IdentityRecord(name, lhs, rhs, holds=not _reduce(lhs - rhs, p).any()))
    return IdentityReport(
        records=tuple(records), prime=p, all_pass=all(r.holds for r in records),
    )


@dataclass(frozen=True)
class ChainInduction:
    """Full rank of the chain's closure, proved by the paper's induction over F_prime.

    It stands where the closure's ``LieSubspace`` would, with the fields the
    report reads: the dimension is n(2n+1) and no bracket depth was
    explored. See :func:`_chain_induction` for the proof.
    """

    n: int
    prime: int

    certificate: ClassVar[str] = "chain_induction"
    full_rank: ClassVar[bool] = True
    bracket_depth_reached: ClassVar[None] = None

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
    spec: ChainSpec, identities: Optional[IdentityReport],
) -> Optional[ChainInduction]:
    """Prove full rank from two fixed-size exact checks over F_p, or return None.

    p = ``PRIMES[0]``, and ``identities`` is the 3-site suite
    (:func:`verify_bracket_identities`) of the chain of ``spec`` with both
    controls, or None where ``identity_suite_unmet(spec)`` is not empty. Let
    L be the Lie algebra the residues of {iH0, iH1, iH2} generate over F_p.
    Two checks prove by induction on k that L contains sp(2k) on sites 1..k:

    (a) the identity suite holds mod p on the 3-site window chain at
        (omega, g, omega1 = chi = 1);
    (b) the gluing lemma: sp(4) on sites {1, 2}, sp(2) on site 3 and
        hop(2, 3) close to sp(6).

    Check (a) is read at the spec's own (omega1, chi), which gives the same
    residues. The preconditions make the residues r(omega1) and r(chi)
    nonzero; the residue of iH1 is exactly r(omega1) N_1 and that of iH2
    exactly r(chi) S_1, since N_1 and S_1 have entries 0, +-1 and +-2. Every
    identity is linear in iH1, or in iH1 and iH2 together, and divides the
    matching scalar out again, so each lhs residue is the one at
    omega1 = chi = 1.

    Restriction lemma. If X vanishes outside the block of a site set S, the
    S block of [X, Y] is [X_S, Y_S], the bracket of the two S blocks. In each
    identity but long-distance-13, every bracket has an operand supported on
    sites {1, 2}, and so does the rhs. So on the 2-site chain, whose seeds and
    unit generators are the top-left 4 x 4 blocks of the 3-site ones, each
    of those eleven identities has for its two sides the top-left blocks of
    its two sides on the 3-site window, and holds wherever check (a) holds.

    Base: N_1 = H1 / omega1 and S_1 = H2 / chi are in L, and with
    squeeze-anti-1 they span sp(2) on site 1.

    Step k -> k + 1, for k < n. The drift minus its terms on sites 1..k,
    plus omega N_k, is the same chain on sites k..n, and it lies in L, as do
    N_k and the site-k squeeze S_k. So {that drift, N_k, S_k} is the chain
    on sites k..n at omega1 = chi = 1, inside L. The suite brackets with the
    drift only through [H0, H1] and [mix, H0], which see the drift's terms
    on sites k, k + 1 and k + 2 alone; so check (a) holds on the longer
    chain too, and at k = n - 1, where only sites n - 1, n are left, the
    restriction lemma gives the eleven identities the step uses. In table
    order each identity's rhs is built from the seeds and earlier rhs, so L
    holds sp(2) on site k + 1 (number-2, squeeze-anti-2, squeeze-sym-2) and
    all four bond (k, k + 1) generators (exchange and pair, symmetric and
    antisymmetric). As a vector space, sp(2k + 2) on sites 1..k + 1 is
    sp(2k) on 1..k, plus sp(2) on k + 1, plus the couplings of each site
    j <= k to k + 1. The bond gives j = k. For j < k, sp(4) on {j, k} lies
    in sp(2k), and check (b), relabelled to sites (j, k, k + 1), puts the
    (j, k + 1) couplings in L.

    At k = n, L = sp(2n) over F_p, of dimension n(2n+1); by the closure
    module's argument the real closure has that dimension too. Any check
    that fails returns None, so the caller's closure decides: the
    certificate can skip work, never change a verdict.
    """
    if identities is None or not identities.all_pass:
        return None
    lemma = _gluing_lemma()
    if not (lemma.prime == identities.prime and lemma.full_rank):
        return None
    return ChainInduction(n=spec.n, prime=identities.prime)


VERDICT_CONTROLLABLE = "CONTROLLABLE"
VERDICT_RANK_ONLY = "RANK_ONLY"
VERDICT_NOT_ESTABLISHED = "NOT_ESTABLISHED"


@dataclass(frozen=True, eq=False)
class ControllabilityReport:
    """End-to-end verdict for a chain spec.

    ``rank`` is the one source of the closure's dimension and of how it was
    decided: a ``ChainInduction`` where the paper's induction applies, else
    the ``LieSubspace`` of the closure. ``identities`` is the chain's 3-site
    bracket-identity suite, checked once over F_p, where the suite applies
    and the squeeze control is included; else None.

    CONTROLLABLE: rank criterion met (``rank.full_rank``) and the
    generating triple {H0, H0 + N_1, H0 + N_1 + S_1 / 2} positive definite
    (``triple_message`` is None). ``positivity.actual`` and the triple are
    the same decision: the drift's closed-form extremes under ``williamson``'s
    one definiteness rule, since T0 = H0 bounds the other members from below
    (:func:`_triple_message`). The triple's closure is not recomputed: the
    triple is an invertible recombination of {H0, H1, H2} and a Lie closure
    depends only on the span of its seeds, so it equals the seeds' closure.
    RANK_ONLY: rank met but no triple validated; ``triple_message`` says
    why. NOT_ESTABLISHED: rank not met.
    """

    spec: ChainSpec
    rank: Union[ChainInduction, LieSubspace]
    identities: Optional[IdentityReport]
    positivity: PositivityCheck
    triple_message: Optional[str]
    verdict: str


def controllability_report(
    spec: ChainSpec, include_squeeze_control: bool = True,
) -> ControllabilityReport:
    """Run the whole pipeline: positivity, triple, rank, verdict.

    This is the one place the drift's definiteness and the triple are
    decided, both by :func:`_drift_positive_definite`. The
    rank comes from the chain's induction certificate where it applies
    (:func:`_chain_induction`), which builds only the 3-site chain, else
    from the exact closure, the one place the whole chain is built.

    ``include_squeeze_control=False`` restricts the controls to the local
    rotation only, the regime where the reachable set stays passive.

    Raises ValueError where the drift's spectrum overflows, and for n > 127,
    the closure's limit, where the closure runs, before the chain is built.
    """
    # one spectrum and one rule decide both positivity.actual and the triple
    g1, g2 = spec.g1 / spec.omega, spec.g2 / spec.omega
    positivity = PositivityCheck(
        sufficient=g1 > 0 and g2 > 0 and g1 + g2 < 0.5,
        actual=_drift_positive_definite(spec),
        min_eigenvalue=float(_drift_extremes(spec)[0]),
    )
    identities = None
    if include_squeeze_control and not identity_suite_unmet(spec):
        identities = verify_bracket_identities(spec)
    rank = _chain_induction(spec, identities)
    if rank is None:
        _require_exact_size(spec.n)
        model = build_chain(spec)
        controls = model.controls if include_squeeze_control else model.controls[:1]
        rank = closure([model.drift, *controls])
    if include_squeeze_control:
        triple_message = _triple_message(spec, positivity)
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
        rank=rank,
        identities=identities,
        positivity=positivity,
        triple_message=triple_message,
        verdict=verdict,
    )
