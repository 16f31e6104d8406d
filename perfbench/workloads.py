"""Seeded inputs and answer oracles for the three benchmark workloads.

Every workload is a seeded stream of blocks of operations. An
operation is the argv of one ``oscontrol`` CLI call plus an oracle that
judges the call's exit code, its report and its stderr. The oracles use
routes independent of the package: the paper's dimension count for
``chain``, closed-form rotations of a planted normal form for ``recur``,
and a per-segment eigendecomposition for ``evolve``.

An oracle returns a :class:`Verdict`. A failed verdict names, in
``known``, the documented defect it matches (see :data:`KNOWN_DEFECTS`),
or ``None`` when the failure is new.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.linalg

G_VALUES = (0.05, 0.1, 0.15, 0.2)

# Failures present when the benchmark was defined. They stay in the
# baseline: a run counts them as failed operations, and only a failure
# that matches none of them makes the run incorrect.
KNOWN_DEFECTS = {
    "chain-closure-rank-loss": (
        "the closure stops short of n(2n+1) with tol=1e-9: "
        "RANK_ONLY or NOT_ESTABLISHED at n >= 7 for every g, and at n = 6 "
        "with g = 0.05"
    ),
    "evolve-absolute-audit": (
        "evolve_covariance audits S against an absolute 1e-8, so a long "
        "schedule whose S is symplectic to ~1e-16 relative but has "
        "||S|| ~ 1e4 or more exits 2 with 'S is not symplectic to 1e-08'"
    ),
}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known: Optional[str] = None


@dataclass
class Operation:
    """One CLI call: argv without ``--out``, its inputs and its oracle."""

    label: str
    argv: list
    inputs: dict
    check: Callable[[Optional[int], Optional[dict], str], Verdict]
    files: dict = field(default_factory=dict)  # file name -> JSON document


def _omega(n: int) -> np.ndarray:
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


# ---------------------------------------------------------------------------
# chain: the paper's headline computation
# ---------------------------------------------------------------------------

# Each small n runs twice per g and each large n once per g, so the list is
# weighted toward small n, and every n sees every g (at n = 6 the verdict
# depends on g, and for n >= 8 the cost does).
CHAIN_SMALL_N = (3, 4, 5, 6)
CHAIN_LARGE_N = (7, 8, 10, 12, 16)


def check_chain(n: int, g: float) -> Callable:
    dim_full = n * (2 * n + 1)

    def check(rc, report, stderr) -> Verdict:
        if report is None:
            return Verdict(False, f"exit {rc}, no report: {stderr.strip()[-200:]}")
        res = report["results"]
        identities = res.get("identities", {}).get("all_pass")
        reason = (
            f"exit {rc}, verdict {res['verdict']}, dimension {res['dimension']}/{dim_full}, "
            f"triple {res['triple']['closure_dimension']}, identities {identities}"
        )
        if (
            rc == 0
            and res["verdict"] == "CONTROLLABLE"
            and res["dimension"] == dim_full
            and res["dimension_full"] == dim_full
            and identities is True
        ):
            return Verdict(True, reason)
        known = None
        if (
            rc == 1
            and res["verdict"] in ("RANK_ONLY", "NOT_ESTABLISHED")
            and (n >= 7 or (n == 6 and g == 0.05))
        ):
            known = "chain-closure-rank-loss"
        return Verdict(False, reason, known)

    return check


def chain_op(n: int, g: float) -> Operation:
    return Operation(
        label=f"chain n={n} g={g}",
        argv=["chain", "--n", str(n), "--g1", repr(g), "--g2", repr(g)],
        inputs={"n": n, "g": g},
        check=check_chain(n, g),
    )


def chain_block(rng: np.random.Generator) -> list:
    """Every (n, g) pair of the chain list; the seed only orders them.

    The list is fixed because chain cost spans three decades across (n, g):
    a seeded draw of n would make the work differ from seed to seed by more
    than any regression bound.
    """
    del rng
    ns = [n for n in CHAIN_SMALL_N for _ in range(2)] + list(CHAIN_LARGE_N)
    return [chain_op(n, g) for n in ns for g in G_VALUES]


# ---------------------------------------------------------------------------
# recur: planted exact recurrences
# ---------------------------------------------------------------------------

RECUR_N = (2, 3, 4)
RECUR_EPSILON = (0.5, 0.2, 0.05)
RECUR_REPEATS = 4
RECUR_HORIZON = 1.001  # --t-max as a multiple of the exact period


def random_symplectic(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """exp(Omega B) for a random symmetric B: symplectic and well conditioned."""
    B = rng.normal(0.0, scale, (2 * n, 2 * n))
    return scipy.linalg.expm(_omega(n) @ (B + B.T) / 2.0)


def rotation(nu: np.ndarray, t: float) -> np.ndarray:
    """exp(-D Omega t) for D = diag(nu_1, nu_1, ..., nu_n, nu_n)."""
    R = np.zeros((2 * len(nu), 2 * len(nu)))
    for k, v in enumerate(nu):
        c, s = math.cos(v * t), math.sin(v * t)
        R[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[c, -s], [s, c]]
    return R


def recurrence_distance(S: np.ndarray, nu: np.ndarray, t: float) -> float:
    """||exp(-A Omega t) - 1||_F for A = S^T D S, as S^T R(nu t) S^-T."""
    P = S.T @ rotation(nu, t) @ np.linalg.inv(S.T)
    return float(np.linalg.norm(P - np.eye(len(P))))


def check_recur(S: np.ndarray, nu: np.ndarray, epsilon: float, after: float, period: float):
    t_max = RECUR_HORIZON * period

    def check(rc, report, stderr) -> Verdict:
        if rc != 0 or report is None:
            return Verdict(False, f"exit {rc}: {stderr.strip()[-200:]}")
        res = report["results"]
        if not res["found"]:
            return Verdict(False, f"found false, yet exp(-A Omega t) = 1 at t = {period!r}")
        tau = res["tau"]
        if not after < tau <= t_max:
            return Verdict(False, f"tau {tau!r} outside ({after!r}, {t_max!r}]")
        d = recurrence_distance(S, nu, tau)
        if not d < epsilon:
            return Verdict(False, f"distance {d:.3e} at tau {tau!r} is not below {epsilon}")
        return Verdict(True, f"tau {tau!r}, distance {d:.3e}")

    return check


def recur_op(rng: np.random.Generator, n: int, epsilon: float) -> Operation:
    """An explicit-matrix model A = S^T diag(nu, nu) S with nu_k = p_k / q.

    exp(-A Omega t) returns exactly to the identity at t = 2 pi q, and the
    horizon ends just past it, so ``found: false`` is provably wrong.
    """
    q = int(rng.integers(8000, 12000))
    p = np.sort(rng.choice(np.arange(q // 2, 2 * q), size=n, replace=False))
    nu = p / q
    S = random_symplectic(rng, n, 0.3)
    A = S.T @ np.kron(np.diag(nu), np.eye(2)) @ S
    period = 2.0 * math.pi * q
    after = float(rng.uniform(0.2, 0.3)) * period
    name = f"recur_n{n}_e{epsilon}.json"
    return Operation(
        label=f"recur n={n} epsilon={epsilon} q={q}",
        argv=["recur", "--model", name, "--epsilon", repr(epsilon),
              "--after", repr(after), "--t-max", repr(RECUR_HORIZON * period)],
        inputs={"n": n, "epsilon": epsilon, "q": q, "p": p.tolist(), "after": after},
        check=check_recur(S, nu, epsilon, after, period),
        files={name: {
            "modes": n,
            "hamiltonians": [{"name": "H", "matrix": ((A + A.T) / 2.0).tolist()}],
            "drift": "H",
            "controls": [],
        }},
    )


def recur_block(rng: np.random.Generator) -> list:
    return [
        recur_op(rng, n, epsilon)
        for n in RECUR_N
        for epsilon in RECUR_EPSILON
        for _ in range(RECUR_REPEATS)
    ]


# ---------------------------------------------------------------------------
# evolve: long piecewise-constant schedules on chain models
# ---------------------------------------------------------------------------

EVOLVE_N = (2, 4, 8)
EVOLVE_SEGMENTS = (500, 1000, 2000, 5000)


def chain_matrices(n: int, g: float) -> tuple:
    """Drift and control A matrices of the chain, built from the paper's model.

    Interleaved (q1, p1, ..., qn, pn) ordering; omega = omega1 = chi = 1 and
    g1 = g2 = g, so each bond adds g (q_j q_k + p_j p_k) + g (q_j q_k - p_j p_k).
    """
    A0 = np.eye(2 * n)
    for j in range(n - 1):
        A0[2 * j, 2 * j + 2] = A0[2 * j + 2, 2 * j] = 2.0 * g
    A1 = np.zeros((2 * n, 2 * n))
    A1[0, 0] = A1[1, 1] = 1.0
    A2 = np.zeros((2 * n, 2 * n))
    A2[0, 0], A2[1, 1] = 2.0, -2.0
    return A0, A1, A2


def reference_propagator(n: int, g: float, controls: np.ndarray,
                         durations: np.ndarray) -> np.ndarray:
    """prod_i exp(-A_i Omega d_i) through an eigendecomposition of each segment."""
    A0, A1, A2 = chain_matrices(n, g)
    omega = _omega(n)
    S = np.eye(2 * n)
    for lo in range(0, len(durations), 500):  # batches bound the memory used
        f = controls[lo: lo + 500]
        A = A0 + f[:, 0, None, None] * A1 + f[:, 1, None, None] * A2
        w, V = np.linalg.eig(-A @ omega)
        E = (V * np.exp(w * durations[lo: lo + 500, None])[:, None, :]) @ np.linalg.inv(V)
        for M in E.real:
            S = M @ S
    return S


def symplectic_defect(S: np.ndarray) -> float:
    omega = _omega(len(S) // 2)
    return float(np.linalg.norm(S @ omega @ S.T - omega))


EVOLVE_RTOL = 1e-8


def check_evolve(S_ref: np.ndarray, sigma: Optional[np.ndarray]):
    norm_ref = float(np.linalg.norm(S_ref))
    ref_relative_defect = symplectic_defect(S_ref) / norm_ref ** 2

    def check(rc, report, stderr) -> Verdict:
        if rc != 0 or report is None:
            known = None
            if (
                rc == 2
                and sigma is not None
                and "S is not symplectic to 1e-08" in stderr
                and ref_relative_defect <= 1e-12
            ):
                known = "evolve-absolute-audit"
            return Verdict(
                False, f"exit {rc}, ||S|| = {norm_ref:.2e}: {stderr.strip()[-200:]}", known
            )
        res = report["results"]
        S = np.array(res["S"])
        err = float(np.linalg.norm(S - S_ref)) / norm_ref
        if not err <= EVOLVE_RTOL:
            return Verdict(False, f"S differs from the reference by {err:.2e} relative")
        audit, limit = res["symplecticity_audit"], 1e-12 * norm_ref ** 2
        if not audit <= limit:
            return Verdict(False, f"audit {audit:.2e} above 1e-12 ||S||^2 = {limit:.2e}")
        if sigma is not None:
            expect = S_ref @ sigma @ S_ref.T
            got = np.array(res["final_covariance"])
            cov_err = float(np.linalg.norm(got - expect)) / float(np.linalg.norm(expect))
            if not cov_err <= 2 * EVOLVE_RTOL:
                return Verdict(False, f"covariance differs from the reference by {cov_err:.2e}")
        return Verdict(True, f"||S|| = {norm_ref:.2e}, relative error {err:.1e}")

    return check


# Bands for ||S|| of a block's schedules, by segment count. The covariance
# audit is absolute (the known defect), so whether a covariance run fails
# depends on ||S||: its defect is about 1e-16 ||S||^2 against 1e-8. Norms
# drawn clear of ||S|| ~ 1e4 on both sides fix which operations fail: every
# 5000-segment run with a covariance meets the defect, and no other run does.
# Each block then fails the same 3 of its 24 operations, whatever the seed
# and however many blocks a run measures.
EVOLVE_NORM_BANDS = {500: (0.0, 1e3), 1000: (0.0, 1e3), 2000: (0.0, 1e3), 5000: (1e5, math.inf)}
EVOLVE_MAX_DRAWS = 100


def evolve_pair(rng: np.random.Generator, n: int, segments: int,
                band: tuple = (0.0, math.inf)) -> list:
    """One schedule on a chain model with g1 = g2 = g, run without and then
    with an initial covariance.

    f1 is in [0, 1] and |f2| <= 0.4 f1, so every segment's Hamiltonian is
    positive definite. Schedules are drawn until ||S|| falls in ``band``.
    """
    for _ in range(EVOLVE_MAX_DRAWS):
        g = float(rng.choice(G_VALUES))
        f1 = rng.uniform(0.0, 1.0, segments)
        controls = np.stack([f1, rng.uniform(-0.4, 0.4, segments) * f1], axis=1)
        durations = rng.uniform(0.05, 0.5, segments)
        S_ref = reference_propagator(n, g, controls, durations)
        if band[0] <= np.linalg.norm(S_ref) <= band[1]:
            break
    else:
        raise RuntimeError(f"no schedule of {segments} segments with ||S|| in {band}")
    X = rng.normal(size=(2 * n, 2 * n))
    sigma = 0.5 * np.eye(2 * n) + X @ X.T / (4 * n)
    segments_doc = [
        {"duration": d, "controls": f}
        for d, f in zip(durations.tolist(), controls.tolist())
    ]
    ops = []
    for cov in (None, sigma):
        tag = f"n{n}_s{segments}_c{int(cov is not None)}"
        schedule = {"segments": segments_doc}
        if cov is not None:
            schedule["initial_covariance"] = cov.tolist()
        ops.append(Operation(
            label=f"evolve n={n} segments={segments} covariance={cov is not None}",
            argv=["evolve", "--model", f"evolve_{tag}_model.json",
                  "--schedule", f"evolve_{tag}_schedule.json"],
            inputs={"n": n, "g": g, "segments": segments, "covariance": cov is not None},
            check=check_evolve(S_ref, cov),
            files={
                f"evolve_{tag}_model.json": {"chain": {"n": n, "g1": g, "g2": g}},
                f"evolve_{tag}_schedule.json": schedule,
            },
        ))
    return ops


def evolve_block(rng: np.random.Generator) -> list:
    return [op for n in EVOLVE_N for segments in EVOLVE_SEGMENTS
            for op in evolve_pair(rng, n, segments, EVOLVE_NORM_BANDS[segments])]


WORKLOADS = {"chain": chain_block, "recur": recur_block, "evolve": evolve_block}


def blocks(workload: str, seed: int):
    """The seeded stream of blocks: each a shuffled list of fresh operations.

    A block holds one operation of every stratum of its workload, so any run
    of whole blocks has the same mix of sizes.
    """
    make = WORKLOADS[workload]
    for k in itertools.count():
        rng = np.random.default_rng([seed, k])
        ops = make(rng)
        yield [ops[i] for i in rng.permutation(len(ops))]


def materialise(ops: list, workdir: Path) -> None:
    """Write each operation's input files into workdir and point argv at them.

    The documents are dropped once written, so that the benchmark's own
    memory does not count toward the peak resident size it reports.
    """
    for i, op in enumerate(ops):
        paths = {name: workdir / f"{i}_{name}" for name in op.files}
        for name, doc in op.files.items():
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        op.argv = [str(paths[a]) if a in paths else a for a in op.argv]
        op.files = {}
