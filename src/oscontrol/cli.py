"""Command-line front end.

Commands: rank, williamson, recur, evolve, chain. Every command writes a
machine-readable JSON report (stdout by default, ``--out`` to a file) with
the effective tolerances echoed, and follows one exit-code contract:

* 0 - success / affirmative analysis,
* 1 - analysis negative, or a precondition or numerical check failed
  (reported in the output under ``results.error``),
* 2 - usage or document errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import __version__, evolution, williamson
from .chain import VERDICT_CONTROLLABLE, ChainSpec, controllability_report
from .closure import LieSubspace, closure, full_dimension
from .documents import (
    DocumentError,
    ModelDocument,
    ScheduleDocument,
    data_digest,
    file_digest,
    write_report,
)
from .evolution import CovarianceState, evolve_covariance, propagate
from .recurrence import RecurrenceQuery, find_recurrence
from .symplectic import audit_symplecticity
from .williamson import (
    AnalysisError,
    DefinitenessError,
    spectrum_certificate,
    williamson_decompose,
)


def _matrix(M) -> list:
    return [[float(x) for x in row] for row in np.asarray(M)]


def _complex_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def _header(report: dict, command: str, digest: str, tolerances: dict, echo: dict) -> dict:
    """Fill the report's header; return its empty ``results`` for the command to fill."""
    report.update(
        command=command,
        input_digest=digest,
        tool_version=__version__,
        tolerances=tolerances,
        inputs=echo,
        results={},
    )
    return report["results"]


def _analysis_error(exc: AnalysisError) -> dict:
    """The ``results.error`` record of a failed numerical analysis."""
    if isinstance(exc, DefinitenessError):
        return {
            "kind": "definiteness",
            "message": str(exc),
            "smallest_eigenvalue": exc.smallest_eigenvalue,
        }
    return {"kind": "numerical", "message": str(exc)}


def _closure_results(rank) -> dict:
    """The closure's dimension, the rank criterion and how far the brackets went.

    ``rank`` is a ``LieSubspace``, whose closure always runs to the end, or
    the chain's ``ChainInduction``, which explores no bracket depth (null).
    """
    return {
        "dimension": rank.dimension,
        "dimension_full": full_dimension(rank.n),
        "rank_criterion_met": rank.full_rank,
        "bracket_depth": rank.bracket_depth_reached,
    }


def _closure_diagnostics(rank) -> dict:
    """How the closure's dimension was certified, and the work a closure took."""
    closure_record = {"certificate": rank.certificate, "prime": rank.prime}
    if isinstance(rank, LieSubspace):
        closure_record["candidates"] = rank.candidates
    return {"closure": closure_record}


def cmd_rank(args, report: dict) -> int:
    model_doc = ModelDocument.from_path(args.model)
    model = model_doc.control_model()
    results = _header(
        report, "rank", file_digest(args.model), {},
        {"model": str(args.model), "drift": model_doc.drift, "controls": list(model_doc.controls)},
    )
    sub = closure([model.drift, *model.controls])
    results.update(_closure_results(sub))
    if not sub.full_rank:
        results["passive"] = sub.passive
    results["diagnostics"] = _closure_diagnostics(sub)
    return 0 if sub.full_rank else 1


def cmd_williamson(args, report: dict) -> int:
    model_doc = ModelDocument.from_path(args.model)
    name = args.hamiltonian or model_doc.drift
    H = model_doc.hamiltonian(name)
    results = _header(
        report, "williamson", file_digest(args.model), {"residual_tol": williamson._RESIDUAL_TOL},
        {"model": str(args.model), "hamiltonian": name},
    )
    cert = spectrum_certificate(H)
    results["spectrum_certificate"] = {
        "eigenvalues_re_im": _complex_pairs(cert.eigenvalues),
        "max_real_part": cert.max_real_part,
        "diagonalizable": cert.diagonalizable,
        "diagonalizer_condition": cert.diagonalizer_condition
        if np.isfinite(cert.diagonalizer_condition)
        else None,
    }
    dec = williamson_decompose(H)
    results.update(nu=[float(v) for v in dec.nu], V=_matrix(dec.V), residual=dec.residual)
    return 0


def cmd_recur(args, report: dict) -> int:
    model_doc = ModelDocument.from_path(args.model)
    name = args.hamiltonian or model_doc.drift
    H = model_doc.hamiltonian(name)
    results = _header(
        report, "recur", file_digest(args.model), {"epsilon": args.epsilon},
        {
            "model": str(args.model),
            "hamiltonian": name,
            "min_time": args.after,
            "max_time": args.t_max,
        },
    )
    try:
        query = RecurrenceQuery(
            hamiltonian=H,
            epsilon=args.epsilon,
            min_time=args.after,
            max_time=args.t_max,
        )
    except ValueError as exc:
        raise DocumentError(f"recurrence query: {exc}") from exc
    result = find_recurrence(query)
    results.update(
        found=result.found,
        tau=result.tau,
        achieved_distance=result.achieved_distance,
        mode_distance_at_tau=result.mode_distance_at_tau,
        K=result.conditioning,
        best_distance_seen=result.best_distance_seen,
        budget_exhausted=result.budget_exhausted,
        nu=list(result.nu),
    )
    return 0  # horizon or budget exhaustion is an honest negative, still exit 0


def cmd_evolve(args, report: dict) -> int:
    model_doc = ModelDocument.from_path(args.model)
    schedule_doc = ScheduleDocument.from_path(args.schedule)
    model = model_doc.control_model()
    sigma = schedule_doc.initial_covariance
    state = None
    if sigma is not None:
        if sigma.shape != (2 * model.n, 2 * model.n):
            raise DocumentError(
                f"initial_covariance: expected shape ({2*model.n}, {2*model.n}), got {sigma.shape}"
            )
        try:
            state = CovarianceState(sigma)
        except ValueError as exc:
            raise DocumentError(f"initial_covariance: {exc}") from exc
    results = _header(
        report, "evolve", file_digest(args.model),
        {"covariance_symplectic_tol": evolution._COVARIANCE_SYMPLECTIC_TOL},
        {
            "model": str(args.model),
            "schedule": str(args.schedule),
            "schedule_digest": file_digest(args.schedule),
            "segments": len(schedule_doc.schedule.segments),
        },
    )
    S = propagate(model, schedule_doc.schedule)
    results.update(
        S=_matrix(S),
        symplecticity_audit=audit_symplecticity(S),
        total_duration=schedule_doc.schedule.total_duration,
    )
    if state is not None:
        results["final_covariance"] = _matrix(evolve_covariance(state, S).sigma)
    return 0


def cmd_chain(args, report: dict) -> int:
    spec = ChainSpec(
        n=args.n, omega=args.omega, g1=args.g1, g2=args.g2,
        omega1=args.omega1, chi=args.chi,
    )
    echo = {
        "n": spec.n, "omega": spec.omega, "g1": spec.g1, "g2": spec.g2,
        "omega1": spec.omega1, "chi": spec.chi,
        "h1_only": bool(args.h1_only),
    }
    results = _header(report, "chain", data_digest(echo), {}, echo)
    rep = controllability_report(spec, include_squeeze_control=not args.h1_only)
    rank = rep.rank
    triple_ok = rep.triple_message is None
    results.update(
        {
            "verdict": rep.verdict,
            **_closure_results(rank),
            "positivity": {
                "sufficient": rep.positivity.sufficient,
                "actual": rep.positivity.actual,
                "min_eigenvalue": rep.positivity.min_eigenvalue,
            },
            "triple": {
                "ok": triple_ok,
                # a closure depends only on its seeds' span, which the triple shares
                "closure_dimension": rank.dimension if triple_ok else None,
                "message": rep.triple_message,
            },
            "passive": None if rank.full_rank else rank.passive,
            "diagnostics": _closure_diagnostics(rank),
        }
    )
    identities = rep.identities
    if identities is not None:
        results["identities"] = {
            "all_pass": identities.all_pass,
            "prime": identities.prime,
            "records": [{"name": r.name, "holds": r.holds} for r in identities.records],
        }
    identities_ok = identities is None or identities.all_pass
    return 0 if rep.verdict == VERDICT_CONTROLLABLE and identities_ok else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` leaves the parser unchanged and gives each call a fresh
    namespace, so one cached parser serves every ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="oscontrol",
        description="Controllability analysis for coupled harmonic oscillators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="Lie algebra closure and rank criterion")
    p.add_argument("--model", required=True, help="model document (JSON)")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("williamson", help="Williamson normal form and spectrum certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--hamiltonian", default=None, help="name in the model (default: drift)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_williamson)

    p = sub.add_parser("recur", help="search for a recurrence time of exp(-A Omega t)")
    p.add_argument("--model", required=True)
    p.add_argument("--hamiltonian", default=None)
    p.add_argument("--epsilon", type=float, required=True, help="target distance to identity")
    p.add_argument("--after", type=float, default=0.0, help="search only tau > this time")
    p.add_argument("--t-max", type=float, default=None, help="search horizon")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recur)

    p = sub.add_parser("evolve", help="propagate a piecewise-constant control schedule")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", required=True, help="schedule document (JSON)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("chain", help="end-to-end chain controllability report")
    p.add_argument("--n", type=int, required=True, help="number of chain sites")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--g1", type=float, default=0.2)
    p.add_argument("--g2", type=float, default=0.2)
    p.add_argument("--omega1", type=float, default=1.0)
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument(
        "--h1-only", action="store_true",
        help="restrict controls to the local phase rotation (passive regime)",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chain)
    return parser


def main(argv=None) -> int:
    """Run one command: the one place a report is timed, completed and written.

    ``cmd_*(args, report)`` fills ``report`` and returns the exit code. An
    ``AnalysisError`` raised once the header exists becomes ``results.error``
    and exit 1, keeping the results already filled; any other ``OSError`` or
    ``ValueError`` is exit 2 with no report.
    """
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    report: dict = {}
    try:
        try:
            code = args.func(args, report)
        except AnalysisError as exc:
            if not report:  # no header yet: nothing was analysed
                raise
            report["results"]["error"] = _analysis_error(exc)
            code = 1
        report["wall_time_s"] = time.perf_counter() - started
        write_report(report, args.out)
    except (OSError, ValueError) as exc:  # DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
