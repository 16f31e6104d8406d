"""Self-tests of the benchmark: generators, oracles and span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads as w  # noqa: E402


def _first_block(workload: str, seed: int) -> list:
    return next(w.blocks(workload, seed))


@pytest.mark.parametrize("workload", ["chain", "recur"])
def test_blocks_are_deterministic_per_seed(workload):
    a, b = _first_block(workload, 5), _first_block(workload, 5)
    assert [(op.argv, op.inputs, op.files) for op in a] == [
        (op.argv, op.inputs, op.files) for op in b
    ]


def test_recur_blocks_differ_between_seeds():
    assert [op.inputs for op in _first_block("recur", 5)] != [
        op.inputs for op in _first_block("recur", 6)
    ]


def test_evolve_pair_is_deterministic_per_seed():
    a = w.evolve_pair(np.random.default_rng(3), 2, 40)
    b = w.evolve_pair(np.random.default_rng(3), 2, 40)
    assert [(op.argv, op.inputs, op.files) for op in a] == [
        (op.argv, op.inputs, op.files) for op in b
    ]


def _schedule_norm(op) -> float:
    seg = op.files[next(k for k in op.files if "schedule" in k)]["segments"]
    controls = np.array([s["controls"] for s in seg])
    durations = np.array([s["duration"] for s in seg])
    n = op.inputs["n"]
    return float(np.linalg.norm(w.reference_propagator(n, op.inputs["g"], controls, durations)))


def test_evolve_pair_draws_its_schedule_inside_the_norm_band():
    unbanded = w.evolve_pair(np.random.default_rng(4), 2, 200)[0]
    band = (1.5 * _schedule_norm(unbanded), math.inf)
    ops = w.evolve_pair(np.random.default_rng(4), 2, 200, band)
    assert all(band[0] <= _schedule_norm(op) for op in ops)
    with pytest.raises(RuntimeError):
        w.evolve_pair(np.random.default_rng(4), 2, 20, (1e30, math.inf))


def _chain_report(n,verdict="CONTROLLABLE", dimension=None, identities=True):
    full = n * (2 * n + 1)
    return {"results": {
        "verdict": verdict,
        "dimension": full if dimension is None else dimension,
        "dimension_full": full,
        "triple": {"closure_dimension": full},
        "identities": {"all_pass": identities},
    }}


def test_chain_oracle():
    check = w.chain_op(5, 0.2).check
    assert check(0, _chain_report(5), "").ok
    assert not check(0, _chain_report(5, dimension=54), "").ok
    assert not check(1, _chain_report(5, verdict="RANK_ONLY"), "").ok
    assert not check(0, _chain_report(5, identities=False), "").ok
    assert not check(2, None, "error: bad").ok


def test_chain_oracle_names_only_the_documented_rank_loss():
    rank_only = _chain_report(7, verdict="RANK_ONLY", dimension=105)
    assert w.chain_op(7, 0.2).check(1, rank_only, "").known == "chain-closure-rank-loss"
    short = _chain_report(6, verdict="NOT_ESTABLISHED", dimension=70)
    assert w.chain_op(6, 0.05).check(1, short, "").known == "chain-closure-rank-loss"
    assert w.chain_op(6, 0.2).check(1, short, "").known is None
    assert w.chain_op(5, 0.2).check(1, _chain_report(5, "NOT_ESTABLISHED", 50), "").known is None


def test_recur_oracle():
    op = w.recur_op(np.random.default_rng(4), 3, 0.05)
    period = 2.0 * math.pi * op.inputs["q"]

    def report(tau, found=True):
        return {"results": {"found": found, "tau": tau}}

    assert op.check(0, report(period), "").ok
    assert not op.check(0, report(period + 0.5), "").ok
    assert not op.check(0, report(None, found=False), "").ok
    assert not op.check(0, report(op.inputs["after"] / 2), "").ok
    assert not op.check(2, None, "error: recurrence query").ok


def test_recurrence_distance_matches_the_matrix_exponential():
    import scipy.linalg

    rng = np.random.default_rng(8)
    nu = np.array([0.7, 1.3])
    S = w.random_symplectic(rng, 2, 0.3)
    A = S.T @ np.kron(np.diag(nu), np.eye(2)) @ S
    P = scipy.linalg.expm(-A @ w._omega(2) * 2.9)
    assert math.isclose(w.recurrence_distance(S, nu, 2.9),
                        np.linalg.norm(P - np.eye(4)), rel_tol=1e-9)


def _evolve_report(S, sigma=None):
    res = {"S": S.tolist(), "symplecticity_audit": w.symplectic_defect(S)}
    if sigma is not None:
        res["final_covariance"] = (S @ sigma @ S.T).tolist()
    return {"results": res}


def test_evolve_oracle():
    op = w.evolve_pair(np.random.default_rng(5), 2, 60)[0]
    seg = op.files[next(k for k in op.files if "schedule" in k)]["segments"]
    controls = np.array([s["controls"] for s in seg])
    durations = np.array([s["duration"] for s in seg])
    S = w.reference_propagator(2, op.inputs["g"], controls, durations)
    assert op.check(0, _evolve_report(S), "").ok
    bad = S.copy()
    bad[1, 2] *= 1.0 + 1e-6
    assert not op.check(0, _evolve_report(bad), "").ok
    verdict = op.check(2, None, "error: S is not symplectic to 1e-08: audit 1e-07")
    assert not verdict.ok and verdict.known is None  # no covariance: not the known defect


def test_evolve_oracle_names_the_absolute_audit_defect():
    op = w.evolve_pair(np.random.default_rng(5), 2, 60)[1]
    verdict = op.check(2, None, "error: S is not symplectic to 1e-08: audit 1e-07")
    assert not verdict.ok and verdict.known == "evolve-absolute-audit"
    assert op.check(2, None, "error: something else").known is None


def test_reference_chain_matches_the_package_model():
    from oscontrol.chain import ChainSpec, build_chain

    model = build_chain(ChainSpec(n=4, g1=0.15, g2=0.15))
    A0, A1, A2 = w.chain_matrices(4, 0.15)
    assert np.array_equal(model.drift.A, A0)
    assert np.array_equal(model.controls[0].A, A1)
    assert np.array_equal(model.controls[1].A, A2)


def test_self_times_on_a_synthetic_tree():
    tree = [
        spans.Span("cli", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 5.0, 9.0, parent=0),
        spans.Span("c", 6.0, 7.0, parent=2),
        spans.Span("cli", 20.0, 21.0, op=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert spans.accounting_residual(tree, selfs) == 0.0


def test_tracer_restores_what_it_patched(tmp_path):
    import oscontrol.cli
    import oscontrol.documents

    before = (oscontrol.cli.write_report, oscontrol.documents.ModelDocument.__dict__["from_path"])
    tracer = spans.Tracer()
    with tracer.patched():
        assert oscontrol.cli.write_report is not before[0]
        with tracer.span("cli"):
            oscontrol.cli.write_report({"x": 1}, str(tmp_path / "t.json"))
    after = (oscontrol.cli.write_report, oscontrol.documents.ModelDocument.__dict__["from_path"])
    assert after == before
    assert [s.name for s in tracer.spans] == ["cli", "documents.render"]
    assert tracer.spans[1].parent == 0


def test_tracer_skips_names_the_package_no_longer_has():
    import oscontrol.cli

    targets = [("oscontrol.cli", "no_such_function", "x", None),
               ("oscontrol.no_such_module", "f", "y", None),
               ("oscontrol.cli", "NoSuchClass.from_path", "z", None),
               ("oscontrol.cli", "write_report", "documents.render", None)]
    original = oscontrol.cli.write_report
    with spans.Tracer().patched(targets):
        assert oscontrol.cli.write_report is not original
    assert oscontrol.cli.write_report is original
    assert not hasattr(oscontrol.cli, "no_such_function")
