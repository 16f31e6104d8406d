import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oscontrol import AnalysisError, ModelDocument, symplectic_eigenvalues, symplectic_form
from oscontrol.cli import _build_parser, main

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def test_rank_chain_fixture_exit_zero(capsys, tmp_path):
    model = tmp_path / "chain2.json"
    model.write_text(json.dumps({"chain": {"n": 2, "g1": 0.2, "g2": 0.2}}))
    code, out, _ = run_cli(capsys, "rank", "--model", str(model))
    report = report_of(out)
    assert code == 0
    assert report["results"]["dimension"] == 10
    assert report["results"]["rank_criterion_met"] is True
    assert report["command"] == "rank"
    assert report["input_digest"].startswith("sha256:")


def test_rank_control_equal_to_drift_fails_rank(capsys, tmp_path):
    model = tmp_path / "dup.json"
    model.write_text(
        json.dumps(
            {
                "modes": 1,
                "hamiltonians": [{"name": "H", "terms": [{"kind": "number", "mode": 1, "coeff": 1.0}]}],
                "drift": "H",
                "controls": ["H"],
            }
        )
    )
    code, out, _ = run_cli(capsys, "rank", "--model", str(model))
    report = report_of(out)
    assert code == 1
    assert report["results"]["dimension"] == 1
    assert report["results"]["passive"] is True


def test_rank_malformed_document_exit_two(capsys, tmp_path):
    model = tmp_path / "bad.json"
    model.write_text(
        json.dumps(
            {
                "modes": 1,
                "hamiltonians": [{"name": "H", "terms": [{"kind": "wiggle", "mode": 1, "coeff": 1.0}]}],
                "drift": "H",
                "controls": [],
            }
        )
    )
    code, out, err = run_cli(capsys, "rank", "--model", str(model))
    assert code == 2
    assert "kind" in err and "wiggle" in err
    assert out == ""


def test_rank_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "rank", "--model", "/nonexistent/model.json")
    assert code == 2
    assert "error" in err


def test_williamson_identity_hamiltonian(capsys, tmp_path):
    model = tmp_path / "ident.json"
    model.write_text(
        json.dumps(
            {
                "modes": 2,
                "hamiltonians": [{"name": "I", "matrix": np.eye(4).tolist()}],
                "drift": "I",
                "controls": [],
            }
        )
    )
    code, out, _ = run_cli(capsys, "williamson", "--model", str(model))
    report = report_of(out)
    assert code == 0
    assert report["results"]["nu"] == [1.0, 1.0]
    assert report["results"]["residual"] <= 1e-12
    assert report["results"]["spectrum_certificate"]["diagonalizable"] is True


def test_williamson_chain_fixture_nu(capsys):
    code, out, _ = run_cli(
        capsys, "williamson", "--model", str(MODELS / "chain_n3.json"), "--hamiltonian", "H0"
    )
    report = report_of(out)
    assert code == 0
    nu = report["results"]["nu"]
    assert len(nu) == 3
    assert all(nu[i] <= nu[i + 1] for i in range(2))


def test_williamson_indefinite_exit_one(capsys):
    code, out, _ = run_cli(capsys, "williamson", "--model", str(MODELS / "free_particle.json"))
    report = report_of(out)
    assert code == 1
    assert report["results"]["error"]["kind"] == "definiteness"
    assert "smallest eigenvalue" in report["results"]["error"]["message"]


def test_williamson_residual_failure_exits_one_as_numerical(capsys, monkeypatch):
    # a reachable residual (about 3e-15) against an unreachable tolerance is
    # a failed analysis, not a usage error
    monkeypatch.setattr("oscontrol.williamson._RESIDUAL_TOL", 1e-20)
    code, out, _ = run_cli(capsys, "williamson", "--model", str(MODELS / "chain_n3.json"))
    report = report_of(out)
    assert code == 1
    error = report["results"]["error"]
    assert error["kind"] == "numerical"
    assert "residual" in error["message"]
    assert "smallest_eigenvalue" not in error
    assert "nu" not in report["results"]


def test_recur_analysis_error_exits_one_as_numerical(capsys, monkeypatch):
    def audit_fails(query):
        raise AnalysisError("Williamson basis V failed the symplecticity audit")

    monkeypatch.setattr("oscontrol.cli.find_recurrence", audit_fails)
    code, out, _ = run_cli(
        capsys, "recur", "--model", str(MODELS / "incommensurate_pair.json"), "--epsilon", "0.5"
    )
    report = report_of(out)
    assert code == 1
    assert report["results"]["error"] == {
        "kind": "numerical",
        "message": "Williamson basis V failed the symplecticity audit",
    }


CLOSURE_COMMANDS = {
    "rank": ("oscontrol.cli.closure", ["--model", str(MODELS / "chain_n3.json")]),
    "chain": ("oscontrol.cli.controllability_report", ["--n", "3"]),
}


@pytest.mark.parametrize("command", sorted(CLOSURE_COMMANDS))
def test_closure_analysis_error_exits_one_as_numerical(capsys, monkeypatch, tmp_path, command):
    def boom(*args, **kwargs):
        raise AnalysisError("boom")

    target, argv = CLOSURE_COMMANDS[command]
    monkeypatch.setattr(target, boom)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
    assert code == 1
    assert (out, err) == ("", "")
    report = json.loads(out_path.read_text())
    assert report["command"] == command
    assert report["results"] == {"error": {"kind": "numerical", "message": "boom"}}
    assert "wall_time_s" in report


@pytest.mark.parametrize("command", sorted(CLOSURE_COMMANDS))
def test_closure_value_error_exits_two_without_a_report(capsys, monkeypatch, tmp_path, command):
    def bad_input(*args, **kwargs):
        raise ValueError("bad input")

    target, argv = CLOSURE_COMMANDS[command]
    monkeypatch.setattr(target, bad_input)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
    assert code == 2
    assert (out, err) == ("", "error: bad input\n")
    assert not out_path.exists()


def test_analysis_error_before_the_header_exits_two(capsys, monkeypatch, tmp_path):
    # evolve reads its schedule before the header: with no report to carry
    # results.error, the failure is an input error
    def boom(path):
        raise AnalysisError("boom")

    monkeypatch.setattr("oscontrol.cli.ScheduleDocument.from_path", boom)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"),
        "--schedule", str(MODELS / "schedule_demo.json"), "--out", str(out_path),
    )
    assert code == 2
    assert (out, err) == ("", "error: boom\n")
    assert not out_path.exists()


def test_recur_identity_hamiltonian(capsys, tmp_path):
    model = tmp_path / "ident.json"
    model.write_text(
        json.dumps(
            {
                "modes": 1,
                "hamiltonians": [{"name": "I", "matrix": np.eye(2).tolist()}],
                "drift": "I",
                "controls": [],
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "recur", "--model", str(model), "--epsilon", "0.1", "--after", "1.0"
    )
    report = report_of(out)
    assert code == 0
    assert report["results"]["found"] is True
    assert abs(report["results"]["tau"] - 2 * math.pi) < 1e-6
    assert report["results"]["achieved_distance"] < 1e-8


def test_recur_incommensurate_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "recur", "--model", str(MODELS / "incommensurate_pair.json"),
        "--epsilon", "0.5", "--after", "10",
    )
    report = report_of(out)
    assert code == 0
    assert report["results"]["found"] is True
    assert report["results"]["tau"] > 10.0


def test_recur_beyond_the_grid_budget_is_an_honest_negative(capsys):
    # t-max 1e15 would be about 2.5e15 grid points; the scan stops at the budget
    code, out, _ = run_cli(
        capsys, "recur", "--model", str(MODELS / "single_mode.json"),
        "--epsilon", "1e-300", "--t-max", "1e15",
    )
    results = report_of(out)["results"]
    assert code == 0
    assert results["found"] is False
    assert results["budget_exhausted"] is True
    assert results["tau"] is None


@pytest.mark.parametrize(
    "horizon", [("--after", "1", "--t-max", "1.1"), ("--t-max", "3"), ("--t-max", "0.9")]
)
def test_recur_horizon_without_a_return_reports_none(capsys, horizon):
    # the grid step here is 2 pi / 16 > 0.1: the scan once saw no point and
    # the report failed on best_distance_seen = inf, exit 2. From the default
    # --after 0 the distance only rises up to t = 3, and a refine once slid
    # down to t ~ 4e-13 and reported the identity at t = 0 as a recurrence
    code, out, err = run_cli(
        capsys, "recur", "--model", str(MODELS / "single_mode.json"), "--epsilon", "0.1", *horizon
    )
    assert (code, err) == (0, "")
    results = report_of(out)["results"]
    assert results["found"] is False
    assert results["tau"] is None
    assert math.isfinite(results["best_distance_seen"])
    assert results["best_distance_seen"] > 0.1


def test_recur_infinite_horizon_is_a_query_error(capsys):
    code, out, err = run_cli(
        capsys, "recur", "--model", str(MODELS / "single_mode.json"),
        "--epsilon", "0.1", "--t-max", "inf",
    )
    assert (code, out) == (2, "")
    assert err == "error: recurrence query: max_time must be finite, got inf\n"


def test_recur_after_beyond_the_default_horizon_is_a_query_error(capsys):
    # 1e5 periods past 1e300 round back to 1e300: there is no horizon to scan;
    # at 1e16 and 1e17 the float spacing (2, 16) exceeds the grid step 2 pi / 16,
    # where a scan once covered nothing and reported found: false
    for after in ("1e16", "1e17", "1e300"):
        code, out, err = run_cli(
            capsys, "recur", "--model", str(MODELS / "single_mode.json"),
            "--epsilon", "0.1", "--after", after,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: the grid scan cannot resolve times up to ")
        assert f"after min_time {float(after):g} is too fine for floating point" in err
    # a horizon past 1e16 is fine where the scan's budget stops it long before
    code, out, err = run_cli(
        capsys, "recur", "--model", str(MODELS / "single_mode.json"),
        "--epsilon", "0.1", "--after", "0", "--t-max", "1e16",
    )
    assert code == 0
    report = json.loads(out)["results"]
    assert report["found"] and report["budget_exhausted"]
    assert abs(report["tau"] - 2 * math.pi) < 1e-9


def test_recur_within_the_budget_reports_it_unspent(capsys):
    code, out, _ = run_cli(
        capsys, "recur", "--model", str(MODELS / "incommensurate_pair.json"),
        "--epsilon", "0.5", "--t-max", "100",
    )
    assert code == 0
    assert report_of(out)["results"]["budget_exhausted"] is False


@pytest.mark.parametrize("model", ["incommensurate_pair.json", "chain_n3.json"])
def test_recur_report_nu_matches_symplectic_eigenvalues(capsys, model):
    # nu comes from the search's own Williamson decomposition; the direct
    # eigenvalue route of A Omega is the independent reference
    code, out, _ = run_cli(
        capsys, "recur", "--model", str(MODELS / model), "--epsilon", "0.5", "--t-max", "100"
    )
    assert code == 0
    doc = ModelDocument.from_path(MODELS / model)
    expected = symplectic_eigenvalues(doc.hamiltonian(doc.drift))
    nu = np.array(report_of(out)["results"]["nu"])
    assert nu.shape == expected.shape
    assert np.all(np.abs(nu - expected) <= 1e-12 * np.abs(expected))


def test_recur_free_particle_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "recur", "--model", str(MODELS / "free_particle.json"), "--epsilon", "0.1"
    )
    report = report_of(out)
    assert code == 1
    assert report["results"]["error"]["kind"] == "definiteness"


def test_recur_invalid_query_is_a_document_error(capsys):
    code, _, err = run_cli(
        capsys, "recur", "--model", str(MODELS / "incommensurate_pair.json"), "--epsilon", "0"
    )
    assert code == 2
    assert "recurrence query:" in err


def test_recur_numerical_failure_keeps_its_own_message(capsys, monkeypatch):
    def boom(query):
        raise ValueError("boom")

    monkeypatch.setattr("oscontrol.cli.find_recurrence", boom)
    code, _, err = run_cli(
        capsys, "recur", "--model", str(MODELS / "incommensurate_pair.json"), "--epsilon", "0.5"
    )
    assert code == 2
    assert "boom" in err
    assert "recurrence query:" not in err


def test_evolve_empty_schedule_gives_identity(capsys, tmp_path):
    schedule = tmp_path / "empty.json"
    schedule.write_text(json.dumps({"segments": []}))
    code, out, _ = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    report = report_of(out)
    assert code == 0
    assert report["results"]["S"] == [[1.0, 0.0], [0.0, 1.0]]
    assert report["results"]["symplecticity_audit"] == 0.0


def test_evolve_drift_only_matches_expm(capsys, tmp_path):
    schedule = tmp_path / "drift.json"
    schedule.write_text(json.dumps({"segments": [{"duration": 0.8, "controls": [0.0]}]}))
    code, out, _ = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    report = report_of(out)
    assert code == 0
    expected = scipy.linalg.expm(-np.eye(2) @ symplectic_form(1) * 0.8)
    assert np.allclose(np.array(report["results"]["S"]), expected, atol=1e-12)


def test_evolve_random_schedule_audit(capsys, tmp_path):
    rng = np.random.default_rng(31)
    segments = [
        {"duration": float(rng.uniform(0.05, 0.3)), "controls": [float(rng.uniform(-1, 1))]}
        for _ in range(20)
    ]
    schedule = tmp_path / "random.json"
    schedule.write_text(json.dumps({"segments": segments}))
    code, out, _ = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    report = report_of(out)
    assert code == 0
    assert report["results"]["symplecticity_audit"] < 1e-9


def test_evolve_covariance_passthrough(capsys):
    code, out, _ = run_cli(
        capsys,
        "evolve", "--model", str(MODELS / "single_mode.json"),
        "--schedule", str(MODELS / "schedule_demo.json"),
    )
    report = report_of(out)
    assert code == 0
    sigma = np.array(report["results"]["final_covariance"])
    assert sigma.shape == (2, 2)
    assert np.allclose(sigma, sigma.T, atol=1e-12)


def test_evolve_control_count_mismatch_exit_two(capsys, tmp_path):
    schedule = tmp_path / "wrong.json"
    schedule.write_text(json.dumps({"segments": [{"duration": 1.0, "controls": [1.0, 2.0]}]}))
    code, _, err = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    assert code == 2
    assert "controls" in err


def test_evolve_ragged_schedule_exit_two(capsys, tmp_path):
    schedule = tmp_path / "ragged.json"
    schedule.write_text(json.dumps({"segments": [
        {"duration": 1.0, "controls": [1.0]},
        {"duration": 1.0, "controls": [1.0, 2.0]},
    ]}))
    code, out, err = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    assert code == 2
    assert out == ""
    assert err == "error: segments[1]: segment supplies 2 control values, segments[0] supplies 1\n"


def test_evolve_covariance_audit_failure_exits_one_as_numerical(capsys, monkeypatch):
    # an S that fails the symplecticity audit is a failed analysis, not a
    # usage error; the report still carries S and its audit
    monkeypatch.setattr("oscontrol.cli.propagate", lambda model, schedule: 2.0 * np.eye(2))
    code, out, err = run_cli(
        capsys,
        "evolve", "--model", str(MODELS / "single_mode.json"),
        "--schedule", str(MODELS / "schedule_demo.json"),
    )
    report = report_of(out)
    assert code == 1
    assert err == ""
    assert report["results"]["S"] == [[2.0, 0.0], [0.0, 2.0]]
    assert report["results"]["error"]["kind"] == "numerical"
    assert "not symplectic" in report["results"]["error"]["message"]
    assert "final_covariance" not in report["results"]

    # a shape mismatch stays a usage error
    monkeypatch.setattr("oscontrol.cli.propagate", lambda model, schedule: np.eye(4))
    code, out, err = run_cli(
        capsys,
        "evolve", "--model", str(MODELS / "single_mode.json"),
        "--schedule", str(MODELS / "schedule_demo.json"),
    )
    assert code == 2
    assert out == ""
    assert "shape mismatch" in err


@pytest.mark.parametrize("covariance", [False, True], ids=["no-covariance", "covariance"])
def test_evolve_overflowing_propagator_exits_one_as_numerical(capsys, tmp_path, covariance):
    # A = diag(11, -9) is indefinite, so S grows like e^7960: once numpy
    # warned and the renderer met a nan, exit 2 with no report
    doc = {"segments": [{"duration": 800, "controls": [5.0]}]}
    if covariance:
        doc["initial_covariance"] = [[0.5, 0.0], [0.0, 0.5]]
    schedule = tmp_path / "overflow.json"
    schedule.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    assert (code, err) == (1, "")
    report = report_of(out)
    assert report["inputs"]["segments"] == 1
    assert report["tolerances"] == {"covariance_symplectic_tol": 1e-8}
    assert report["results"]["error"]["kind"] == "numerical"
    assert "non-finite" in report["results"]["error"]["message"]
    assert set(report["results"]) == {"error"}


def test_evolve_asymmetric_initial_covariance_is_named_before_propagating(
    capsys, monkeypatch, tmp_path
):
    # once found only after the whole schedule had run, with a message that
    # did not name the field
    monkeypatch.setattr("oscontrol.cli.propagate", None)  # must not run
    schedule = tmp_path / "asymmetric.json"
    schedule.write_text(json.dumps({
        "segments": [{"duration": 1.0, "controls": [0.5]}],
        "initial_covariance": [[0.5, 0.3], [0.0, 0.5]],
    }))
    code, out, err = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    assert (code, out) == (2, "")
    assert err == "error: initial_covariance: sigma must be symmetric\n"

    # the shape check still comes first
    schedule.write_text(json.dumps({
        "segments": [{"duration": 1.0, "controls": [0.5]}],
        "initial_covariance": [[0.5, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
    }))
    code, out, err = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"), "--schedule", str(schedule)
    )
    assert (code, out) == (2, "")
    assert err == "error: initial_covariance: expected shape (2, 2), got (3, 3)\n"


def test_williamson_residual_within_rounding_blames_the_tolerance(capsys, monkeypatch):
    # chain_n3's drift is well conditioned: its residual of about 2e-15 is
    # rounding, so the message must not call the input ill-conditioned
    monkeypatch.setattr("oscontrol.williamson._RESIDUAL_TOL", 1e-20)
    code, out, _ = run_cli(capsys, "williamson", "--model", str(MODELS / "chain_n3.json"))
    assert code == 1
    message = report_of(out)["results"]["error"]["message"]
    assert "the tolerance is below rounding level" in message
    assert "ill-conditioned" not in message


def test_chain_canonical_fixture(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "3")
    report = report_of(out)
    assert code == 0
    assert report["results"]["verdict"] == "CONTROLLABLE"
    assert report["results"]["dimension"] == 21
    identities = report["results"]["identities"]
    assert identities["all_pass"] is True
    assert identities["prime"] == 1048573
    assert len(identities["records"]) == 12
    assert all(record["holds"] is True for record in identities["records"])


def test_chain_h1_only_not_established(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "3", "--g2", "0.0", "--h1-only")
    report = report_of(out)
    assert code == 1
    assert report["results"]["verdict"] == "NOT_ESTABLISHED"
    assert report["results"]["passive"] is True
    assert report["results"]["dimension"] <= 9


@pytest.mark.parametrize(
    "flags,ok,message",
    [
        ((), True, None),
        (("--g1", "0.4", "--g2", "0.4"), False, "positive definite"),
        (("--g2", "0", "--h1-only"), False, "triple not attempted: squeeze control excluded"),
    ],
)
def test_chain_triple_block_reads_the_one_closure(capsys, flags, ok, message):
    # the triple spans the seeds' space, so its closure dimension is the
    # closure's own whenever the triple validates, and null otherwise
    _, out, _ = run_cli(capsys, "chain", "--n", "3", *flags)
    res = report_of(out)["results"]
    triple = res["triple"]
    assert triple["ok"] is ok
    if ok:
        assert triple == {"ok": True, "closure_dimension": res["dimension"], "message": None}
    else:
        assert triple["closure_dimension"] is None
        assert message in triple["message"]
    assert (res["passive"] is None) == res["rank_criterion_met"]


@pytest.mark.parametrize(
    "flags", [("--g1", "0", "--g2", "0"), ("--omega1", "0"), ("--chi", "0")]
)
def test_chain_auto_skips_identities_it_cannot_normalise(capsys, flags):
    code, out, _ = run_cli(capsys, "chain", "--n", "3", *flags)
    report = report_of(out)
    assert code == 1
    assert report["results"]["verdict"] in ("RANK_ONLY", "NOT_ESTABLISHED")
    assert "identities" not in report["results"]


def test_chain_invalid_flags_exit_two(capsys):
    code, _, err = run_cli(capsys, "chain", "--n", "0")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("chain", "--n", "3", "--omega1", "nan"), "error: omega1 must be finite, got nan"),
    ],
    ids=["chain-omega1-nan"],
)
def test_bad_numeric_flags_exit_two_before_analysis(capsys, monkeypatch, argv, message):
    # each of these once ran the analysis: exit 1 as a numerical failure,
    # exit 0 echoing the bad value, or exit 2 only when the renderer met a nan
    for name in ("closure", "spectrum_certificate", "controllability_report"):
        monkeypatch.setattr(f"oscontrol.cli.{name}", None)  # analysis must not start
    argv = [str(MODELS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "flags", [("--omega1", "-1"), ("--omega1", "0.2"), ("--chi", "3"), ("--chi", "-1")]
)
def test_chain_triple_is_decided_by_the_drift_whatever_the_controls(capsys, flags):
    # the triple's weights once were fixed for omega1 = chi = 1, so any other
    # control strength failed their constraints and reported RANK_ONLY
    code, out, _ = run_cli(capsys, "chain", "--n", "4", *flags)
    res = report_of(out)["results"]
    assert code == 0
    assert res["verdict"] == "CONTROLLABLE"
    assert res["triple"] == {"ok": True, "closure_dimension": 36, "message": None}
    assert res["positivity"]["actual"] is True


def test_chain_vanishing_rotation_control_names_omega1(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "4", "--omega1", "0")
    res = report_of(out)["results"]
    assert code == 1
    assert res["verdict"] == "RANK_ONLY"
    assert res["triple"]["ok"] is False
    assert "omega1 = 0" in res["triple"]["message"]


def test_chain_gray_zone_positivity_is_the_triple_decision(capsys):
    # smallest drift eigenvalue 2.0e-14 > 0 but below 1e-10 * ||H0||_2: once
    # positivity.actual said true beside a triple that rejected T0
    code, out, _ = run_cli(
        capsys, "chain", "--n", "2", "--g1", "0.49999999999999", "--g2", "0.49999999999999"
    )
    res = report_of(out)["results"]
    assert code == 1
    assert 0.0 < res["positivity"]["min_eigenvalue"] < 1e-10
    assert res["positivity"]["actual"] is res["triple"]["ok"] is False
    assert res["triple"]["message"].startswith("triple member T0 is not positive definite")
    assert res["verdict"] == "RANK_ONLY"


def test_evolve_transports_covariance_with_the_echoed_tolerance(capsys):
    import oscontrol.evolution

    code, out, _ = run_cli(
        capsys, "evolve", "--model", str(MODELS / "single_mode.json"),
        "--schedule", str(MODELS / "schedule_demo.json"),
    )
    report = report_of(out)
    assert code == 0
    assert report["tolerances"] == {
        "covariance_symplectic_tol": oscontrol.evolution._COVARIANCE_SYMPLECTIC_TOL
    }
    assert "final_covariance" in report["results"]


def test_chain_skips_identities_for_uneven_couplings(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "3", "--g1", "0.2", "--g2", "0.1")
    report = report_of(out)
    assert "identities" not in report["results"]
    assert code == 0  # still controllable, identities simply not applicable


def test_reports_are_deterministic_modulo_wall_time(capsys):
    code1, out1, _ = run_cli(capsys, "chain", "--n", "2")
    code2, out2, _ = run_cli(capsys, "chain", "--n", "2")
    assert code1 == code2 == 0
    r1, r2 = report_of(out1), report_of(out2)
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2
    # byte-level check modulo the wall-time line
    lines1 = [l for l in out1.splitlines() if "wall_time_s" not in l]
    lines2 = [l for l in out2.splitlines() if "wall_time_s" not in l]
    assert lines1 == lines2


@pytest.mark.parametrize("n", [8, 10])
def test_chain_passive_regime_reaches_n_squared(capsys, n):
    # a bracket that is exactly zero is rounding noise in floating point; at
    # n = 10 it was once normalised into the basis and the command exited 2
    code, out, _ = run_cli(
        capsys, "chain", "--n", str(n), "--g1", "0.2", "--g2", "0", "--h1-only"
    )
    res = report_of(out)["results"]
    assert code == 1
    assert res["verdict"] == "NOT_ESTABLISHED"
    assert res["dimension"] == n * n
    assert res["passive"] is True


def test_closure_certificate_in_chain_and_rank_reports(capsys):
    # uneven couplings leave the chain's rank to the closure
    code, out, _ = run_cli(capsys, "chain", "--n", "3", "--g2", "0.1")
    assert code == 0
    chain_report = report_of(out)
    code, out, _ = run_cli(capsys, "rank", "--model", str(MODELS / "chain_n3.json"))
    assert code == 0
    rank_report = report_of(out)
    for report in (chain_report, rank_report):
        certificate = report["results"]["diagnostics"]["closure"]
        assert certificate == {
            "certificate": "exact_mod_p",
            "prime": 1048573,
            "candidates": certificate["candidates"],
        }
        assert 21 < certificate["candidates"] <= 3 + 3 * 21
        assert "residual_spectrum" not in report["results"]
    assert chain_report["tolerances"] == rank_report["tolerances"] == {}
    assert "closed" not in rank_report["results"]


@pytest.mark.parametrize("n", [3, 100])
def test_chain_induction_certificate_in_chain_report(capsys, monkeypatch, n):
    # the suite's preconditions hold, so the induction decides the rank with
    # no closure of the chain, and the report builds the chain once
    import oscontrol.chain

    builds = []
    build_chain = oscontrol.chain.build_chain
    monkeypatch.setattr(
        oscontrol.chain, "build_chain", lambda spec: builds.append(spec.n) or build_chain(spec)
    )
    code, out, _ = run_cli(capsys, "chain", "--n", str(n))
    res = report_of(out)["results"]
    assert code == 0
    assert builds == [n]
    assert res["verdict"] == "CONTROLLABLE"
    assert res["dimension"] == res["dimension_full"] == n * (2 * n + 1)
    assert (res["rank_criterion_met"], res["bracket_depth"]) == (True, None)
    assert "closed" not in res
    assert res["diagnostics"] == {"closure": {"certificate": "chain_induction", "prime": 1048573}}
    assert res["triple"]["closure_dimension"] == res["dimension"]
    assert res["identities"]["all_pass"] is True


def test_chain_beyond_the_closure_limit_exits_two_without_a_report(capsys):
    code, out, err = run_cli(capsys, "chain", "--n", "128")
    assert code == 2
    assert (out, err) == ("", "error: exact closure is limited to n <= 127, got n = 128\n")


@pytest.mark.parametrize(
    "command,flag",
    [
        ("rank", "--tol"), ("chain", "--tol"), ("chain", "--identity-tol"),
        ("chain", "--identities"), ("rank", "--max-rounds"), ("recur", "--grid-points"),
        ("chain", "--alpha"), ("chain", "--beta"), ("chain", "--delta"), ("williamson", "--tol"),
    ],
    ids=["rank", "chain", "chain-identity-tol", "chain-identities", "rank-max-rounds",
         "recur-grid-points", "chain-alpha", "chain-beta", "chain-delta", "williamson-tol"],
)
def test_tol_flag_is_gone_from_rank_and_chain(capsys, command, flag):
    # the identities are checked exactly over F_p, so no tolerance is left;
    # the report carries them wherever the suite applies, so no switch either;
    # the closure always runs to the end, the recurrence grid is fixed, and
    # so are the positive triple and the Williamson residual bound
    target = {
        "rank": ["--model", str(MODELS / "chain_n3.json")],
        "williamson": ["--model", str(MODELS / "chain_n3.json")],
        "chain": ["--n", "3"],
        "recur": ["--model", str(MODELS / "single_mode.json"), "--epsilon", "0.1"],
    }[command]
    code, out, err = run_cli(capsys, command, *target, flag, "1e-12")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} 1e-12" in err


@pytest.mark.parametrize("flags", [(), ("--omega1", "2", "--chi", "0.5")])
def test_one_chain_call_evaluates_each_identity_window_once(capsys, monkeypatch, flags):
    # the report's identities are the induction's one check, on the 3-site
    # window, at the spec's own controls; no other window is evaluated
    import oscontrol.chain

    table, rows = oscontrol.chain._identity_table, []

    def spy(spec, model, p):
        out = table(spec, model, p)
        rows.append(len(out))
        return out

    monkeypatch.setattr(oscontrol.chain, "_identity_table", spy)
    code, out, _ = run_cli(capsys, "chain", "--n", "5", *flags)
    res = report_of(out)["results"]
    assert code == 0
    assert rows == [12]
    assert res["diagnostics"]["closure"]["certificate"] == "chain_induction"
    assert res["identities"]["all_pass"] is True


def test_chain_parameter_vanishing_mod_p_leaves_the_suite_unmet(capsys):
    # omega1 = p is zero mod p: the suite cannot normalise by it, so the
    # report has no identities section and the closure decides the rank
    argv = ("chain", "--n", "4", "--g1", "0.2", "--g2", "0.2", "--omega1", "1048573")
    code, out, _ = run_cli(capsys, *argv)
    res = report_of(out)["results"]
    assert code == 0
    assert "identities" not in res
    assert (res["verdict"], res["dimension"]) == ("CONTROLLABLE", 36)
    assert res["diagnostics"]["closure"]["certificate"] == "exact_mod_p"


@pytest.mark.parametrize("g", ["0.05", "0.1", "0.15", "0.2"])
@pytest.mark.parametrize("n", [8, 10, 12, 16])
def test_chain_controllable_beyond_n7(capsys, n, g):
    # the float closure said NOT_ESTABLISHED here at tol 1e-9; the rank
    # decided over F_p is exact
    code, out, _ = run_cli(capsys, "chain", "--n", str(n), "--g1", g, "--g2", g)
    res = report_of(out)["results"]
    assert code == 0
    assert res["verdict"] == "CONTROLLABLE"
    assert res["dimension"] == res["dimension_full"] == n * (2 * n + 1)
    assert res["identities"]["all_pass"] is True


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "rank", "--model", str(MODELS / "chain_n3.json"), "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["results"]["dimension"] == 21


def test_usage_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "rank")  # --model missing
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def _without_wall_time(out):
    return [line for line in out.splitlines() if "wall_time_s" not in line]


def test_cached_parser_leaks_nothing_between_calls(capsys):
    # one process, one parser: each report must equal the report of the same
    # argv parsed by a freshly built parser
    argvs = [
        ["chain", "--n", "3", "--h1-only"],
        ["chain", "--n", "3"],
        ["chain", "--n", "3", "--g2", "0.1"],
        ["recur", "--model", str(MODELS / "single_mode.json"), "--epsilon", "0.1",
         "--after", "6.2"],
        ["chain", "--n", "3"],
        ["recur", "--model", str(MODELS / "single_mode.json"), "--epsilon", "0.1"],
    ]
    in_sequence = [run_cli(capsys, *argv) for argv in argvs]
    assert _build_parser() is _build_parser()
    for argv, (code, out, err) in zip(argvs, in_sequence):
        _build_parser.cache_clear()
        alone_code, alone_out, alone_err = run_cli(capsys, *argv)
        assert (code, err) == (alone_code, alone_err)
        assert _without_wall_time(out) == _without_wall_time(alone_out)
    assert report_of(in_sequence[0][1])["inputs"]["h1_only"] is True
    assert report_of(in_sequence[1][1])["inputs"]["h1_only"] is False
    assert report_of(in_sequence[3][1])["inputs"]["min_time"] == 6.2
    assert report_of(in_sequence[5][1])["inputs"]["min_time"] == 0.0


def test_evolve_reports_deterministic_across_calls_and_blas_threads(capsys, tmp_path):
    # 600 segments span three stacked-exponential chunks
    rng = np.random.default_rng(41)
    f1 = rng.uniform(0.0, 1.0, 600)
    segments = [
        {"duration": d, "controls": [a, b]}
        for d, a, b in zip(
            rng.uniform(0.05, 0.5, 600).tolist(),
            f1.tolist(),
            (rng.uniform(-0.4, 0.4, 600) * f1).tolist(),
        )
    ]
    X = rng.normal(size=(6, 6))
    sigma = 0.5 * np.eye(6) + X @ X.T / 12
    schedule = tmp_path / "long.json"
    schedule.write_text(json.dumps({"segments": segments, "initial_covariance": sigma.tolist()}))
    argv = ["evolve", "--model", str(MODELS / "chain_n3.json"), "--schedule", str(schedule)]

    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.append(out)
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "oscontrol.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert "final_covariance" in report_of(outs[0])["results"]
    assert report_of(outs[0])["inputs"]["segments"] == 600
    for out in outs[1:]:
        assert _without_wall_time(out) == _without_wall_time(outs[0])
