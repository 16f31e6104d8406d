import numpy as np
import pytest

from oscontrol import (
    ChainSpec,
    DefinitenessError,
    TripleParams,
    build_chain,
    closure,
    controllability_report,
    full_dimension,
    positive_triple,
    positivity_condition,
    verify_bracket_identities,
)
from oscontrol.chain import IDENTITY_NAMES, identity_suite_unmet
from oracles import expand_chain_drift

CANONICAL = ChainSpec(n=3, omega=1.0, g1=0.2, g2=0.2, omega1=1.0, chi=1.0)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n=0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, omega=-1.0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, g1=np.inf)


def test_single_site_chain_drift():
    model = build_chain(ChainSpec(n=1, omega=1.3))
    assert np.array_equal(model.drift.A, 1.3 * np.eye(2))


def test_two_site_drift_blocks():
    # with g1 = g2 = g the bond block is diag(2g, 0): a pure q-q coupling
    g = 0.2
    model = build_chain(ChainSpec(n=2, omega=1.0, g1=g, g2=g))
    A = model.drift.A
    assert np.array_equal(A[:2, :2], np.eye(2))
    assert np.array_equal(A[2:, 2:], np.eye(2))
    assert np.array_equal(A[:2, 2:], np.diag([2 * g, 0.0]))
    assert np.array_equal(A[2:, :2], np.diag([2 * g, 0.0]))


def test_controls_are_local_to_site_one():
    for n in (1, 2, 5, 9):
        model = build_chain(ChainSpec(n=n, omega=1.0, g1=0.1, g2=0.3))
        for ctrl in model.controls:
            off_site = np.array(ctrl.A)
            off_site[:2, :2] = 0.0
            assert np.count_nonzero(off_site) == 0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_drift_matches_independent_expansion(n):
    spec = ChainSpec(n=n, omega=1.1, g1=0.15, g2=0.25)
    drift = build_chain(spec).drift
    oracle = expand_chain_drift(n, spec.omega, spec.g1, spec.g2)
    assert np.linalg.norm(drift.A - oracle) <= 1e-14


def test_positivity_condition_canonical():
    for n in range(1, 17):
        check = positivity_condition(ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.2))
        assert check.sufficient
        assert check.actual
        assert check.min_eigenvalue > 0.0


def test_positivity_condition_violated_sum():
    # sum of renormalised couplings 0.6 >= 1/2: the guarantee is gone, the
    # eigensolve decides what actually happens at each n
    for n in (2, 3, 6):
        spec = ChainSpec(n=n, omega=1.0, g1=0.3, g2=0.3)
        check = positivity_condition(spec)
        assert not check.sufficient
        w = np.linalg.eigvalsh(build_chain(spec).drift.A)
        assert check.actual == (w[0] > 0.0)
        assert check.min_eigenvalue == pytest.approx(w[0], abs=1e-14)


def test_positivity_decoupled_chain():
    check = positivity_condition(ChainSpec(n=4, omega=1.0))
    assert check.min_eigenvalue == pytest.approx(1.0, abs=0.0)
    assert check.actual
    assert not check.sufficient  # the sufficient condition wants positive couplings


def test_positive_triple_canonical_fixture():
    spec = ChainSpec(n=2, omega=1.0, g1=0.2, g2=0.2)
    triple = positive_triple(spec, TripleParams(alpha=1.0, beta=1.0, delta=0.5))
    assert len(triple) == 3
    for combo in triple:
        assert np.linalg.eigvalsh(combo.A)[0] > 0.0


def test_positive_triple_rejects_alpha_sign():
    with pytest.raises(ValueError, match="alpha"):
        positive_triple(CANONICAL, TripleParams(alpha=-1.0, beta=1.0, delta=0.5))


def test_positive_triple_rejects_delta_bound():
    with pytest.raises(ValueError, match="delta"):
        positive_triple(CANONICAL, TripleParams(alpha=1.0, beta=1.0, delta=3.0))
    with pytest.raises(ValueError, match="delta"):
        positive_triple(CANONICAL, TripleParams(alpha=1.0, beta=1.0, delta=-0.5))


def test_positive_triple_reports_indefinite_member():
    # drift itself is indefinite at strong coupling, so T0 must be rejected
    spec = ChainSpec(n=3, omega=1.0, g1=0.4, g2=0.4)
    assert not positivity_condition(spec).actual
    with pytest.raises(DefinitenessError):
        positive_triple(spec, TripleParams())


def test_positive_triple_closure_matches_raw_controls():
    spec = ChainSpec(n=2, omega=1.0, g1=0.2, g2=0.2)
    model = build_chain(spec)
    raw = closure([model.drift, *model.controls])
    triple = positive_triple(spec, TripleParams())
    mixed = closure(triple)
    assert raw.dimension == mixed.dimension == full_dimension(2)


def test_identities_all_pass_at_canonical_point():
    report = verify_bracket_identities(CANONICAL)
    assert report.all_pass
    assert report.max_residual <= 1e-12
    assert len(report.records) == 12
    first = report.records[0]
    assert first.name == "squeeze-anti-1"
    assert first.residual <= 1e-12


def test_identities_hold_across_parameter_grid():
    for g in (0.1, 0.2, 0.4):
        for omega1 in (0.5, 1.0, 2.0):
            for chi in (0.5, 1.0, 2.0):
                spec = ChainSpec(n=3, omega=1.0, g1=g, g2=g, omega1=omega1, chi=chi)
                report = verify_bracket_identities(spec)
                assert report.all_pass, (g, omega1, chi, report.max_residual)


def test_identities_mutation_is_detected():
    for name in IDENTITY_NAMES:
        report = verify_bracket_identities(CANONICAL, mutate={name: 1.01})
        record = next(r for r in report.records if r.name == name)
        assert record.residual > 1e-4, name
        assert not report.all_pass


def test_identities_reject_short_chain_and_uneven_couplings():
    with pytest.raises(ValueError, match="n >= 3"):
        verify_bracket_identities(ChainSpec(n=2, g1=0.2, g2=0.2))
    with pytest.raises(ValueError, match="g1 == g2"):
        verify_bracket_identities(ChainSpec(n=3, g1=0.2, g2=0.1))
    with pytest.raises(ValueError, match="nonzero"):
        verify_bracket_identities(ChainSpec(n=3, g1=0.0, g2=0.0))
    for name in ("omega1", "chi"):
        with pytest.raises(ValueError, match=f"nonzero {name}"):
            verify_bracket_identities(ChainSpec(n=3, g1=0.2, g2=0.2, **{name: 0.0}))
    unmet = identity_suite_unmet(ChainSpec(n=2, g1=0.2, g2=0.1, chi=0.0))
    assert len(unmet) == 3
    assert "n >= 3" in unmet[0] and "g1 == g2" in unmet[1] and "nonzero chi" in unmet[2]
    assert identity_suite_unmet(CANONICAL) == []
    with pytest.raises(ValueError, match="unknown identity"):
        verify_bracket_identities(CANONICAL, mutate={"no-such-identity": 1.01})


def test_identities_record_matrices_are_consistent():
    report = verify_bracket_identities(CANONICAL)
    for record in report.records:
        assert record.residual == pytest.approx(
            float(np.linalg.norm(record.lhs - record.rhs)), abs=0.0
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controllability_report_canonical(n):
    spec = ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.2)
    rep = controllability_report(spec)
    assert rep.verdict == "CONTROLLABLE"
    assert rep.subspace.dimension == full_dimension(n)
    assert rep.subspace.full_rank
    assert rep.triple_message is None
    assert rep.positivity.sufficient and rep.positivity.actual
    assert not rep.subspace.passive


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controllability_report_rotation_only_is_passive(n):
    spec = ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.0)
    rep = controllability_report(spec, include_squeeze_control=False)
    assert rep.verdict == "NOT_ESTABLISHED"
    assert not rep.subspace.full_rank
    assert rep.subspace.passive is True
    assert rep.triple_message == "triple not attempted: squeeze control excluded"
    assert rep.subspace.dimension <= n * n


@pytest.mark.parametrize("g1,g2", [(0.2, 0.1), (0.3, 0.05), (0.2, 0.0)])
def test_general_couplings_reach_full_rank(g1, g2):
    # the identity suite covers g1 == g2 only; the unequal and
    # rotating-wave cases are established numerically through the closure
    for n in (2, 3):
        rep = controllability_report(ChainSpec(n=n, omega=1.0, g1=g1, g2=g2))
        assert rep.subspace.full_rank
        assert rep.subspace.dimension == full_dimension(n)
        assert rep.verdict == "CONTROLLABLE"
        assert rep.triple_message is None


def test_controllability_report_strong_coupling_rank_only():
    # g_tilde sum 0.8: rank still passes but the drift is indefinite at n = 3,
    # so no positive-definite triple can be validated
    spec = ChainSpec(n=3, omega=1.0, g1=0.4, g2=0.4)
    rep = controllability_report(spec)
    assert rep.subspace.full_rank
    assert rep.triple_message is not None
    assert rep.verdict == "RANK_ONLY"
    assert "positive definite" in rep.triple_message


@pytest.mark.parametrize("g", [0.15, 0.2])
def test_controllability_report_n7_is_controllable(g):
    # the triple's closure is the raw closure by the span argument; a second
    # float closure of the triple once stopped at 104 or 103 here
    rep = controllability_report(ChainSpec(n=7, omega=1.0, g1=g, g2=g))
    assert rep.verdict == "CONTROLLABLE"
    assert rep.triple_message is None
    assert rep.subspace.dimension == full_dimension(7) == 105


# the float closure lost rank at (6, 0.05), (7, 0.05) and (7, 0.1); the
# closure over F_p gets every point right
CONTROLLABLE_GRID = [(n, g) for n in range(2, 8) for g in (0.05, 0.1, 0.15, 0.2)]


@pytest.mark.parametrize("n,g", CONTROLLABLE_GRID)
def test_controllable_verdicts_pinned(n, g):
    rep = controllability_report(ChainSpec(n=n, omega=1.0, g1=g, g2=g))
    assert rep.verdict == "CONTROLLABLE"
    assert rep.subspace.dimension == full_dimension(n)
