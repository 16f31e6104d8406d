import numpy as np
import pytest

from oscontrol import (
    ChainInduction,
    ChainSpec,
    LieSubspace,
    QuadraticHamiltonian,
    TripleParams,
    build_chain,
    closure,
    controllability_report,
    full_dimension,
    verify_bracket_identities,
)
from oscontrol import chain
from oscontrol.chain import IDENTITY_NAMES, identity_suite_unmet
from oscontrol.closure import PRIMES, _to_field
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


def _pd(A):
    # the package's one rule, written out: w[0] > 1e-10 * ||A||_2
    w = np.linalg.eigvalsh(A)
    return w[0] > 1e-10 * max(abs(w[0]), abs(w[-1]))


def _members(spec, params):
    # the triple {H0, H0 + alpha H1, H0 + beta H1 + delta H2}, built here as the oracle
    model = build_chain(spec)
    H0, H1, H2 = (H.A for H in (model.drift, *model.controls))
    return [H0, H0 + params.alpha * H1, H0 + params.beta * H1 + params.delta * H2]


def test_positivity_condition_canonical():
    for n in range(1, 17):
        check = controllability_report(ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.2)).positivity
        assert check.sufficient
        assert check.actual
        assert check.min_eigenvalue > 0.0


def test_positivity_condition_violated_sum():
    # sum of renormalised couplings 0.6 >= 1/2: the guarantee is gone, the
    # eigensolve decides what actually happens at each n
    for n in (2, 3, 6):
        spec = ChainSpec(n=n, omega=1.0, g1=0.3, g2=0.3)
        rep = controllability_report(spec)
        assert not rep.positivity.sufficient
        A = build_chain(spec).drift.A
        assert rep.positivity.actual == _pd(A)
        assert rep.positivity.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-14)


def test_positivity_decoupled_chain():
    check = controllability_report(ChainSpec(n=4, omega=1.0)).positivity
    assert check.min_eigenvalue == pytest.approx(1.0, abs=0.0)
    assert check.actual
    assert not check.sufficient  # the sufficient condition wants positive couplings


def test_positivity_and_triple_agree_in_the_gray_zone():
    # the drift's smallest eigenvalue is 2.0e-14 > 0, below 1e-10 * ||H0||_2:
    # one rule on one spectrum says no to both positivity and T0
    spec = ChainSpec(n=2, omega=1.0, g1=0.49999999999999, g2=0.49999999999999)
    rep = controllability_report(spec)
    assert 0.0 < rep.positivity.min_eigenvalue < 1e-10
    assert rep.positivity.actual is False
    assert rep.triple_message == (
        "triple member T0 is not positive definite: smallest eigenvalue "
        f"{rep.positivity.min_eigenvalue:.6e}"
    )
    assert rep.verdict == "RANK_ONLY"


def test_positive_triple_canonical_fixture():
    spec = ChainSpec(n=2, omega=1.0, g1=0.2, g2=0.2)
    params = TripleParams(alpha=1.0, beta=1.0, delta=0.5)
    rep = controllability_report(spec, params)
    assert rep.triple_message is None
    assert rep.verdict == "CONTROLLABLE"
    for A in _members(spec, params):
        assert np.linalg.eigvalsh(A)[0] > 0.0


def test_positive_triple_rejects_alpha_sign():
    rep = controllability_report(CANONICAL, TripleParams(alpha=-1.0, beta=1.0, delta=0.5))
    assert "alpha" in rep.triple_message
    assert rep.verdict == "RANK_ONLY"


def test_positive_triple_rejects_delta_bound():
    for delta in (3.0, -0.5):
        rep = controllability_report(CANONICAL, TripleParams(alpha=1.0, beta=1.0, delta=delta))
        assert "delta" in rep.triple_message
        assert rep.verdict == "RANK_ONLY"


def test_positive_triple_reports_indefinite_member():
    # drift itself is indefinite at strong coupling, so T0 must be rejected
    spec = ChainSpec(n=3, omega=1.0, g1=0.4, g2=0.4)
    rep = controllability_report(spec)
    assert not _pd(_members(spec, TripleParams())[0])
    assert not rep.positivity.actual
    assert rep.triple_message.startswith("triple member T0 is not positive definite")


def test_positive_triple_rejects_indefinite_t2():
    # delta chi = 9.9 < beta omega1 = 10 meets the constraints, but pulls the
    # site-1 p-p entry of T2 to 1 + 10 - 19.8 < 0 while T0 and T1 stay positive
    params = TripleParams(alpha=1.0, beta=10.0, delta=9.9)
    T0, T1, T2 = _members(CANONICAL, params)
    assert _pd(T0) and _pd(T1) and not _pd(T2)
    rep = controllability_report(CANONICAL, params)
    assert rep.positivity.actual
    assert rep.triple_message == (
        "triple member T2 is not positive definite: smallest eigenvalue "
        f"{np.linalg.eigvalsh(T2)[0]:.6e}"
    )
    assert rep.verdict == "RANK_ONLY"


def test_triple_params_must_be_finite():
    for name in ("alpha", "beta", "delta"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TripleParams(**{name: np.nan})
    assert TripleParams(alpha=2).alpha == 2.0


def test_positive_triple_closure_matches_raw_controls():
    # the verdict reuses the raw closure: the triple is an invertible
    # recombination of {H0, H1, H2}, so its own closure has the same dimension
    spec = ChainSpec(n=2, omega=1.0, g1=0.2, g2=0.2)
    rep = controllability_report(spec)
    mixed = closure([QuadraticHamiltonian(2, A) for A in _members(spec, TripleParams())])
    assert rep.triple_message is None
    assert rep.rank.dimension == mixed.dimension == full_dimension(2)


def test_identities_all_pass_at_canonical_point():
    report = verify_bracket_identities(CANONICAL)
    assert report.all_pass
    assert report.prime == PRIMES[0]
    assert len(report.records) == 12
    assert all(record.holds is True for record in report.records)
    assert report.records[0].name == "squeeze-anti-1"


def test_identities_hold_across_parameter_grid():
    for g in (0.1, 0.2, 0.4):
        for omega1 in (0.5, 1.0, 2.0):
            for chi in (0.5, 1.0, 2.0):
                spec = ChainSpec(n=3, omega=1.0, g1=g, g2=g, omega1=omega1, chi=chi)
                report = verify_bracket_identities(spec)
                assert report.all_pass, (g, omega1, chi)


def test_identities_mutation_is_detected():
    for name in IDENTITY_NAMES:
        report = verify_bracket_identities(CANONICAL, mutate={name: 1.01})
        record = next(r for r in report.records if r.name == name)
        assert record.holds is False, name
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
    for factor in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mutate factors must be finite"):
            verify_bracket_identities(CANONICAL, mutate={"number-2": factor})


def test_identities_record_matrices_are_consistent():
    # both sides are centred residues mod p, which are unique since p is odd
    report = verify_bracket_identities(CANONICAL, mutate={"number-2": 1.01})
    for record in report.records:
        for side in (record.lhs, record.rhs):
            assert side.shape == (6, 6)
            assert np.array_equal(side, np.rint(side))
            assert np.abs(side).max() <= PRIMES[0] // 2
        assert record.holds is np.array_equal(record.lhs, record.rhs)
    assert [r.name for r in report.records if not r.holds] == ["number-2"]


@pytest.mark.parametrize("g", [0.1, 0.2, 0.4])
def test_identity_residues_do_not_depend_on_the_controls(g):
    # the residue of iH1 is r(omega1) N_1, that of iH2 is r(chi) S_1, and the
    # table divides those scalars out again: the suite at the spec's
    # (omega1, chi) is the induction's check at omega1 = chi = 1
    unit = verify_bracket_identities(ChainSpec(n=3, g1=g, g2=g))
    for omega1 in (-0.5, 0.5, 1.0, 2.0):
        for chi in (-0.5, 0.5, 1.0, 2.0):
            spec = ChainSpec(n=3, g1=g, g2=g, omega1=omega1, chi=chi)
            report = verify_bracket_identities(spec)
            for a, b in zip(report.records, unit.records):
                assert a.name == b.name
                assert np.array_equal(a.lhs, b.lhs), (omega1, chi, a.name)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controllability_report_canonical(n):
    spec = ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.2)
    rep = controllability_report(spec)
    assert rep.verdict == "CONTROLLABLE"
    assert rep.rank.dimension == full_dimension(n)
    assert rep.rank.full_rank
    assert rep.triple_message is None
    assert rep.positivity.sufficient and rep.positivity.actual
    assert not rep.rank.passive


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controllability_report_rotation_only_is_passive(n):
    spec = ChainSpec(n=n, omega=1.0, g1=0.2, g2=0.0)
    rep = controllability_report(spec, include_squeeze_control=False)
    assert rep.verdict == "NOT_ESTABLISHED"
    assert not rep.rank.full_rank
    assert rep.rank.passive is True
    assert rep.triple_message == "triple not attempted: squeeze control excluded"
    assert rep.rank.dimension <= n * n


@pytest.mark.parametrize("g1,g2", [(0.2, 0.1), (0.3, 0.05), (0.2, 0.0)])
def test_general_couplings_reach_full_rank(g1, g2):
    # the identity suite covers g1 == g2 only; the unequal and
    # rotating-wave cases are established numerically through the closure
    for n in (2, 3):
        rep = controllability_report(ChainSpec(n=n, omega=1.0, g1=g1, g2=g2))
        assert rep.rank.full_rank
        assert rep.rank.dimension == full_dimension(n)
        assert rep.verdict == "CONTROLLABLE"
        assert rep.triple_message is None


def test_controllability_report_strong_coupling_rank_only():
    # g_tilde sum 0.8: rank still passes but the drift is indefinite at n = 3,
    # so no positive-definite triple can be validated
    spec = ChainSpec(n=3, omega=1.0, g1=0.4, g2=0.4)
    rep = controllability_report(spec)
    assert rep.rank.full_rank
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
    assert rep.rank.dimension == full_dimension(7) == 105


# the float closure lost rank at (6, 0.05), (7, 0.05) and (7, 0.1); the
# closure over F_p gets every point right
CONTROLLABLE_GRID = [(n, g) for n in range(2, 8) for g in (0.05, 0.1, 0.15, 0.2)]


@pytest.mark.parametrize("n,g", CONTROLLABLE_GRID)
def test_controllable_verdicts_pinned(n, g):
    rep = controllability_report(ChainSpec(n=n, omega=1.0, g1=g, g2=g))
    assert rep.verdict == "CONTROLLABLE"
    assert rep.rank.dimension == full_dimension(n)


# --------------------------------------------------------------------------
# The chain's induction certificate
# --------------------------------------------------------------------------

INDUCTION_GRID = [
    ChainSpec(n=n, omega=1.0, g1=g, g2=g) for n in range(3, 17) for g in (0.05, 0.1, 0.15, 0.2)
] + [ChainSpec(n=n, omega=1.5, g1=0.1, g2=0.1, omega1=-0.5, chi=2.0) for n in (3, 4, 7)]


@pytest.mark.parametrize("spec", INDUCTION_GRID, ids=lambda s: f"n{s.n}-g{s.g1}-w{s.omega}")
def test_induction_certificate_agrees_with_the_closure(spec):
    model = build_chain(spec)
    certificate = chain._chain_induction(spec, model, verify_bracket_identities(spec, model=model))
    assert certificate == ChainInduction(n=spec.n, prime=PRIMES[0])
    sub = closure([model.drift, *model.controls])
    assert sub.full_rank and sub.dimension == certificate.dimension == full_dimension(spec.n)
    rep = controllability_report(spec)
    assert rep.rank == certificate
    assert (rep.rank.closed, rep.rank.bracket_depth_reached) == (True, None)


@pytest.mark.parametrize(
    "spec,squeeze",
    [
        (ChainSpec(n=4, g1=0.2, g2=0.1), True),
        (ChainSpec(n=4, g1=0.2, g2=0.2), False),
        (ChainSpec(n=2, g1=0.2, g2=0.2), True),
        (ChainSpec(n=4, g1=0.2, g2=0.2, omega1=1048573.0), True),  # omega1 = 0 mod p
        (ChainSpec(n=4, omega=1048573.0, g1=0.2, g2=0.2), True),  # omega = 0 mod p
    ],
    ids=["uneven-couplings", "h1-only", "n2", "omega1-vanishes-mod-p", "omega-vanishes-mod-p"],
)
def test_the_closure_decides_where_the_induction_does_not_apply(spec, squeeze):
    rep = controllability_report(spec, include_squeeze_control=squeeze)
    assert isinstance(rep.rank, LieSubspace)
    assert rep.rank.certificate == "exact_mod_p"
    assert rep.identities is None
    assert chain._chain_induction(spec, rep.model, rep.identities) is None


@pytest.mark.parametrize(
    "name,window",
    [(name, 3) for name in IDENTITY_NAMES] + [(name, 2) for name in IDENTITY_NAMES[:-1]],
)
def test_a_broken_identity_makes_the_induction_refuse(monkeypatch, name, window):
    # check (a) runs the 3-site window, check (b) the 2-site one, which has
    # no long-distance identity
    table = chain._identity_table

    def broken(spec, model, p):
        rows = table(spec, model, p)
        if spec.n != window:
            return rows
        return [(k, d, (lambda s, f=lhs: 2 * f(s)) if k == name else lhs, rhs)
                for k, d, lhs, rhs in rows]

    monkeypatch.setattr(chain, "_identity_table", broken)
    spec = ChainSpec(n=4, g1=0.2, g2=0.2)
    rep = controllability_report(spec)
    assert rep.identities.all_pass is (window == 2)
    assert chain._chain_induction(spec, rep.model, rep.identities) is None
    assert rep.rank.certificate == "exact_mod_p"
    assert rep.verdict == "CONTROLLABLE"


def test_unit_generators_are_built_once_and_shared(monkeypatch):
    # the suite's parameter-free generators do not depend on the chain's
    # parameters: two reports read the same read-only arrays in both
    # windows, and each array is its own centred residue
    table = chain._identity_table
    rows = []

    def spy(spec, model, p):
        out = table(spec, model, p)
        rows.append({name: rhs for name, _, _, rhs in out})
        return out

    monkeypatch.setattr(chain, "_identity_table", spy)
    for spec in (ChainSpec(n=5, g1=0.2, g2=0.2),
                 ChainSpec(n=4, g1=0.1, g2=0.1, omega1=0.5, chi=2.0)):
        rep = controllability_report(spec)
        assert rep.rank.certificate == "chain_induction"
    assert [len(r) for r in rows] == [12, 11, 12, 11]
    units = chain._unit_generators(3)
    for name, unit in (("squeeze-anti-1", units.sq_anti_1), ("pair-sym-12", units.pr_sym_12),
                       ("exchange-sym-12", units.ex_sym_12), ("long-distance-13", units.ex_sym_13)):
        assert all(r[name] is unit for r in rows if len(r) == 12)
    assert all(r["number-2"] is chain._unit_generators(2).num_2 for r in rows if len(r) == 11)
    for m in (2, 3):
        for unit in chain._unit_generators(m):
            if unit is None:
                continue
            assert not unit.flags.writeable
            assert np.array_equal(_to_field(unit, PRIMES[0]), unit)
    assert chain._unit_generators(2).ex_sym_13 is None


def test_gluing_lemma_closes_to_sp6(monkeypatch):
    lemma = chain._gluing_lemma()
    assert lemma.prime == PRIMES[0]
    assert lemma.dimension == full_dimension(3) == 21
    # a lemma short of sp(6) proves nothing: the closure decides
    short = closure([build_chain(ChainSpec(n=3)).drift])
    monkeypatch.setattr(chain, "_gluing_lemma", lambda: short)
    spec = ChainSpec(n=5, g1=0.1, g2=0.1)
    model = build_chain(spec)
    assert chain._chain_induction(spec, model, verify_bracket_identities(spec, model=model)) is None
    assert controllability_report(spec).rank.certificate == "exact_mod_p"


def test_the_induction_runs_one_closure_per_process_whatever_n(monkeypatch):
    calls = []

    def counted(seeds, *args, **kwargs):
        seeds = list(seeds)
        calls.append((len(seeds), seeds[0].n))
        return closure(seeds, *args, **kwargs)

    chain._gluing_lemma.cache_clear()
    monkeypatch.setattr(chain, "closure", counted)
    try:
        for n in (3, 10, 40, 100):
            rep = controllability_report(ChainSpec(n=n, g1=0.1, g2=0.1))
            assert rep.rank.dimension == n * (2 * n + 1)
            assert rep.verdict == "CONTROLLABLE"
    finally:
        chain._gluing_lemma.cache_clear()
    assert calls == [(14, 3)]  # the gluing lemma's 14 seeds on 3 sites, once


def test_identity_records_read_the_three_site_window():
    spec = ChainSpec(n=8, g1=0.15, g2=0.15, omega1=0.5, chi=2.0)
    from_model = verify_bracket_identities(spec, model=build_chain(spec))
    built = verify_bracket_identities(spec)
    assert from_model.all_pass
    for a, b in zip(from_model.records, built.records):
        assert a.lhs.shape == a.rhs.shape == (6, 6)
        assert np.array_equal(a.lhs, b.lhs) and a.holds is b.holds is True
    with pytest.raises(ValueError, match="model has 3 sites"):
        verify_bracket_identities(spec, model=build_chain(ChainSpec(n=3, g1=0.15, g2=0.15)))


def test_chain_length_is_bounded_before_the_chain_is_built(monkeypatch):
    def no_build(spec):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(chain, "build_chain", no_build)
    for n in (128, 5000):
        with pytest.raises(ValueError, match=rf"^exact closure is limited to n <= 127, got n = {n}$"):
            controllability_report(ChainSpec(n=n, g1=0.2, g2=0.2))
