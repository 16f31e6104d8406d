import itertools
from dataclasses import replace

import numpy as np
import pytest

from oscontrol import (
    ChainInduction,
    ChainSpec,
    ControlModel,
    LieSubspace,
    QuadraticHamiltonian,
    build_chain,
    closure,
    controllability_report,
    full_dimension,
    verify_bracket_identities,
)
from oscontrol import chain
from oscontrol.chain import identity_suite_unmet
from oscontrol.closure import PRIMES, _residue, _to_field
from oracles import expand_chain_drift

CANONICAL = ChainSpec(n=3, omega=1.0, g1=0.2, g2=0.2, omega1=1.0, chi=1.0)
IDENTITIES = [record.name for record in verify_bracket_identities(CANONICAL).records]


def mutate_identity(monkeypatch, name: str, factor: float = 1.01) -> None:
    """Scale the designated coefficient of identity ``name`` by ``factor``, as its residue mod p."""
    table = chain._identity_table

    def mutated(spec, model, p):
        return [(k, (lambda s, f=lhs: f(_residue(factor, p))) if k == name else lhs, rhs)
                for k, lhs, rhs in table(spec, model, p)]

    monkeypatch.setattr(chain, "_identity_table", mutated)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n=0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, omega=-1.0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, g1=np.inf)


@pytest.mark.parametrize(
    "params,message",
    [
        ({"g1": 1e308, "g2": 1e308}, "g1 and g2 overflow the drift"),
        ({"g1": 1e308, "g2": -1e308}, "g1 and g2 overflow the drift"),
        ({"chi": 1e308}, "chi overflows the squeeze control"),
        ({"chi": -1e308}, "chi overflows the squeeze control"),
    ],
    ids=["g1-plus-g2", "g1-minus-g2", "chi", "chi-negative"],
)
def test_chain_spec_rejects_parameters_that_overflow_the_hamiltonian(params, message):
    # the drift's bond blocks are g1 + g2 and g1 - g2, the squeeze control's
    # diagonal is 2 chi: once "A has non-finite entries", naming no parameter
    with pytest.raises(ValueError, match=message):
        ChainSpec(n=3, **params)


def test_chain_spec_keeps_the_largest_finite_hamiltonian():
    # |g1| + |g2| = max(|g1 + g2|, |g1 - g2|), so the check refuses no chain
    # whose matrices are finite
    for params in ({"g1": 1e308, "g2": 0.0}, {"g1": 8e307, "g2": -9e307}, {"chi": 8.9e307}):
        model = build_chain(ChainSpec(n=2, **params))
        for H in (model.drift, *model.controls):
            assert np.isfinite(H.A).all()


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


def _members(spec):
    # the triple {H0, H0 + N_1, H0 + N_1 + S_1 / 2}, N_1 = H1 / omega1 and
    # S_1 = H2 / chi, built here as the oracle
    model = build_chain(spec)
    H0, H1, H2 = (H.A for H in (model.drift, *model.controls))
    N1, S1 = H1 / spec.omega1, H2 / spec.chi
    return [H0, H0 + N1, H0 + N1 + S1 / 2]


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
    rep = controllability_report(spec)
    assert rep.triple_message is None
    assert rep.verdict == "CONTROLLABLE"
    for A in _members(spec):
        assert np.linalg.eigvalsh(A)[0] > 0.0


def test_positive_triple_reports_indefinite_member():
    # drift itself is indefinite at strong coupling, so T0 must be rejected
    spec = ChainSpec(n=3, omega=1.0, g1=0.4, g2=0.4)
    rep = controllability_report(spec)
    assert not _pd(_members(spec)[0])
    assert not rep.positivity.actual
    assert rep.triple_message.startswith("triple member T0 is not positive definite")


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_triple_verdict_matches_independent_member_check(n):
    # signs included: the triple is decided for every nonzero omega1 and chi,
    # CONTROLLABLE exactly when the rank is full and every member, built and
    # eigensolved here, is positive definite
    seen = set()
    for g, omega1, chi in itertools.product(
        (0.05, 0.2, 0.3, 0.45), (-2.0, -0.5, 0.2, 1.0, 2.0), (-3.0, -1.0, 0.5, 1.0, 3.0)
    ):
        spec = ChainSpec(n=n, omega=1.0, g1=g, g2=g, omega1=omega1, chi=chi)
        rep = controllability_report(spec)
        members_pd = all(_pd(A) for A in _members(spec))
        assert (rep.verdict == "CONTROLLABLE") == (rep.rank.full_rank and members_pd), spec
        assert (rep.triple_message is None) == members_pd, spec
        seen.add(rep.verdict)
    assert "CONTROLLABLE" in seen


def test_vanishing_control_names_its_parameter():
    for name in ("omega1", "chi"):
        rep = controllability_report(replace(CANONICAL, **{name: 0.0}))
        assert f"{name} = 0" in rep.triple_message
        assert rep.verdict in ("RANK_ONLY", "NOT_ESTABLISHED")


def test_a_report_makes_no_eigensolve(monkeypatch):
    # the drift's closed-form spectrum decides positivity and the whole
    # triple, on the induction's path and on the closure's
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, no_eigensolve)
    for spec in (CANONICAL, replace(CANONICAL, omega1=-2.0, chi=3.0), replace(CANONICAL, g1=0.4),
                 replace(CANONICAL, n=1), replace(CANONICAL, g2=0.0)):
        controllability_report(spec)
        controllability_report(spec, include_squeeze_control=False)


GRID_G = (-0.3, 0.0, 0.05, 1.0)


def test_drift_extremes_match_eigvalsh():
    # omega -+ 2 (|g1| + |g2|) cos(pi / (n + 1)) against eigvalsh of the built
    # drift: the same definiteness decision everywhere, and the extremes within
    # 1e-14 of omega + 2 (|g1| + |g2|). The drift is linear in (omega, g1, g2)
    # and has no q-p entries, so its spectrum is that of its q and p blocks.
    grid = list(itertools.product((0.7, 1.0, 1.5), GRID_G, GRID_G))
    for n in range(1, 128):
        unit = build_chain(ChainSpec(n=n)).drift.A
        hop, pair = (build_chain(ChainSpec(n=n, **{g: 1.0})).drift.A - unit for g in ("g1", "g2"))
        drifts = np.array([w * unit + g1 * hop + g2 * pair for w, g1, g2 in grid])
        k = n % len(grid)
        assert np.array_equal(drifts[k], build_chain(ChainSpec(n, *grid[k])).drift.A)
        assert not drifts[:, 0::2, 1::2].any()
        spectra = np.sort(
            np.concatenate([np.linalg.eigvalsh(drifts[:, j::2, j::2]) for j in (0, 1)], axis=1),
            axis=1,
        )
        for (omega, g1, g2), w in zip(grid, spectra):
            spec = ChainSpec(n=n, omega=omega, g1=g1, g2=g2)
            extremes = chain._drift_extremes(spec)
            bound = 1e-14 * (omega + 2 * (abs(g1) + abs(g2)))
            assert np.abs(extremes - w[[0, -1]]).max() <= bound, spec
            assert chain._positive_definite(extremes) == chain._positive_definite(w), spec


def test_scaled_definiteness_rule_decides_as_the_unscaled_one():
    # on the grid above, and on the same chains times 1e300, where omega + r
    # is still finite: s A's extremes give the decision of A's
    grid = list(itertools.product((0.7, 1.0, 1.5), GRID_G, GRID_G))
    for n in range(1, 128):
        for scale in (1.0, 1e300):
            for omega, g1, g2 in grid:
                spec = ChainSpec(n=n, omega=omega * scale, g1=g1 * scale, g2=g2 * scale)
                unscaled = chain._positive_definite(chain._drift_extremes(spec))
                assert chain._drift_positive_definite(spec) == unscaled, spec


def test_definiteness_of_a_drift_whose_largest_eigenvalue_overflows():
    # omega + r is inf, so the unscaled rule's ||A||_2 is inf too
    spec = ChainSpec(n=2, omega=1.79e308, g1=1e307, g2=0.0)
    w = chain._drift_extremes(spec)
    assert w[0] == 1.69e308 and w[1] == np.inf
    assert chain._drift_positive_definite(spec)
    rep = controllability_report(spec)
    assert (rep.positivity.actual, rep.triple_message, rep.verdict) == (True, None, "CONTROLLABLE")
    # omega - r < 0 at the same scale is still indefinite
    assert not chain._drift_positive_definite(ChainSpec(n=2, omega=1e308, g1=1.5e308, g2=0.0))


def test_drift_extremes_of_one_site_are_omega():
    # a single site has no bond: cos(pi / 2) is not 0 in floating point
    for g in (0.0, 0.3, -1.0):
        extremes = chain._drift_extremes(ChainSpec(n=1, omega=1.3, g1=g, g2=g))
        assert np.array_equal(extremes, [1.3, 1.3])


def test_drift_extremes_refuse_a_spectrum_that_overflows():
    # |g1| + |g2| is finite, so ChainSpec accepts it; 2 cos(pi / 4) > 1 does not
    spec = ChainSpec(n=3, g1=1.7e308, g2=0.0)
    with pytest.raises(ValueError, match=r"got n = 3, g1 = 1\.7e\+308, g2 = 0\.0$"):
        controllability_report(spec)
    # 2 cos(pi / 3) rounds to 1 + 2^-52: r stays finite, and so does omega - r
    rep = controllability_report(ChainSpec(n=2, g1=1e308, g2=0.0))
    assert np.isfinite(rep.positivity.min_eigenvalue)
    assert rep.verdict == "RANK_ONLY"


@pytest.mark.parametrize("n", [2 ** 64, 10 ** 400])
def test_drift_extremes_of_a_chain_too_long_for_a_float(n):
    # n + 1 has no float at 10^400; cos(pi / (n + 1)) is 1.0 long before
    spec = ChainSpec(n=n, g1=0.2, g2=0.2)
    assert np.array_equal(chain._drift_extremes(spec), [1.0 - 0.8, 1.0 + 0.8])
    rep = controllability_report(spec)
    assert (rep.verdict, rep.rank.dimension) == ("CONTROLLABLE", n * (2 * n + 1))


def test_positive_triple_closure_matches_raw_controls():
    # the verdict reuses the raw closure: the triple is an invertible
    # recombination of {H0, H1, H2}, so its own closure has the same dimension
    spec = ChainSpec(n=2, omega=1.0, g1=0.2, g2=0.2, omega1=-0.5, chi=3.0)
    rep = controllability_report(spec)
    mixed = closure([QuadraticHamiltonian(2, A) for A in _members(spec)])
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


def test_identities_mutation_is_detected(monkeypatch):
    assert len(IDENTITIES) == 12
    for name in IDENTITIES:
        with monkeypatch.context() as m:
            mutate_identity(m, name)
            report = verify_bracket_identities(CANONICAL)
        assert [r.name for r in report.records if not r.holds] == [name]
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


def test_identities_record_matrices_are_consistent(monkeypatch):
    # both sides are centred residues mod p, which are unique since p is odd
    mutate_identity(monkeypatch, "number-2")
    report = verify_bracket_identities(CANONICAL)
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
    if isinstance(rep.rank, LieSubspace):  # n = 2, below the induction's window
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
    certificate = chain._chain_induction(spec, verify_bracket_identities(spec))
    assert certificate == ChainInduction(n=spec.n, prime=PRIMES[0])
    sub = closure([model.drift, *model.controls])
    assert sub.full_rank and sub.dimension == certificate.dimension == full_dimension(spec.n)
    rep = controllability_report(spec)
    assert rep.rank == certificate
    assert rep.rank.bracket_depth_reached is None


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
    assert chain._chain_induction(spec, rep.identities) is None


# ids keep the size of the window the identity is broken on, the 3-site one
@pytest.mark.parametrize("name", IDENTITIES, ids=lambda name: f"{name}-3")
def test_a_broken_identity_makes_the_induction_refuse(monkeypatch, name):
    table = chain._identity_table

    def broken(spec, model, p):
        return [(k, (lambda s, f=lhs: 2 * f(s)) if k == name else lhs, rhs)
                for k, lhs, rhs in table(spec, model, p)]

    monkeypatch.setattr(chain, "_identity_table", broken)
    spec = ChainSpec(n=4, g1=0.2, g2=0.2)
    rep = controllability_report(spec)
    assert rep.identities.all_pass is False
    assert chain._chain_induction(spec, rep.identities) is None
    assert rep.rank.certificate == "exact_mod_p"
    assert rep.verdict == "CONTROLLABLE"


def test_unit_generators_are_built_once_and_shared(monkeypatch):
    # the suite's parameter-free generators do not depend on the chain's
    # parameters: two reports read the same read-only arrays, and each array
    # is its own centred residue
    table = chain._identity_table
    rows = []

    def spy(spec, model, p):
        out = table(spec, model, p)
        rows.append({name: rhs for name, _, rhs in out})
        return out

    monkeypatch.setattr(chain, "_identity_table", spy)
    for spec in (ChainSpec(n=5, g1=0.2, g2=0.2),
                 ChainSpec(n=4, g1=0.1, g2=0.1, omega1=0.5, chi=2.0)):
        rep = controllability_report(spec)
        assert rep.rank.certificate == "chain_induction"
    assert [len(r) for r in rows] == [12, 12]
    units = chain._unit_generators()
    assert units is chain._unit_generators()
    for name, unit in (("squeeze-anti-1", units.sq_anti_1), ("pair-sym-12", units.pr_sym_12),
                       ("exchange-sym-12", units.ex_sym_12), ("number-2", units.num_2),
                       ("long-distance-13", units.ex_sym_13)):
        assert all(r[name] is unit for r in rows)
    for unit in units:
        assert unit.shape == (6, 6)
        assert not unit.flags.writeable
        assert np.array_equal(_to_field(unit, PRIMES[0]), unit)


@pytest.mark.parametrize("omega", [1.0, 1.5, 0.7])
@pytest.mark.parametrize("g", [-0.3, 0.05, 0.2, 1.0])
def test_the_two_site_suite_is_the_block_of_the_three_site_one(g, omega):
    # the restriction lemma behind the induction's last step: with site 3
    # and the bond (2, 3) cut from the drift, the 3-site window is the
    # 2-site chain, and each of the first eleven identities' lhs there is
    # the sites-{1, 2} block of its lhs on the real window, and zero outside
    p = PRIMES[0]
    compared = 0
    for omega1, chi in itertools.product((-0.5, 2.0, 1.0), (0.5, 2.0, -1.0)):
        spec = ChainSpec(n=3, omega=omega, g1=g, g2=g, omega1=omega1, chi=chi)
        model = build_chain(spec)
        A_cut = model.drift.A.copy()
        A_cut[4:, :] = A_cut[:, 4:] = 0.0
        cut = ControlModel(drift=QuadraticHamiltonian(3, A_cut), controls=model.controls)
        real = chain._identity_table(spec, model, p)
        for (name, lhs, rhs), (cut_name, cut_lhs, cut_rhs) in zip(
            real[:11], chain._identity_table(spec, cut, p)
        ):
            assert name == cut_name
            L, L_cut = (_to_field(f(1), p) for f in (lhs, cut_lhs))
            assert not L_cut[4:, :].any() and not L_cut[:, 4:].any(), name
            assert np.array_equal(L_cut[:4, :4], L[:4, :4]), name
            assert not rhs[4:, :].any() and not rhs[:, 4:].any(), name
            assert np.array_equal(cut_rhs, rhs), name
            compared += 1
    assert compared == 9 * 11


def test_gluing_lemma_closes_to_sp6(monkeypatch):
    lemma = chain._gluing_lemma()
    assert lemma.prime == PRIMES[0]
    assert lemma.dimension == full_dimension(3) == 21
    # a lemma short of sp(6) proves nothing: the closure decides
    short = closure([build_chain(ChainSpec(n=3)).drift])
    monkeypatch.setattr(chain, "_gluing_lemma", lambda: short)
    spec = ChainSpec(n=5, g1=0.1, g2=0.1)
    assert chain._chain_induction(spec, verify_bracket_identities(spec)) is None
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
    long = verify_bracket_identities(spec)
    short = verify_bracket_identities(replace(spec, n=3))
    assert long.all_pass
    for a, b in zip(long.records, short.records):
        assert a.lhs.shape == a.rhs.shape == (6, 6)
        assert np.array_equal(a.lhs, b.lhs) and a.holds is b.holds is True


def test_chain_length_is_bounded_before_the_chain_is_built(monkeypatch):
    # where the closure runs (g1 != g2, or no squeeze control), n <= 127
    # binds before the chain is built
    def no_build(spec):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(chain, "build_chain", no_build)
    for n in (128, 5000):
        for spec, squeeze in ((ChainSpec(n=n, g1=0.1, g2=0.15), True),
                              (ChainSpec(n=n, g1=0.2, g2=0.2), False)):
            with pytest.raises(
                ValueError, match=rf"^exact closure is limited to n <= 127, got n = {n}$"
            ):
                controllability_report(spec, include_squeeze_control=squeeze)


@pytest.mark.parametrize("n", [128, 1000, 10 ** 6])
def test_the_induction_certifies_any_length_from_the_three_site_chain(monkeypatch, n):
    # the induction needs no closure and no chain but the suite's 3-site one
    builds = []
    build_chain = chain.build_chain
    monkeypatch.setattr(
        chain, "build_chain", lambda spec: builds.append(spec.n) or build_chain(spec)
    )
    rep = controllability_report(ChainSpec(n=n, g1=0.2, g2=0.2))
    assert builds == [3]
    assert rep.verdict == "CONTROLLABLE"
    assert rep.rank.certificate == "chain_induction"
    assert rep.rank.dimension == n * (2 * n + 1)
