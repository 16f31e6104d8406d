import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from oscontrol import (
    AnalysisError,
    ChainSpec,
    ControlModel,
    ControlSchedule,
    CovarianceState,
    QuadraticHamiltonian,
    audit_symplecticity,
    build_chain,
    evolve_covariance,
    from_terms,
    hop,
    number,
    propagate,
    squeeze,
    symplectic_eigenvalues,
    symplectic_form,
)
from oracles import random_symmetric, random_symplectic


def _single_mode_model():
    return ControlModel(
        drift=from_terms(1, [number(1, 1.0)], label="rot"),
        controls=(from_terms(1, [squeeze(1, 1.0)], label="sq"),),
    )


def _random_model_and_schedule(rng, n, m, segments):
    # bounded total action keeps ||S|| moderate, so the absolute
    # symplecticity audit stays meaningful in double precision
    drift = QuadraticHamiltonian(n, random_symmetric(rng, 2 * n, scale=0.5), label="drift")
    controls = tuple(
        QuadraticHamiltonian(n, random_symmetric(rng, 2 * n, scale=0.5), label=f"c{k}")
        for k in range(m)
    )
    model = ControlModel(drift=drift, controls=controls)
    schedule = ControlSchedule.from_pairs(
        [
            (float(rng.uniform(0.01, 0.25)), tuple(rng.uniform(-1.0, 1.0, size=m)))
            for _ in range(segments)
        ]
    )
    return model, schedule


def test_empty_schedule_gives_identity():
    model = _single_mode_model()
    assert np.array_equal(propagate(model, ControlSchedule()), np.eye(2))


def test_single_drift_segment_matches_expm():
    model = _single_mode_model()
    t = 0.37
    S = propagate(model, ControlSchedule.from_pairs([(t, (0.0,))]))
    expected = scipy.linalg.expm(-model.drift.A @ symplectic_form(1) * t)
    assert np.allclose(S, expected, atol=1e-14)


def test_constant_schedule_merges_segments():
    model = _single_mode_model()
    f = (0.8,)
    split = ControlSchedule.from_pairs([(0.4, f), (0.9, f)])
    merged = ControlSchedule.from_pairs([(1.3, f)])
    assert np.linalg.norm(propagate(model, split) - propagate(model, merged)) <= 1e-10


_BAD_ROWS = [
    ([[0.0]], r"segments\[0\]: segment duration must be positive and finite, got 0.0"),
    ([[1.0, 0.5], [-1.0, 0.5]], r"segments\[1\]: segment duration .* got -1.0"),
    ([[1.0], [1.0], [math.inf]], r"segments\[2\]: segment duration .* got inf"),
    ([[math.nan, 0.5]], r"segments\[0\]: segment duration .* got nan"),
    ([[1.0, 0.5], [1.0, math.inf]], r"segments\[1\]: segment control values must be finite"),
    ([[1.0, 0.5, 0.5], [1.0, 0.5, math.nan]], r"segments\[1\]: segment control values"),
]


def test_segment_validation():
    # every row is checked when the schedule is built, and the first bad
    # row is named, whichever constructor builds it
    for rows, message in _BAD_ROWS:
        with pytest.raises(ValueError, match=message):
            ControlSchedule(np.array(rows))
        with pytest.raises(ValueError, match=message):
            ControlSchedule.from_pairs((row[0], row[1:]) for row in rows)


@pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 2)])
def test_schedule_array_must_be_two_dimensional_with_durations(shape):
    with pytest.raises(ValueError, match=r"shape \(k, 1 \+ m\)"):
        ControlSchedule(np.ones(shape))


def test_schedule_segments_are_read_only():
    rows = np.array([[0.5, 1.0], [0.25, -1.0]])
    schedule = ControlSchedule(rows)
    with pytest.raises(ValueError, match="read-only"):
        schedule.segments[0, 0] = 2.0
    rows[0, 0] = -1.0  # the schedule holds its own copy
    assert schedule.segments[0, 0] == 0.5
    assert ControlSchedule().segments.shape == (0, 1)
    assert ControlSchedule.from_pairs([]).segments.shape == (0, 1)


def test_total_duration_sums_left_to_right():
    # numpy's pairwise sum rounds differently on these 2000 durations
    durations = np.random.default_rng(5).uniform(0.05, 0.5, 2000).tolist()
    schedule = ControlSchedule.from_pairs((d, ()) for d in durations)
    total = 0.0
    for d in durations:
        total += d
    assert schedule.total_duration == total
    assert np.sum(durations) != total


def test_control_count_mismatch(monkeypatch):
    model = _single_mode_model()
    # empty schedules carry no control count and give the identity
    assert np.array_equal(propagate(model, ControlSchedule(np.empty((0, 3)))), np.eye(2))

    def no_expm(*args):
        raise AssertionError("expm called before the control counts were checked")

    monkeypatch.setattr("oscontrol.evolution.expm", no_expm)
    with pytest.raises(ValueError, match="schedule supplies 2 control values per segment, model has 1"):
        propagate(model, ControlSchedule.from_pairs([(1.0, (0.5, 0.5))] * 6))
    # a ragged row is rejected when the schedule is built
    with pytest.raises(
        ValueError, match=r"segments\[5\]: segment supplies 2 control values, segments\[0\] supplies 1"
    ):
        ControlSchedule.from_pairs([(1.0, (0.5,))] * 5 + [(1.0, (0.5, 0.5))])


def test_control_model_requires_matching_modes():
    with pytest.raises(ValueError):
        ControlModel(
            drift=from_terms(1, [number(1, 1.0)]),
            controls=(from_terms(2, [number(1, 1.0)]),),
        )


def test_propagate_output_symplectic_random_schedules():
    rng = np.random.default_rng(8)
    for _ in range(10):
        model, schedule = _random_model_and_schedule(rng, n=3, m=2, segments=20)
        S = propagate(model, schedule)
        assert audit_symplecticity(S) < 1e-9


def test_concatenation_convention():
    rng = np.random.default_rng(9)
    model, s_all = _random_model_and_schedule(rng, n=2, m=2, segments=8)
    first = ControlSchedule(s_all.segments[:5])
    second = ControlSchedule(s_all.segments[5:])
    S = propagate(model, s_all)
    S_cat = propagate(model, second) @ propagate(model, first)
    assert np.linalg.norm(S - S_cat) <= 1e-10


def test_vacuum_invariant_under_rotation():
    vac = CovarianceState.vacuum(1)
    theta = 0.83
    S = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    out = evolve_covariance(vac, S)
    assert np.allclose(out.sigma, vac.sigma, atol=1e-14)


def test_squeezing_action_on_vacuum():
    r = 0.6
    S = np.diag([math.exp(r), math.exp(-r)])
    out = evolve_covariance(CovarianceState.vacuum(1), S)
    assert np.allclose(out.sigma, 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]), atol=1e-14)


def test_evolve_covariance_rejects_non_symplectic():
    with pytest.raises(ValueError):
        evolve_covariance(CovarianceState.vacuum(1), np.diag([2.0, 2.0]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "S", [np.full((2, 2), np.nan), np.diag([np.inf, 1.0])], ids=["nan", "inf"]
)
def test_evolve_covariance_rejects_a_non_finite_S(S):
    # the audit of such an S is nan, and nan > bound once let it through
    with pytest.raises(
        AnalysisError, match=r"^S is not symplectic to 1e-08 \* \|\|S\|\|_F\^2: audit nan$"
    ):
        evolve_covariance(CovarianceState.vacuum(1), S)


def test_propagate_raises_when_the_propagator_overflows():
    # A = diag(11, -9) is indefinite, so S grows like e^7960 and overflows
    schedule = ControlSchedule.from_pairs([(800.0, (5.0,))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        with pytest.raises(AnalysisError, match="non-finite"):
            propagate(_single_mode_model(), schedule)


def test_evolve_covariance_audit_scales_with_norm():
    # a product of symplectic factors is exact to rounding relative to
    # ||S||^2, far above any absolute tolerance once ||S|| is large
    rng = np.random.default_rng(14)
    squeeze = np.diag([math.exp(2.5), math.exp(-2.5)] * 2)
    S = np.eye(4)
    for _ in range(6):
        S = squeeze @ random_symplectic(rng, 2, strength=0.5) @ S
    assert np.linalg.norm(S) >= 1e5
    assert audit_symplecticity(S) > 1e-8
    out = evolve_covariance(CovarianceState.vacuum(2), S)
    assert np.allclose(out.sigma, 0.5 * S @ S.T, rtol=1e-12, atol=0.0)


def test_covariance_symplectic_eigenvalues_preserved():
    rng = np.random.default_rng(10)
    sigma = 0.5 * np.eye(6) + 0.4 * np.diag([1.0, 1.0, 0.0, 0.0, 2.0, 2.0])
    nu_before = symplectic_eigenvalues(sigma)
    model, schedule = _random_model_and_schedule(rng, n=3, m=1, segments=12)
    S = propagate(model, schedule)
    out = evolve_covariance(CovarianceState(sigma), S)
    nu_after = symplectic_eigenvalues(out.sigma)
    assert np.allclose(nu_before, nu_after, atol=1e-7)


def test_passive_schedule_preserves_trace():
    # number and hop generators commute with Omega: photon-number conserving
    n = 3
    model = ControlModel(
        drift=from_terms(n, [number(j, 1.0) for j in range(1, n + 1)], label="rot"),
        controls=(
            from_terms(n, [hop(1, 2, 1.0)], label="bs12"),
            from_terms(n, [hop(2, 3, 1.0)], label="bs23"),
        ),
    )
    rng = np.random.default_rng(12)
    schedule = ControlSchedule.from_pairs(
        [(float(rng.uniform(0.05, 1.0)), tuple(rng.uniform(-1.0, 1.0, size=2))) for _ in range(15)]
    )
    sigma = np.diag([3.0, 3.0, 0.5, 0.5, 1.0, 1.0])
    out = evolve_covariance(CovarianceState(sigma), propagate(model, schedule))
    assert np.trace(out.sigma) == pytest.approx(np.trace(sigma), abs=1e-8)


def test_passive_swap_moves_hot_mode_down_the_chain():
    # beam-splitter pulses at quarter period swap neighbouring sites exactly
    n = 3
    zero = QuadraticHamiltonian(n, np.zeros((2 * n, 2 * n)), label="zero")
    model = ControlModel(
        drift=zero,
        controls=(
            from_terms(n, [hop(1, 2, 1.0)], label="bs12"),
            from_terms(n, [hop(2, 3, 1.0)], label="bs23"),
        ),
    )
    schedule = ControlSchedule.from_pairs(
        [(math.pi / 2, (1.0, 0.0)), (math.pi / 2, (0.0, 1.0))]
    )
    hot = np.diag([5.0, 5.0, 0.5, 0.5, 0.5, 0.5])
    out = evolve_covariance(CovarianceState(hot), propagate(model, schedule))
    assert np.allclose(out.sigma[4:, 4:], 5.0 * np.eye(2), atol=1e-12)
    assert np.allclose(out.sigma[:2, :2], 0.5 * np.eye(2), atol=1e-12)


def test_audit_symplecticity_examples():
    assert audit_symplecticity(np.eye(4)) == 0.0
    rng = np.random.default_rng(13)
    model, schedule = _random_model_and_schedule(rng, n=3, m=2, segments=20)
    S = propagate(model, schedule)
    assert audit_symplecticity(S) < 1e-9
    noisy = S + 1e-3 * rng.standard_normal(S.shape)
    assert audit_symplecticity(noisy) >= 1e-4


def test_covariance_state_validation_and_physicality():
    with pytest.raises(ValueError):
        CovarianceState(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    CovarianceState.vacuum(2)
    CovarianceState(0.5 * np.eye(2), check_physical=True)  # vacuum is physical
    with pytest.raises(ValueError):
        CovarianceState(0.1 * np.eye(2), check_physical=True)  # below vacuum noise
    # classical carrier: the same matrix passes without the opt-in check
    CovarianceState(0.1 * np.eye(2))


def _chain_model_and_schedule(seed, segments):
    # every segment's Hamiltonian is positive definite (f1 in [0, 1],
    # |f2| <= 0.4 f1), so S stays moderate over hundreds of segments
    rng = np.random.default_rng(seed)
    model = build_chain(ChainSpec(n=3, g1=0.1, g2=0.1))
    f1 = rng.uniform(0.0, 1.0, segments)
    values = np.stack([f1, rng.uniform(-0.4, 0.4, segments) * f1], axis=1)
    schedule = ControlSchedule.from_pairs(
        zip(rng.uniform(0.05, 0.5, segments).tolist(), values.tolist())
    )
    return model, schedule


def _segment_by_segment(model, schedule):
    """The ordered product of SciPy exponentials, one per segment."""
    omega = symplectic_form(model.n)
    S = np.eye(2 * model.n)
    for duration, *values in schedule.segments.tolist():
        A = np.array(model.drift.A)
        for f, ctrl in zip(values, model.controls):
            A += f * ctrl.A
        S = scipy.linalg.expm(-A @ omega * duration) @ S
    return S


@pytest.mark.parametrize("segments", [1, 256, 257, 3 * 256 + 5])
def test_chunked_propagate_matches_segment_by_segment_product(segments):
    model, schedule = _chain_model_and_schedule(segments, segments)
    S = propagate(model, schedule)
    reference = _segment_by_segment(model, schedule)
    assert np.linalg.norm(S - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("split", [100, 256, 512, 700])
def test_concatenation_convention_across_chunks(split):
    # splits inside a chunk (100, 700) and on chunk boundaries (256, 512)
    model, schedule = _chain_model_and_schedule(21, 3 * 256 + 5)
    first = ControlSchedule(schedule.segments[:split])
    second = ControlSchedule(schedule.segments[split:])
    S = propagate(model, schedule)
    S_cat = propagate(model, second) @ propagate(model, first)
    assert np.linalg.norm(S - S_cat) <= 1e-12 * np.linalg.norm(S)


def test_control_count_mismatch_in_long_schedule_raises_before_expm(monkeypatch):
    model, schedule = _chain_model_and_schedule(22, 599)
    pairs = [(row[0], row[1:]) for row in schedule.segments.tolist()] + [(0.1, [0.5])]

    def no_expm(*args):
        raise AssertionError("expm called before the control counts were checked")

    monkeypatch.setattr("oscontrol.evolution.expm", no_expm)
    with pytest.raises(ValueError, match=r"segments\[599\]: segment supplies 1 control values"):
        ControlSchedule.from_pairs(pairs)
    with pytest.raises(ValueError, match="schedule supplies 1 control values per segment, model has 2"):
        propagate(model, ControlSchedule(np.ones((600, 2))))
