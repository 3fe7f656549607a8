import itertools
import math

import numpy as np
import pytest

from ukklattice import (
    BlockNorm,
    DimensionMismatch,
    LatticeVector,
    LqNorm,
    WeightedLqNorm,
    check_truncation_vanishing,
    generate_bump_sequence,
    measure_separation,
    UkkTrial,
    renorm,
    renorm_batch,
    run_bump_campaign,
    run_ukk_trial,
    ukk_modulus,
)
from ukklattice.ukk import _tracks_settle

CONVERGENCE = "coordinatewise convergence to the declared limit not established at this horizon"


def test_modulus_closed_forms():
    assert ukk_modulus(1.0, 2.0) == pytest.approx(1 - math.sqrt(3) / 2, rel=1e-12)
    assert ukk_modulus(1.0, 4.0) == pytest.approx(1 - (15 / 16) ** 0.25, rel=1e-12)
    assert ukk_modulus(2.0, 2.0) == 1.0
    assert ukk_modulus(2.0, 7.0) == 1.0


def test_modulus_monotone_in_epsilon():
    prev = 0.0
    for eps in (0.1, 0.5, 1.0, 1.5, 2.0):
        d = ukk_modulus(eps, 3.0)
        assert d > prev
        prev = d


def test_modulus_validation():
    with pytest.raises(ValueError):
        ukk_modulus(0.0, 2.0)
    with pytest.raises(ValueError):
        ukk_modulus(2.5, 2.0)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            ukk_modulus(1.0, p)
    assert ukk_modulus(np.float64(1.0), np.int64(2)) == ukk_modulus(1.0, 2.0)  # numpy scalars are numbers


@pytest.mark.parametrize("args", [(True, 2), ("1.0", 2), (None, 2), (1.0, True), (1.0, "2")])
def test_modulus_takes_only_numbers(args):
    # ukk_modulus("1.0", 2) used to return 0.134
    with pytest.raises(ValueError, match="must be a number"):
        ukk_modulus(*args)


def test_bump_sequence_shape():
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=10)
    assert len(seq) == 10
    # each element adds one fresh atom past the core support
    for n, x in enumerate(seq):
        assert x.coords[1 + n] == 0.6
        assert x.coords[0] == 0.8


def test_bump_sequence_rejects_overflow():
    N = LqNorm(2, 5)
    core = LatticeVector([0.8, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=10)


# a string height used to run, and true to run as 1.0
@pytest.mark.parametrize("height", ["0.5", True])
def test_bump_height_must_be_a_number(height):
    core = LatticeVector([0.5] + [0.0] * 5)
    with pytest.raises(ValueError, match="^bump_height must be a number"):
        generate_bump_sequence(LqNorm(2, 6), 2.0, core, bump_height=height, horizon=2)


def test_bump_sequence_rejects_leaving_unit_ball():
    N = LqNorm(2, 20)
    core = LatticeVector([0.9] + [0.0] * 19)
    with pytest.raises(ValueError):
        generate_bump_sequence(N, 2.0, core, bump_height=0.9, horizon=4)


def test_separation_unit_atoms():
    N = LqNorm(2, 5)
    seq = [LatticeVector.unit(5, i) for i in range(3)]
    sep = measure_separation(seq, N, 2.0)
    assert sep.value == pytest.approx(math.sqrt(2), rel=1e-12)
    assert not sep.advisory


def test_separation_of_bump_family():
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=8)
    sep = measure_separation(seq, N, 2.0)
    assert sep.value == pytest.approx(0.6 * math.sqrt(2), rel=1e-12)


def test_separation_constant_sequence_is_zero():
    N = LqNorm(2, 3)
    x = LatticeVector([1.0, 0, 0])
    assert measure_separation([x, x, x], N, 2.0).value == 0.0


def test_separation_needs_two():
    N = LqNorm(2, 3)
    with pytest.raises(ValueError):
        measure_separation([LatticeVector([1.0, 0, 0])], N, 2.0)


def test_convergence_bump_and_constant():
    # each bump deviates at its own element only: the earlier ones settle, the last is in flight
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=8)
    assert _tracks_settle(np.abs(np.stack([x.coords for x in seq]) - core.coords), 1e-9)
    assert run_ukk_trial(N, 2.0, seq, core).valid
    # a coordinate that deviates from the first element to the last does not converge
    e1 = LatticeVector.unit(3, 0)
    trial = run_ukk_trial(LqNorm(2, 3), 2.0, [e1] * 6, LatticeVector.zeros(3))
    assert trial.reason == CONVERGENCE


def test_convergence_one_over_n():
    T = np.array([[1.0 / n, 0.0] for n in range(1, 10_001)])
    assert _tracks_settle(T, 1e-3)


def test_truncation_vanishing_cases():
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=8)
    u_core = LatticeVector([1.0] + [0.0] * 19)
    assert check_truncation_vanishing(u_core, seq, core, N)

    N2 = LqNorm(2, 2)
    ones = LatticeVector([1.0, 1.0])
    # falls to exactly 0 at element 5 of 20, before the final quarter
    seq2 = [LatticeVector([1.0 / n, 0.0]) for n in range(1, 6)] + [LatticeVector.zeros(2)] * 15
    assert check_truncation_vanishing(ones, seq2, LatticeVector.zeros(2), N2)
    const = [LatticeVector([1.0, 0.0])] * 6
    assert not check_truncation_vanishing(ones, const, LatticeVector.zeros(2), N2)


def test_truncation_vanishing_gates_u():
    N = LqNorm(2, 2)
    seq = [[1.0 / n, 0.0] for n in range(1, 51)] + [[0.0, 0.0]] * 50
    assert check_truncation_vanishing([1.0, 1.0], seq, [0.0, 0.0], N)
    with pytest.raises(DimensionMismatch, match="rows of 2 coordinates"):
        check_truncation_vanishing([1.0, 1.0, 1.0], seq, [0.0, 0.0], N)
    with pytest.raises(DimensionMismatch, match="rows of 2 coordinates"):
        check_truncation_vanishing(LatticeVector([1.0, 1.0, 1.0]), seq, [0.0, 0.0], N)


def test_trial_pinned_example():
    # core 0.8 e1, bump 0.6 in l2 with p = 2
    N = LqNorm(2, 24)
    core = LatticeVector([0.8] + [0.0] * 23)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=12)
    trial = run_ukk_trial(N, 2.0, seq, core)
    assert trial.valid
    assert trial.passed
    assert trial.epsilon == pytest.approx(0.6 * math.sqrt(2), rel=1e-12)
    assert trial.delta == pytest.approx(1 - math.sqrt(1 - 0.18), rel=1e-12)
    assert trial.limit_renorm == pytest.approx(0.8, rel=1e-12)
    assert trial.liminf_ok


def test_trial_zero_core():
    # core 0, bump 1: eps = sqrt(2), limit renorm 0
    N = LqNorm(2, 16)
    core = LatticeVector.zeros(16)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=1.0, horizon=8)
    trial = run_ukk_trial(N, 2.0, seq, core)
    assert trial.valid and trial.passed
    assert trial.epsilon == pytest.approx(math.sqrt(2), rel=1e-12)
    assert trial.limit_renorm == 0.0


def test_trial_invalid_not_separated():
    N = LqNorm(2, 8)
    x = LatticeVector([0.5] + [0.0] * 7)
    trial = run_ukk_trial(N, 2.0, [x, x, x], x)
    assert not trial.valid
    assert trial.passed is None
    assert "separated" in trial.reason


def test_trial_invalid_outside_unit_ball():
    N = LqNorm(2, 8)
    seq = [LatticeVector.unit(8, i) * 2.0 for i in range(3)]
    trial = run_ukk_trial(N, 2.0, seq, LatticeVector.zeros(8))
    assert not trial.valid
    assert "unit ball" in trial.reason


def test_bump_sequence_of_a_nan_oracle_is_outside_the_ball(nan_lq):
    # a NaN renorm used to pass the ball check
    core = LatticeVector([0.5] + [0.0] * 7)
    with pytest.raises(ValueError, match="^element 0 lies outside the renorm unit ball: nan$"):
        generate_bump_sequence(nan_lq(2, 8), 2.0, core, bump_height=0.3, horizon=6)


def test_trial_of_a_nan_oracle_is_outside_the_ball(nan_lq):
    # it used to get past the ball check and fail on "sequence is not separated (epsilon = 0)"
    core = np.array([0.5] + [0.0] * 7)
    seq = core + 0.3 * np.eye(8)[1:7]
    trial = run_ukk_trial(nan_lq(2, 8), 2.0, seq, core)
    assert not trial.valid and trial.reason == "element 0 outside the renorm unit ball (nan)"


class _NanAtAtom0(LqNorm):
    """An Lq oracle that reads NaN on every row touching atom 0."""

    def values(self, X):
        return np.where(X[:, 0] != 0.0, np.nan, super().values(X))


def test_separation_keeps_a_nan_distance():
    # only the first difference, x_0 - x_1, misses atom 0; Python's min dropped the NaNs after it
    seq = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    assert math.isnan(measure_separation(seq, _NanAtAtom0(2, 3), 2.0).value)


class _NanOnNegatives(LqNorm):
    """An Lq oracle that reads NaN on every row with a negative entry."""

    def values(self, X):
        return np.where((X < 0.0).any(axis=1), np.nan, super().values(X))


def test_trial_with_a_nan_separation_says_so():
    # the elements and their distances to the core are nonnegative, every x_n - x_m is not;
    # the reason used to be "sequence is not separated (epsilon = 0)"
    core = np.array([0.5, 0.25] + [0.0] * 6)
    seq = core + 0.3 * np.eye(8)[2:8]
    trial = run_ukk_trial(_NanOnNegatives(2, 8), 2.0, seq, core)
    assert not trial.valid and trial.epsilon is None
    assert trial.reason == "separation is NaN (a pairwise renorm distance is NaN)"


def test_bump_campaign_of_a_nan_oracle_names_the_element(nan_lq):
    # Python's max dropped the NaN renorms, and the scaling divided by 0.0
    with pytest.raises(ValueError, match="^element 0 of the bump family has a NaN renorm$"):
        run_bump_campaign(nan_lq(2, 20), 2.0, 1, horizon=8)


def test_trial_invalid_nonconvergent():
    N = LqNorm(2, 8)
    e1 = LatticeVector.unit(8, 0)
    trial = run_ukk_trial(N, 2.0, [e1, -e1] * 4, LatticeVector.zeros(8))
    assert not trial.valid


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
def test_trial_rejects_bad_exponent_before_its_length(p):
    # a one-element sequence used to give an invalid record carrying this p
    x = LatticeVector.unit(4, 0)
    with pytest.raises(ValueError, match="exponent"):
        run_ukk_trial(LqNorm(2, 4), p, [x], x)


def test_trial_serializes():
    N = LqNorm(2, 12)
    core = LatticeVector([0.5] + [0.0] * 11)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.5, horizon=6)
    d = run_ukk_trial(N, 2.0, seq, core).to_dict()
    assert d["valid"] is True
    assert len(d["sequence"]) == 6
    assert d["norm"]["kind"] == "Lq"


def test_campaign_bump_all_pass():
    N = LqNorm(2, 24)
    camp = run_bump_campaign(N, 2.0, trials=25, seed=0, horizon=10)
    assert camp.total == 25
    assert camp.valid == 25
    assert camp.passed == 25
    assert camp.failed == 0
    assert camp.min_margin is not None and camp.min_margin >= 0


def test_campaign_block_norm():
    N = BlockNorm(
        [[2 * i, 2 * i + 1] for i in range(12)],
        [LqNorm(1, 2)] * 12,
        LqNorm(float("inf"), 12),
    )
    camp = run_bump_campaign(N, 2.0, trials=15, seed=1, horizon=8)
    assert camp.valid == 15 and camp.failed == 0


def test_wrong_dimension_sequence_raises_even_when_short():
    N = LqNorm(2, 4)
    for seq in ([[0.5, 0.0]], [[0.5, 0.0, 0.0, 0.0], [0.5, 0.0]]):
        with pytest.raises(DimensionMismatch):
            run_ukk_trial(N, 2.0, seq, LatticeVector.zeros(4))
        with pytest.raises(DimensionMismatch):
            measure_separation(seq, N, 2.0)


def test_single_vector_arguments_accept_coordinate_lists():
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=8)
    assert generate_bump_sequence(N, 2.0, core.to_list(), bump_height=0.6, horizon=8) == seq
    u_core = LatticeVector([1.0] + [0.0] * 19)
    assert check_truncation_vanishing(u_core, seq, core.to_list(), N)
    assert run_ukk_trial(N, 2.0, seq, core.to_list()) == run_ukk_trial(N, 2.0, seq, core)


def test_wrong_dimension_limit_or_core_is_blamed_on_itself():
    N = LqNorm(2, 4)
    seq = [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]
    for limit in ([0.0] * 3, LatticeVector.zeros(3)):
        with pytest.raises(DimensionMismatch, match="rows of 4 coordinates, a row"):
            run_ukk_trial(N, 2.0, seq, limit)
        with pytest.raises(DimensionMismatch, match="rows of 4 coordinates, a row"):
            check_truncation_vanishing(LatticeVector.zeros(4), seq, limit, N)
    for core in ([0.5] + [0.0] * 4, LatticeVector([0.5] + [0.0] * 4)):
        with pytest.raises(DimensionMismatch, match="rows of 6 coordinates, a row"):
            generate_bump_sequence(LqNorm(2, 6), 2.0, core, bump_height=0.5, horizon=2)


def test_campaign_fuzz_never_falsely_fails():
    camp = run_bump_campaign(LqNorm(2, 24), 2.0, trials=20, seed=2, horizon=10, mode="fuzz")
    assert camp.total == 20
    assert camp.failed == 0  # invalid trials are excluded, never failed
    assert camp.valid + camp.invalid == 20


def test_campaign_rejects_bad_mode():
    with pytest.raises(ValueError):
        run_bump_campaign(LqNorm(2, 24), 2.0, trials=1, mode="nope")


def test_campaign_serializes():
    camp = run_bump_campaign(LqNorm(2, 20), 2.0, trials=3, seed=0, horizon=6)
    d = camp.to_dict(include_trials=True)
    assert d["total"] == 3 and len(d["trials"]) == 3
    d2 = camp.to_dict(include_trials=False)
    assert "trials" not in d2
    # the campaign's spec equals trial 0's but is its own dict: annotating one leaves the other
    assert d["norm"] == d["trials"][0]["norm"] == LqNorm(2, 20).describe()
    assert d["norm"] is not d["trials"][0]["norm"]


def _reference_track_settles(track, tol):
    """The per-track settle rule that ``_tracks_settle`` replaced, kept as an oracle."""
    hits = [n for n, v in enumerate(track) if v > tol]
    if not hits:
        return True
    L = len(track)
    cutoff = max(1, int(math.ceil(0.75 * L)))
    return not (hits[-1] == L - 1 and hits[0] < cutoff)


def test_settle_rule_matches_reference_on_every_short_track():
    # 1 marks a moving entry; every 0/1 track of length 1 to 8
    for L in range(1, 9):
        for bits in itertools.product((0.0, 1.0), repeat=L):
            T = np.array(bits)[:, None]
            assert _tracks_settle(T, 0.5) == _reference_track_settles(bits, 0.5), bits


def test_settle_rule_matches_reference_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        L, k = int(rng.integers(1, 13)), int(rng.integers(1, 6))
        T = (rng.random((L, k)) < rng.random()).astype(float)
        expected = all(_reference_track_settles(T[:, j].tolist(), 0.5) for j in range(k))
        assert _tracks_settle(T, 0.5) == expected


def _reference_trial(N, p, sequence, declared_limit, seed=0, tol=1e-9):
    """``run_ukk_trial`` as it was written before its renorms shared one batch, kept as an oracle.

    One renorm stage per check: the elements, the separation, the
    distances to the limit, then the limit through the scalar ``renorm``.
    """
    X = np.array([np.asarray(getattr(x, "coords", x), dtype=float) for x in sequence])
    limit = np.asarray(getattr(declared_limit, "coords", declared_limit), dtype=float)
    base = dict(seed=seed, p=float(p), horizon=len(X), norm=N.describe(), sequence=X.tolist(),
                declared_limit=limit.tolist())
    advisory = False

    def invalid(reason):
        return UkkTrial(False, advisory, reason=reason, **base)

    if len(X) < 2:
        return invalid("need at least two elements")
    elements = renorm_batch(N, p, X)
    for n, (value, method) in enumerate(zip(elements.values, elements.methods)):
        advisory = advisory or method == "heuristic"
        if value > 1.0 + tol:
            return invalid(f"element {n} outside the renorm unit ball ({value})")
    D = X - limit
    if not _tracks_settle(np.abs(D), tol):
        return invalid("coordinatewise convergence to the declared limit not established at this horizon")
    sep = measure_separation(X, N, p)
    advisory = advisory or sep.advisory
    epsilon = sep.value
    if not epsilon > 0.0:
        return invalid("sequence is not separated (epsilon = 0)")
    dists = renorm_batch(N, p, D)
    advisory = advisory or "heuristic" in dists.methods
    min_dist = float(min(dists.values))
    if not epsilon / 2.0 <= min_dist + tol:
        return invalid("separation inconsistent with distances to the limit (finite-horizon artifact)")
    delta = ukk_modulus(min(epsilon, 2.0), p)
    limit_res = renorm(N, p, LatticeVector(limit))
    advisory = advisory or limit_res.method == "heuristic"
    return UkkTrial(True, advisory, passed=bool(limit_res.value <= 1.0 - delta + tol), epsilon=epsilon,
                    delta=delta, limit_renorm=limit_res.value, min_dist_to_limit=min_dist, liminf_ok=True, **base)


def _unit(dim, *atoms, scale=1.0):
    x = np.zeros(dim)
    x[list(atoms)] = scale
    return x


def _trial_cases():
    """(name, N, sequence, limit, expected reason prefix or None): a valid trial and each invalid reason."""
    N8, N16 = LqNorm(2, 8), LqNorm(2, 16)
    core = LatticeVector([0.8] + [0.0] * 7)
    bump = generate_bump_sequence(N8, 2.0, core, bump_height=0.6, horizon=6)
    # a 13-atom core is above EXACT_THRESHOLD, so the limit, the elements and
    # the distances to the limit run the local search; the last of 5 bumps is in flight
    N18 = LqNorm(2, 18)
    wide = LatticeVector(np.r_[np.full(13, 0.2), np.zeros(5)])
    wide_bump = generate_bump_sequence(N18, 2.0, wide, bump_height=0.3, horizon=5)
    # an 11-atom core plus two atoms below tol: only the limit runs the local search
    faint = LatticeVector(np.r_[np.full(11, 0.2), 1e-10, 1e-10, np.zeros(5)])
    faint_bump = generate_bump_sequence(N18, 2.0, np.r_[faint.coords[:11], np.zeros(7)], bump_height=0.3, horizon=5)
    small, big = _unit(16, 0, scale=0.5), _unit(16, 1, scale=2.0)
    heavy = np.r_[np.full(14, 0.1), np.zeros(2)]  # 14 atoms, inside the ball
    zero8 = np.zeros(8)
    return [
        ("valid", N8, bump, core, None),
        ("valid, heuristic rows", N18, wide_bump, wide, None),
        ("valid, heuristic limit only", N18, faint_bump, faint, None),
        ("one element", N8, bump[:1], core, "need at least two"),
        ("outside the ball", N8, [_unit(8, i, scale=2.0) for i in range(3)], zero8, "element 0 outside"),
        ("outside the ball, a heuristic row after it", N16, [small, big, heavy, small], small, "element 1 outside"),
        ("outside the ball, a heuristic row before it", N16, [small, heavy, big, small], small, "element 2 outside"),
        ("outside the ball and not convergent", N8, [_unit(8, 0, scale=2.0), -_unit(8, 0, scale=2.0)] * 4, zero8,
         "element 0 outside"),
        ("not convergent", N8, [_unit(8, 0), -_unit(8, 0)] * 4, zero8, "coordinatewise convergence"),
        ("not convergent, heuristic elements", N16, [heavy, -heavy] * 4, np.zeros(16), "coordinatewise convergence"),
        ("not separated", N8, [_unit(8, 0, scale=0.5)] * 3, _unit(8, 0, scale=0.5), "sequence is not separated"),
        ("not separated, heuristic elements", N16, [heavy] * 3, heavy, "sequence is not separated"),
        ("inconsistent distances", N8, [_unit(8, 1, scale=0.3) + _unit(8, 0, scale=0.5), _unit(8, 1, scale=0.3)],
         _unit(8, 1, scale=0.3), "separation inconsistent"),
        ("inconsistent distances, heuristic rows", N16, [heavy + _unit(16, 15, scale=0.5), heavy], heavy,
         "separation inconsistent"),
    ]


@pytest.mark.parametrize("case", _trial_cases(), ids=lambda c: c[0])
def test_trial_matches_the_stage_by_stage_reference(case):
    name, N, seq, limit, reason = case
    got = run_ukk_trial(N, 2.0, seq, limit).to_dict()
    assert got == _reference_trial(N, 2.0, seq, limit).to_dict()
    assert (got["reason"] or "").startswith(reason or "")
    assert got["valid"] is (reason is None)


def test_trial_advisory_counts_only_the_renorms_before_its_reason():
    cases = {c[0]: run_ukk_trial(c[1], 2.0, c[2], c[3]) for c in _trial_cases()}
    assert cases["valid, heuristic rows"].advisory
    assert cases["valid, heuristic limit only"].advisory
    assert not cases["outside the ball, a heuristic row after it"].advisory
    assert cases["outside the ball, a heuristic row before it"].advisory
    assert not cases["valid"].advisory


@pytest.mark.parametrize("mode", ["bump", "fuzz"])
def test_campaign_trials_match_the_stage_by_stage_reference(mode):
    N = BlockNorm([[2 * i, 2 * i + 1] for i in range(8)], [LqNorm(1, 2)] * 8, LqNorm(3, 8))
    for space in (LqNorm(2, 16), N):
        camp = run_bump_campaign(space, 2.0, trials=12, seed=4, mode=mode, horizon=8)
        for t in camp.trials:
            ref = _reference_trial(space, 2.0, t.sequence, t.declared_limit, seed=t.seed)
            assert t.to_dict() == ref.to_dict()


def test_trial_with_an_overflowing_distance_still_reports_the_ball():
    # the last element sits at +1e308 and the limit at -1e308: its distance
    # overflows, but element 0 is outside the ball and that is the reason
    N = LqNorm(2, 3)
    limit = [-1e308, 0.0, 0.0]
    seq = [limit] * 7 + [[1e308, 0.0, 0.0]]
    with np.errstate(over="ignore"):
        trial = run_ukk_trial(N, 2.0, seq, limit)
    assert not trial.valid and trial.reason.startswith("element 0 outside")


def test_trial_with_an_overflowed_deviation_is_invalid():
    # every element lies in the ball (the tiny weight), but the last one's
    # deviation from the limit, 1.7e308 + 1.7e308, overflows: a deviation
    # beyond binary64 never settles; this used to raise the row gate's ValueError
    N = WeightedLqNorm(2, [5e-309, 1, 1])
    limit = [-1.7e308, 0.0, 0.0]
    with np.errstate(over="ignore"):
        trial = run_ukk_trial(N, 2.0, [limit] * 7 + [[1.7e308, 0.0, 0.0]], limit)
    assert (trial.valid, trial.reason, trial.advisory) == (False, CONVERGENCE, False)


def test_settle_rule_rejects_an_infinite_entry_in_the_final_quarter():
    T = np.zeros((8, 2))
    T[7, 0] = 1.0
    assert _tracks_settle(T, 1e-9)  # a finite movement there is in flight
    T[7, 0] = np.inf
    assert not _tracks_settle(T, 1e-9)


def test_truncation_track_that_overflows_does_not_vanish():
    # N(1e300, 1e300) overflows to inf in the last element; it used to pass as in flight
    seq = [[0.0, 0.0]] * 7 + [[1e300, 1e300]]
    with np.errstate(over="ignore"):
        assert not check_truncation_vanishing([1e300, 1e300], seq, [0.0, 0.0], LqNorm(2, 2))


def test_truncation_vanishing_needs_a_sequence():
    with pytest.raises(ValueError, match="^empty sequence$"):
        check_truncation_vanishing([1.0, 1.0], [], [0.0, 0.0], LqNorm(2, 2))


def test_campaign_needs_room_for_a_core():
    with pytest.raises(ValueError, match=r"^oracle dim 8 leaves no room for a core before 8 bumps$"):
        run_bump_campaign(LqNorm(2, 8), 2, 1, horizon=8)


@pytest.mark.parametrize("mode,calls", [("bump", 4), ("fuzz", 3)])
def test_trial_norm_call_budget(counting_lq, mode, calls):
    # bump: the scaling pass, the sequence check, one batch of elements,
    # distances and limit, and the separation; this fuzz trial does not
    # converge, so its one batch holds the elements only
    N = counting_lq(2, 20)
    camp = run_bump_campaign(N, 2.0, trials=1, seed=0, mode=mode, horizon=12)
    assert len(N.calls) == calls
    if mode == "bump":
        assert sum(N.calls) == 872 and camp.valid == 1
    else:
        assert camp.trials[0].reason.startswith("coordinatewise convergence")
