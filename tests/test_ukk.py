import itertools
import math

import numpy as np
import pytest

from ukklattice import (
    BlockNorm,
    DimensionMismatch,
    LatticeVector,
    LqNorm,
    check_coordinatewise_convergence,
    check_truncation_vanishing,
    generate_bump_sequence,
    measure_separation,
    run_bump_campaign,
    run_ukk_trial,
    ukk_modulus,
)
from ukklattice.ukk import _tracks_settle


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
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=8)
    assert check_coordinatewise_convergence(seq, core)
    e1 = LatticeVector.unit(3, 0)
    assert not check_coordinatewise_convergence([e1] * 6, LatticeVector.zeros(3))


def test_convergence_one_over_n():
    seq = [LatticeVector([1.0 / n, 0.0]) for n in range(1, 10_001)]
    assert check_coordinatewise_convergence(seq, LatticeVector.zeros(2), tol=1e-3)


def test_truncation_vanishing_cases():
    N = LqNorm(2, 20)
    core = LatticeVector([0.8] + [0.0] * 19)
    seq = generate_bump_sequence(N, 2.0, core, bump_height=0.6, horizon=8)
    u_core = LatticeVector([1.0] + [0.0] * 19)
    assert check_truncation_vanishing(u_core, seq, core, N)

    N2 = LqNorm(2, 2)
    ones = LatticeVector([1.0, 1.0])
    seq2 = [LatticeVector([1.0 / n, 0.0]) for n in range(1, 10_001)]
    assert check_truncation_vanishing(ones, seq2, LatticeVector.zeros(2), N2, tol=1e-3)
    const = [LatticeVector([1.0, 0.0])] * 6
    assert not check_truncation_vanishing(ones, const, LatticeVector.zeros(2), N2)


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


def test_trial_invalid_nonconvergent():
    N = LqNorm(2, 8)
    e1 = LatticeVector.unit(8, 0)
    trial = run_ukk_trial(N, 2.0, [e1, -e1] * 4, LatticeVector.zeros(8))
    assert not trial.valid


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
    assert check_coordinatewise_convergence(seq, core.to_list())
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
        with pytest.raises(DimensionMismatch, match="rows of 3 coordinates"):
            check_coordinatewise_convergence(seq, limit)  # no oracle: the limit sets the length
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
