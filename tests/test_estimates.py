import math
import tracemalloc

import numpy as np
import pytest

from reference import disjoint_family, lower_estimates, verify_families

from ukklattice import (
    BlockNorm,
    LatticeVector,
    LqNorm,
    PosNegMaxNorm,
    WeightedLqNorm,
    check_inf_chain,
    derived_exponent,
    estimate_lower_p_constant,
    estimate_two_disjoint_constant,
    lower_r_constant,
    run_estimate_pipeline,
    verify_lower_r_estimate,
)
from ukklattice import estimates, norms
from ukklattice.estimates import _greedy_unit_family, _lower_estimates, _ratios, _sampled_runs, _stacked
from ukklattice.norms import ABS_TOL, REL_TOL
from ukklattice.sampling import random_disjoint_family, random_disjoint_pair, random_vector
from ukklattice.vectors import _rows


def test_two_disjoint_constant_linf_is_two():
    c, (x, y) = estimate_two_disjoint_constant(LqNorm(float("inf"), 4), budget=40, seed=0)
    assert c == 2.0
    N = LqNorm(float("inf"), 4)
    assert (N(x) + N(y)) / N(x + y) == c


def test_two_disjoint_constant_l2_is_sqrt2():
    c, _ = estimate_two_disjoint_constant(LqNorm(2, 6), budget=60, seed=0)
    assert math.sqrt(2) - 1e-3 <= c <= math.sqrt(2) + 1e-9


def test_two_disjoint_constant_l1_is_one():
    # the 1-norm is additive over disjoint supports
    c, _ = estimate_two_disjoint_constant(LqNorm(1, 5), budget=60, seed=1)
    assert c == pytest.approx(1.0, abs=1e-12)


def test_estimate_monotone_in_budget():
    N = LqNorm(1.5, 6)
    prev = 0.0
    for budget in (5, 20, 80):
        c, _ = estimate_two_disjoint_constant(N, budget=budget, seed=3)
        assert c >= prev
        prev = c


def test_derived_exponent_values():
    # c = sqrt(2) gives p = 4; c = 1 gives p = 2
    assert derived_exponent(math.sqrt(2)) == pytest.approx(4.0, rel=1e-12)
    assert derived_exponent(1.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        derived_exponent(2.0)
    with pytest.raises(ValueError):
        derived_exponent(0.9)


def test_lower_r_constant_zeta_point():
    # c = 1, p = 2, r = 4 sums i^{-2}: K = (pi^2/6)^(1/4)
    k = lower_r_constant(1.0, 2.0, 4.0)
    assert k == pytest.approx((math.pi ** 2 / 6) ** 0.25, abs=1e-6)


def test_lower_r_constant_scales_with_c_squared():
    base = lower_r_constant(1.0, 2.0, 4.0)
    scaled = lower_r_constant(1.3, 2.0, 4.0)
    assert scaled == pytest.approx(1.3 ** 2 * base, rel=1e-9)


# (p, r): s = r/p from next to 1, where the series is ill-conditioned, to 1e6
ZETA_GRID = [(1.0, 1.0 + 1e-9), (1200.0, 1201.0), (2.0, 2.02), (4.0, 5.0), (2.0, 3.0),
             (2.0, 4.0), (1.0, 13.3), (1.5, 1.5e6)]


def test_lower_r_constant_matches_zeta_grid():
    mp = pytest.importorskip("mpmath")
    c = 1.2
    tracemalloc.start()
    try:
        got = [lower_r_constant(c, p, r) for p, r in ZETA_GRID]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for (p, r), k in zip(ZETA_GRID, got):
        # the reference is taken at the float s = r/p the function sums at
        with mp.workdps(40):
            want = mp.zeta(mp.mpf(r / p)) ** (1 / mp.mpf(r)) * mp.mpf(c) ** 2
            assert abs(k - want) <= 1e-14 * want, (p, r)
    # n^(-s) underflows: the tail vanishes and the series is 1
    assert lower_r_constant(c, 1.0, 1e300) == c * c
    assert lower_r_constant(c, 2.0, math.inf) == c * c


def test_lower_r_constant_validation():
    with pytest.raises(ValueError):
        lower_r_constant(1.0, 2.0, 2.0)  # r must exceed p
    with pytest.raises(ValueError):
        lower_r_constant(0.5, 2.0, 4.0)
    for bad in ((math.nan, 2.0, 4.0), (1.0, math.nan, 4.0), (1.0, 2.0, math.nan)):
        with pytest.raises(ValueError):
            lower_r_constant(*bad)


@pytest.mark.parametrize("call", [
    lambda bad: derived_exponent(bad),
    lambda bad: lower_r_constant(bad, 2.0, 4.0),
    lambda bad: lower_r_constant(1.5, bad, 4.0),
    lambda bad: lower_r_constant(1.5, 2.0, bad),
])
@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1.5", None, [1.5]])
def test_constant_and_exponent_must_be_numbers(call, bad):
    # float() used to take them: derived_exponent(True) gave 2.0, lower_r_constant("1.5", 2.0, 4.0) 2.55
    with pytest.raises(ValueError, match="must be a number"):
        call(bad)


def test_numpy_scalar_constant_and_exponent_are_numbers():
    assert derived_exponent(np.float64(1.2)) == derived_exponent(1.2)
    assert lower_r_constant(np.float32(1.5), np.int64(2), 4.0) == lower_r_constant(1.5, 2.0, 4.0)
    assert lower_r_constant(1.5, 2.0, np.float64(4.0)) == lower_r_constant(1.5, 2.0, 4.0)


@pytest.mark.parametrize("bad", ["5", None, True])
def test_pipeline_rs_must_be_numbers(bad):
    # run_estimate_pipeline(N, rs=("5",)) used to report a kr_table row
    with pytest.raises(ValueError, match="exponent r must be a number"):
        run_estimate_pipeline(LqNorm(2, 6), budget=10, rs=(bad,))


@pytest.mark.parametrize("q", [2, math.inf])
@pytest.mark.parametrize("rs,match", [
    (5.0, "rs must be None or a list or tuple"),
    ("ab", "rs must be None or a list or tuple"),
    (np.array([3.0]), "rs must be None or a list or tuple"),
    ((3.0, "a"), "exponent r must be a number"),
    ([True], "exponent r must be a number"),
])
def test_pipeline_rs_is_checked_before_the_search(counting_lq, q, rs, match):
    # a bad rs used to fail only after the whole c search, or, where the
    # hypothesis fails (q = inf), never; now no norm call is made
    N = counting_lq(q, 6)
    with pytest.raises(ValueError, match=match):
        run_estimate_pipeline(N, budget=10, rs=rs)
    assert N.calls == []


def test_pipeline_rs_takes_numbers_and_inf():
    rep = run_estimate_pipeline(LqNorm(2, 6), budget=10, rs=[5, np.float64(6.0), math.inf])
    assert [r for r, _ in rep.kr_table] == [5.0, 6.0, math.inf]
    assert all(type(r) is float for r, _ in rep.kr_table)


def test_check_inf_chain_unit_atoms():
    N = LqNorm(2, 8)
    fam = [LatticeVector(np.eye(8)[i]) for i in range(4)]
    chk = check_inf_chain(N, math.sqrt(2), fam)
    assert chk.passed
    assert chk.m == 4 and chk.k == 2
    assert chk.inf_norm == 1.0
    # m = 4 atoms in l2: ||sum|| = 2, dyadic bound c^3/4 * 2 = sqrt(2)^3 / 2
    assert chk.dyadic_bound == pytest.approx(math.sqrt(2) ** 3 / 4 * 2, rel=1e-12)
    assert chk.powerlaw_bound == pytest.approx(math.sqrt(2) / 4 ** 0.25 * 2, rel=1e-9)


def test_check_inf_chain_skips_powerlaw_at_two():
    N = LqNorm(float("inf"), 4)
    fam = [LatticeVector(np.eye(4)[i]) for i in range(2)]
    chk = check_inf_chain(N, 2.0, fam)
    assert chk.powerlaw_ok is None
    assert chk.powerlaw_bound is None
    assert chk.passed  # dyadic half still holds


def test_check_inf_chain_requires_disjoint():
    N = LqNorm(2, 4)
    x = LatticeVector([1.0, 0, 0, 0])
    with pytest.raises(ValueError):
        check_inf_chain(N, 1.5, [x, x])


def test_check_inf_chain_needs_a_family():
    with pytest.raises(ValueError, match="^family must be nonempty$"):
        check_inf_chain(LqNorm(2, 4), 1.5, [])


def test_two_disjoint_constant_needs_two_atoms():
    with pytest.raises(ValueError, match="^dim must be >= 2: no disjoint pair has both parts nonzero$"):
        estimate_two_disjoint_constant(LqNorm(2, 1))


def test_lower_estimate_ratio_of_unit_family():
    # (4 * 1^2)^(1/2) / 1 = 2
    assert list(_ratios(LqNorm(float("inf"), 4), 2.0, [np.eye(4)])) == [2.0]


@pytest.mark.parametrize("p", [0.0, 0.5, math.nan, math.inf])
def test_lower_p_constant_rejects_bad_exponent(p):
    # p = 0 used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="exponent"):
        estimate_lower_p_constant(LqNorm(2, 4), p, budget=4)


@pytest.mark.parametrize("c", [math.nan, 0.5])
def test_check_inf_chain_rejects_bad_constant(c):
    # these used to read as a failed check, that is as a violation
    fam = [LatticeVector(np.eye(4)[i]) for i in range(2)]
    with pytest.raises(ValueError):
        check_inf_chain(LqNorm(2, 4), c, fam)


def test_lower_p_constant_linf():
    # sup norm, p = 2: the d unit atoms give sqrt(d)
    C, fam = estimate_lower_p_constant(LqNorm(float("inf"), 4), 2.0, budget=40, seed=0)
    assert C == pytest.approx(2.0, rel=1e-12)
    assert len(fam) == 4


def test_lower_p_constant_l2_is_one():
    C, _ = estimate_lower_p_constant(LqNorm(2, 6), 2.0, budget=40, seed=0)
    assert C == pytest.approx(1.0, rel=1e-9)


def test_lower_p_constant_block_pairs():
    # l_inf over 3 l1 pair blocks, p = 2: one unit atom per block gives sqrt(3)
    N = BlockNorm([[0, 1], [2, 3], [4, 5]], [LqNorm(1, 2)] * 3, LqNorm(float("inf"), 3))
    C, _ = estimate_lower_p_constant(N, 2.0, budget=60, seed=0)
    assert C >= math.sqrt(3) - 1e-12


def test_verify_lower_r_estimate_zero_violations():
    N = LqNorm(2, 8)
    K = lower_r_constant(math.sqrt(2), 4.0, 5.0)
    assert verify_lower_r_estimate(N, 5.0, K, trials=300, seed=4) == 0


def test_verify_lower_r_estimate_detects_bad_k():
    # K far below 1 must be violated by a single unit atom
    N = LqNorm(2, 8)
    assert verify_lower_r_estimate(N, 5.0, 0.5, trials=300, seed=4) > 0


@pytest.mark.parametrize("r", [0.5, math.nan, math.inf])
def test_verify_lower_r_estimate_rejects_bad_exponent(r):
    # r = 0.5 used to report violations, r = nan none
    with pytest.raises(ValueError):
        verify_lower_r_estimate(LqNorm(2, 4), r, 1.0, trials=3)


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
def test_verify_lower_r_estimate_rejects_non_finite_k(K):
    # NaN and inf used to report no violations
    with pytest.raises(ValueError, match="K must be a finite number"):
        verify_lower_r_estimate(LqNorm(2, 4), 3.0, K, trials=50)


@pytest.mark.parametrize("K", [True, False, np.bool_(True)])
def test_verify_lower_r_estimate_rejects_bool_k(K):
    # True used to run at K = 1 and report 0 violations
    with pytest.raises(ValueError, match="K must be a finite number"):
        verify_lower_r_estimate(LqNorm(2, 4), 3.0, K, trials=5)


def test_verify_counts_a_nan_side_as_a_violation(nan_lq):
    # every sampled row and sum reads NaN: each family's test is false, so each is a violation
    assert verify_lower_r_estimate(nan_lq(2, 6), 3.0, 1.5, trials=50) == 50


NAN_ESTIMATE = r"^the oracle NanLq\(\{'kind': 'Lq', 'q': 2, 'dim': 6\}\) gives a NaN lower estimate: fold nan, sum norm nan$"


def test_two_disjoint_constant_of_a_nan_oracle_raises(nan_lq):
    # a NaN ratio used to rank 0.0, so c_hat read 0.0
    with pytest.raises(ValueError, match=NAN_ESTIMATE):
        estimate_two_disjoint_constant(nan_lq(2, 6), budget=10)


def test_estimate_pipeline_of_a_nan_oracle_blames_the_oracle(nan_lq):
    # it used to blame the constant: "two-disjoint constant c must be >= 1, got 0.0"
    with pytest.raises(ValueError, match=NAN_ESTIMATE):
        run_estimate_pipeline(nan_lq(2, 6), budget=10)


def test_verify_chunks_stay_within_the_cap(counting_lq, monkeypatch):
    N = counting_lq(2, 8)
    want = verify_lower_r_estimate(N, 5.0, 0.9, trials=200, seed=4)
    assert 0 < want < 200 and len(N.calls) == 1
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 16 * 8)  # 16 rows of dim 8
    small = counting_lq(2, 8)
    assert verify_lower_r_estimate(small, 5.0, 0.9, trials=200, seed=4) == want
    assert len(small.calls) > 1 and max(small.entries) <= 16 * 8 and sum(small.calls) == sum(N.calls)
    # a family above the cap is scored alone
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 16 * 20)
    lone = counting_lq(2, 20)
    family = np.eye(20)[:17]
    assert list(_lower_estimates(lone, 2.0, _stacked([family[:2], family, family[:3]], 20))) == [
        next(_lower_estimates(lone, 2.0, _stacked([X], 20))) for X in (family[:2], family, family[:3])
    ]
    assert lone.calls[:3] == [3, 18, 4]


def test_families_are_built_a_batch_ahead(counting_lq, monkeypatch):
    # candidates and greedy steps are built as they are scored, so between two
    # N.values calls at most one batch of families (and the next one) is built
    runs = [
        ("inf", lambda N: _greedy_unit_family(N, 3.0).tobytes()),
        (2.5, lambda N: repr(estimate_two_disjoint_constant(N, budget=40, seed=1))),
    ]
    want = [run(counting_lq(q, 10)) for q, run in runs]
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 9 * 10)  # 3 unit pairs and their sums
    unit_rows, built = estimates._units, []

    def units(dim, atoms):
        built[-1].append(len(N.calls))
        return unit_rows(dim, atoms)

    monkeypatch.setattr(estimates, "_units", units)
    for (q, run), w in zip(runs, want):
        N = counting_lq(q, 10)
        built.append([])
        assert run(N) == w
    # the first greedy step's 9 atoms, or the 40 unit pairs, would be built at once
    assert len(built[0]) > 40 and len(built[1]) == 40
    assert max(np.bincount(b).max() for b in built) <= 4


def test_estimate_norm_call_budget(counting_lq):
    # verify scores all its families in one call; the pipeline batch-scores
    # each search's candidates and each greedy step, and each refinement's
    # moves a batch ahead: the pair's balance, its grid, then each climb sweep
    N = counting_lq(2, 12)
    verify_lower_r_estimate(N, 5.0, 1.5, trials=50)
    assert len(N.calls) == 1
    N = counting_lq(2, 12)
    run_estimate_pipeline(N, budget=40, seed=5)
    assert len(N.calls) == 9 and sum(N.calls) == 1311


def test_random_disjoint_family_matches_member_by_member_draws():
    cases = 0
    for seed in range(5):
        for dim in range(1, 31):
            for count in range(1, min(dim, 9) + 1):
                ref, rng = np.random.default_rng([seed, dim, count]), np.random.default_rng([seed, dim, count])
                want = disjoint_family(ref, dim, count)
                got = np.array([v.coords for v in random_disjoint_family(rng, dim, count)])
                assert got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state
                cases += 1
    assert cases >= 1000


FOUR_KINDS = [
    LqNorm(3, 10),
    WeightedLqNorm(1.5, [1.0 + 0.3 * i for i in range(10)]),
    BlockNorm([[2 * i, 2 * i + 1] for i in range(5)], [LqNorm(1, 2)] * 5, LqNorm(2.5, 5)),
    PosNegMaxNorm(LqNorm(1.5, 10)),
]


@pytest.mark.parametrize("small_cap", [False, True])
def test_sampled_runs_are_the_per_family_loop_in_packed_runs(monkeypatch, small_cap):
    # every dim 1..30, its counts 1..min(dim, 9) in turn and then reversed; the
    # runs are the scorer's packed runs, each at most the cap's entries with
    # each family's sum row unless one family alone is larger
    for dim in range(1, 31):
        counts = [*range(1, min(dim, 9) + 1), *range(min(dim, 9), 0, -1)]
        if small_cap:
            monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 3 * dim + 7)
        ref, rng = np.random.default_rng(dim), np.random.default_rng(dim)
        want = [disjoint_family(ref, dim, m) for m in counts]
        runs = list(_sampled_runs(rng, dim, iter(counts)))
        entries = [[(m + 1) * dim for m in sizes] for _, sizes in runs]
        assert all(sum(e) <= norms._MAX_CALL_ENTRIES or len(e) == 1 for e in entries)
        assert [len(sizes) for _, sizes in runs] == [len(run) for run in norms._packed(want, lambda X: X.size + X.shape[1])]
        assert [m for _, sizes in runs for m in sizes] == counts
        assert [rows.shape for rows, sizes in runs] == [(sum(sizes), dim) for _, sizes in runs]
        assert b"".join(rows.tobytes() for rows, _ in runs) == b"".join(X.tobytes() for X in want)
        assert rng.bit_generator.state == ref.bit_generator.state
    # at dim 30 the default cap takes all 18 families at once, 97 entries one family each
    assert len(runs) == (18 if small_cap else 1)


def test_sampled_runs_draw_each_count_before_its_family(monkeypatch):
    # verify draws each count from the same generator as the families, so a run
    # is built only after the count and draws of the first family past it
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 40 * 12)
    ref, rng = np.random.default_rng(9), np.random.default_rng(9)
    want = list(verify_families(ref, 12, 60))
    counts = (int(rng.integers(1, 9)) for _ in range(60))
    runs = list(_sampled_runs(rng, 12, counts))
    assert len(runs) > 3
    assert b"".join(rows.tobytes() for rows, _ in runs) == b"".join(X.tobytes() for X in want)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cap_rows", [None, 16])
@pytest.mark.parametrize("N", FOUR_KINDS, ids=lambda N: N.kind)
def test_built_runs_score_as_the_stacked_families(monkeypatch, N, cap_rows):
    # the same sampled families scored as verify lays them out, one built array a
    # run, and as _stacked's runs of per-family arrays: the same bits
    if cap_rows is not None:
        monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", cap_rows * N.dim)
    rng = np.random.default_rng(5)
    runs = list(_sampled_runs(rng, N.dim, (int(rng.integers(1, 9)) for _ in range(120))))
    before = [rows.tobytes() for rows, _ in runs]
    families = [X for rows, sizes in runs for X in np.split(rows, np.cumsum(sizes)[:-1])]
    built = [(a.hex(), b.hex()) for a, b in _lower_estimates(N, 3.0, runs)]
    assert built == [(a.hex(), b.hex()) for a, b in _lower_estimates(N, 3.0, _stacked(families, N.dim))]
    assert len(built) == 120 and (len(runs) == 1) == (cap_rows is None)
    assert [rows.tobytes() for rows, _ in runs] == before  # the scorer leaves its runs as they are


@pytest.mark.parametrize("cap_rows", [None, 16])
def test_each_verify_call_scores_one_built_run(counting_lq, monkeypatch, cap_rows):
    if cap_rows is not None:
        monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", cap_rows * 8)
    build, built = estimates._build_families, []

    def recorded(dim, draws):
        rows, sizes = build(dim, draws)
        built.append(sum(sizes) + len(sizes))
        return rows, sizes

    monkeypatch.setattr(estimates, "_build_families", recorded)
    N = counting_lq(2, 8)
    verify_lower_r_estimate(N, 5.0, 0.9, trials=200, seed=4)
    assert N.calls == built
    assert (len(built) == 1) if cap_rows is None else (len(built) > 1 and max(built) <= cap_rows)


@pytest.mark.parametrize("r", [3.0, 1200.0])
@pytest.mark.parametrize("N", FOUR_KINDS, ids=lambda N: N.kind)
def test_verify_counts_the_per_family_loop(N, r):
    families = list(verify_families(np.random.default_rng(7), N.dim, 300))
    want = sum(lhs > 0.8 * total + REL_TOL * abs(0.8 * total) + ABS_TOL
               for lhs, total in _lower_estimates(N, r, _stacked(families, N.dim)))
    assert want > 0 and verify_lower_r_estimate(N, r, 0.8, trials=300, seed=7) == want
    # at r = 1200 some plain fold leaves [2^-900, 2^900]: the refold path runs
    plain = [lhs for lhs, _ in lower_estimates(N, r, families)]
    assert (r == 1200.0) == any(lhs in (0.0, math.inf) for lhs in plain)


@pytest.mark.parametrize("N", FOUR_KINDS, ids=lambda N: N.kind)
def test_lower_estimates_batch_equals_one_family(N):
    rng = np.random.default_rng(3)
    families = [_rows(random_disjoint_family(rng, 10, m), 10) for m in range(1, 9) for _ in range(3)]
    families.insert(5, np.zeros((2, 10)))  # a zero-sum family
    p = 2.5
    one = [next(_lower_estimates(N, p, _stacked([X], 10))) for X in families]
    assert list(_lower_estimates(N, p, _stacked(families, 10))) == one
    for X, (num, total) in zip(families, one):
        # the terms fold in order of smallest support atom, each a one-row call
        rows = sorted(X, key=lambda x: np.flatnonzero(x)[0] if x.any() else -1)
        acc = 0.0
        for row in reversed(rows):
            acc = N(row) ** p + acc
        assert (num, total) == (acc ** (1.0 / p), N(X.sum(axis=0)))
    ratios = list(_ratios(N, p, families))
    assert ratios == [next(_ratios(N, p, [X])) for X in families]
    assert ratios[5] == 0.0 and min(ratios[:5] + ratios[6:]) > 0.0


def test_greedy_unit_family_takes_only_strict_gains():
    # every unit family of the 2-norm has ratio 1 at p = 2: no atom is a strict gain
    assert _greedy_unit_family(LqNorm(2, 5), 2.0).tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0]]
    # the sup norm gains at every step
    assert _greedy_unit_family(LqNorm("inf", 5), 2.0).tolist() == np.eye(5).tolist()


def test_unit_pairs_are_taken_lazily():
    # 4.5 million unit pairs at dim 3000; the first three are those of dim 12
    small, _ = estimate_two_disjoint_constant(LqNorm(1.5, 12), budget=3, seed=0)
    big, (x, y) = estimate_two_disjoint_constant(LqNorm(1.5, 3000), budget=3, seed=0)
    assert big == small
    assert x.support() + y.support() == (0, 1)


def test_pipeline_l2():
    rep = run_estimate_pipeline(LqNorm(2, 6), budget=80, seed=0)
    assert rep.hypothesis_satisfied
    assert rep.p_derived == pytest.approx(4.0, abs=1e-2)
    assert rep.lower_p_constant == pytest.approx(1.0, rel=1e-9)
    assert all(k > 0 for _, k in rep.kr_table)
    d = rep.to_dict()
    assert d["c_hat"] == rep.c_hat


def test_pipeline_linf_reports_hypothesis_failure():
    rep = run_estimate_pipeline(LqNorm(float("inf"), 5), budget=60, seed=0)
    assert not rep.hypothesis_satisfied
    assert rep.c_hat == 2.0
    assert rep.p_derived is None
    assert rep.kr_table == []
    assert rep.lower_p_constant is None


def test_random_disjoint_family_is_disjoint():
    rng = np.random.default_rng(0)
    for _ in range(50):
        fam = random_disjoint_family(rng, 10, int(rng.integers(1, 9)))
        X = np.stack([v.coords for v in fam])
        assert np.all((np.abs(X) > 0).sum(axis=0) <= 1)
        assert all(v.support() for v in fam)


@pytest.mark.parametrize("draw,name", [
    (lambda rng: random_vector(rng, 4, support_size=True), "support_size"),
    (lambda rng: random_vector(rng, 4, support_size=2.0), "support_size"),
    (lambda rng: random_vector(rng, 4.0), "dim"),
    (lambda rng: random_disjoint_pair(rng, True), "dim"),
    (lambda rng: random_disjoint_family(rng, 4, True), "count"),
    (lambda rng: random_disjoint_family(rng, "4", 2), "dim"),
], ids=["support_size=True", "support_size=2.0", "dim=4.0", "pair dim=True", "count=True", "family dim='4'"])
def test_samplers_take_integer_sizes_only(draw, name):
    # these used to raise numpy's TypeError, or to draw with a bool as 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        draw(np.random.default_rng(0))


@pytest.mark.parametrize("draw,message", [
    (lambda rng: random_vector(rng, 4, support_size=5), "support_size 5 out of range 1..4"),
    (lambda rng: random_disjoint_pair(rng, 1), "need dim >= 2 for a nonzero disjoint pair"),
    (lambda rng: random_disjoint_family(rng, 4, 5), "count 5 out of range 1..4"),
], ids=["support_size 5 of 4", "pair dim 1", "count 5 of 4"])
def test_samplers_reject_sizes_beyond_the_dim(draw, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        draw(np.random.default_rng(0))


def test_samplers_draw_the_same_stream_from_numpy_integers():
    draws = []
    for i in (int, np.int64):
        rng = np.random.default_rng(5)
        vecs = [random_vector(rng, i(6)), random_vector(rng, i(6), i(3)), *random_disjoint_pair(rng, i(6)),
                *random_disjoint_family(rng, i(6), i(3))]
        draws.append(np.stack([v.coords for v in vecs]))
    assert np.array_equal(*draws)
