import math
import tracemalloc

import numpy as np
import pytest

from ukklattice import (
    BlockNorm,
    LatticeVector,
    LqNorm,
    check_inf_chain,
    derived_exponent,
    estimate_lower_p_constant,
    estimate_two_disjoint_constant,
    family_power_ratio,
    lower_r_constant,
    run_estimate_pipeline,
    verify_lower_r_estimate,
)
from ukklattice.sampling import random_disjoint_family


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


def test_family_power_ratio():
    N = LqNorm(float("inf"), 4)
    fam = [LatticeVector(np.eye(4)[i]) for i in range(4)]
    # (4 * 1^2)^(1/2) / 1 = 2
    assert family_power_ratio(N, 2.0, fam) == 2.0


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
def test_family_power_ratio_rejects_bad_exponent(p):
    fam = [LatticeVector(np.eye(4)[i]) for i in range(2)]
    with pytest.raises(ValueError):
        family_power_ratio(LqNorm(2, 4), p, fam)


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
