import hashlib
import math
import sys

import mpmath
import numpy as np
import pytest

from reference import DPS, mp_norm, verify_families

from ukklattice import (
    BlockNorm,
    DimensionMismatch,
    LatticeVector,
    LqNorm,
    PosNegMaxNorm,
    SupportTooLarge,
    WeightedLqNorm,
    audit_equivalence,
    check_superadditivity,
    estimate_lower_p_constant,
    iter_set_partitions,
    measure_separation,
    partition_power_sum,
    renorm,
    renorm_batch,
    renorm_exact,
    renorm_heuristic,
    run_bump_campaign,
    run_ukk_trial,
    verify_lower_r_estimate,
)
from ukklattice import norms
from ukklattice.norms import ABS_TOL, REL_TOL
from ukklattice.renorm import _dp_tables, _mask_terms, _random_cut
from ukklattice.sampling import random_coords, random_disjoint_pair, random_vector


def brute_force_power_sum(N, p, x):
    """Independent oracle: enumerate every partition of the support."""
    supp = list(x.support())
    if not supp:
        return 0.0
    return max(partition_power_sum(N, p, x, blocks) for blocks in iter_set_partitions(supp))


def brute_force_value(N, p, x):
    return brute_force_power_sum(N, p, x) ** (1.0 / p)


BUILTINS = [
    (LqNorm(1, 8), 1.0),
    (LqNorm(1, 8), 2.0),
    (LqNorm(2, 8), 2.0),
    (LqNorm(2, 8), 1.5),
    (LqNorm(float("inf"), 8), 2.0),
    (LqNorm(3, 8), 1.0),
    (WeightedLqNorm(2, [0.5, 1, 2, 1, 3, 0.25, 1, 1]), 2.0),
    (
        BlockNorm(
            [[0, 1], [2, 3], [4, 5], [6, 7]],
            [LqNorm(1, 2)] * 4,
            LqNorm(float("inf"), 4),
        ),
        2.0,
    ),
    (PosNegMaxNorm(LqNorm(2, 8)), 2.0),
]


_WEIGHTS = [0.5, 1, 2, 1, 3, 0.25, 1, 1]
_PAIRS = BlockNorm([[0, 1], [2, 3], [4, 5], [6, 7]], [LqNorm(1, 2)] * 4, LqNorm(float("inf"), 4))

# every norm kind at p = 1, 1.5, 2 and 3
ENGINE_CASES = BUILTINS + [
    (LqNorm(2, 8), 3.0),
    (WeightedLqNorm(2, _WEIGHTS), 1.0),
    (WeightedLqNorm(3, _WEIGHTS), 1.5),
    (WeightedLqNorm(2, _WEIGHTS), 3.0),
    (_PAIRS, 1.0),
    (_PAIRS, 1.5),
    (_PAIRS, 3.0),
    (PosNegMaxNorm(LqNorm(2, 8)), 1.0),
    (PosNegMaxNorm(LqNorm(1.5, 8)), 1.5),
    (PosNegMaxNorm(LqNorm(2, 8)), 3.0),
]


@pytest.mark.parametrize("N,p", ENGINE_CASES)
def test_exact_matches_brute_force(N, p):
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = random_vector(rng, 8, support_size=int(rng.integers(1, 7)))
        res = renorm_exact(N, p, x)
        oracle = brute_force_value(N, p, x)
        assert res.value == pytest.approx(oracle, rel=1e-12, abs=1e-300)
        # the witness must replay to the claimed power sum
        replay = partition_power_sum(N, p, x, res.witness.to_lists())
        assert replay == res.power_sum

    # one batch: supports 1-8 mixed, rows rounded to 0.1 (ties), zero rows,
    # and rows above a lowered threshold that go to the local search
    threshold = 6
    X = np.zeros((40, 8))
    for row in X[:36]:
        s = int(rng.integers(1, 9))
        row[rng.choice(8, size=s, replace=False)] = random_coords(rng, s)
    X[18:36] = np.round(X[18:36], 1)
    batch = renorm_batch(N, p, X, threshold=threshold, seed=3)
    assert len(batch) == 40
    assert {"exact", "heuristic"} <= set(batch.methods)
    for i, row in enumerate(X):
        x = LatticeVector(row)
        one = renorm_batch(N, p, [x], threshold=threshold, seed=3).result(0)
        # value, power sum, witness and method, bit for bit
        assert batch.result(i) == one
        assert (batch.values[i], batch.power_sums[i]) == (one.value, one.power_sum)
        assert one.method == ("exact" if len(x.support()) <= threshold else "heuristic")
        if one.method == "exact":
            brute = brute_force_power_sum(N, p, x)
            assert one.power_sum == brute
            assert one.value == brute ** (1.0 / p)
            assert partition_power_sum(N, p, x, one.witness.to_lists()) == one.power_sum


def test_zero_vector():
    res = renorm_exact(LqNorm(2, 4), 2.0, LatticeVector.zeros(4))
    assert res.value == 0.0
    assert len(res.witness) == 0


def test_ties_go_to_the_first_block_in_descending_submask_order():
    # L1 at p = 1 on dyadic coordinates: every partition ties exactly, and
    # the whole remaining set is the first candidate block
    N = LqNorm(1, 5)
    x = LatticeVector([0.5, 0.25, 0.0, 1.0, 2.0])
    assert renorm_exact(N, 1.0, x).witness.to_lists() == [[0, 1, 3, 4]]
    assert renorm_batch(N, 1.0, [x, x]).witness(1).to_lists() == [[0, 1, 3, 4]]
    # sup of pair L1 norms at p = 1: {0, 1} | {2} and the singletons both sum
    # every coordinate; {0, 1} comes before {0} among the full set's submasks
    pairs = BlockNorm([[0, 1], [2, 3]], [LqNorm(1, 2)] * 2, LqNorm(float("inf"), 2))
    y = LatticeVector([0.5, 0.25, 1.0, 0.0])
    assert renorm_exact(pairs, 1.0, y).witness.to_lists() == [[0, 1], [2]]
    assert partition_power_sum(pairs, 1.0, y, [[0], [1], [2]]) == renorm_exact(pairs, 1.0, y).power_sum


@pytest.mark.parametrize("s", [9, 10, 11, 12])
def test_ties_at_large_supports_keep_the_whole_support(counting_lq, monkeypatch, s):
    # L1 at p = 1 on signed dyadic coordinates: every partition's power sum is
    # the same exact float, so each remainder keeps its first candidate, itself
    rng = np.random.default_rng(s)
    X = np.zeros((3, 12))
    for row in X:
        atoms = rng.choice(12, size=s, replace=False)
        row[atoms] = 2.0 ** rng.integers(-4, 4, size=s) * rng.choice([-1.0, 1.0], size=s)
    N = counting_lq(1, 12)
    for row in X:
        assert renorm_exact(N, 1.0, row).witness.to_lists() == [np.flatnonzero(row).tolist()]
    # a cap of exactly three rows' block rows makes the three one chunk of the DP
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 3 * (1 << s) * 12)
    N = counting_lq(1, 12)
    batch = renorm_batch(N, 1.0, X)
    assert N.calls == [3 << s]
    assert [batch.witness(i).to_lists() for i in range(3)] == [[np.flatnonzero(row).tolist()] for row in X]
    _assert_rows_are_one_row_calls(N, 1.0, X, batch)


@pytest.mark.parametrize("s", range(9))
def test_dp_tables_list_each_masks_blocks_down_its_column(s):
    tables = _dp_tables(s)
    assert tables.bits.tolist() == [[m >> i & 1 == 1 for i in range(s)] for m in range(1 << s)]
    assert len(tables.layers) == s
    for k, (masks, blocks) in enumerate(tables.layers, start=1):
        layer = [m for m in range(1 << s) if m.bit_count() == k]  # ascending
        assert masks.dtype == blocks.dtype == np.uint16
        assert masks.tolist() == layer
        assert blocks.shape == (1 << (k - 1), len(layer)) and blocks.flags.c_contiguous
        for j, m in enumerate(layer):
            # the submasks of m holding its lowest atom, in descending order
            assert blocks[:, j].tolist() == [B for B in range(m, 0, -1) if B & m == B and B & m & -m]
            assert tables.pos[m] == j
    for a in (tables.bits, tables.pos, *(a for layer in tables.layers for a in layer)):
        assert not a.flags.writeable


def test_l2_matching_exponent_is_identity():
    # additive power sums make every partition equal the q-norm
    N = LqNorm(2, 6)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_vector(rng, 6)
        res = renorm_exact(N, 2.0, x)
        assert res.value == pytest.approx(N(x), rel=1e-12)


def test_p1_singleton_closed_form():
    # at p = 1 the triangle inequality makes singletons optimal
    rng = np.random.default_rng(7)
    for N, _ in BUILTINS:
        for _ in range(5):
            x = random_vector(rng, 8, support_size=5)
            singles = sum(
                N(LatticeVector(np.eye(8)[i] * x.coords[i])) for i in x.support()
            )
            res = renorm_exact(N, 1.0, x)
            assert res.value == pytest.approx(singles, rel=1e-9)


def test_linf_renorm_p2_equals_l2():
    # singleton blocks turn the sup norm renorm into the 2-norm
    N = LqNorm(float("inf"), 5)
    x = LatticeVector([3.0, -4.0, 0.0, 1.0, 2.0])
    res = renorm_exact(N, 2.0, x)
    assert res.value == pytest.approx(math.sqrt(9 + 16 + 1 + 4), rel=1e-12)
    assert res.witness.to_lists() == [[0], [1], [3], [4]]


def test_homogeneity():
    N = LqNorm(3, 6)
    rng = np.random.default_rng(1)
    x = random_vector(rng, 6, support_size=5)
    v1 = renorm_exact(N, 1.5, x).value
    v2 = renorm_exact(N, 1.5, 3.0 * x).value
    assert v2 == pytest.approx(3.0 * v1, rel=1e-12)


def test_permutation_invariance():
    # Lq norms are symmetric, so relabeling atoms preserves the value
    N = LqNorm(1, 6)
    x = LatticeVector([1.0, -2.0, 0.5, 0.0, 3.0, 0.0])
    perm = [4, 0, 3, 5, 1, 2]
    xp = LatticeVector(x.coords[perm])
    a = renorm_exact(N, 2.0, x).value
    b = renorm_exact(N, 2.0, xp).value
    assert a == pytest.approx(b, rel=1e-12)


def test_support_cap():
    N = LqNorm(2, 20)
    x = LatticeVector(np.arange(1.0, 21.0))
    with pytest.raises(SupportTooLarge):
        renorm_exact(N, 2.0, x)
    # dispatch falls back to the heuristic instead
    res = renorm(N, 2.0, x)
    assert res.method == "heuristic"


def test_dispatch_uses_exact_for_small_support():
    N = LqNorm(2, 20)
    x = LatticeVector(np.eye(20)[3] * 2.0)
    assert renorm(N, 2.0, x).method == "exact"


def _same(a, b) -> bool:
    return (a.value, a.power_sum, a.witness.to_lists()) == (b.value, b.power_sum, b.witness.to_lists())


def test_heuristic_never_exceeds_exact():
    rng = np.random.default_rng(9)
    for N, p in BUILTINS:
        for s in [1, 2, *rng.integers(1, 9, size=10).tolist()]:
            x = random_vector(rng, 8, support_size=s)
            ex = renorm_exact(N, p, x)
            he = renorm_heuristic(N, p, x, seed=5)
            assert he.power_sum <= ex.power_sum
            assert he.value <= ex.value
            # one atom has no neighbour partition; two atoms have one, and
            # both searches keep the one block in a tie
            assert s > 2 or _same(he, ex)
    tie = LatticeVector([0.5, 0.25] + [0.0] * 6)  # at p = 1 both partitions of L1 tie exactly
    he = renorm_heuristic(LqNorm(1, 8), 1.0, tie)
    assert _same(he, renorm_exact(LqNorm(1, 8), 1.0, tie)) and he.witness.to_lists() == [[0, 1]]
    # above the default threshold, against the raised-threshold DP
    pairs = BlockNorm([[2 * i, 2 * i + 1] for i in range(8)], [LqNorm(1, 2)] * 8, LqNorm(float("inf"), 8))
    for N in (LqNorm(3, 16), pairs):
        for s in (13, 14):
            for p in (1.5, 2.0):
                x = random_vector(rng, 16, support_size=s)
                ex = renorm_batch(N, p, [x], threshold=14).result(0)
                he = renorm_heuristic(N, p, x, seed=5)
                assert he.method == "heuristic" and ex.method == "exact"
                assert he.power_sum <= ex.power_sum
                assert he.value <= ex.value


def test_heuristic_on_zero():
    res = renorm_heuristic(LqNorm(2, 4), 2.0, LatticeVector.zeros(4))
    assert res.value == 0.0 and res.method == "heuristic"


def test_rejects_bad_p():
    N = LqNorm(2, 3)
    x = LatticeVector([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        renorm_exact(N, 0.5, x)
    with pytest.raises(ValueError):
        renorm_exact(N, float("inf"), x)


@pytest.mark.parametrize("p", [True, np.bool_(True), "2", None])
def test_batch_rejects_non_number_p(p):
    # True used to run at p = 1
    with pytest.raises(ValueError, match="exponent p must be a number"):
        renorm_batch(LqNorm(2, 3), p, np.eye(3))


@pytest.mark.parametrize("blocks", [[[0], [0, 1]], [[0]], [[0], [1], [2]], [[0, 1], []], [[0.9, 1.2]], [[True, 0]],
                                    [0, 1]])
def test_power_sum_rejects_blocks_that_do_not_partition_the_support(blocks):
    # overlapping blocks, a missed support atom, an atom off the support, an empty block,
    # non-integer atoms, which int() once truncated to the witness [[0, 1]], and bare
    # atoms, which used to raise TypeError
    with pytest.raises(ValueError):
        partition_power_sum(LqNorm(2, 4), 4.0, LatticeVector([1.0, 1.0, 0.0, 0.0]), blocks)


@pytest.mark.parametrize("threshold", [True, 1.5, "a", None])
def test_batch_threshold_is_an_integer(threshold):
    # True and 1.5 used to run as 1, "a" and None to raise numpy's or Python's TypeError
    with pytest.raises(ValueError, match="threshold must be an integer, got "):
        renorm_batch(LqNorm(2, 3), 2.0, np.eye(3), threshold=threshold)
    assert renorm_batch(LqNorm(2, 3), 2.0, np.eye(3), threshold=np.int64(-1)).result(0).method == "heuristic"


def test_power_sum_canonicalizes_block_order():
    N, x = LqNorm(2, 4), LatticeVector([1.0, 2.0, 0.0, 3.0])
    assert partition_power_sum(N, 3.0, x, [[3, 0], [1]]) == partition_power_sum(N, 3.0, x, [[0, 3], [1]])
    assert partition_power_sum(N, 3.0, LatticeVector.zeros(4), []) == 0.0


def test_entry_points_gate_their_vector():
    N = LqNorm(2, 4)
    for entry in (renorm, renorm_exact, renorm_heuristic):
        for short in (LatticeVector([1.0, 2.0]), [1.0, 2.0]):
            with pytest.raises(DimensionMismatch):
                entry(N, 2.0, short)
        with pytest.raises(ValueError, match="finite"):
            entry(N, 2.0, [1.0, math.nan, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        partition_power_sum(N, 2.0, LatticeVector([1.0, 2.0]), [[0, 1]])


def test_batch_gates_the_width_of_its_rows():
    with pytest.raises(DimensionMismatch, match=r"^expected rows of 4 coordinates, got shape \(2, 3\)$"):
        renorm_batch(LqNorm(2, 4), 2.0, np.zeros((2, 3)))


def test_renorm_accepts_coordinate_lists():
    # the dispatcher used to read x.coords before the row gate
    N = LqNorm(3, 16)
    rng = np.random.default_rng(19)
    for s in (3, 12, 13):
        x = random_vector(rng, 16, s)
        assert renorm(N, 2.0, x.to_list(), seed=1) == renorm(N, 2.0, x, seed=1)


def test_superadditivity_check():
    N = LqNorm(1, 6)
    x = LatticeVector([1.0, -2.0, 0.0, 0.0, 0.0, 0.0])
    y = LatticeVector([0.0, 0.0, 0.5, 0.0, 3.0, 0.0])
    chk = check_superadditivity(N, 2.0, x, y)
    assert chk.passed
    assert chk.slack >= -1e-12
    with pytest.raises(ValueError):
        check_superadditivity(N, 2.0, x, x)


def test_superadditivity_check_accepts_coordinate_lists():
    N = LqNorm(1, 6)
    x = LatticeVector([1.0, -2.0, 0.0, 0.0, 0.0, -0.0])
    y = LatticeVector([0.0, 0.0, 0.5, 0.0, 3.0, -0.0])
    assert check_superadditivity(N, 2.0, x.to_list(), y.to_list()) == check_superadditivity(N, 2.0, x, y)


@pytest.mark.parametrize("p", [2, np.int64(2), np.float64(2.0)])
def test_superadditivity_check_records_the_gated_exponent(p):
    # an int p used to be recorded as given; every other report's p is a float
    chk = check_superadditivity(LqNorm(2, 4), p, [1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0])
    assert type(chk.p) is float and chk.p == 2.0


def test_superadditivity_check_gates_its_pair():
    N = LqNorm(1, 4)
    x = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="family is not pairwise disjoint"):
        check_superadditivity(N, 2.0, x, [0.5, 0.5, 0.0, 0.0])
    for short in ([0.0, 1.0], LatticeVector([0.0, 1.0])):
        with pytest.raises(DimensionMismatch):
            check_superadditivity(N, 2.0, x, short)


def test_superadditivity_random_pairs():
    rng = np.random.default_rng(13)
    N = LqNorm(float("inf"), 8)
    for _ in range(50):
        x, y = random_disjoint_pair(rng, 8)
        assert check_superadditivity(N, 2.0, x, y).passed


def test_equivalence_audit_l2():
    # for Lq(2) with p = 2 the renorm equals the base norm, so C = 1
    audit = audit_equivalence(LqNorm(2, 8), 2.0, 1.0, samples=300, seed=2)
    assert audit.passed
    assert audit.lower_violations == 0
    assert audit.upper_violations == 0


def test_equivalence_audit_flags_small_c():
    # C below the true constant must produce upper violations
    audit = audit_equivalence(LqNorm(float("inf"), 8), 2.0, 1.05, samples=300, seed=2)
    assert audit.upper_violations > 0
    assert not audit.passed
    # so must a C below 1, where the claimed upper bound is under the lower one
    assert not audit_equivalence(LqNorm(2, 6), 2.0, 0.9, samples=5).passed


def test_equivalence_audit_fails_a_nan_oracle(nan_lq):
    # nan > REL_TOL is False: every sample used to count as no violation
    audit = audit_equivalence(nan_lq(2, 4), 2.0, 1.5, samples=20)
    assert not audit.passed
    assert (audit.lower_violations, audit.upper_violations) == (20, 20)
    assert math.isnan(audit.worst_lower_excess) and math.isnan(audit.worst_upper_excess)


def test_equivalence_audit_needs_a_sample():
    # no samples used to pass with worst excesses of -inf
    with pytest.raises(ValueError, match="samples"):
        audit_equivalence(LqNorm(2, 4), 2.0, 1.5, samples=0)


@pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0, True, np.bool_(True)])
def test_equivalence_audit_rejects_bad_constant(C):
    # NaN and -1 used to pass, 0 divided by zero, True ran at C = 1
    with pytest.raises(ValueError, match="C must be"):
        audit_equivalence(LqNorm(2, 6), 2.0, C, samples=5)


def test_batch_rejects_non_finite_rows():
    N = LqNorm(2, 3)
    with pytest.raises(ValueError) as from_vector:
        LatticeVector([math.inf, 0.0, 0.0])
    message = str(from_vector.value)
    with pytest.raises(ValueError) as from_batch:
        renorm_batch(N, 2.0, np.array([[1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]))
    assert str(from_batch.value) == message
    # differences of finite elements can overflow, and the error says so
    seq = [LatticeVector([1e308, 0.0, 0.0]), LatticeVector([-1e308, 0.0, 0.0])]
    with pytest.raises(ValueError) as from_pairs:
        measure_separation(seq, N, 2.0)
    assert str(from_pairs.value) == "a pairwise difference x_n - x_m overflows binary64"


def test_batch_of_no_rows():
    batch = renorm_batch(LqNorm(2, 3), 2.0, np.zeros((0, 3)))
    assert len(batch) == 0 and batch.values == []


def test_threshold_is_at_most_16():
    # the DP's masks are uint16: a 17-atom mask would wrap
    N, X = LqNorm(2, 4), np.array([[0.5, -1.0, 0.25, 2.0]])
    with pytest.raises(ValueError, match="^threshold must be at most 16, got 17$"):
        renorm_batch(N, 2.0, X, threshold=17)
    assert renorm_batch(N, 2.0, X, threshold=16).result(0) == renorm_exact(N, 2.0, X[0])
    assert all(a.dtype == np.uint16 for layer in _dp_tables(4).layers for a in layer)


def _assert_rows_are_one_row_calls(N, p, X, batch):
    """Every row's value, power sum, method and witness bit for bit as its one-row ``renorm_exact``."""
    for i, row in enumerate(X):
        one = renorm_exact(N, p, LatticeVector(row))
        got = batch.values[i].hex(), batch.power_sums[i].hex(), batch.methods[i], batch.witness(i).to_lists()
        assert got == (one.value.hex(), one.power_sum.hex(), one.method, one.witness.to_lists())
        assert batch.result(i) == one


def test_batch_splits_large_groups(counting_lq):
    # 17 rows at s = 10 on dim 12 hold 2^10 * 12 = 12,288 entries each: five fit
    # in the 2^16-entry cap of one call, so the group is split 5, 5, 5, 2
    N = counting_lq(3, 12)
    rng = np.random.default_rng(21)
    X = np.stack([random_vector(rng, 12, 10).coords for _ in range(17)])
    batch = renorm_batch(N, 2.0, X)
    assert N.calls == [5 << 10] * 3 + [2 << 10]
    assert max(N.entries) <= norms._MAX_CALL_ENTRIES
    _assert_rows_are_one_row_calls(N, 2.0, X, batch)


def test_batch_packs_every_support_size_into_one_values_call(counting_lq):
    # support sizes 0 to 10, three rows each, in mixed order: 3 * (2^11 - 1) block
    # rows of dim 10, 61,410 entries, within the cap of one call
    N = counting_lq(3, 10)
    rng = np.random.default_rng(29)
    sizes = [s for _ in range(3) for s in (7, 0, 3, 10, 1, 5, 2, 9, 4, 8, 6)]
    X = np.stack([random_vector(rng, 10, s).coords if s else np.zeros(10) for s in sizes])
    batch = renorm_batch(N, 2.0, X)
    assert N.calls == [3 * ((1 << 11) - 1)]
    _assert_rows_are_one_row_calls(N, 2.0, X, batch)


@pytest.mark.parametrize("small,calls", [(16, [(16 << 6) + (3 << 10)]), (17, [17 << 6, 3 << 10])])
def test_batch_packs_chunks_up_to_the_cap(counting_lq, small, calls):
    # on dim 16, 3 rows at s = 10 (49,152 entries) share a call with 16 rows at
    # s = 6 (1,024 entries each), which fills the 2^16-entry cap, but not with 17
    N = counting_lq(2, 16)
    rng = np.random.default_rng(31)
    X = np.stack([random_vector(rng, 16, 10).coords for _ in range(3)]
                 + [random_vector(rng, 16, 6).coords for _ in range(small)])
    batch = renorm_batch(N, 1.5, X)
    assert N.calls == calls
    _assert_rows_are_one_row_calls(N, 1.5, X, batch)


def test_stacked_calls_stay_within_the_entries_cap(counting_lq):
    # on dim 64 a row at s = 10 has 2^10 * 64 = 2^16 entries of block rows, so each
    # is a call of its own (a row cap stacked all 40 in one 2.6M-entry call); a row
    # at s = 11, 2^17 entries, is a lone chunk past the cap, the one exception
    N = counting_lq(2, 64)
    rng = np.random.default_rng(37)
    X = np.stack([random_vector(rng, 64, s).coords for s in [10] * 40 + [11] * 2])
    renorm_batch(N, 2.0, X)
    assert N.entries == [1 << 16] * 40 + [1 << 17] * 2
    # verify's families on dim 64 stack into several calls, each within the cap
    N = counting_lq(2, 64)
    verify_lower_r_estimate(N, 3.0, 1.0, trials=400, seed=1)
    assert len(N.calls) > 1 and max(N.entries) <= norms._MAX_CALL_ENTRIES


def test_mask_terms_scores_every_chunk_in_one_call(counting_lq):
    # chunks of K in {1, 3} rows at s in {2, 5}, masks as bool or as uint8 (the
    # local search's), and one chunk of 400 masks x 3 rows x dim 64 = 76,800
    # entries, past the cap: _mask_terms makes one call, and packing is the caller's
    class Keep(counting_lq):
        def values(self, X):
            self.Z = X.copy()
            return super().values(X)

    N, p = Keep(3, 64), 2.5
    rng = np.random.default_rng(47)

    def chunk(K, s, bits):
        supp = np.stack([np.sort(rng.choice(64, s, replace=False)) for _ in range(K)])
        return random_coords(rng, K * s).reshape(K, s), supp, bits

    every = [((np.arange(1 << s)[:, None] >> np.arange(s)) & 1).astype(bool) for s in (2, 5)]
    chunks = [
        chunk(1, 2, every[0]),
        chunk(3, 5, every[1]),
        chunk(3, 2, rng.integers(0, 2, (3, 2)).astype(np.uint8)),
        chunk(3, 5, rng.integers(0, 2, (400, 5)).astype(bool)),
        chunk(1, 5, every[1][::-1]),
    ]
    chunks[1] = (-np.abs(chunks[1][0]), *chunks[1][1:])  # every coordinate negative
    sizes = [len(bits) * len(vals) for vals, _, bits in chunks]
    assert sizes[3] * N.dim > norms._MAX_CALL_ENTRIES
    terms = _mask_terms(N, p, chunks)
    assert N.calls == [sum(sizes)]
    alone = [_mask_terms(LqNorm(3, 64), p, [c])[0] for c in chunks]
    assert [(t.shape, t.tobytes()) for t in terms] == [(a.shape, a.tobytes()) for a in alone]
    # the block rows: row r under mask m holds x_r on the mask's atoms and a zero
    # of x_r's sign on the other support atoms, -0.0 under a negative coordinate
    at = 0
    for (vals, supp, bits), n in zip(chunks, sizes):
        Z = N.Z[at : at + n].reshape(len(bits), len(vals), N.dim)
        at += n
        for m, r in np.ndindex(len(bits), len(vals)):
            on, off = supp[r][bits[m] == 1], supp[r][bits[m] == 0]
            assert Z[m, r, on].tolist() == vals[r][bits[m] == 1].tolist()
            assert np.array_equal(np.signbit(Z[m, r, off]), vals[r][bits[m] == 0] < 0)
            assert not Z[m, r, off].any() and not np.delete(Z[m, r], supp[r]).any()
    negative = N.Z[sizes[0] : sum(sizes[:2])]  # each of its 3 x 5 atoms is off the block under 16 of the 32 masks
    assert np.count_nonzero((negative == 0) & np.signbit(negative)) == 3 * 5 * 16


def _signed_row(dim, s, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros(dim)
    x[rng.choice(dim, s, replace=False)] = rng.uniform(0.1, 1.0, s) * rng.choice([-1.0, 1.0], s)
    return x


def _result_bits(r):
    return r.value.hex(), r.power_sum.hex(), r.witness.to_lists(), r.method


def test_one_row_exact_renorm_scores_its_block_rows_on_the_support(counting_lq, monkeypatch):
    # the scatter path: an oracle that overrides ``values`` has no support form
    # of its own, so its 2^10 block rows are written at full dim
    x = _signed_row(1024, 10, seed=5)
    scatter = counting_lq(3, 1024)
    want = renorm_exact(scatter, 2.0, x)
    assert scatter.entries == [(1 << 10) * 1024]
    # LqNorm's own support form makes no full-dim ``values`` call
    calls = []
    values = LqNorm.values
    monkeypatch.setattr(LqNorm, "values", lambda self, X: calls.append(X.shape) or values(self, X))
    got = renorm_exact(LqNorm(3, 1024), 2.0, x)
    assert calls == [] and _result_bits(got) == _result_bits(want)


@pytest.mark.parametrize("q", [1, 1.5, 3, "inf"])
@pytest.mark.parametrize("dim, s", [(24, 9), (24, 16), (300, 12), (300, 20)])
def test_support_rows_give_the_scatter_paths_results(counting_lq, monkeypatch, q, dim, s):
    # exact rows (s <= 12) and local searches, each step a support call; the
    # lane routine forced on every call against the scatter path at full dim
    x = _signed_row(dim, s, seed=dim + s)
    blocks = [[a for a in np.flatnonzero(x) if a % 3 == k] for k in range(3)]
    N = counting_lq(q, dim)
    want = renorm(N, 2.0, x), partition_power_sum(N, 2.0, LatticeVector(x), blocks)
    monkeypatch.setattr(norms, "_LANE_SUMS_ENTRIES", 0)
    N = LqNorm(q, dim)
    got = renorm(N, 2.0, x), partition_power_sum(N, 2.0, LatticeVector(x), blocks)
    assert (_result_bits(got[0]), got[1].hex()) == (_result_bits(want[0]), want[1].hex())


# sha256 over (value.hex(), power_sum.hex(), witness) of two seeded signed rows
# at each support size 0 to 12, recorded before the DP tables were transposed
@pytest.mark.parametrize("N,p,digest", [
    (LqNorm(3, 24), 2.0, "2fa17760af5213ded6eb1e087ecb434836d7463df624dd51ab3212922f3ea3ab"),
    (BlockNorm([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)], [LqNorm(2, 3)] * 8, LqNorm(1, 8)), 3.0,
     "e74e64d71eefaea0d9791c01e4c52a804629495115edfbb292ce0c346199c5ad"),
    (PosNegMaxNorm(LqNorm(1.5, 24)), 2.0, "324c3de245bc27c74cdec90e1a891cc851909e184996ac5104170179de1d05a2"),
])
def test_exact_rows_are_pinned_bit_for_bit(N, p, digest):
    rng = np.random.default_rng(2024)
    X = np.zeros((26, 24))
    for i, row in enumerate(X):
        s = i // 2  # two rows at each support size
        row[rng.choice(24, size=s, replace=False)] = rng.uniform(0.1, 1.0, s) * np.where(rng.random(s) < 0.5, -1, 1)

    def sha(results):
        text = repr([(v.hex(), total.hex(), w.to_lists()) for v, total, w in results])
        return hashlib.sha256(text.encode()).hexdigest()

    batch = renorm_batch(N, p, X)
    assert sha((batch.values[i], batch.power_sums[i], batch.witness(i)) for i in range(len(X))) == digest
    assert sha((r.value, r.power_sum, r.witness) for r in (renorm_exact(N, p, row) for row in X)) == digest


def test_batch_with_zero_rows_matches_scalar_bit_for_bit():
    # zero rows among rows of the DP's support sizes and two above the threshold
    N = LqNorm(3, 16)
    rng = np.random.default_rng(17)
    sizes = [0, 1, 0, 2, 3, 0, 5, 8, 0, 12, 13, 0, 14, 4, 0, 0]
    X = np.stack([random_vector(rng, 16, s).coords if s else np.zeros(16) for s in sizes])
    batch = renorm_batch(N, 2.0, X, seed=2)
    for i, row in enumerate(X):
        one = renorm(N, 2.0, LatticeVector(row), seed=2)
        got = batch.values[i].hex(), batch.power_sums[i].hex(), batch.witness(i).to_lists(), batch.methods[i]
        assert got == (one.value.hex(), one.power_sum.hex(), one.witness.to_lists(), one.method)
        assert batch.result(i) == one


@pytest.mark.parametrize("N,p", [
    (LqNorm(3, 8), 1.5),
    (WeightedLqNorm(3, _WEIGHTS), 2.0),
    (_PAIRS, 1.5),
    (PosNegMaxNorm(LqNorm(1.5, 8)), 2.0),
])
def test_witnesses_replay_on_negative_coordinates(N, p):
    # every support atom negative: the block rows of the DP and the local
    # search hold -0.0 or 0.0 off their block, the replay's rows 0.0
    rng = np.random.default_rng(23)
    for s in (2, 5, 8):
        x = LatticeVector(-np.abs(random_vector(rng, 8, s).coords))
        for res in (renorm_exact(N, p, x), renorm_heuristic(N, p, x, seed=1)):
            assert partition_power_sum(N, p, x, res.witness.to_lists()) == res.power_sum


@pytest.mark.parametrize("seed", [0, 5])
def test_batch_heuristic_row_is_the_scalar_local_search(seed):
    # at threshold -1 every row takes the local search, the zero row included
    N = BlockNorm([[2 * i, 2 * i + 1] for i in range(12)], [LqNorm(1, 2)] * 12, LqNorm(3, 12))
    rng = np.random.default_rng(seed)
    X = np.stack([random_vector(rng, 24, s).coords if s else np.zeros(24) for s in (0, 1, 5, 13, 20)])
    for threshold, rows in ((6, (3, 4)), (-1, range(5))):
        batch = renorm_batch(N, 2.5, X, threshold=threshold, seed=seed)
        for i in rows:
            one = renorm_heuristic(N, 2.5, LatticeVector(X[i]), seed=seed)
            assert batch.methods[i] == "heuristic"
            assert (batch.values[i].hex(), batch.power_sums[i].hex()) == (one.value.hex(), one.power_sum.hex())
            assert batch.result(i) == one


@pytest.mark.parametrize("n", [2, 63, 64, 100])
def test_random_cut_is_a_uniform_proper_submask(n):
    rng = np.random.default_rng(11)
    draws = [_random_cut(rng, n) for _ in range(400)]
    full = (1 << n) - 1
    assert all(0 < r < full for r in draws)
    if n < 64:  # the one rng.integers draw, so earlier results stay reproducible
        ref = np.random.default_rng(11)
        assert draws == [int(ref.integers(1, full)) for _ in range(400)]
    # each atom falls on either side of the cut about half the time (6 sigma)
    ones = [sum(r >> j & 1 for r in draws) for j in range(n)]
    assert 140 <= min(ones) and max(ones) <= 260


def test_heuristic_beyond_64_atoms():
    # a 64-atom block used to overflow the int64 cut draw; at q = 3 > p the
    # singletons win, so the one-block start splits all the way down
    x = LatticeVector(np.linspace(0.1, 1.0, 64))
    N = LqNorm(3, 64)
    res = renorm(N, 2.0, x)
    assert res.method == "heuristic"
    assert res.value >= N(x)
    assert partition_power_sum(N, 2.0, x, res.witness.to_lists()) == res.power_sum
    # bit for bit as recorded, past the int64 cut draw and with masks wider than 63 bits
    assert (res.value.hex(), res.power_sum.hex()) == ("0x1.385686369307bp+2", "0x1.7d130463796abp+4")
    assert res.witness.to_lists() == [[j] for j in range(64)]


def test_heuristic_on_70_signed_atoms_is_pinned():
    # the byte cut draw of _random_cut on a 70-atom row, value and witness as recorded
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 1, 70) * np.where(rng.random(70) < 0.5, -1.0, 1.0)
    res = renorm_heuristic(PosNegMaxNorm(LqNorm(1.5, 70)), 2.0, x, seed=1)
    assert (res.value.hex(), res.power_sum.hex()) == ("0x1.1ea7e08bae34bp+3", "0x1.40fb87ced46fbp+6")
    first = [0, 1, 2, 3, 9, 13, 14, 15, 17, 18, 20, 22, 23, 24, 25, 26, 31, 32, 35, 37, 40, 46, 47,
             48, 49, 50, 51, 52, 53, 54, 59, 61, 62, 66, 69]
    assert res.witness.to_lists() == [first, sorted(set(range(70)) - set(first))]


@pytest.mark.parametrize("iters", [1, 2])
def test_heuristic_witness_when_every_start_ends_on_a_step(monkeypatch, iters):
    # every start uses up its steps on an accepted move, so the witness holds
    # blocks that only that last move made current
    monkeypatch.setattr(sys.modules["ukklattice.renorm"], "_MAX_ITERS", iters)
    rng = np.random.default_rng(3)
    x = LatticeVector(rng.uniform(0.1, 1, 70) * np.where(rng.random(70) < 0.5, -1.0, 1.0))
    N = PosNegMaxNorm(LqNorm(1.5, 70))
    res = renorm_heuristic(N, 2.0, x, seed=1)
    blocks = res.witness.to_lists()
    assert sorted(j for b in blocks for j in b) == list(range(70))
    assert partition_power_sum(N, 2.0, x, blocks) == res.power_sum


def test_heuristic_work_is_pinned(counting_lq):
    # the rows of every N.values call of one s = 20 search, as recorded: a search
    # that evaluated a block twice or skipped one would change this list
    rng = np.random.default_rng(5)
    x = np.zeros(24)
    x[rng.choice(24, 20, replace=False)] = rng.uniform(0.1, 1, 20)
    N = counting_lq(3, 24)
    res = renorm_heuristic(N, 2.0, x, seed=0)
    assert res.value.hex() == "0x1.61de3e0142043p+1"
    assert N.calls == [39, 26, 52, 54, 52, 49, 44, 43, 42, 29, 35, 33, 20, 27, 35, 25, 22, 20, 6, 4,
                       103, 46, 25, 41, 21, 21, 19, 17, 17, 84, 23, 21, 21, 19, 17, 18, 15, 15, 14, 16,
                       62, 45, 26, 23, 18, 18, 15, 13, 13, 12, 113, 27, 24, 19, 18, 17, 12, 13]


# -- large p: block terms that under- or overflow binary64 ----------------
# On Lq(2, 6) and any p >= 2 the renorm of a vector is its norm.  At large p the
# terms N(block)^p of SMALL underflow to 0 and those of [2, 1, 0, ...] overflow.
# Each strict xfail asserts the right value and fails the suite once it holds.

SMALL = LatticeVector([0.05, 0.05, 0, 0, 0, 0])
SPIKE = LatticeVector([4, 1, 0, 0, 0, 0])


def test_exact_at_p100_is_the_base_norm():
    N = LqNorm(2, 6)
    assert renorm_exact(N, 100, SMALL).value == N(SMALL)


def test_lq_at_q200():
    N = LqNorm(200, 6)
    assert N(SPIKE) == 4.0
    assert N(SMALL) == pytest.approx(0.05 * 2 ** (1 / 200), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the terms underflow: the value is 0.0")
@pytest.mark.parametrize("p", [400, 1200])
def test_exact_at_large_p_is_the_base_norm(p):
    N = LqNorm(2, 6)
    assert renorm_exact(N, p, SMALL).value == pytest.approx(N(SMALL), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the terms underflow: the value is 0.0")
def test_heuristic_at_large_p_is_the_base_norm():
    N = LqNorm(2, 6)
    assert renorm_heuristic(N, 1200, SMALL, seed=0).value == pytest.approx(N(SMALL), rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="x_i^q overflows to inf or underflows to 0.0")
@pytest.mark.parametrize("x, value", [(SPIKE, 4.0), (SMALL, 0.05 * 2 ** (1 / 600))], ids=["spike", "small"])
def test_lq_at_q600(x, value):
    assert LqNorm(600, 6)(x) == pytest.approx(value, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1a: the q = 2 branch squares without scaling, so 1e300^2 overflows to inf")
def test_lq2_of_a_huge_coordinate():
    assert LqNorm(2, 2)([1e300, 0]) == pytest.approx(1e300, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1a: the q = 2 branch squares without scaling, so 1e-200^2 underflows to 0.0")
def test_lq2_of_a_tiny_coordinate_is_positive():
    assert LqNorm(2, 2)([1e-200, 0]) == pytest.approx(1e-200, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, raises=OverflowError, reason="the terms overflow")
def test_renorm_at_p1e6_without_overflow():
    assert renorm(LqNorm(2, 6), 1e6, [2, 1, 0, 0, 0, 0]).value == pytest.approx(math.sqrt(5), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the terms underflow: the value is 0.0")
def test_renorm_at_p1e6_without_underflow():
    assert renorm(LqNorm(2, 6), 1e6, [0.9, 0.3, 0, 0, 0, 0]).value == pytest.approx(math.sqrt(0.9), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=ZeroDivisionError, reason="the bump trial divides by a renorm of 0.0")
def test_bump_campaign_at_p1e6_finishes():
    assert run_bump_campaign(LqNorm(2, 12), 1e6, 3, horizon=8, seed=11).failed == 0


def test_lower_estimates_at_p100_and_p400():
    # K = 0.5 is below Lq(2)'s lower p-estimate constant, which is 1 at every p >= 2:
    # 196 of the 200 sampled families violate it
    for p in (100, 400):
        assert verify_lower_r_estimate(LqNorm(2, 6), p, 0.5, trials=200, seed=0) == 196
        assert estimate_lower_p_constant(LqNorm(2, 6), p, budget=20)[0] == 1.0


def test_verify_at_r1200_counts_every_violation():
    # the plain left side (sum N(x_i)^r)^(1/r) of 11 of these families underflows
    # to 0.0; their refold scaled by the largest member norm counts them too
    assert verify_lower_r_estimate(LqNorm(2, 6), 1200, 0.5, trials=200, seed=0) == 196


def _reference_violations(N, r, K, trials, seed):
    """``verify_lower_r_estimate``'s count on its own draws, each side in 50-digit ``mp_norm``."""
    rng = np.random.default_rng(seed)
    count = 0
    with mpmath.workdps(DPS):
        for X in verify_families(rng, N.dim, trials):
            lhs = mpmath.fsum(mp_norm(N, row) ** r for row in X.tolist()) ** (1 / mpmath.mpf(r))
            rhs = K * mp_norm(N, X.sum(axis=0).tolist())
            count += lhs > rhs + REL_TOL * abs(rhs) + ABS_TOL
    return count


@pytest.mark.parametrize("N, r, K, count", [(LqNorm(1, 8), 1200, 0.5, 76), (LqNorm(1, 8), 1200, 1.0, 0),
                                            (LqNorm(2, 12), 2000, 0.5, 187)], ids=["l1-half", "l1-one", "l2"])
def test_verify_where_the_terms_overflow_counts_every_violation(N, r, K, count):
    # terms N(x_i)^r above 2^1024 are inf; the refold scaled by the largest member
    # norm counts each family as the 50-digit reference does
    assert verify_lower_r_estimate(N, r, K, trials=200, seed=0) == count
    assert _reference_violations(N, r, K, 200, 0) == count


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="ROADMAP item 1a: the renorm candidates' block terms still overflow in _mask_terms")
def test_lower_p_constant_at_p1200_is_one():
    assert estimate_lower_p_constant(LqNorm(2, 6), 1200, budget=20)[0] == 1.0


def test_trial_with_an_overflowing_separation_is_invalid():
    # every element lies in the ball and every deviation from the limit is finite,
    # and the two moving elements are in flight, so the tracks settle; but the
    # separation's difference 1.7e308 - (-1.7e308) overflows
    N = WeightedLqNorm(2, [5e-309, 1, 1])
    seq = [[0.0, 0.0, 0.0]] * 6 + [[1.7e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0]]
    with np.errstate(over="ignore"):
        trial = run_ukk_trial(N, 2.0, seq, [0.0, 0.0, 0.0])
    assert not trial.valid
    assert trial.reason == "a pairwise difference x_n - x_m overflows binary64: separation not measured"


def test_separation_whose_difference_overflows_says_so():
    # the rows are finite; their difference is not, and the error names it rather
    # than the row gate's "coordinates must be finite reals"
    N = WeightedLqNorm(2, [5e-309, 1, 1])
    with pytest.raises(ValueError, match=r"^a pairwise difference x_n - x_m overflows binary64$"):
        measure_separation([[1.7e308, 0, 0], [-1.7e308, 0, 0]], N, 2.0)
    assert measure_separation([[1.7e308, 0, 0], [0, 0, 0]], N, 2.0).value > 0.0
