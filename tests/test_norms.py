import inspect
import json
import math

import numpy as np
import pytest
from reference import block_values

from ukklattice import (
    BlockNorm,
    LatticeVector,
    LqNorm,
    PosNegMaxNorm,
    WeightedLqNorm,
    audit_equivalence,
    audit_norm_axioms,
    estimate_lower_p_constant,
    estimate_two_disjoint_constant,
    generate_bump_sequence,
    neg_part,
    pos_part,
    renorm,
    renorm_batch,
    renorm_heuristic,
    run_bump_campaign,
    run_estimate_pipeline,
    run_ukk_trial,
    verify_lower_r_estimate,
)
from ukklattice import norms
from ukklattice.config import parse_norm_spec


def test_lq_values():
    x = LatticeVector([3.0, -4.0])
    assert LqNorm(1, 2)(x) == 7.0
    assert LqNorm(2, 2)(x) == 5.0
    assert LqNorm(float("inf"), 2)(x) == 4.0
    assert LqNorm("inf", 2)(x) == 4.0
    assert LqNorm(3, 2)(x) == pytest.approx((27 + 64) ** (1 / 3), rel=1e-15)


def test_lq_rejects_bad_exponent():
    with pytest.raises(ValueError):
        LqNorm(0.5, 3)
    with pytest.raises(ValueError):
        LqNorm(2, 0)


@pytest.mark.parametrize("q", [True, False, None, [2], "two", math.nan])
def test_exponent_must_be_a_number_or_inf(q):
    # a bool is not an exponent, although float(True) == 1.0 would pass q >= 1
    with pytest.raises(ValueError, match="q"):
        LqNorm(q, 3)
    with pytest.raises(ValueError, match="q"):
        WeightedLqNorm(q, [1.0, 2.0, 3.0])


def test_call_matches_batch():
    # __call__ must route through the batch path bit-for-bit
    N = LqNorm(1.7, 5)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 5))
    vals = N.values(X)
    for i in range(20):
        assert N(LatticeVector(X[i])) == vals[i]


def test_weighted_lq():
    N = WeightedLqNorm(1, [2.0, 0.5, 1.0])
    assert N(LatticeVector([1.0, 4.0, -3.0])) == 2.0 + 2.0 + 3.0
    Ninf = WeightedLqNorm(float("inf"), [2.0, 1.0])
    assert Ninf(LatticeVector([1.0, 1.5])) == 2.0
    with pytest.raises(ValueError):
        WeightedLqNorm(2, [1.0, -1.0])
    with pytest.raises(ValueError):
        WeightedLqNorm(2, [1.0, 0.0])


def test_block_norm_value():
    # l_inf outer over l1 pair blocks
    N = BlockNorm(
        [[0, 1], [2, 3]],
        [LqNorm(1, 2), LqNorm(1, 2)],
        LqNorm(float("inf"), 2),
    )
    assert N(LatticeVector([1.0, -1.0, 0.5, 0.0])) == 2.0
    assert N.dim == 4


def test_block_norm_validation():
    with pytest.raises(ValueError):
        BlockNorm([[0, 1], [1, 2]], [LqNorm(1, 2)] * 2, LqNorm(1, 2))
    with pytest.raises(ValueError):
        BlockNorm([[0], [2]], [LqNorm(1, 1)] * 2, LqNorm(1, 2))
    with pytest.raises(ValueError):
        BlockNorm([[0, 1]], [LqNorm(1, 3)], LqNorm(1, 1))


def test_pos_neg_max_norm():
    N = PosNegMaxNorm(LqNorm(1, 3))
    x = LatticeVector([1.0, -2.0, 3.0])
    # positive mass 4, negative mass 2
    assert N(x) == 4.0
    assert PosNegMaxNorm(LqNorm(1, 3))(x) == max(LqNorm(1, 3)(pos_part(x)), LqNorm(1, 3)(neg_part(x))) == 4.0
    # not 1-monotone: flipping a sign can change the value
    y = LatticeVector([1.0, 2.0, 3.0])
    assert N(y) == 6.0
    assert N.monotone_constant == 2.0


def test_monotone_constants():
    assert LqNorm(2, 4).monotone_constant == 1.0
    assert WeightedLqNorm(2, [1.0, 2.0]).monotone_constant == 1.0
    blk = BlockNorm([[0], [1]], [LqNorm(1, 1)] * 2, LqNorm(2, 2))
    assert blk.monotone_constant == 1.0


def test_describe_round_trip_fields():
    N = LqNorm(float("inf"), 3)
    d = N.describe()
    assert d["kind"] == "Lq" and d["q"] == "inf" and d["dim"] == 3
    d2 = LqNorm(2, 3).describe()
    assert d2["q"] == 2


def test_spec_fields_are_the_constructor_parameters():
    from ukklattice.norms import _KINDS, NormOracle

    assert set(_KINDS.values()) == set(NormOracle.__subclasses__())
    for kind, cls in _KINDS.items():
        assert cls.kind == kind
        assert cls.spec_fields == tuple(inspect.signature(cls).parameters), kind


@pytest.mark.parametrize("dim", [3.9, 2.0, True, np.bool_(True), "3", None])
def test_lq_dim_must_be_an_integer(dim):
    with pytest.raises(ValueError, match="dim must be an integer"):
        LqNorm(2, dim)


@pytest.mark.parametrize("atom", [1.7, 1.0, True, "1", np.float64(1.0)])
def test_block_atoms_must_be_integers(atom):
    with pytest.raises(ValueError, match="block atom must be an integer"):
        BlockNorm([[0, atom]], [LqNorm(1, 2)], LqNorm(1, 1))


def test_numpy_integers_are_sizes_and_atoms():
    N = LqNorm(2, np.int64(3))
    assert N.dim == 3 and type(N.describe()["dim"]) is int
    blk = BlockNorm([np.array([1, 0], dtype=np.int64), [np.int32(2)]], [LqNorm(1, 2), LqNorm(1, 1)], LqNorm(1, 2))
    assert blk.blocks == ((1, 0), (2,))
    described = blk.describe()["blocks"]
    assert described == [[1, 0], [2]]
    assert all(type(i) is int for b in described for i in b)
    assert blk(LatticeVector([1.0, -2.0, 4.0])) == 7.0


_N6 = LqNorm(2, 6)
# (argument, a call taking it): every count of work passes ``norms._count``
COUNT_CALLS = [
    ("samples", lambda v: audit_norm_axioms(_N6, samples=v)),
    ("samples", lambda v: audit_equivalence(_N6, 2.0, 1.5, samples=v)),
    ("max_support", lambda v: audit_equivalence(_N6, 2.0, 1.5, samples=3, max_support=v)),
    ("budget", lambda v: estimate_two_disjoint_constant(_N6, budget=v)),
    ("budget", lambda v: estimate_lower_p_constant(_N6, 2.0, budget=v)),
    ("trials", lambda v: verify_lower_r_estimate(_N6, 3.0, 2.0, trials=v)),
    ("trials", lambda v: run_bump_campaign(_N6, 2.0, v, horizon=2)),
    ("horizon", lambda v: run_bump_campaign(_N6, 2.0, 1, horizon=v)),
    ("horizon", lambda v: generate_bump_sequence(_N6, 2.0, [0.1] + [0.0] * 5, 0.2, horizon=v)),
]


@pytest.mark.parametrize("name,call", COUNT_CALLS)
@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.5, 2.0, "3", None, 0, -1])
def test_counts_are_integers_from_one(name, call, bad):
    # a bool used to run as 1 (or 0), a float to raise TypeError
    rule = "must be >= 1" if type(bad) is int else "must be an integer"
    with pytest.raises(ValueError, match=f"^{name} {rule}"):
        call(bad)


_X6 = LatticeVector([0.5, -0.25, 0.0, 0.75, 0.0, 0.0])
# (function, a call taking its seed): every public seed passes ``norms._seed``, on every path
SEED_CALLS = [
    ("renorm", lambda s: renorm(_N6, 2.0, _X6, seed=s)),
    ("renorm_heuristic", lambda s: renorm_heuristic(_N6, 2.0, _X6, seed=s)),
    ("renorm_batch", lambda s: renorm_batch(_N6, 2.0, [_X6], seed=s).result(0)),
    ("audit_norm_axioms", lambda s: audit_norm_axioms(_N6, samples=10, seed=s)),
    ("audit_equivalence", lambda s: audit_equivalence(_N6, 2.0, 1.5, samples=3, seed=s)),
    ("estimate_two_disjoint_constant", lambda s: estimate_two_disjoint_constant(_N6, budget=3, seed=s)),
    ("estimate_lower_p_constant", lambda s: estimate_lower_p_constant(_N6, 2.0, budget=3, seed=s)),
    ("verify_lower_r_estimate", lambda s: verify_lower_r_estimate(_N6, 3.0, 2.0, trials=3, seed=s)),
    ("run_estimate_pipeline", lambda s: run_estimate_pipeline(_N6, budget=3, seed=s)),
    ("run_ukk_trial", lambda s: run_ukk_trial(_N6, 2.0, [_X6, _X6], _X6, seed=s)),
    ("run_bump_campaign", lambda s: run_bump_campaign(_N6, 2.0, 1, seed=s, horizon=2)),
]


@pytest.mark.parametrize("name,call", SEED_CALLS)
@pytest.mark.parametrize("bad", [True, np.bool_(True), 1.5, "3", None, -1])
def test_seeds_are_nonnegative_integers(name, call, bad):
    # a bool used to run as seed 1 (and be reported as true), a float to raise numpy's TypeError
    rule = "a nonnegative integer" if type(bad) is int else "an integer"
    with pytest.raises(ValueError, match=f"^seed must be {rule}, got "):
        call(bad)


@pytest.mark.parametrize("name,call", SEED_CALLS)
def test_numpy_integer_seed_gives_the_int_seed_result(name, call):
    # a report used to carry the NumPy seed, which json.dumps rejects
    got, want = call(np.int64(3)), call(3)
    if hasattr(got, "to_dict"):
        got, want = json.dumps(got.to_dict()), json.dumps(want.to_dict())
    assert got == want


def test_numpy_integer_counts_are_reported_as_ints():
    audit = audit_equivalence(_N6, 2.0, 1.5, samples=np.int64(3), max_support=np.int32(2))
    assert (audit.samples, audit.max_support) == (3, 2)
    assert type(audit.samples) is int and type(audit.max_support) is int


@pytest.mark.parametrize(
    "N",
    [
        LqNorm(1, 6),
        LqNorm(2, 6),
        LqNorm(2.5, 6),
        LqNorm(float("inf"), 6),
        WeightedLqNorm(2, [0.5, 1.0, 2.0, 1.5, 3.0, 0.25]),
        BlockNorm([[0, 1], [2, 3], [4, 5]], [LqNorm(1, 2)] * 3, LqNorm(float("inf"), 3)),
        PosNegMaxNorm(LqNorm(2, 6)),
    ],
)
def test_audit_passes_on_builtins(N):
    report = audit_norm_axioms(N, samples=400, seed=11)
    assert report.passed, report.to_dict()
    assert report.zero_value == 0.0
    assert report.positivity_violations == 0


def test_audit_monotone_uses_kind_constant():
    # the pos/neg wrapper is only 2-monotone; the audit must use that
    # constant rather than flag expected behaviour as a violation
    N = PosNegMaxNorm(LqNorm(1, 4))
    report = audit_norm_axioms(N, samples=400, seed=3)
    assert report.monotone_constant == 2.0
    assert report.passed


def test_audit_catches_broken_oracle():
    class Broken(LqNorm):
        def values(self, X):
            return super().values(X) + 0.1  # violates homogeneity and N(0)=0

    report = audit_norm_axioms(Broken(2, 3), samples=100, seed=0)
    assert not report.passed
    assert report.zero_value > 0


def test_audit_fails_a_nan_oracle(nan_lq):
    # max(0.0, nan) is 0.0 and nan <= 0.0 is False: this oracle used to pass
    # with no positivity violation and every worst case 0.0
    report = audit_norm_axioms(nan_lq(2, 4), samples=100, seed=0)
    assert not report.passed
    assert (report.zero_value, report.positivity_violations) == (0.0, 100)
    assert all(math.isnan(v) for v in (report.homogeneity_violation, report.triangle_violation,
                                       report.monotonicity_violation))


AUDIT_SPACES = [
    LqNorm(2.5, 6),
    WeightedLqNorm(3, [0.5, 1.0, 2.0, 1.5, 3.0, 0.25]),
    BlockNorm([[0, 1], [2, 3, 4], [5]], [LqNorm(1, 2), LqNorm(3, 3), LqNorm(2, 1)], LqNorm(2, 3)),
    PosNegMaxNorm(LqNorm(1.5, 6)),
]


@pytest.mark.parametrize("N", AUDIT_SPACES, ids=["lq", "weighted", "block", "posneg"])
@pytest.mark.parametrize("rows", [0, 7, 64])
def test_audit_in_runs_is_the_whole_audit(monkeypatch, N, rows):
    want = json.dumps(audit_norm_axioms(N, samples=300, seed=5).to_dict())
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", rows * N.dim + N.dim - 1)  # runs of max(1, rows) rows
    assert json.dumps(audit_norm_axioms(N, samples=300, seed=5).to_dict()) == want


# at the default cap, 10^4 samples of dim 12 are two runs of at most 5461 rows
@pytest.mark.parametrize("cap, dim, samples, runs", [(None, 12, 10_000, 2), (40 * 6 + 5, 6, 300, 8)])
def test_audit_calls_stay_within_the_cap(counting_lq, monkeypatch, cap, dim, samples, runs):
    if cap is not None:
        monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", cap)
    N = counting_lq(2, dim)
    audit_norm_axioms(N, samples=samples, seed=2)
    # the zero row, then five calls a run
    assert len(N.calls) == 1 + 5 * runs and sum(N.calls) == 1 + 5 * samples
    assert max(N.entries) <= norms._MAX_CALL_ENTRIES


def test_audit_keeps_a_nan_that_first_shows_in_a_later_run(monkeypatch):
    class LateNan(LqNorm):
        calls = 0

        def values(self, X):
            self.calls += 1
            v = super().values(X)
            return v if self.calls <= 6 else np.where(v > 0.0, np.nan, v)  # NaN after the first run

    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 50 * 4)
    report = audit_norm_axioms(LateNan(2, 4), samples=100, seed=0)
    assert not report.passed and report.positivity_violations == 50
    assert all(math.isnan(v) for v in (report.homogeneity_violation, report.triangle_violation,
                                       report.monotonicity_violation))


def test_dim_mismatch_raises():
    from ukklattice import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        LqNorm(2, 3)(LatticeVector([1.0, 2.0]))
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0):
        with pytest.raises(DimensionMismatch):
            LqNorm(2, 3)(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_call_rejects_non_finite_coordinates(bad):
    # the row gate's error, not a nan or inf norm value
    with pytest.raises(ValueError, match="finite"):
        LqNorm(2, 4)([bad, 1.0, 0.0, 0.0])


def test_lq_large_q_stable():
    N = LqNorm(64, 3)
    v = N(LatticeVector([2.0, 2.0, 2.0]))
    assert math.isfinite(v)
    assert v == pytest.approx(2.0 * 3 ** (1 / 64), rel=1e-12)


def _lq_edge_rows() -> np.ndarray:
    """Rows that push numpy's float64 power off its fast path or to its edges."""
    rng = np.random.default_rng(7)
    rows = []
    for frac in (0.0, 0.25, 0.5, 0.75, 0.95):  # share of zero lanes
        X = rng.standard_normal((40, 20))
        X[rng.random(X.shape) < frac] = 0.0
        rows.append(X)
    rows.append(np.array([
        [-0.0, 0.0, -0.0, 1.5, -2.0] + [0.0] * 15,  # signed zeros
        [5e-324, -1e-310, 2.2e-308, 0.0, 3.0] + [0.0] * 15,  # subnormals
        [1e300, 1e300, 0.0, 1.0, 0.0] + [0.0] * 15,  # the power overflows to inf
        [math.inf, 0.0, 1.0, 0.0, 2.0] + [0.0] * 15,
        [math.nan, 0.0, 1.0, -0.0, 2.0] + [0.0] * 15,
        [0.0] * 20,
    ]))
    return np.vstack(rows)


@pytest.mark.parametrize("q", [1.5, 3.0, 7.25, 600.0])
def test_lq_kernel_matches_plain_power_bit_for_bit(q):
    # zero lanes are raised as 1 and zeroed after the power; the bits must not move
    X = _lq_edge_rows()
    # each row alone and the whole stack
    N = LqNorm(q, X.shape[1])
    with np.errstate(all="ignore"):
        want = (np.abs(X) ** q).sum(axis=1) ** (1.0 / q)
        for got in (N.values(X), np.concatenate([N.values(x[None]) for x in X])):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert got[ok].tobytes() == want[ok].tobytes()
            assert np.isinf(got).any() and np.isnan(got).any()
    # integer rows give the norms of the same float rows
    ints = np.zeros((X.shape[0], 20), dtype=np.int64)
    ints[:, 3] = 3
    assert N.values(ints).tobytes() == N.values(ints.astype(np.float64)).tobytes()
    # float32 rows give float64 norms, those of their float64 copies, at any batch size
    X32 = X[:200].astype(np.float32)
    with np.errstate(over="ignore"):
        want = N.values(X32.astype(np.float64))
        assert N.values(X32).dtype == np.float64 and N.values(X32).tobytes() == want.tobytes()
        assert np.concatenate([N.values(x[None]) for x in X32]).tobytes() == want.tobytes()


def _four_kinds(q, dim=6):
    """One oracle of each built-in kind at exponent ``q``, on ``dim`` atoms."""
    return [
        LqNorm(q, dim),
        WeightedLqNorm(q, [1.0 + 0.5 * i for i in range(dim)]),
        BlockNorm([[0, 1], [2, 3, 4], [5]], [LqNorm(q, 2), LqNorm(q, 3), LqNorm(q, 1)], LqNorm(q, 3)),
        PosNegMaxNorm(LqNorm(q, dim)),
    ]


@pytest.mark.parametrize("q", [1, 1.5, 2, "inf"])
def test_builtin_oracles_leave_their_input_alone(q):
    X = np.random.default_rng(4).standard_normal((50, 6))
    X[::7, 2] = 0.0
    for N in _four_kinds(q):
        for rows in (X, X[:1]):
            Y = rows.copy()
            got = N.values(Y)
            assert Y.tobytes() == rows.tobytes()
            Y.flags.writeable = False  # a write into the input raises
            assert N.values(Y).tobytes() == got.tobytes()
    # the q = 2 branch squares its own copy of |X| in place: the plain formula's bits
    A = np.abs(X)
    assert LqNorm(2, 6).values(X).tobytes() == np.sqrt((A * A).sum(axis=1)).tobytes()


# --- BlockNorm's grouped inner calls against the per-block loop ---------------


def _pairs(k):
    return [[2 * i, 2 * i + 1] for i in range(k)]


def _block_spaces():
    shared, wide = LqNorm(2.5, 2), LqNorm(1, 8)
    sub = BlockNorm([[0, 1], [2, 3, 4]], [LqNorm(1.5, 2), LqNorm(2, 3)], LqNorm(3, 2))
    return {
        # the bench's Block spaces, built from their specs: one inner oracle per block size
        "pairs-l1-sup": parse_norm_spec({"kind": "Block", "blocks": _pairs(10), "inner": {"kind": "Lq", "q": 1},
                                         "outer": {"kind": "Lq", "q": "inf", "dim": 10}}),
        "triples-l2-l1": parse_norm_spec({"kind": "Block", "blocks": [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)],
                                          "inner": {"kind": "Lq", "q": 2}, "outer": {"kind": "Lq", "q": 1, "dim": 8}}),
        "pairs-l1-l2": parse_norm_spec({"kind": "Block", "blocks": _pairs(6), "inner": {"kind": "Lq", "q": 1},
                                        "outer": {"kind": "Lq", "q": 2, "dim": 6}}),
        # mixed block sizes, the blocks out of atom order, a finite outer over 10 blocks
        "mixed-sizes": parse_norm_spec({"kind": "Block", "blocks": [[9, 0], [2, 3, 4], [5, 1], [6, 7, 8], [10],
                                                                    [11, 12], [13], [14, 15, 16], [17, 18], [19]],
                                        "inner": {"kind": "Lq", "q": 3}, "outer": {"kind": "Lq", "q": 1.5, "dim": 10}}),
        "shared-and-distinct": BlockNorm([[0, 1], [2, 3], [4, 5], [6, 7, 8]],
                                         [shared, LqNorm(2.5, 2), shared, LqNorm(2.5, 3)], LqNorm(1, 4)),
        # blocks of 8 and more atoms, which numpy sums pairwise when a row is contiguous
        "wide": BlockNorm([range(8), range(8, 16), range(16, 26), range(26, 36)],
                          [wide, wide, LqNorm(2, 10), LqNorm(2, 10)], LqNorm(2, 4)),
        "nested": BlockNorm(_pairs(3) + [[6, 7, 8], [9, 10, 11]] + [range(12 + 3 * i, 15 + 3 * i) for i in range(3)],
                            [PosNegMaxNorm(WeightedLqNorm(3, [0.5, 2.0]))] * 3
                            + [PosNegMaxNorm(LqNorm("inf", 3))] * 2 + [WeightedLqNorm("inf", [1.0, 3.0, 0.5])] * 3,
                            LqNorm(1.5, 8)),
        "nested-block": BlockNorm([range(5), range(5, 10), range(10, 15)], [sub] * 3, LqNorm(2, 3)),
    }


BLOCK_SPACES = _block_spaces()


def _block_rows(rows, dim, layout, seed=0):
    """Entries of one magnitude, so that the order of a sum shows in its bits, with
    signed zeros, infinities and NaNs on some rows; ``layout`` C, F or strided."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 1.0, (rows, dim)) * rng.choice([-1.0, 1.0], (rows, dim))
    X[::5, 0] = -0.0
    X[2::7, dim - 1] = 0.0
    X[3::11, dim // 2] = math.inf
    X[4::13, 1] = -math.inf
    X[5::17, dim - 2] = math.nan
    X[6::19] = -0.0
    if layout == "F":
        return np.asfortranarray(X)
    if layout == "strided":
        W = np.zeros((rows, 2 * dim))
        W[:, 1::2] = X
        return W[:, 1::2]
    return X


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("rows", [0, 1, 12, 66, 1024, 4096, 5461])
@pytest.mark.parametrize("space", BLOCK_SPACES)
def test_block_values_are_the_per_block_loop_bit_for_bit(space, rows, layout):
    N = BLOCK_SPACES[space]
    X = _block_rows(rows, N.dim, layout)
    got = N.values(X)
    assert got.shape == (rows,) and got.tobytes() == block_values(N, X).tobytes()


@pytest.mark.parametrize("space", BLOCK_SPACES)
def test_one_row_calls_keep_the_per_block_bits(space):
    # a one-row call sums each block's row as a contiguous row, pairwise from 8
    # atoms on, as the per-block loop does; many rows show what one cannot
    N = BLOCK_SPACES[space]
    X = _block_rows(100, N.dim, "C", seed=1)
    got = np.concatenate([N.values(X[i:i + 1]) for i in range(100)])
    assert got.tobytes() == np.concatenate([block_values(N, X[i:i + 1]) for i in range(100)]).tobytes()


def test_config_builds_one_inner_oracle_per_block_size():
    N = BLOCK_SPACES["mixed-sizes"]
    assert len({id(M) for M in N.inner}) == 3
    assert all(M is N.inner[0] for M, blk in zip(N.inner, N.blocks) if len(blk) == 2)
    listed = parse_norm_spec({"kind": "Block", "blocks": _pairs(2), "inner": [{"kind": "Lq", "q": 1, "dim": 2}] * 2,
                              "outer": {"kind": "Lq", "q": 1, "dim": 2}})
    assert listed.inner[0] is not listed.inner[1]  # a list of specs builds one oracle per block


def test_block_makes_one_inner_call_per_shared_oracle(counting_lq):
    a, b = counting_lq(1, 2), counting_lq(2, 3)
    N = BlockNorm([[0, 1], [2, 3, 4], [5, 6], [7, 8, 9], [10, 11]], [a, b, a, b, a], LqNorm(2, 5))
    X = _block_rows(12, 12, "C")
    got = N.values(X)
    assert a.calls == [36] and b.calls == [24]
    assert got.tobytes() == block_values(N, X).tobytes()
    # a large call goes in runs of at most _BLOCK_RUN_ENTRIES entries, each a whole number of blocks
    a.calls.clear(), a.entries.clear()
    N.values(np.ones((4096, 12)))
    assert a.calls == [8192, 4096] and max(a.entries) <= norms._BLOCK_RUN_ENTRIES


def test_nested_block_at_one_row_takes_its_many_row_bits():
    # A Block inner shared by both outer blocks sees the rows of both at once,
    # even in a one-row call.  Its own 8-atom blocks are summed in numpy's
    # pairwise row order whatever the operand's layout, so a one-row call reads
    # the bits that the same row has in any larger call and in the per-block loop.
    sub = BlockNorm([range(8), range(8, 16)], [LqNorm(1, 8)] * 2, LqNorm(1, 2))
    N = BlockNorm([range(16), range(16, 32)], [sub] * 2, LqNorm(1, 2))
    X = _block_rows(200, 32, "C", seed=3)
    many = block_values(N, X)
    assert N.values(X).tobytes() == many.tobytes()
    assert np.concatenate([N.values(X[i:i + 1]) for i in range(200)]).tobytes() == many.tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("rows", [0, 1, 12, 5461])
def test_sup_norm_is_the_row_max_of_abs(rows, layout):
    X = _block_rows(rows, 12, layout)
    X[7::23, 3:9] = math.nan  # NaN rows among the rest
    assert LqNorm("inf", 12).values(X).tobytes() == np.abs(X).max(axis=1).tobytes()


# --- one Lq summation order: the lane routine, support rows and layouts -------

# dims 1-300 cover every accumulator and tail length of numpy's pairwise sum and
# the first split past 128; 511 and 1024 split twice and three times
_LANE_DIMS = [*range(1, 301), 511, 1024]
_SPECIAL_LANES = {1: -0.0, 2: 5e-324, 3: -1e-310, 4: 1e300, 5: math.inf, 6: -math.inf, 7: math.nan, 8: 0.0}


def _support_rows(dim, rows, share, seed):
    """(V, atoms): ``rows`` rows on a random support of about ``share * dim`` atoms,
    lanes of every magnitude, and on rows 1-8 one special lane value each."""
    rng = np.random.default_rng(seed)
    atoms = np.flatnonzero(rng.random(dim) < share) if share < 1.0 else np.arange(dim)
    s = atoms.size
    V = rng.uniform(0.5, 1.0, (rows, s)) * rng.choice([-1.0, 1.0], (rows, s)) * 10.0 ** rng.integers(-6, 7, (rows, s))
    for row, v in _SPECIAL_LANES.items():
        V[row, row % 3::3] = v
    return V, atoms


def _laid_out(V, layout):
    if layout == "F":
        return np.asfortranarray(V)
    if layout == "strided":
        W = np.zeros((V.shape[0], 2 * V.shape[1]))
        W[:, ::2] = V
        return W[:, ::2]
    return np.ascontiguousarray(V)


def _full_rows(V, atoms, dim):
    Z = np.zeros((V.shape[0], dim))
    Z[:, atoms] = V
    return Z


@pytest.mark.parametrize("dim", _LANE_DIMS)
def test_lane_sums_are_numpys_contiguous_row_sums(dim):
    for share in (1.0, 0.5, 0.05):
        V, atoms = _support_rows(dim, 12, share, seed=dim)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.abs(_full_rows(V, atoms, dim)).sum(axis=1)  # C-ordered: numpy's pairwise row sum
            got = norms._lane_sums(np.abs(V, order="F"), atoms, dim)
        assert got.tobytes() == want.tobytes(), (dim, share)


class _HalfLq(LqNorm):
    """An Lq oracle at half the value: a subclass that overrides ``values`` alone."""

    def values(self, X):
        return 0.5 * super().values(X)


def _support_kinds(q, dim, nan_lq):
    """Every kind with a support form, ``Block``'s default and a subclass that overrides ``values``."""
    sizes = {n: LqNorm(q, n) for n in range(1, 10)}
    blocks = [range(i, min(i + 9, dim)) for i in range(0, dim, 9)]
    return [
        LqNorm(q, dim),
        WeightedLqNorm(q, [0.5 + (i % 7) / 4 for i in range(dim)]),
        PosNegMaxNorm(LqNorm(q, dim)),
        PosNegMaxNorm(WeightedLqNorm(q, [2.0 - (i % 5) / 4 for i in range(dim)])),
        PosNegMaxNorm(nan_lq(q, dim)),
        _HalfLq(q, dim),
        BlockNorm(blocks, [sizes[len(b)] for b in blocks], LqNorm(q, len(blocks))),
    ]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dim", [1, 5, 8, 13, 24, 100, 129, 300, 511, 1024])
@pytest.mark.parametrize("q", [1, 1.5, 2, 3, 7.5, "inf"])
def test_values_on_is_values_of_the_full_rows_bit_for_bit(monkeypatch, nan_lq, q, dim, layout):
    V, atoms = _support_rows(dim, 40, 0.3, seed=dim)
    kinds = _support_kinds(q, dim, nan_lq)
    rule = norms._LANE_SUMS_ENTRIES
    with np.errstate(invalid="ignore", over="ignore"):
        want = [N.values(_full_rows(V, atoms, dim)).tobytes() for N in kinds]  # the scatter path
        for entries in (1 << 62, rule, 0):  # the lane routine never, by the size rule, always
            monkeypatch.setattr(norms, "_LANE_SUMS_ENTRIES", entries)
            assert [N.values_on(_laid_out(V, layout), atoms).tobytes() for N in kinds] == want, entries


def test_a_subclass_that_overrides_values_keeps_the_default_values_on(counting_lq, nan_lq):
    for cls in (counting_lq, nan_lq, _HalfLq):
        assert cls.values_on is norms.NormOracle.values_on
    assert LqNorm.values_on is not norms.NormOracle.values_on
    N = counting_lq(3, 24)
    V, atoms = _support_rows(24, 4096, 0.5, seed=1)  # past the size rule: LqNorm's own form would sum the lanes
    with np.errstate(over="ignore"):
        got = N.values_on(V, atoms)
        assert N.calls == [4096] and N.entries == [4096 * 24]  # through ``values``, at full dim
        assert got.tobytes() == LqNorm(3, 24).values_on(V, atoms).tobytes()
        assert _HalfLq(3, 24).values_on(V, atoms).tobytes() == (0.5 * got).tobytes()


@pytest.mark.parametrize("q", [1, 1.5, 2, 3, 7.5, "inf"])
@pytest.mark.parametrize("dim", [6, 7, 8, 12, 24, 200])
@pytest.mark.parametrize("rows", [1, 7, 2000])
def test_lq_values_take_one_order_whatever_the_layout(q, dim, rows):
    N = LqNorm(q, dim)
    want = N.values(_block_rows(rows, dim, "C", seed=dim)).tobytes()
    for layout in ("F", "strided"):
        assert N.values(_block_rows(rows, dim, layout, seed=dim)).tobytes() == want, layout


_BAD_ATOMS = {"unsorted": [5, 2, 9], "repeated": [2, 2, 9], "past dim": [2, 5, 24], "negative": [-1, 2, 5],
              "too few": [2, 5], "not integers": [2.0, 5.0, 9.0]}


@pytest.mark.parametrize("bad", _BAD_ATOMS)
@pytest.mark.parametrize("q", [1, 3, "inf"])
def test_values_on_rejects_atoms_off_its_contract_on_both_sides_of_the_rule(monkeypatch, nan_lq, q, bad):
    # the lane routine reads each atom's accumulator from its index, so an atom
    # list off the contract would give wrong sums silently rather than fail
    V = np.ones((4, 3))
    for entries in (1 << 62, 0):  # the scatter, the lane routine
        monkeypatch.setattr(norms, "_LANE_SUMS_ENTRIES", entries)
        for N in _support_kinds(q, 24, nan_lq):
            with pytest.raises(ValueError, match="strictly increasing"):
                N.values_on(V, _BAD_ATOMS[bad])


def test_scalar_call_is_its_batched_row_on_nested_blocks():
    sub = BlockNorm([range(8), range(8, 16)], [LqNorm(1, 8)] * 2, LqNorm(1, 2))
    spaces = [
        sub,
        BlockNorm([range(16), range(16, 32)], [sub] * 2, LqNorm(1, 2)),
        BlockNorm([range(16), range(16, 28)], [sub, LqNorm(3, 12)], LqNorm(2.5, 2)),
    ]
    for N in spaces:
        X = np.random.default_rng(N.dim).standard_normal((500, N.dim))
        assert [N(x).hex() for x in X] == [v.hex() for v in N.values(X).tolist()]
