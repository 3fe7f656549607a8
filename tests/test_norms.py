import inspect
import json
import math

import numpy as np
import pytest

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
