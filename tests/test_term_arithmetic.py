"""The arithmetic contracts of the whole-array term path.

``block_terms`` raises every lane with the C library's ``pow``, the function
a Python float power calls (``inf`` where that power raises OverflowError),
and ``fold_terms`` folds a 2-d array's columns with the loop's own
sequential additions; both are pinned against the Python arithmetic bit
for bit.  The estimators' packed family scoring and their batched
refinements are pinned against one family per run and against the
one-family-at-a-time scorer and the one-at-a-time walks of
``reference.py``.  None of these bits comes from numpy's SIMD power loops,
so they hold with those loops off too.
"""

import math
import warnings

import numpy as np
import pytest

from reference import climb_pair, hill_climb, lower_estimates

from ukklattice import BlockNorm, LqNorm, PosNegMaxNorm, WeightedLqNorm, norms
from ukklattice.estimates import _hill_climb, _lower_estimates, _ratios, _refine_pair
from ukklattice.renorm import block_terms, fold_terms, partition_power_sum, renorm_exact
from ukklattice.sampling import _disjoint_rows, random_disjoint_pair
from ukklattice.vectors import _rows

EXPONENTS = [1, 1.5, 2, 3, 8.44, 29.83, 400, 1e6]


def _lanes() -> np.ndarray:
    """0, subnormals, values near 1, 1e+-300, inf and NaN, and seeded lanes from 1e-320 to 1e300."""
    rng = np.random.default_rng(7)
    edges = [0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 0.5,
             1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 1.5, 2.0, 1e200, 1e300, 1.7976931348623157e308,
             math.inf, math.nan]
    near_one = 1.0 + rng.uniform(-1e-3, 1e-3, 400)
    spread = 10.0 ** rng.uniform(-320, 300, 1000)
    return np.concatenate([edges, near_one, rng.uniform(0, 4, 400), spread])


def _py_power(v: float, p: float) -> float:
    """``v ** p`` as Python computes it, or ``inf`` where that power raises OverflowError."""
    try:
        return v ** p
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("p", EXPONENTS)
def test_block_terms_are_the_python_power_lane_for_lane(p):
    lanes = _lanes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_terms(lanes, p)
    assert isinstance(got, np.ndarray) and got.shape == lanes.shape
    want = np.array([_py_power(v, p) for v in lanes.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p", EXPONENTS)
def test_a_finite_lane_that_overflows_raises_the_python_error(p):
    # block_terms gives inf on exactly the finite lanes where Python's power raises
    # OverflowError; the renorm engine raises that error on a block of such a value
    lanes = _lanes()
    over = [v for v in lanes.tolist() if math.isfinite(v) and _py_power(v, p) == math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_terms(lanes, p)
    assert lanes[np.isfinite(lanes) & np.isinf(got)].tolist() == over
    if p == 1:
        assert over == []  # no finite lane overflows at p = 1
        return
    assert over
    N = LqNorm(1, 3)  # N([v, 0, 0]) = v
    for v in (over[0], over[-1]):
        x = [0.5, v, 0.0]
        with pytest.raises(OverflowError, match="overflows binary64"):
            renorm_exact(N, p, x)
        with pytest.raises(OverflowError, match="overflows binary64"):
            partition_power_sum(N, p, x, [[0], [1]])


def test_infinite_and_nan_lanes_do_not_raise():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_terms(np.array([math.inf, math.nan, 0.0]), 1e6)
    assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 0.0


def _right_fold(column) -> float:
    acc = 0.0
    for t in reversed(column):
        acc = t + acc
    return acc


@pytest.mark.parametrize("shape", [(9, 1), (40, 1), (9, 2), (80, 2), (200, 3), (1, 7), (1, 300), (13, 57),
                                   (21, 400)])
def test_fold_of_a_2d_array_is_the_right_fold_of_each_column(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for _ in range(20):
        T = rng.random(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        T[rng.random(shape) < 0.3] = 0.0  # the zero terms of a grid's empty rows
        got = np.asarray(fold_terms(T), dtype=np.float64).reshape(-1)
        want = np.array([_right_fold(T[:, c].tolist()) for c in range(shape[1])])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


SPACES = [
    LqNorm(3, 8),
    WeightedLqNorm(1.5, [1, 2, 3, 1, 2, 3, 0.5, 4]),
    BlockNorm([[0, 1, 2], [3, 4], [5, 6, 7]], [LqNorm(1, 3), LqNorm(2, 2), LqNorm(4, 3)], LqNorm(3, 3)),
    PosNegMaxNorm(LqNorm(2, 8)),
]
IDS = ["lq3", "weighted", "block", "posneg"]


def _families(seed: int, dim: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [_disjoint_rows(rng, dim, int(rng.integers(1, min(dim, 8) + 1))) for _ in range(n)]


@pytest.mark.parametrize("N", SPACES, ids=IDS)
@pytest.mark.parametrize("p", [1.0, 2.5, 7.0])
def test_lower_estimates_do_not_depend_on_the_packing(monkeypatch, N, p):
    families = _families(3, N.dim, 60)
    packed = [(a.hex(), b.hex()) for a, b in _lower_estimates(N, p, families)]
    monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", 1)  # every family a run of its own
    alone = [(a.hex(), b.hex()) for a, b in _lower_estimates(N, p, families)]
    assert packed == alone


class _SignLq(LqNorm):
    """Lq plus 1/8 per entry with its sign bit set, -0.0 included: it tells a sum's -0.0 from 0.0."""

    def values(self, X):
        return super().values(X) + np.signbit(X).sum(axis=1) / 8.0


def _mixed_families(dim: int) -> list:
    """Families with zero rows, rows out of first-atom order, -0.0 entries, one-row families and 20 rows."""
    rng = np.random.default_rng(11)
    out = []
    for i, X in enumerate(_families(4, dim, 40)):
        X = X[rng.permutation(len(X))]
        if i % 3 == 0:
            X = np.insert(X, rng.integers(0, len(X) + 1, size=2), 0.0, axis=0)
        if i % 4 == 1:
            X[(X == 0.0) & (rng.random(X.shape) < 0.5)] = -0.0
        out.append(X)
    lone = np.zeros((20, dim))  # 21 * dim entries with its sum: above a 16-row cap
    lone[[3, 9, 15], [5, 0, 2]] = [1.5, -2.0, 0.25]
    lone[1] = -0.0
    lone[0, 1] = -0.0
    return out[:20] + [np.zeros((1, dim)), np.full((3, dim), -0.0), out[20][:1], lone] + out[20:]


@pytest.mark.parametrize("N", [*SPACES, _SignLq(2, 8)], ids=[*IDS, "sign"])
@pytest.mark.parametrize("p", [1.0, 2.5, 7.0])
@pytest.mark.parametrize("rows", [None, 16])
def test_whole_run_scorer_is_the_one_family_loop(monkeypatch, N, p, rows):
    if rows is not None:
        monkeypatch.setattr(norms, "_MAX_CALL_ENTRIES", rows * N.dim)
    families = _mixed_families(N.dim)
    got = [(a.hex(), b.hex()) for a, b in _lower_estimates(N, p, families)]
    assert got == [(a.hex(), b.hex()) for a, b in lower_estimates(N, p, families)]


def test_an_underflowed_fold_is_refolded_by_the_largest_norm():
    N = LqNorm(2, 4)
    tiny = np.array([[0.0, 0.25, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])  # terms 2^-2400 and 2^-1200: both 0.0
    even = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])  # folds to 1.0: kept as it is
    zero = np.zeros((2, 4))  # largest norm 0: the fold stays 0
    families = [tiny, even, zero, 1e-200 * even]
    assert [a for a, _ in lower_estimates(N, 1200.0, families)] == [0.0, 1.0, 0.0, 0.0]
    got = list(_lower_estimates(N, 1200.0, families))
    assert got[:3] == [(0.5, N(tiny.sum(axis=0))), (1.0, N(even.sum(axis=0))), (0.0, 0.0)]
    assert got[3][0] == pytest.approx(1e-200, rel=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the q = 2 branch squares 1e300 to inf
def test_an_overflowed_fold_is_refolded_by_the_largest_norm():
    N = LqNorm(2, 4)
    huge = np.array([[0.0, 4.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])  # terms 2^2400 and 2^1200: both inf
    even = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])  # folds to 1.0: kept as it is
    endless = np.array([[0.0, 1e300, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])  # largest norm inf: the fold stays inf
    families = [huge, even, endless, 1e150 * even]
    assert [a for a, _ in lower_estimates(N, 1200.0, families)] == [math.inf, 1.0, math.inf, math.inf]
    got = list(_lower_estimates(N, 1200.0, families))
    assert got[:3] == [(4.0, N(huge.sum(axis=0))), (1.0, N(even.sum(axis=0))), (math.inf, math.inf)]
    assert got[3][0] == pytest.approx(1e150, rel=1e-15)


class _Scorer:
    """``score`` (one family) and ``scores`` (a batch) over the estimators' ratio at ``p``."""

    def __init__(self, N, p):
        self.N, self.p = N, p

    def scores(self, families):
        return list(_ratios(self.N, self.p, families))

    def score(self, X):
        return self.scores([X])[0]


def _pair_cases(N, seed: int, n: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        X = _rows(list(random_disjoint_pair(rng, N.dim)), N.dim)
        yield X, next(_ratios(N, 1.0, [X]))


def _family_cases(N, p, seed: int, n: int):
    for X in _families(seed, N.dim, n):
        yield X, next(_ratios(N, p, [X]))


def _same(a, b) -> bool:
    (Xa, ra), (Xb, rb) = a, b
    return ra.hex() == rb.hex() and Xa.tobytes() == Xb.tobytes()


@pytest.mark.parametrize("N", SPACES, ids=IDS)
def test_batched_pair_refinement_is_the_one_at_a_time_walk(N):
    moved = 0
    for X, r in _pair_cases(N, 5, 12):
        want = climb_pair(N, X, r, _Scorer(N, 1.0).score)
        assert _same(_refine_pair(N, X, r, _Scorer(N, 1.0).scores), want)
        moved += want[0].tobytes() != X.tobytes()
    assert moved >= 6  # most walks keep moves, so the rebuild after a kept move is exercised


@pytest.mark.parametrize("N", SPACES, ids=IDS)
@pytest.mark.parametrize("p", [1.5, 4.0])
def test_batched_hill_climb_is_the_one_at_a_time_walk(N, p):
    moved = 0
    for X, r in _family_cases(N, p, 9, 10):
        want = hill_climb(X, r, _Scorer(N, p).score)
        assert _same(_hill_climb(X, r, _Scorer(N, p).scores), want)
        moved += want[0].tobytes() != X.tobytes()
    assert moved >= 3
