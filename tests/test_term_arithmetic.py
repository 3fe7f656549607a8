"""The arithmetic contracts of the whole-array term path.

``block_terms`` raises every lane with the C library's ``pow``, the function
a Python float power calls, and ``fold_terms`` folds a 2-d array's columns
with the loop's own sequential additions; both are pinned against the
Python arithmetic bit for bit.  The estimators' packed family scoring and
their batched refinements are pinned against one family per run and
against the one-at-a-time walks of ``reference.py``.  None of these bits
comes from numpy's SIMD power loops, so they hold with those loops off too.
"""

import math
import warnings

import numpy as np
import pytest

from reference import climb_pair, hill_climb

from ukklattice import BlockNorm, LqNorm, PosNegMaxNorm, WeightedLqNorm, norms
from ukklattice.estimates import _hill_climb, _lower_estimates, _ratios, _refine_pair
from ukklattice.renorm import block_terms, fold_terms
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


def _py_power(v: float, p: float):
    """``v ** p`` as Python computes it, or the OverflowError it raises."""
    try:
        return v ** p
    except OverflowError as e:
        return e


@pytest.mark.parametrize("p", EXPONENTS)
def test_block_terms_are_the_python_power_lane_for_lane(p):
    lanes = _lanes()
    expected = [_py_power(v, p) for v in lanes.tolist()]
    fits = np.array([not isinstance(t, OverflowError) for t in expected])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_terms(lanes[fits], p)
    assert isinstance(got, np.ndarray) and got.shape == (int(fits.sum()),)
    want = np.array([t for t in expected if not isinstance(t, OverflowError)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p", EXPONENTS)
def test_a_finite_lane_that_overflows_raises_the_python_error(p):
    lanes = _lanes()
    over = [v for v in lanes.tolist() if isinstance(_py_power(v, p), OverflowError)]
    if p == 1:
        assert over == []  # no finite lane overflows at p = 1
        return
    assert over and all(math.isfinite(v) for v in over)
    python_message = str(_py_power(over[0], p))
    assert python_message == "(34, 'Numerical result out of range')"
    for bad in (over[:1], over, [0.5, over[-1], math.inf, math.nan]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                block_terms(np.array(bad), p)
        assert str(info.value) == python_message


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


class _Scorer:
    """``score`` (one family) and ``scores`` (a batch) over the estimators' ratio at ``p``.

    Any family whose bytes are in ``poison`` raises OverflowError, as a term that
    overflows would; ``scored`` records the bytes of every family scored.
    """

    def __init__(self, N, p, poison=()):
        self.N, self.p, self.poison, self.scored, self.raised = N, p, set(poison), [], 0

    def scores(self, families):
        families = list(families)
        self.scored += [X.tobytes() for X in families]
        if any(X.tobytes() in self.poison for X in families):
            self.raised += 1
            raise OverflowError("poisoned candidate")
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


@pytest.mark.parametrize("N", SPACES, ids=IDS)
def test_a_speculative_candidate_that_overflows_does_not_raise(N):
    # every candidate the walk scores ahead and then drops raises when scored;
    # the batched walk still ends where the one-at-a-time walk does
    raised = 0
    for X, r in _pair_cases(N, 5, 12):
        walk = _Scorer(N, 1.0)
        want = climb_pair(N, X, r, walk.score)
        ahead = _Scorer(N, 1.0)
        _refine_pair(N, X, r, ahead.scores)
        spec = set(ahead.scored) - set(walk.scored)
        batched = _Scorer(N, 1.0, poison=spec)
        assert _same(_refine_pair(N, X, r, batched.scores), want)
        raised += batched.raised
    assert raised > 0


@pytest.mark.parametrize("N", SPACES, ids=IDS)
def test_an_overflow_in_the_walks_own_step_still_raises(N):
    X, r = next(_pair_cases(N, 5, 1))
    walk = _Scorer(N, 1.0)
    climb_pair(N, X, r, walk.score)
    poison = {walk.scored[len(walk.scored) // 2]}
    with pytest.raises(OverflowError):
        climb_pair(N, X, r, _Scorer(N, 1.0, poison).score)
    with pytest.raises(OverflowError):
        _refine_pair(N, X, r, _Scorer(N, 1.0, poison).scores)
