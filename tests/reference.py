"""High-precision and one-at-a-time references, for tests only.

``mp_norm`` evaluates an oracle of any built-in kind on one row in mpmath
at 50 significant digits.  ``mp_renorm`` is the renorm at exponent
p by brute force: the maximum, over every set partition of the support
(at most 6 atoms), of the sum of the blocks' ``mp_norm`` p-powers, to the
1/p.  ``ulp_distance`` measures a float against such a value in units in
the last place of the value rounded to a float.

``block_values`` is a ``Block`` oracle's ``values`` with one inner call
per block, each on the gather ``X[:, block]`` of that block alone (a
nested ``Block`` inner evaluated the same way): the loop whose bits the
grouped inner calls of ``BlockNorm.values`` must keep.

``climb_pair`` and ``hill_climb`` are the estimators' refinements walked
one move at a time, each candidate scored alone by ``score`` (a family of
rows in, its ratio out) before the next one is built: the walk that
``estimates``' batched refinements must reproduce.  ``lower_estimates``
scores the families of each packed run one at a time, with a sort, a sum
and a fold of their own: the scorer whose bits ``estimates``' whole-run
scorer must keep wherever every fold lies in [2^-900, 2^900].

``disjoint_family`` draws and builds one disjoint family alone, member by
member through ``random_coords``, and ``verify_families`` draws
``verify_lower_r_estimate``'s families with it one at a time: the
per-family loop whose rows and stream ``sampling``'s batch builder must
keep.
"""

import functools
import math

import mpmath
import numpy as np

from ukklattice import BlockNorm, LqNorm, PosNegMaxNorm, WeightedLqNorm
from ukklattice.norms import _packed
from ukklattice.partitions import iter_set_partitions
from ukklattice.renorm import block_terms, fold_terms
from ukklattice.sampling import random_coords

DPS = 50
MAX_SUPPORT = 6


def mp_norm(N, coords) -> mpmath.mpf:
    """``N(coords)`` at 50 digits, for an ``Lq``, ``WeightedLq``, ``Block`` or ``PosNegMax`` oracle."""
    if isinstance(N, BlockNorm):  # the outer norm of the inner norms' values
        return mp_norm(N.outer, [mp_norm(M, [coords[i] for i in blk]) for blk, M in zip(N.blocks, N.inner)])
    if isinstance(N, PosNegMaxNorm):  # the larger of the base norms of the positive and the negative part
        return max(mp_norm(N.base, [max(c, 0) for c in coords]), mp_norm(N.base, [max(-c, 0) for c in coords]))
    if not isinstance(N, (LqNorm, WeightedLqNorm)):
        raise TypeError(f"no reference for {type(N).__name__}")
    weights = N.weights.tolist() if isinstance(N, WeightedLqNorm) else [1.0] * N.dim
    with mpmath.workdps(DPS):
        a = [abs(mpmath.mpf(w) * mpmath.mpf(c)) for w, c in zip(weights, coords)]
        if math.isinf(N.q):
            return max(a)
        q = mpmath.mpf(N.q)
        return mpmath.fsum(t**q for t in a) ** (1 / q)


def mp_renorm(N, p: float, coords) -> mpmath.mpf:
    """The renorm of ``coords`` at exponent ``p``, as a maximum over every set partition of its support."""
    supp = [i for i, c in enumerate(coords) if c != 0]
    if len(supp) > MAX_SUPPORT:
        raise ValueError(f"support size {len(supp)} above the reference's {MAX_SUPPORT}")
    with mpmath.workdps(DPS):
        p = mpmath.mpf(p)

        @functools.cache
        def term(B):
            return mp_norm(N, [c if i in B else 0.0 for i, c in enumerate(coords)]) ** p

        best = max(mpmath.fsum(term(B) for B in part) for part in iter_set_partitions(supp))
        return best ** (1 / p)


def ulp_distance(x: float, ref: mpmath.mpf) -> float:
    """|x - ref| in units in the last place of ``ref`` rounded to a float."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(x) - ref) / math.ulp(float(ref)))


def block_values(N, X) -> np.ndarray:
    """``N.values(X)`` of a ``Block`` oracle, one inner call per block."""
    B = np.empty((X.shape[0], len(N.blocks)))
    for j, (blk, M) in enumerate(zip(N.blocks, N.inner)):
        cols = X[:, np.asarray(blk, dtype=np.intp)]
        B[:, j] = block_values(M, cols) if isinstance(M, BlockNorm) else M.values(cols)
    return N.outer.values(B)


HILL_FACTORS = (0.5, 0.8, 1.25, 2.0)
PAIR_FACTORS = (0.25, 0.5, 0.8, 1.25, 2.0, 4.0)


def hill_climb(X, best, score):
    """Each nonzero entry scaled by each factor in turn, a strict improvement kept at once; two sweeps at most."""
    for _ in range(2):
        improved = False
        for i in range(X.shape[0]):
            for j in X[i].nonzero()[0]:
                for f in HILL_FACTORS:
                    cand = X.copy()
                    cand[i, j] *= f
                    r = score(cand)
                    if r > best:
                        X, best, improved = cand, r, True
        if not improved:
            break
    return X, best


def climb_pair(N, X, ratio, score):
    """The first row rescaled to balance the two norms, then by a grid, each strict gain kept; then the climb."""
    v = N.values(X)
    balance = [v[1] / v[0]] if v[0] > 0 and v[1] > 0 else []
    for t in balance + list(PAIR_FACTORS):
        cand = X.copy()
        cand[0] *= t
        r = score(cand)
        if r > ratio:
            X, ratio = cand, r
    return hill_climb(X, ratio, score)


def lower_estimates(N, p: float, families):
    """(fold of row norms^p)^(1/p) and N(sum of rows) of each family, one family at a time in each packed run."""
    for run in _packed(families, lambda X: X.size + X.shape[1]):
        rows = []
        for X in run:
            nz = X != 0.0
            first = np.where(nz.any(axis=1), nz.argmax(axis=1), -1)
            rows.append(X[np.argsort(first, kind="stable")])
        n = sum(map(len, run))
        v = N.values(np.vstack([*rows, *(X.sum(axis=0)[None] for X in run)]))
        terms = block_terms(v[:n], p).tolist()
        at = 0
        for X, total in zip(run, v[n:].tolist()):
            yield fold_terms(terms[at:at + len(X)]) ** (1.0 / p), total
            at += len(X)


def disjoint_family(rng, dim: int, count: int) -> np.ndarray:
    """``count`` disjoint rows: a support of count..dim atoms dealt one each first, then at random, then shuffled."""
    total = int(rng.integers(count, dim + 1))
    idx = rng.choice(dim, size=total, replace=False)
    owner = np.concatenate([np.arange(count), rng.integers(0, count, size=total - count)])
    rng.shuffle(owner)
    X = np.zeros((count, dim))
    for j in range(count):
        mine = idx[owner == j]
        X[j, mine] = random_coords(rng, mine.size)
    return X


def verify_families(rng, dim: int, trials: int):
    """``verify_lower_r_estimate``'s families: a count in 1..min(dim, 8), then its family, one at a time."""
    for _ in range(trials):
        yield disjoint_family(rng, dim, int(rng.integers(1, min(dim, 8) + 1)))
