"""A high-precision reference for the renorm, for tests only.

``mp_norm`` evaluates an oracle of any built-in kind on one row in mpmath
at 50 significant digits.  ``mp_renorm`` is the renorm at exponent
p by brute force: the maximum, over every set partition of the support
(at most 6 atoms), of the sum of the blocks' ``mp_norm`` p-powers, to the
1/p.  ``ulp_distance`` measures a float against such a value in units in
the last place of the value rounded to a float.
"""

import functools
import math

import mpmath

from ukklattice import BlockNorm, LqNorm, PosNegMaxNorm, WeightedLqNorm
from ukklattice.partitions import iter_set_partitions

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
