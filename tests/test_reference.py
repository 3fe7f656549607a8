"""``renorm_exact`` against the 50-digit brute-force reference of ``reference.py``."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from reference import mp_norm, mp_renorm, ulp_distance  # noqa: E402

from ukklattice import BlockNorm, LqNorm, PosNegMaxNorm, WeightedLqNorm, renorm_exact  # noqa: E402
from ukklattice.sampling import random_vector  # noqa: E402

MAX_ULP = 4.0


def _vectors(seed: int, n: int = 40):
    rng = np.random.default_rng(seed)
    return [random_vector(rng, 6) for _ in range(n)]


def _pairs(inner, outer):
    """A ``BlockNorm`` on dim 6: ``inner`` on each of the blocks {0, 1}, {2, 3}, {4, 5}, ``outer`` on the three values."""
    return BlockNorm([[0, 1], [2, 3], [4, 5]], [inner] * 3, outer)


@pytest.mark.parametrize("N,p", [
    (WeightedLqNorm(3, [1, 2, 3, 1, 2, 3]), 6.0),
    (LqNorm(2, 6), 4.0),
    (LqNorm(3, 6), 2.0),
    (_pairs(LqNorm(1, 2), LqNorm(3, 3)), 2.0),
    (_pairs(LqNorm(2, 2), LqNorm("inf", 3)), 2.0),
    (PosNegMaxNorm(LqNorm(1.5, 6)), 2.0),
    (PosNegMaxNorm(LqNorm(2, 6)), 4.0),
], ids=["WeightedLq3-p6", "Lq2-p4", "Lq3-p2", "Block-L1-pairs-L3-p2", "Block-L2-pairs-Linf-p2",
        "PosNegMax-Lq1.5-p2", "PosNegMax-Lq2-p4"])
def test_exact_is_within_4_ulp_of_the_reference(N, p):
    worst = max(ulp_distance(renorm_exact(N, p, x).value, mp_renorm(N, p, x.to_list())) for x in _vectors(41))
    assert worst <= MAX_ULP


def test_reference_renorm_at_p_equal_to_q_is_the_norm():
    # at p = q the block q-powers of an Lq norm add up to the whole row's, so
    # every partition ties and the reference renorm is the reference norm
    N = LqNorm(3, 6)
    for x in _vectors(43, 5):
        ref, base = mp_renorm(N, 3.0, x.to_list()), mp_norm(N, x.to_list())
        assert abs(ref - base) <= base * mpmath.mpf(10) ** -40


def test_ulp_distance_counts_units_in_the_last_place():
    one = mpmath.mpf(1.5)
    assert ulp_distance(1.5, one) == 0.0
    assert ulp_distance(float(np.nextafter(1.5, 2.0)), one) == 1.0
    with mpmath.workdps(50):  # half an ulp of 1.5 is below mpmath's default 53 bits
        half = one + mpmath.ldexp(1, -53)
    assert ulp_distance(1.5, half) == 0.5
