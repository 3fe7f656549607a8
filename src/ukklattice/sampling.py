"""Seeded random generators for vectors, disjoint pairs, and families.

Everything is driven by an explicit :class:`numpy.random.Generator`;
there is no wall-clock seeding anywhere in the package.  Nonzero
coordinates are drawn away from zero so that sampled supports are the
supports asked for.
"""

from __future__ import annotations

import numpy as np

from .vectors import LatticeVector, _integer

__all__ = [
    "random_coords",
    "random_vector",
    "random_disjoint_pair",
    "random_disjoint_family",
]


def random_coords(rng: np.random.Generator, n: int) -> np.ndarray:
    """n nonzero signed magnitudes, bounded away from 0 to keep supports exact."""
    mag = rng.uniform(0.1, 1.0, size=n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return mag * sign


def random_vector(rng: np.random.Generator, dim: int, support_size: int | None = None) -> LatticeVector:
    """A random vector with exactly ``support_size`` nonzero atoms.

    ``support_size`` defaults to a uniform draw from 1..dim.
    """
    dim = _integer(dim, "dim")
    support_size = int(rng.integers(1, dim + 1)) if support_size is None else _integer(support_size, "support_size")
    if not 1 <= support_size <= dim:
        raise ValueError(f"support_size {support_size} out of range 1..{dim}")
    idx = rng.choice(dim, size=support_size, replace=False)
    a = np.zeros(dim, dtype=np.float64)
    a[idx] = random_coords(rng, support_size)
    return LatticeVector(a)


def random_disjoint_pair(rng: np.random.Generator, dim: int) -> tuple[LatticeVector, LatticeVector]:
    """Two nonzero vectors with disjoint supports.

    The size of the union support is drawn uniformly from 2..dim, and
    the support is split so that both sides are nonempty.
    """
    dim = _integer(dim, "dim")
    if dim < 2:
        raise ValueError("need dim >= 2 for a nonzero disjoint pair")
    total = int(rng.integers(2, dim + 1))
    idx = rng.choice(dim, size=total, replace=False)
    cut = int(rng.integers(1, total))
    a = np.zeros(dim, dtype=np.float64)
    b = np.zeros(dim, dtype=np.float64)
    a[idx[:cut]] = random_coords(rng, cut)
    b[idx[cut:]] = random_coords(rng, total - cut)
    return LatticeVector(a), LatticeVector(b)


def random_disjoint_family(rng: np.random.Generator, dim: int, count: int) -> list[LatticeVector]:
    """``count`` pairwise disjoint nonzero vectors.

    A support whose size is drawn uniformly from count..dim is dealt to
    the members so that each gets at least one atom.
    """
    dim, count = _integer(dim, "dim"), _integer(count, "count")
    if not 1 <= count <= dim:
        raise ValueError(f"count {count} out of range 1..{dim}")
    total = int(rng.integers(count, dim + 1))
    idx = rng.choice(dim, size=total, replace=False)
    # one atom each first, then the rest land anywhere
    owner = np.concatenate([
        np.arange(count),
        rng.integers(0, count, size=total - count),
    ])
    rng.shuffle(owner)
    # one block of draws, read as random_coords drew them member by member: a
    # member's k magnitudes, then its k signs; so an atom's magnitude sits at its
    # place in owner order plus the atom count of the members before its own
    u = rng.random(2 * total)
    order = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=count)
    at = np.repeat(np.cumsum(sizes) - sizes, sizes) + np.arange(total)
    mag = 0.1 + (1.0 - 0.1) * u[at]  # rng.uniform(0.1, 1.0) bit for bit
    sign = np.where(u[at + np.repeat(sizes, sizes)] < 0.5, -1.0, 1.0)
    out = np.zeros((count, dim), dtype=np.float64)
    out[owner[order], idx[order]] = mag * sign
    return [LatticeVector(a) for a in out]
