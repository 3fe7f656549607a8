"""Set partitions of finite atom index sets.

A disjoint decomposition of a vector in a purely atomic lattice is, up
to zero summands, exactly a set partition of its support.  This module
supplies the combinatorial side: one canonical partition type and
exhaustive enumeration in restricted-growth-string (RGS) order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .vectors import _integer

__all__ = [
    "SupportPartition",
    "iter_set_partitions",
]


@dataclass(frozen=True)
class SupportPartition:
    """A partition of a finite set of atom indices into nonempty blocks.

    Takes any iterable of blocks of integer atoms (never a bool, float or
    string) and stores the canonical form: every block an ascending tuple,
    blocks ordered by their smallest atom.  A negative atom, an empty block
    or an atom in two places raises ValueError.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:  # disjoint blocks differ in their first atom, so tuple order is smallest-atom order
            blocks = sorted(tuple(sorted(_integer(i, "atom") for i in blk)) for blk in self.blocks)
        except TypeError:
            raise ValueError(f"blocks must be an iterable of iterables of atoms, got {self.blocks!r}") from None
        if not all(blocks):
            raise ValueError("empty block in partition")
        if blocks and blocks[0][0] < 0:
            raise ValueError("atom indices must be nonnegative")
        if len({i for blk in blocks for i in blk}) < sum(map(len, blocks)):
            raise ValueError("blocks are not pairwise disjoint or repeat an atom")
        object.__setattr__(self, "blocks", tuple(blocks))

    def to_lists(self) -> list[list[int]]:
        return [list(blk) for blk in self.blocks]

    def __len__(self) -> int:
        return len(self.blocks)


def _iter_rgs(n: int) -> Iterator[list[int]]:
    """Restricted growth strings of length n in lexicographic order.

    a[0] = 0 and a[i] <= 1 + max(a[:i]); each string encodes one set
    partition (equal labels share a block).  The yielded list is reused;
    callers must not mutate or retain it.
    """
    a = [0] * n
    m = [1] * n  # m[i] = 1 + max(a[:i]), the ceiling for a[i]
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == m[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        ceiling = m[i] + 1 if a[i] == m[i] else m[i]
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = ceiling


def iter_set_partitions(items: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of ``items``, in RGS lexicographic order.

    Blocks appear ordered by first occurrence, which for sorted items is
    order of smallest member; the first partition yielded is the single
    whole-set block, the last is all singletons.  The empty sequence has
    exactly one partition, the empty one.
    """
    items = tuple(sorted(items))
    n = len(items)
    if n == 0:
        yield ()
        return
    for rgs in _iter_rgs(n):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for item, label in zip(items, rgs):
            blocks[label].append(item)
        yield tuple(tuple(blk) for blk in blocks)

