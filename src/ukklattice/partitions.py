"""Set partitions of finite atom index sets.

A disjoint decomposition of a vector in a purely atomic lattice is, up
to zero summands, exactly a set partition of its support.  This module
supplies the combinatorial side: a canonical partition type and
exhaustive enumeration in restricted-growth-string (RGS) order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

__all__ = [
    "SupportPartition",
    "iter_set_partitions",
]


@dataclass(frozen=True)
class SupportPartition:
    """A partition of a finite set of atom indices into nonempty blocks.

    Canonical form: every block is a strictly increasing tuple, and
    blocks are ordered by their smallest atom.  Construct through
    :meth:`from_blocks` unless the input is already canonical.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        prev_min: int | None = None
        for blk in self.blocks:
            if not blk:
                raise ValueError("empty block in partition")
            if any(b <= a for a, b in zip(blk, blk[1:])):
                raise ValueError(f"block {blk} is not strictly increasing")
            if seen.intersection(blk):
                raise ValueError("blocks are not pairwise disjoint")
            seen.update(blk)
            if prev_min is not None and blk[0] <= prev_min:
                raise ValueError("blocks are not ordered by smallest atom")
            prev_min = blk[0]
            if blk[0] < 0:
                raise ValueError("atom indices must be nonnegative")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SupportPartition":
        """Canonicalize arbitrary nonempty disjoint blocks."""
        canon = tuple(tuple(sorted(int(i) for i in blk)) for blk in blocks)
        return cls(tuple(sorted(canon, key=lambda blk: blk[0] if blk else -1)))

    def atoms(self) -> frozenset[int]:
        return frozenset(i for blk in self.blocks for i in blk)

    def is_partition_of(self, atoms: Iterable[int]) -> bool:
        return self.atoms() == frozenset(int(i) for i in atoms)

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

