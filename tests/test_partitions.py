import hashlib
import json

import pytest

from ukklattice import SupportPartition, iter_set_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]  # set partitions of an n-set, n = 0..10


@pytest.mark.parametrize("n", range(len(BELL)))
def test_enumeration_count_matches_bell(n):
    parts = list(iter_set_partitions(range(n)))
    assert len(parts) == BELL[n]
    # no duplicates
    seen = {tuple(tuple(b) for b in p) for p in parts}
    assert len(seen) == len(parts)


def test_enumeration_order_at_n3():
    # restricted-growth-string order: item i joins each open block, earliest first, then opens one
    assert list(iter_set_partitions([0, 1, 2])) == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ]


def test_enumeration_order_at_n9_is_pinned():
    # sha256 of the 21147 partitions as compact JSON, recorded from the restricted-growth-string enumerator
    text = json.dumps([[list(b) for b in p] for p in iter_set_partitions(range(9))], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == "008617bf3985b8545407be9a3cdfd0bd204bc422d60a5642eb71f6d4fa06c2f5"


@pytest.mark.parametrize("items, sorted_items", [
    ([7, 3, 9, 0], [0, 3, 7, 9]),
    ([2, 2, 1], [1, 2, 2]),
    ((5, 1, 5, 1, 3), [1, 1, 3, 5, 5]),
])
def test_enumeration_of_unsorted_or_repeated_items(items, sorted_items):
    assert list(iter_set_partitions(items)) == list(iter_set_partitions(sorted_items))


def test_enumeration_is_lazy_without_recursion():
    # 2000 items would overflow a recursive walk and Bell(2000) partitions any eager one
    assert next(iter_set_partitions(range(2000))) == (tuple(range(2000)),)


def test_enumeration_covers_all_atoms():
    for p in iter_set_partitions([3, 7, 9]):
        flat = sorted(a for b in p for a in b)
        assert flat == [3, 7, 9]


def test_enumeration_on_empty():
    parts = list(iter_set_partitions([]))
    assert len(parts) == 1
    assert list(parts[0]) == []


def test_partition_canonical_form():
    p = SupportPartition([[9, 2], [5], [0, 7]])
    assert p.to_lists() == [[0, 7], [2, 9], [5]]
    assert p.blocks == ((0, 7), (2, 9), (5,))
    assert len(p) == 3


def test_partition_equal_inputs_are_equal_and_hash_alike():
    # a list input used to be stored as given: unhashable and unequal to its tuple form
    lists, tuples = SupportPartition([[0, 1]]), SupportPartition(((0, 1),))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert SupportPartition(iter([(3,), range(2)])) == SupportPartition(((0, 1), (3,)))


@pytest.mark.parametrize("blocks, match", [
    ([[-1]], "nonnegative"),
    ([[1, 2], [2, 3]], "not pairwise disjoint"),
    ([[1, 1]], "repeat an atom"),
    ([[1], []], "empty block"),
    ([0, 1], "iterable of iterables"),
    (None, "iterable of iterables"),
])
def test_partition_rejects_bad_blocks(blocks, match):
    with pytest.raises(ValueError, match=match):
        SupportPartition(blocks)


@pytest.mark.parametrize("blocks", [((True, 3),), [[0.9, 1.2]], [[True, 0]], [["1"]]])
def test_partition_atoms_are_integers(blocks):
    # the direct constructor used to accept (True, 3), and int() to truncate 0.9 and 1.2
    with pytest.raises(ValueError, match="atom must be an integer"):
        SupportPartition(blocks)
