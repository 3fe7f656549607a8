import pytest

from ukklattice import SupportPartition, iter_set_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877]  # set partitions of an n-set, n = 0..7


@pytest.mark.parametrize("n", range(8))
def test_enumeration_count_matches_bell(n):
    parts = list(iter_set_partitions(range(n)))
    assert len(parts) == BELL[n]
    # no duplicates
    seen = {tuple(tuple(b) for b in p) for p in parts}
    assert len(seen) == len(parts)


def test_enumeration_covers_all_atoms():
    for p in iter_set_partitions([3, 7, 9]):
        flat = sorted(a for b in p for a in b)
        assert flat == [3, 7, 9]


def test_enumeration_on_empty():
    parts = list(iter_set_partitions([]))
    assert len(parts) == 1
    assert list(parts[0]) == []


def test_partition_canonical_form():
    p = SupportPartition.from_blocks([[9, 2], [5], [0, 7]])
    assert p.to_lists() == [[0, 7], [2, 9], [5]]
    assert sorted(p.atoms()) == [0, 2, 5, 7, 9]
    assert len(p) == 3


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        SupportPartition.from_blocks([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SupportPartition.from_blocks([[1], []])


def test_is_partition_of():
    p = SupportPartition.from_blocks([[0, 1], [3]])
    assert p.is_partition_of((0, 1, 3))
    assert not p.is_partition_of((0, 1, 2, 3))
