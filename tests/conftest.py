"""Shared fixtures."""

import pytest

from ukklattice import LqNorm


class CountingLq(LqNorm):
    """An Lq oracle that records the row count of every ``values`` call."""

    def __init__(self, q, dim: int):
        super().__init__(q, dim)
        self.calls: list[int] = []

    def values(self, X):
        self.calls.append(X.shape[0])
        return super().values(X)


@pytest.fixture
def counting_lq():
    """The counting Lq oracle class: ``counting_lq(q, dim).calls`` lists the rows of each call."""
    return CountingLq
