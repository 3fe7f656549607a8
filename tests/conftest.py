"""Shared fixtures."""

import pytest

from ukklattice import LqNorm


class CountingLq(LqNorm):
    """An Lq oracle that records the rows and the entries (rows x dim) of every ``values`` call."""

    def __init__(self, q, dim: int):
        super().__init__(q, dim)
        self.calls: list[int] = []
        self.entries: list[int] = []

    def values(self, X):
        self.calls.append(X.shape[0])
        self.entries.append(X.size)
        return super().values(X)


@pytest.fixture
def counting_lq():
    """The counting Lq oracle class: ``counting_lq(q, dim).calls`` lists the rows of each call, ``.entries`` its entries."""
    return CountingLq
