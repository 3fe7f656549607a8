"""Shared fixtures."""

import numpy as np
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


class NanLq(LqNorm):
    """An Lq oracle whose every nonzero row reads NaN."""

    def values(self, X):
        v = super().values(X)
        return np.where(v > 0.0, np.nan, v)


@pytest.fixture
def nan_lq():
    """The NaN Lq oracle class: ``nan_lq(q, dim)`` is 0 at the zero row and NaN elsewhere."""
    return NanLq
