"""Shared fixtures, the numpy header line and the marks of the AVX-512-pinned tests."""

import os
import re

import numpy as np
import pytest

from ukklattice import LqNorm

try:
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

# The tests whose pinned bits hold only with numpy's AVX-512 float64 power loops
# (ROADMAP item 17), as "file::name"; verified by switching those loops off with
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4".
AVX512_PINNED = {
    "test_bench_digests.py::test_bench_round_digest_unchanged[renorm-mixed]",
    "test_bench_digests.py::test_bench_round_digest_unchanged[space-estimate]",
    "test_golden.py::test_heuristic_unchanged[batch-1.5]",
    "test_golden.py::test_heuristic_unchanged[lq3-3.0]",
    "test_golden.py::test_heuristic_unchanged[posneg-1.5]",
    "test_golden.py::test_heuristic_unchanged[posneg-2.0]",
    "test_golden.py::test_heuristic_unchanged[posneg-3.0]",
    "test_golden.py::test_heuristic_unchanged[weighted-1.5]",
    "test_golden.py::test_heuristic_unchanged[weighted-2.0]",
    "test_renorm.py::test_exact_rows_are_pinned_bit_for_bit"
    "[N0-2.0-2fa17760af5213ded6eb1e087ecb434836d7463df624dd51ab3212922f3ea3ab]",
    "test_renorm.py::test_exact_rows_are_pinned_bit_for_bit"
    "[N2-2.0-324c3de245bc27c74cdec90e1a891cc851909e184996ac5104170179de1d05a2]",
    "test_renorm.py::test_heuristic_on_70_signed_atoms_is_pinned",
}


def _avx512_disabled() -> bool:
    """Does NPY_DISABLE_CPU_FEATURES name an AVX-512 feature (AVX512*, or the X86_V4 group)?"""
    names = re.split(r"[\s,]+", os.environ.get("NPY_DISABLE_CPU_FEATURES", "").upper())
    return any(name.startswith("AVX512") or name == "X86_V4" for name in names)


def pytest_report_header(config):
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    return (f"numpy {np.__version__}: SIMD baseline {' '.join(__cpu_baseline__) or 'none'}, "
            f"dispatched {' '.join(found) or 'none'}"
            + (f" (NPY_DISABLE_CPU_FEATURES={disabled!r})" if disabled else ""))


def pytest_collection_modifyitems(config, items):
    # only a run without the AVX-512 loops expects these pins to break; the ordinary run keeps them
    if not _avx512_disabled():
        return
    mark = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="ROADMAP item 17: the pinned bits come from numpy's AVX-512 power loops")
    for item in items:
        if f"{item.path.name}::{item.name}" in AVX512_PINNED:
            item.add_marker(mark)


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
