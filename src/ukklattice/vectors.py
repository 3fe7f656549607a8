"""Finite coordinate vectors with exact lattice algebra.

A :class:`LatticeVector` models an element of a purely atomic vector
lattice: one real coordinate per atom, ordered componentwise.  The
componentwise specialization is deliberate and is the only case handled
here; order-continuous function lattices (where the natural weak
topology is convergence in measure) are out of scope.

All lattice operations reduce to componentwise ``min`` / ``max`` /
negation, which are exact in IEEE double precision.  Disjointness and
decomposition identities therefore hold with *zero* tolerance, and the
test suite asserts them that way.  Vectors are immutable; every
operation returns a fresh vector and is safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "DimensionMismatch",
    "LatticeVector",
    "pos_part",
    "neg_part",
    "absolute",
    "meet",
    "join",
    "is_disjoint",
    "truncate",
    "disjoint_residuals",
    "restrict",
]


class DimensionMismatch(ValueError):
    """Two vectors (or a vector and an oracle) disagree on atom count."""


class LatticeVector:
    """Immutable vector of finite reals, one coordinate per atom.

    Coordinates must be finite; NaN and infinities are rejected at
    construction so that downstream inequality checks never see them.
    """

    __slots__ = ("_a",)

    def __init__(self, coords: Iterable[float]):
        a = np.array(coords, dtype=np.float64)  # owned copy
        if a.ndim != 1:
            raise ValueError(f"expected a 1-d coordinate sequence, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("a lattice vector needs at least one atom")
        require_finite(a)
        a.flags.writeable = False
        self._a = a

    @classmethod
    def zeros(cls, dim: int) -> "LatticeVector":
        return cls(np.zeros(dim))

    @classmethod
    def unit(cls, dim: int, atom: int, height: float = 1.0) -> "LatticeVector":
        """The multiple ``height * e_atom`` of a standard unit vector."""
        if not 0 <= atom < dim:
            raise ValueError(f"atom index {atom} out of range for dim {dim}")
        a = np.zeros(dim, dtype=np.float64)
        a[atom] = height
        return cls(a)

    @property
    def coords(self) -> np.ndarray:
        """Read-only view of the coordinate array."""
        return self._a

    @property
    def dim(self) -> int:
        return self._a.size

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero coordinates."""
        return tuple(int(i) for i in np.nonzero(self._a)[0])

    def to_list(self) -> list[float]:
        return [float(c) for c in self._a]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _check_dims(self, other)
        return LatticeVector(self._a + other._a)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _check_dims(self, other)
        return LatticeVector(self._a - other._a)

    def __mul__(self, scalar: float) -> "LatticeVector":
        return LatticeVector(self._a * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self._a)

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.all(self._a == other._a))

    def __hash__(self) -> int:
        return hash(self._a.tobytes())

    def __len__(self) -> int:
        return self._a.size

    def __repr__(self) -> str:
        return f"LatticeVector({self.to_list()})"


def require_finite(a: np.ndarray) -> None:
    """Raise the package's one ValueError for NaN or infinite coordinates."""
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite reals (no NaN, no infinities)")


def _rows(X, dim: int) -> np.ndarray:
    """The package's one row gate: a 2-d array or a sequence of vectors as validated (n, dim) float64 rows."""
    if not isinstance(X, np.ndarray):
        X = [x._a if isinstance(x, LatticeVector) else np.asarray(x, dtype=np.float64) for x in X]
        if any(x.shape != (dim,) for x in X):
            raise DimensionMismatch(f"expected rows of {dim} coordinates, a row has another shape")
        X = np.array(X, dtype=np.float64).reshape(len(X), dim)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatch(f"expected rows of {dim} coordinates, got shape {X.shape}")
    X = X.astype(np.float64, copy=False)
    require_finite(X)
    return X


def _family_rows(family, dim: int) -> np.ndarray:
    """The row gate for a nonempty, pairwise disjoint family: its validated (n, dim) rows."""
    X = _rows(family, dim)
    if not len(X):
        raise ValueError("family must be nonempty")
    if np.any((X != 0.0).sum(axis=0) > 1):
        raise ValueError("family is not pairwise disjoint")
    return X


def _check_dims(x: LatticeVector, y: LatticeVector) -> None:
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimension mismatch: {x.dim} vs {y.dim}")


def pos_part(x: LatticeVector) -> LatticeVector:
    """Componentwise ``max(x, 0)``; the positive part ``x = pos - neg``."""
    return LatticeVector(np.maximum(x._a, 0.0))


def neg_part(x: LatticeVector) -> LatticeVector:
    """Componentwise ``max(-x, 0)``; satisfies ``x = pos_part(x) - neg_part(x)`` exactly."""
    return LatticeVector(np.maximum(-x._a, 0.0))


def absolute(x: LatticeVector) -> LatticeVector:
    """Componentwise absolute value ``|x|``."""
    return LatticeVector(np.abs(x._a))


def meet(x: LatticeVector, y: LatticeVector) -> LatticeVector:
    """Componentwise minimum ``x ∧ y``."""
    _check_dims(x, y)
    return LatticeVector(np.minimum(x._a, y._a))


def join(x: LatticeVector, y: LatticeVector) -> LatticeVector:
    """Componentwise maximum ``x ∨ y``."""
    _check_dims(x, y)
    return LatticeVector(np.maximum(x._a, y._a))


def is_disjoint(x: LatticeVector, y: LatticeVector) -> bool:
    """True iff ``|x| ∧ |y| = 0`` exactly, i.e. the supports do not meet."""
    _check_dims(x, y)
    return bool(np.all((x._a == 0.0) | (y._a == 0.0)))


def truncate(u: LatticeVector, x: LatticeVector) -> LatticeVector:
    """Truncation of ``x`` by the envelope of ``u``.

    Componentwise this clamps ``x[i]`` to ``[-|u[i]|, |u[i]|]``, which
    agrees exactly with the lattice form
    ``(pos_part(x) ∧ |u|) - (neg_part(x) ∧ |u|)``.
    """
    _check_dims(u, x)
    env = np.abs(u._a)
    return LatticeVector(np.clip(x._a, -env, env))


def disjoint_residuals(x: LatticeVector, y: LatticeVector) -> tuple[LatticeVector, LatticeVector]:
    """The pair ``(x - truncate(y, x), y - truncate(x, y))``.

    The two residuals are disjoint with zero tolerance: wherever
    ``|x[i]| <= |y[i]|`` the first residual's coordinate is an exact
    floating-point cancellation ``x[i] - x[i] = 0``, and symmetrically
    for the second.
    """
    _check_dims(x, y)
    return x - truncate(y, x), y - truncate(x, y)


def restrict(x: LatticeVector, block: Iterable[int]) -> LatticeVector:
    """Copy of ``x`` zeroed outside ``block``.

    Restrictions of ``x`` to the blocks of any partition of its support
    are pairwise disjoint and sum back to ``x`` exactly.
    """
    idx = np.fromiter((int(i) for i in block), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.dim):
        raise ValueError(f"block contains atom indices outside 0..{x.dim - 1}")
    a = np.zeros(x.dim, dtype=np.float64)
    if idx.size:
        a[idx] = x._a[idx]
    return LatticeVector(a)
