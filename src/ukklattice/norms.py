"""Lattice-norm oracles and a sampling-based axiom audit.

Every oracle evaluates through a single batch method :meth:`NormOracle.values`
(rows of a 2-d array in, one value per row out); the scalar ``__call__`` is a
one-row batch.  Routing both through the same arithmetic keeps comparisons
between exact and heuristic optimizers bitwise meaningful.
:meth:`NormOracle.values_on` takes rows on a support, the (M, s) values of M
rows at s atoms, and gives the bits ``values`` gives the rows at full dim.

An Lq sum has one order, whatever the operand's memory layout or support:
numpy's pairwise sum of a contiguous row of ``dim`` entries.  The Lq family
(``Lq``, ``WeightedLq`` and a ``PosNegMax`` of either) builds its lanes,
``|x|`` or ``|w * x|``, once in one buffer and raises them once, a
``PosNegMax`` for both of its parts.  The sum comes from numpy's row-wise
reduce of a C-ordered buffer (below 8 entries, where that order is a left
fold, from its column-wise reduce of a column-major one), or from
:func:`_lane_sums`, which adds whole columns of a column-major buffer in
that order: for ``values`` where a measured size rule of the operand's
layout says (``_DENSE_LANE_SUMS``), for ``values_on`` past its own
(``_LANE_SUMS_ENTRIES``) on the support columns alone.

Built-in kinds, each one class in the ``_KINDS`` registry; its ``spec_fields``, the
constructor's parameter names, drive ``describe`` and ``config.parse_norm_spec``:

``Lq``          (sum |x_i|^q)^(1/q), with q = inf meaning max |x_i|
``WeightedLq``  Lq of the coordinatewise product w * x, all w_i > 0
``Block``       inner norms on the blocks of an atom partition, combined
                by an outer norm on the block-value vector
``PosNegMax``   max(base(pos_part(x)), base(neg_part(x))), the factor-2
                equivalent norm built from positive and negative parts

The first three are absolute and lattice-monotone with constant 1.  The
pos/neg wrapper is only 2-monotone (shifting mass between the parts can
double the value), which is why :attr:`NormOracle.monotone_constant`
exists instead of a hard-coded 1.

:func:`report_dict` is the one JSON serializer of the package's report
dataclasses; they take ``to_dict`` from :class:`_Report`, which calls it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, fields, is_dataclass
from numbers import Real

import numpy as np

from .partitions import SupportPartition
from .vectors import LatticeVector, _integer, _real, _rows

__all__ = [
    "NormOracle",
    "LqNorm",
    "WeightedLqNorm",
    "BlockNorm",
    "PosNegMaxNorm",
    "NormAuditReport",
    "audit_norm_axioms",
]

# inequality checks here, in ``renorm`` and in ``estimates`` fail only past
# REL_TOL * |bound| (+ ABS_TOL where the bound may be 0)
REL_TOL = 1e-9
ABS_TOL = 1e-12

# entries (rows x dim) per N.values call that stacks many rows, at any dim:
# ``_packed`` bounds by it the stacked calls of ``renorm_batch``, of the family
# scoring in ``estimates`` and the family batches ``sampling`` builds for that
# scoring, and ``audit_norm_axioms`` checks its samples in runs of at most
# that many entries
_MAX_CALL_ENTRIES = 1 << 16
# entries per inner call of ``BlockNorm.values``: at 4096-5461 rows, runs of
# 2^16 entries were up to 14% slower than a call per block (55% in a fresh
# process, whose allocator page-faults their 512 KiB temporaries on every
# call), while runs of 2^14 are no slower
_BLOCK_RUN_ENTRIES = _MAX_CALL_ENTRIES >> 2
# ``values_on`` of M rows on s of dim atoms (Lq family) sums the support lanes
# through :func:`_lane_sums` when M * dim >= _LANE_SUMS_ENTRIES * (s + 8), and
# scatters them into a full-dim ``values`` call below: the routine costs about
# one numpy call per summed column and per accumulator, the scatter writes,
# raises and reduces all M * dim entries.  On a 2-CPU x86-64 host support rows
# crossed over at 256-440 (dim 24, 4-20 support atoms); 512 sits past that
# range, so no call takes the routine before it wins
_LANE_SUMS_ENTRIES = 512
# dense ``values`` of M rows at dim atoms (Lq family) sums a column-major buffer
# through :func:`_lane_sums` when 8 <= dim <= top and M >= rows, (rows, top) set
# by the operand's layout: column-major, or any other (which pays a transposed
# copy).  On the same host, inside these rules, the routine ran 1.0-2.9x as fast
# as numpy's row-wise reduce on a C-ordered operand and 1.0-5.3x on a
# column-major one (q = 1, 1.5, 2, 3); outside them a C-ordered operand tied at
# 768 rows at dims 12-15 and lost or tied at every size from dim 16 on up to
# ``_MAX_CALL_ENTRIES``, a column-major one tied at 512 rows from dim 20 on
_DENSE_LANE_SUMS = {"F": (768, 24), "C": (1024, 15)}


class NormOracle(ABC):
    """A norm on vectors of a fixed atom count ``dim``."""

    dim: int
    kind: str
    spec_fields: tuple[str, ...]  # the constructor's parameter names, each also an attribute

    # whether a ``PosNegMaxNorm`` of this oracle raises its ``_lane_buffer`` once for
    # both parts rather than call its ``values`` or ``values_on`` once per part
    _lane_form = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class that overrides ``values`` alone keeps the default ``values_on``, and
        # one that overrides either and does not set ``_lane_form`` again has none, so
        # that no support or lane form of a base class bypasses what it overrides
        if "values" in vars(cls) and "values_on" not in vars(cls):
            cls.values_on = NormOracle.values_on
        if ("values" in vars(cls) or "values_on" in vars(cls)) and "_lane_form" not in vars(cls):
            cls._lane_form = False

    @abstractmethod
    def values(self, X: np.ndarray) -> np.ndarray:
        """Norms of the rows of ``X`` (shape ``(n, dim)`` float64)."""

    def values_on(self, V: np.ndarray, atoms) -> np.ndarray:
        """Norms of the M rows that hold ``V``'s (M, s) columns at ``atoms`` and 0 elsewhere.

        ``atoms`` are s strictly increasing atom indices in ``[0, dim)``;
        any other list raises ``ValueError``.  The result is ``values`` of
        those rows at full dim, bit for bit.  This default writes them so
        and calls ``values``; a kind may restrict itself to the support
        instead.  A subclass that overrides ``values`` and not
        ``values_on`` gets this default, so its ``values`` is never bypassed.
        """
        Z = np.zeros((V.shape[0], self.dim))
        Z[:, _support(V, atoms, self.dim)] = V
        return self.values(Z)

    def describe(self) -> dict:
        """JSON-ready spec dict, ``kind``, the spec fields, ``dim``; ``config.parse_norm_spec`` reads it."""
        spec = {"kind": self.kind}
        for f in self.spec_fields:
            spec[f] = _spec_json(getattr(self, f))
        spec["dim"] = self.dim
        return spec

    @property
    def monotone_constant(self) -> float:
        """K with: |x| <= |y| coordinatewise implies eval(x) <= K*eval(y)."""
        return 1.0

    def __call__(self, x) -> float:
        return float(self.values(_rows([x], self.dim))[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def _packed(items, size):
    """Runs of consecutive ``items`` whose ``size`` adds up to at most ``_MAX_CALL_ENTRIES``.

    Each run is one ``N.values`` call; an item larger than the cap is a
    run of its own.  The items are consumed a run at a time.
    """
    run, used = [], 0
    for item in items:
        n = size(item)
        if run and used + n > _MAX_CALL_ENTRIES:
            yield run
            run, used = [], 0
        run.append(item)
        used += n
    if run:
        yield run


def _support(V: np.ndarray, atoms, dim: int) -> np.ndarray:
    """``atoms`` as an index array, if it names one atom per column of ``V``,
    strictly increasing, in ``[0, dim)``: the ``values_on`` contract."""
    a = np.asarray(atoms)
    if a.shape != V.shape[1:] or (a.size and (
            a.dtype.kind not in "iu" or a[0] < 0 or a[-1] >= dim or (a[1:] <= a[:-1]).any())):
        raise ValueError(f"values_on needs one strictly increasing atom in [0, {dim}) per column of V {V.shape}, got {atoms!r}")
    return a if a.size else a.astype(np.intp)


def _lane_sums(A: np.ndarray, atoms, dim: int) -> np.ndarray:
    """Sums of the (M, dim) rows that hold ``A``'s (M, s) columns at ``atoms`` and 0 elsewhere.

    Bit for bit ``Z.sum(axis=1)`` of those rows ``Z``, C-ordered: numpy's
    pairwise sum of a contiguous row (Higham, SIAM J. Sci. Comput. 14,
    1993), taken here whole column by whole column.  Below 8 entries it is
    a left fold from 0.0; up to 128, accumulator j = 0..7 adds entries j,
    j + 8, ... below ``dim - dim % 8``, the accumulators combine as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and the last
    ``dim % 8`` entries follow in order; past 128 the row splits at
    ``dim // 2`` rounded down to a multiple of 8 and each half sums so.
    ``A``'s entries are all >= 0 or all <= 0 (or NaN), so a zero lane adds
    nothing but, at most, the sign of a zero sum, and only the columns of
    ``A`` are added.  ``atoms`` are strictly increasing; ``A`` is
    column-major, each column one contiguous run, and is overwritten: its
    columns hold the partial sums.
    """
    total = _lanes(A, np.asarray(atoms).tolist(), 0, A.shape[1], 0, dim)
    return np.zeros(A.shape[0]) if total is None else total.copy()


def _lanes(A, atoms, lo, hi, base, n):
    """The pairwise sum of row entries base..base+n-1, whose nonzero lanes are
    columns lo..hi-1 of ``A``, summed into one of them (below 8 entries, into
    a new array); None if there are none."""
    if lo == hi:
        return None
    if n > 128:
        half = n // 2 - n // 2 % 8
        mid = bisect_left(atoms, base + half, lo, hi)
        return _into(_lanes(A, atoms, lo, mid, base, half), _lanes(A, atoms, mid, hi, base + half, n - half))
    if n < 8:  # a left fold: numpy's own reduce of a column-major operand
        return A[:, lo:hi].sum(axis=1)
    head = base + n - n % 8  # base is a multiple of 8: atom a goes to accumulator a % 8
    j = bisect_left(atoms, head, lo, hi)
    r = [None] * 8
    for i in range(lo, j):
        r[atoms[i] % 8] = _into(r[atoms[i] % 8], A[:, i])
    total = _into(_into(_into(r[0], r[1]), _into(r[2], r[3])), _into(_into(r[4], r[5]), _into(r[6], r[7])))
    for i in range(j, hi):
        total = _into(total, A[:, i])
    return total


def _into(a, b):
    """``a + b``, written into ``a``; None stands for a sum of zero lanes, which adds exactly nothing."""
    if a is None:
        return b
    if b is not None:
        a += b
    return a


def _q_value(q) -> float:
    """The one rule for a norm exponent: a number q >= 1, or "inf"."""
    if isinstance(q, str):
        if q.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"unrecognized exponent q = {q!r} (use a number >= 1 or \"inf\")")
    if isinstance(q, bool) or not isinstance(q, Real):
        raise ValueError(f"exponent q must be a number or \"inf\", got {q!r}")
    qf = float(q)
    if math.isnan(qf) or qf < 1.0:
        raise ValueError(f"exponent must satisfy q >= 1 (or be inf), got {q!r}")
    return qf


def _check_p(p: float) -> float:
    """The one rule for a decomposition or estimate exponent: a number 1 <= p < infinity."""
    p = _real(p, "exponent p")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent must satisfy 1 <= p < infinity, got {p}")
    return p


def _count(v, what: str) -> int:
    """``v`` as a count of work: an ``_integer`` >= 1."""
    n = _integer(v, what)
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    return n


def _seed(v) -> int:
    """``v`` as a seed: an ``_integer`` >= 0, the rule the CLI applies to ``--seed`` and ``config.seed``."""
    n = _integer(v, "seed")
    if n < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {n}")
    return n


def _spec_json(v):
    """A spec field's JSON form; exact type tests, commonest first, keep ``describe`` cheap."""
    if type(v) is int:
        return v
    if type(v) is float:  # an exponent: an int or "inf" where it can be
        return "inf" if math.isinf(v) else int(v) if v.is_integer() else v
    if type(v) is tuple:
        return [_spec_json(m) for m in v]
    if type(v) is np.ndarray:
        return v.tolist()
    return v.describe()


class LqNorm(NormOracle):
    """The q-sum norm; ``q = inf`` (or the string "inf") gives the sup norm.

    At finite q a row's lanes are summed in one order, numpy's pairwise sum
    of a contiguous row of ``dim`` entries, whatever the operand's layout:
    ``values`` raises one buffer ``|x|`` and reduces it in numpy, C-ordered
    row by row (below 8 atoms, where numpy's order is a left fold either
    way, column-major whole column by whole column), or, where the dense
    size rule of the operand's layout says (``_DENSE_LANE_SUMS``), sums it
    column-major through :func:`_lane_sums`.  ``values_on`` raises and sums
    only the support lanes through :func:`_lane_sums` past its size rule
    (``_LANE_SUMS_ENTRIES``) and scatters them into ``values`` below it: the
    same bits every way.  The zero-lane trick of the power runs only on a
    buffer that holds a zero lane.
    """

    kind = "Lq"
    spec_fields = ("q", "dim")
    _lane_form = True

    def __init__(self, q, dim: int):
        self.q = _q_value(q)
        self.dim = _integer(dim, "dim")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def values(self, X: np.ndarray) -> np.ndarray:
        return _lq_norms(self, X)

    def values_on(self, V: np.ndarray, atoms) -> np.ndarray:
        if _scatters(self, V):
            return super().values_on(V, atoms)
        return _lq_norms(self, V, atoms)

    def _lane_buffer(self, X: np.ndarray, atoms, order: str) -> np.ndarray:
        """The lanes |x| of ``X``'s rows (of its columns at ``atoms``), a new float64 buffer in ``order``."""
        return np.abs(X, dtype=np.float64, order=order)


def _scatters(N: NormOracle, V: np.ndarray) -> bool:
    """Whether ``values_on`` of an Lq-family ``N`` scatters the (M, s) ``V`` into a
    full-dim ``values`` call: below the size rule, at finite q."""
    return not math.isinf(N.q) and V.shape[0] * N.dim < _LANE_SUMS_ENTRIES * (V.shape[1] + 8)


def _lq_norms(N: NormOracle, X: np.ndarray, atoms=None, parts: bool = False) -> np.ndarray:
    """Norms of an Lq-family ``N`` (``N.q``, ``N.dim``, ``N._lane_buffer``) of the rows of
    ``X``: full-dim rows if ``atoms`` is None, else rows on the support ``atoms``; with
    ``parts``, ``max(N(pos_part(x)), N(neg_part(x)))``, the ``PosNegMaxNorm`` of ``N``.

    The lanes are built once, in the layout their sum reads, and raised once.
    """
    q, dim = N.q, N.dim
    if atoms is not None:
        atoms = _support(X, atoms, dim)
    if math.isinf(q):
        # a max is exact in any order: whole columns of a column-major buffer, 0 on a
        # row of no lanes; lane by lane, the max of the two parts is |x|
        A = N._lane_buffer(X, atoms, "F")
        return A.max(axis=1) if atoms is None else A.max(axis=1, initial=0.0)
    sums = atoms
    if atoms is None and dim >= 8:
        rows, top = _DENSE_LANE_SUMS["F" if X.flags.f_contiguous else "C"]
        if dim <= top and X.shape[0] >= rows:
            sums = range(dim)
    A = _raised(N._lane_buffer(X, atoms, "C" if sums is None and dim >= 8 else "F"), q)
    if parts:
        # the signed lanes, |x|^q with x's sign: a part's row adds its own lanes and
        # zeros elsewhere, as the part's own call does; a negative part sums to -S,
        # and a zero sum may differ in sign alone, which the absolute value takes off
        np.copysign(A, X, out=A)
        pos = _sums(np.maximum(A, 0.0), sums, dim)
        S = np.abs([pos, _sums(np.minimum(A, 0.0, out=A), sums, dim)])
    else:
        S = A.sum(axis=1) if sums is None else _lane_sums(A, sums, dim)
    R = S if q == 1.0 else np.sqrt(S) if q == 2.0 else S ** (1.0 / q)
    return np.maximum(R[0], R[1]) if parts else R


def _raised(A: np.ndarray, q: float) -> np.ndarray:
    """``A`` raised to the power q in place, bit for bit ``A ** q``."""
    if q == 2.0:
        A *= A
    elif q != 1.0:
        # numpy's float64 power leaves its SIMD path on a vector with a zero lane, so
        # zero lanes, if any, are raised as 1 and brought back to 0 after, bit for bit
        z = A == 0.0
        if np.count_nonzero(z):
            A += z
            A **= q
            A -= z
        else:
            A **= q
    return A


def _sums(A: np.ndarray, sums, dim: int) -> np.ndarray:
    """Row sums of a part's lanes ``A``: numpy's reduce if ``sums`` is None, else ``_lane_sums`` over those atoms."""
    return A.sum(axis=1) if sums is None else _lane_sums(A, sums, dim)


class WeightedLqNorm(NormOracle):
    """Lq norm of ``w * x`` for a fixed positive weight per atom.

    Its lanes ``|w * x|`` are written straight into the one buffer, in the
    layout its sum reads; ``values`` and ``values_on`` are then ``LqNorm``'s,
    bit for bit the Lq norm of the product.
    """

    kind = "WeightedLq"
    spec_fields = ("q", "weights")
    _lane_form = True

    def __init__(self, q, weights):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise ValueError("weights must be finite and strictly positive")
        w.flags.writeable = False
        self.weights = w
        self.dim = w.size
        self.q = _q_value(q)

    def values(self, X: np.ndarray) -> np.ndarray:
        return _lq_norms(self, X)

    def values_on(self, V: np.ndarray, atoms) -> np.ndarray:
        if _scatters(self, V):
            return super().values_on(V, atoms)
        return _lq_norms(self, V, atoms)

    def _lane_buffer(self, X: np.ndarray, atoms, order: str) -> np.ndarray:
        w = self.weights if atoms is None else self.weights[atoms]
        A = np.multiply(X, w, dtype=np.float64, order=order)
        return np.abs(A, out=A)


class BlockNorm(NormOracle):
    """Inner norms on the blocks of an atom partition, combined by an outer norm.

    ``blocks`` must partition ``range(dim)``: every atom in exactly one
    block, no empty blocks.  ``inner[j]`` evaluates coordinates
    ``blocks[j]`` and must have matching dim; ``outer`` has one
    coordinate per block.

    ``values`` makes one inner call for all the blocks that share one
    inner oracle object (``config.parse_norm_spec`` builds one per block
    size), in runs of at most ``_BLOCK_RUN_ENTRIES`` entries.  A run is
    one fancy gather whose operand holds each block's rows in turn,
    column-major, as numpy lays out the gather of a lone block.  An Lq
    sums every row in one order whatever its operand's layout, so a row
    has the bits of a call per block, in a one-row call and in any larger
    call alike, nested ``Block`` inners included.  ``values_on`` is the
    default: the support rows at full dim.
    """

    kind = "Block"
    spec_fields = ("blocks", "inner", "outer")

    def __init__(self, blocks, inner, outer: NormOracle):
        blocks = tuple(tuple(_integer(i, "block atom") for i in blk) for blk in blocks)
        if not blocks or any(len(blk) == 0 for blk in blocks):
            raise ValueError("blocks must be nonempty and contain no empty block")
        flat = sorted(i for blk in blocks for i in blk)
        dim = len(flat)
        if flat != list(range(dim)):
            raise ValueError("blocks must partition 0..dim-1 with no repeats or gaps")
        inner = tuple(inner)
        if len(inner) != len(blocks):
            raise ValueError(f"{len(blocks)} blocks but {len(inner)} inner oracles")
        for j, (blk, N) in enumerate(zip(blocks, inner)):
            if N.dim != len(blk):
                raise ValueError(f"inner[{j}] has dim {N.dim}, block has {len(blk)} atoms")
        if outer.dim != len(blocks):
            raise ValueError(f"outer has dim {outer.dim}, need one coordinate per block ({len(blocks)})")
        self.blocks, self.inner, self.outer, self.dim = blocks, inner, outer, dim
        shared = {}  # id of an inner oracle -> (that oracle, the positions of its blocks)
        for j, N in enumerate(inner):
            shared.setdefault(id(N), (N, []))[1].append(j)
        # each inner oracle with its blocks' atoms down the columns of a (size, k) view;
        # ``values`` writes the block values group after group in this order
        self._groups = [(N, np.array([blocks[j] for j in at], dtype=np.intp).T) for N, at in shared.values()]
        written = [j for _, at in shared.values() for j in at]
        self._order = None if written == list(range(len(blocks))) else np.argsort(written)

    def values(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        B = np.empty((len(self.blocks), n), dtype=np.float64)  # block-major: a run writes whole rows
        at = 0
        for N, cols in self._groups:
            size, k = cols.shape
            step = max(1, _BLOCK_RUN_ENTRIES // max(1, n * size))
            for s in range(0, k, step):
                G = X[:, cols[:, s:s + step]]  # (n, size, r), laid out as r blocks of n rows, column-major
                r = G.shape[2]
                B[at:at + r] = N.values(G.transpose(2, 0, 1).reshape(r * n, size)).reshape(r, n)
                at += r
        if self._order is not None:
            B = B[self._order]  # back in block order
        return self.outer.values(B.T)  # a point's block values in a row, column-major

    @property
    def monotone_constant(self) -> float:
        return self.outer.monotone_constant * max(N.monotone_constant for N in self.inner)


class PosNegMaxNorm(NormOracle):
    """``max(base(pos_part(x)), base(neg_part(x)))``.

    An equivalent norm within a factor of 2 of ``base``:
    eval(x) <= base(x) <= 2*eval(x).  Not 1-monotone: moving mass from
    the positive to the negative part can grow the value even though
    |x| is unchanged, so :attr:`monotone_constant` is ``2 * K_base``.

    Over an Lq-family base (``base._lane_form``) one call builds ``|x|``
    (``|w * x|``) once, raises it once and sums the positive and the negative
    part's lanes apart, each in the one order: the bits of two base calls.
    A base class that overrides ``values`` or ``values_on`` gets those two
    calls, one per part.
    """

    kind = "PosNegMax"
    spec_fields = ("base",)

    def __init__(self, base: NormOracle):
        self.base = base
        self.dim = base.dim

    def values(self, X: np.ndarray) -> np.ndarray:
        if not self.base._lane_form:
            return np.maximum(self.base.values(np.maximum(X, 0.0)), self.base.values(np.maximum(-X, 0.0)))
        return _lq_norms(self.base, X, parts=True)

    def values_on(self, V: np.ndarray, atoms) -> np.ndarray:
        if not self.base._lane_form:
            return np.maximum(self.base.values_on(np.maximum(V, 0.0), atoms),
                              self.base.values_on(np.maximum(-V, 0.0), atoms))
        if _scatters(self.base, V):
            return super().values_on(V, atoms)
        return _lq_norms(self.base, V, atoms, parts=True)

    @property
    def monotone_constant(self) -> float:
        return 2.0 * self.base.monotone_constant


# the kind registry, kind name -> class; its order is the order error messages list the kinds in
_KINDS = {cls.kind: cls for cls in (LqNorm, WeightedLqNorm, BlockNorm, PosNegMaxNorm)}


def report_dict(report, omit=()) -> dict:
    """JSON-ready dict of a report dataclass's fields, except those in ``omit``.

    The walk is shallow: a vector becomes its coordinate list, a
    partition its block lists, a norm oracle its spec and a nested
    report its own ``to_dict()``; a list or tuple field becomes a list
    whose members are converted the same way, a list or tuple member
    becoming a plain list.
    """
    return {f.name: _json_value(getattr(report, f.name)) for f in fields(report) if f.name not in omit}


class _Report:
    """Base of the report dataclasses: ``to_dict`` is ``report_dict`` of every field."""

    def to_dict(self) -> dict:
        return report_dict(self)


def _json_value(v, field: bool = True):
    if isinstance(v, (list, tuple)):
        return [_json_value(m, field=False) for m in v] if field else list(v)
    if isinstance(v, LatticeVector):
        return v.to_list()
    if isinstance(v, SupportPartition):
        return v.to_lists()
    if isinstance(v, NormOracle):
        return v.describe()
    if is_dataclass(v):
        return v.to_dict()
    return v


@dataclass(frozen=True)
class NormAuditReport(_Report):
    """Worst-case relative violations found by :func:`audit_norm_axioms`."""

    kind: dict
    samples: int
    seed: int
    tol: float
    monotone_constant: float
    zero_value: float
    positivity_violations: int
    homogeneity_violation: float
    triangle_violation: float
    monotonicity_violation: float
    passed: bool


def _rel_excess(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest (lhs - rhs) / max(rhs, tiny), 0 when the inequality holds, NaN when a value is NaN."""
    worst = float(((lhs - rhs) / np.maximum(rhs, 1e-12)).max())
    return 0.0 if worst <= 0.0 else worst


def audit_norm_axioms(N: NormOracle, samples: int = 10_000, seed: int = 0) -> NormAuditReport:
    """Sample-test the norm axioms plus lattice monotonicity.

    Checks, per sample: positivity on nonzero vectors, absolute
    homogeneity, the triangle inequality, and K-monotonicity with
    ``K = N.monotone_constant`` on pairs |x| <= |y| built by shrinking.
    Violations are relative; the audit passes iff N(0) = 0, every nonzero
    sample has N > 0 and every worst case is within ``REL_TOL``, which
    the report carries as ``tol``.  A NaN value is a violation, and a NaN
    worst case stays NaN.  Failures are reported, never raised.  The
    samples are drawn at once and checked in runs of at most
    ``_MAX_CALL_ENTRIES`` entries, five ``N.values`` calls a run; the
    report does not depend on the run size.
    """
    samples, seed = _count(samples, "samples"), _seed(seed)
    rng = np.random.default_rng(seed)
    d = N.dim
    X, Y = rng.standard_normal((2, samples, d))  # the stream of two draws, in one allocation
    t = rng.standard_normal(samples) * 3.0
    # shrink factors in [-1, 1] give |U * Y| <= |Y| coordinatewise
    U = rng.uniform(-1.0, 1.0, size=(samples, d))
    K = N.monotone_constant

    zero_value = float(N.values(np.zeros((1, d)))[0])
    positivity_violations, worst = 0, []
    step = max(1, _MAX_CALL_ENTRIES // d)
    for at in range(0, samples, step):
        x, y, s, u = X[at:at + step], Y[at:at + step], t[at:at + step], U[at:at + step]
        nx, ny = N.values(x), N.values(y)
        # the nonzero rows among those whose norm is not > 0 (a NaN norm too)
        positivity_violations += int(np.any(x[~(nx > 0.0)] != 0.0, axis=1).sum())
        expected = np.abs(s) * nx
        worst.append(((np.abs(N.values(x * s[:, None]) - expected) / np.maximum(expected, 1e-12)).max(),
                      _rel_excess(N.values(x + y), nx + ny), _rel_excess(N.values(u * y), K * ny)))
    # np.max keeps a NaN worst case of any run
    homogeneity, triangle, monotonicity = np.max(worst, axis=0).tolist()

    return NormAuditReport(
        kind=N.describe(),
        samples=samples,
        seed=seed,
        tol=REL_TOL,
        monotone_constant=K,
        zero_value=zero_value,
        positivity_violations=positivity_violations,
        homogeneity_violation=homogeneity,
        triangle_violation=triangle,
        monotonicity_violation=monotonicity,
        passed=zero_value == 0.0 and positivity_violations == 0
        and all(v <= REL_TOL for v in (homogeneity, triangle, monotonicity)),
    )
