"""Lattice-norm oracles and a sampling-based axiom audit.

Every oracle evaluates through a single batch method :meth:`NormOracle.values`
(rows of a 2-d array in, one value per row out); the scalar ``__call__`` is a
one-row batch.  Routing both through the same arithmetic keeps comparisons
between exact and heuristic optimizers bitwise meaningful.

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


class NormOracle(ABC):
    """A norm on vectors of a fixed atom count ``dim``."""

    dim: int
    kind: str
    spec_fields: tuple[str, ...]  # the constructor's parameter names, each also an attribute

    @abstractmethod
    def values(self, X: np.ndarray) -> np.ndarray:
        """Norms of the rows of ``X`` (shape ``(n, dim)`` float64)."""

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
    """The q-sum norm; ``q = inf`` (or the string "inf") gives the sup norm."""

    kind = "Lq"
    spec_fields = ("q", "dim")

    def __init__(self, q, dim: int):
        self.q = _q_value(q)
        self.dim = _integer(dim, "dim")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def values(self, X: np.ndarray) -> np.ndarray:
        if math.isinf(self.q):  # a max is exact in any order; column-major, it reduces whole columns
            return np.abs(X, dtype=np.float64, order="F").max(axis=1)
        A = np.abs(X, dtype=np.float64)
        if self.q == 1.0:
            return A.sum(axis=1)
        if self.q == 2.0:
            A *= A
            return np.sqrt(A.sum(axis=1))
        # numpy's float64 power leaves its SIMD path on any zero lane, so zero
        # lanes are raised as 1 and brought back to 0 after, bit for bit
        z = A == 0.0
        A += z
        A **= self.q
        A -= z
        return A.sum(axis=1) ** (1.0 / self.q)


class WeightedLqNorm(NormOracle):
    """Lq norm of ``w * x`` for a fixed positive weight per atom."""

    kind = "WeightedLq"
    spec_fields = ("q", "weights")

    def __init__(self, q, weights):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise ValueError("weights must be finite and strictly positive")
        w.flags.writeable = False
        self.weights = w
        self.dim = w.size
        self._base = LqNorm(q, self.dim)
        self.q = self._base.q

    def values(self, X: np.ndarray) -> np.ndarray:
        return self._base.values(X * self.weights[None, :])


class BlockNorm(NormOracle):
    """Inner norms on the blocks of an atom partition, combined by an outer norm.

    ``blocks`` must partition ``range(dim)``: every atom in exactly one
    block, no empty blocks.  ``inner[j]`` evaluates coordinates
    ``blocks[j]`` and must have matching dim; ``outer`` has one
    coordinate per block.

    ``values`` makes one inner call for all the blocks that share one
    inner oracle object (``config.parse_norm_spec`` builds one per block
    size), in runs of at most ``_BLOCK_RUN_ENTRIES`` entries.  A run is
    one fancy gather whose operand holds each block's rows in turn, laid
    out as the gather of a lone block is: column-major, so that an Lq
    inner sums each row column by column, left to right, bit for bit as a
    call per block does (a row-major operand would sum rows of 8 or more
    atoms in numpy's pairwise order), and row-major in a one-row call,
    where a lone block's row is summed pairwise too.  The one exception
    is a ``Block`` inner shared by several blocks: it sees several rows
    even in a one-row call, so its own blocks of 8 or more atoms are then
    summed left to right, as in any call of two or more rows.
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
        # C-ordered, a point's block values in a row, the layout that pins the
        # outer's bits; rebinding frees the block-major array before the outer call
        B = B.T.copy()
        return self.outer.values(B)

    @property
    def monotone_constant(self) -> float:
        return self.outer.monotone_constant * max(N.monotone_constant for N in self.inner)


class PosNegMaxNorm(NormOracle):
    """``max(base(pos_part(x)), base(neg_part(x)))``.

    An equivalent norm within a factor of 2 of ``base``:
    eval(x) <= base(x) <= 2*eval(x).  Not 1-monotone: moving mass from
    the positive to the negative part can grow the value even though
    |x| is unchanged, so :attr:`monotone_constant` is ``2 * K_base``.
    """

    kind = "PosNegMax"
    spec_fields = ("base",)

    def __init__(self, base: NormOracle):
        self.base = base
        self.dim = base.dim

    def values(self, X: np.ndarray) -> np.ndarray:
        pos = self.base.values(np.maximum(X, 0.0))
        neg = self.base.values(np.maximum(-X, 0.0))
        return np.maximum(pos, neg)

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
