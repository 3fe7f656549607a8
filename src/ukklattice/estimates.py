"""Estimation of disjointness constants and lower-estimate verification.

The chain implemented here:

1. ``estimate_two_disjoint_constant``: maximize (N(x)+N(y))/N(x+y) over
   disjoint pairs by seeded random search with local refinement.  The
   result c_hat is a certified lower bound on the true constant c.
2. ``derived_exponent``: c < 2 yields the exponent p = 2 ln2 / ln(2/c)
   of a lower p-estimate.
3. ``lower_r_constant``: for r > p, the constant
   c^2 * (sum_i i^(-r/p))^(1/r) of the derived lower r-estimate,
   summed by a fixed-size Euler-Maclaurin bracket.
4. ``verify_lower_r_estimate`` / ``check_inf_chain``: randomized checks
   of the resulting inequalities on sampled disjoint families.
5. ``estimate_lower_p_constant``: direct search for the best constant C
   in (sum of norms^p)^(1/p) <= C * N(sum) over disjoint families.

Steps 1, 4 and 5 share one lower-estimate ratio on coordinate rows;
c is that ratio at p = 1 over two-member families.

A measurement c_hat >= 2 is a legitimate scientific outcome (the sup
norm attains 2); the pipeline then reports hypothesis failure instead
of deriving an exponent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .norms import ABS_TOL, REL_TOL, NormOracle, _check_p, _count, _packed, _real, _Report, _seed
from .renorm import EXACT_THRESHOLD, block_terms, fold_terms, renorm_batch
from .sampling import _build_families, _draw_family, random_disjoint_family, random_disjoint_pair, random_vector
from .vectors import LatticeVector, _family_rows, _rows, restrict

__all__ = [
    "estimate_two_disjoint_constant",
    "derived_exponent",
    "lower_r_constant",
    "InfChainCheck",
    "check_inf_chain",
    "estimate_lower_p_constant",
    "verify_lower_r_estimate",
    "EstimateReport",
    "run_estimate_pipeline",
]

HYPOTHESIS_MARGIN = 1e-9  # c_hat must clear 2 by this much to count as c < 2


def _lower_estimates(N: NormOracle, p: float, runs):
    """(fold of row norms^p)^(1/p) and N(sum of rows), for each family of each run ``(rows, sizes)``.

    A run is its families of disjoint rows, stacked family by family, and
    their row counts, packed by ``_runs``.  Its rows, sorted by family and
    then by smallest support atom (zero rows first), and then its family
    sums go into one ``N.values`` call, and the rows alone into one
    ``block_terms`` call.  Each family's terms fold in that order, as the
    renorm objective does; at p = 1 on two rows this is N(x) + N(y) exactly
    unless outside [2^-900, 2^900].  The one range rule: a fold outside
    that range, ``inf`` included, is refolded as
    m * (fold of (norm / m)^p)^(1/p) when the family's largest norm m is
    finite and above 0.  The runs are consumed one at a time.
    """
    for rows, sizes in runs:
        n, fam = len(rows), np.repeat(np.arange(len(sizes)), sizes)
        at = np.cumsum(sizes) - sizes
        stack = np.empty((n + len(sizes), rows.shape[1]))
        nz = rows != 0.0
        stack[:n] = rows[np.lexsort((np.where(nz.any(axis=1), nz.argmax(axis=1), -1), fam))]
        # a family's rows are disjoint, so each sum entry has one nonzero addend and
        # any order of the adds is ``X.sum(axis=0)``'s, which starts from 0.0 (no -0.0)
        np.add(np.add.reduceat(stack[:n], at, axis=0), 0.0, out=stack[n:])
        v = N.values(stack)
        norms, totals = v[:n], v[n:].tolist()
        grid = np.zeros((max(sizes), len(sizes)))  # one column per family, zero-padded after its last term
        grid[np.arange(n) - at[fam], fam] = block_terms(norms, p)
        folds = fold_terms(grid)
        lhs = np.float_power(folds, 1.0 / p)
        m = np.maximum.reduceat(norms, at)
        for f in np.flatnonzero(((folds < 2.0 ** -900) | (folds > 2.0 ** 900)) & np.isfinite(m) & (m > 0.0)):
            lhs[f] = m[f] * fold_terms(block_terms(norms[at[f]:at[f] + sizes[f]] / m[f], p).tolist()) ** (1.0 / p)
        yield from zip(lhs.tolist(), totals)


def _runs(items, dim: int, rows=len):
    """``norms._packed`` runs of families of ``rows(item)`` rows, each sized with its sum: (rows + 1) * dim entries."""
    return _packed(items, lambda item: (rows(item) + 1) * dim)


def _stacked(families, dim: int):
    """The runs ``(rows, sizes)`` of a stream of per-family arrays, for ``_lower_estimates``."""
    for run in _runs(families, dim):
        yield np.concatenate(run), [len(X) for X in run]


def _sampled_runs(rng: np.random.Generator, dim: int, counts):
    """Runs ``(rows, sizes)`` of sampled disjoint families, each built at once; a count is read before its draws."""
    for run in _runs((_draw_family(rng, dim, count) for count in counts), dim, lambda draws: draws[0]):
        yield _build_families(dim, run)


def _ratios(N: NormOracle, p: float, families):
    """The lower-estimate ratio of each family of disjoint rows; 0 when its sum has norm 0, a NaN side raises."""
    for num, denom in _lower_estimates(N, p, _stacked(families, N.dim)):
        if math.isnan(num) or math.isnan(denom):
            raise ValueError(f"the oracle {N!r} gives a NaN lower estimate: fold {num}, sum norm {denom}")
        yield num / denom if denom > 0.0 else 0.0


def _walk(X: np.ndarray, best: float, moves: list, scores) -> tuple[np.ndarray, float, bool]:
    """Keep, in order, each move ``(index, factor)``, ``X[index] *= factor``, that strictly improves ``best``.

    The moves left are built from the current rows and scored a batch
    ahead by ``scores`` (families in, ratios out); once one is kept, the
    rest are rebuilt from the new rows and scored again, so the outcome
    is the one-at-a-time walk's.  Also returns whether a move was kept.
    """
    kept, at = False, 0
    while at < len(moves):
        cands = []
        for index, factor in moves[at:]:
            cand = X.copy()
            cand[index] *= factor
            cands.append(cand)
        for cand, r in zip(cands, scores(cands)):
            at += 1
            if r > best:
                X, best, kept = cand, r, True
                break
    return X, best, kept


def _hill_climb(X: np.ndarray, best: float, scores) -> tuple[np.ndarray, float]:
    """Coordinatewise rescaling hill climb over the rows of ``X``; supports fixed.

    Each nonzero entry is scaled by each factor in turn and a strict
    improvement of the score is kept at once; at most two sweeps.  A move
    changes one row only, so a sweep's moves are listed at its start.
    """
    for _ in range(2):
        moves = [((i, j), f) for i in range(X.shape[0]) for j in np.flatnonzero(X[i]).tolist()
                 for f in (0.5, 0.8, 1.25, 2.0)]
        X, best, improved = _walk(X, best, moves, scores)
        if not improved:
            break
    return X, best


def _search(N: NormOracle, p: float, candidates, refine) -> tuple[float, np.ndarray]:
    """Best ratio at ``p`` over (rows, refine?) candidates.

    The candidates are drawn and scored a batch ahead of the walk, which is
    exact because a refinement changes no other candidate; each new best is
    first improved by ``refine(X, ratio, scores)``, whose ``scores`` maps
    a batch of families to their ratios.
    """
    # tee holds only the candidates drawn for the batch being walked
    walk, scored = itertools.tee(candidates)
    best, best_X = -1.0, None
    for (X, polish), r in zip(walk, _ratios(N, p, (X for X, _ in scored))):
        if r > best:
            if polish:
                X, r = refine(X, r, lambda families: _ratios(N, p, families))
            best, best_X = r, X
    return best, best_X


def _refine_pair(N: NormOracle, X: np.ndarray, ratio: float, scores) -> tuple[np.ndarray, float]:
    """Local improvement of a disjoint pair of rows; supports never change.

    The first row is rescaled to balance the two norms (equal norms maximize
    the ratio for the q-norms), then by a grid on the best so far; then the climb.
    """
    v = N.values(X)
    balance = [v[1] / v[0]] if v[0] > 0 and v[1] > 0 else []
    moves = [(0, t) for t in balance + [0.25, 0.5, 0.8, 1.25, 2.0, 4.0]]
    X, ratio, _ = _walk(X, ratio, moves, scores)
    return _hill_climb(X, ratio, scores)


def estimate_two_disjoint_constant(
    N: NormOracle, budget: int = 400, seed: int = 0
) -> tuple[float, tuple[LatticeVector, LatticeVector]]:
    """Best found value of (N(x)+N(y))/N(x+y) over disjoint pairs.

    Deterministic unit-atom pairs are tried first, then seeded random
    disjoint pairs; every new best is refined by rescaling and a
    coordinatewise hill climb.  Best-so-far is monotone in the budget
    for a fixed seed.  The value is a lower bound on the true constant;
    it never exceeds 2 for 1-monotone norms.
    """
    if N.dim < 2:
        raise ValueError("dim must be >= 2: no disjoint pair has both parts nonzero")
    budget, seed = _count(budget, "budget"), _seed(seed)
    rng = np.random.default_rng(seed)
    dim = N.dim
    unit_pairs = list(itertools.islice(itertools.combinations(range(dim), 2), min(128, budget)))

    def candidates():
        for pair in unit_pairs:
            yield _units(dim, pair), True
        for _ in range(budget - len(unit_pairs)):
            x, y = random_disjoint_pair(rng, dim)
            yield _rows([x, y], dim), True

    ratio, X = _search(N, 1.0, candidates(), lambda X, r, scores: _refine_pair(N, X, r, scores))
    return ratio, (LatticeVector(X[0]), LatticeVector(X[1]))


def _check_c(c: float) -> float:
    """The one rule for a two-disjoint constant: a number c >= 1, which every norm has."""
    c = _real(c, "two-disjoint constant c")
    if not c >= 1.0:
        raise ValueError(f"two-disjoint constant c must be >= 1, got {c}")
    return c


def derived_exponent(c: float) -> float:
    """Exponent p = 2 ln2 / ln(2/c) of the lower p-estimate implied by c < 2."""
    c = _check_c(c)
    if c >= 2.0:
        raise ValueError(
            f"two-disjoint constant {c} >= 2: the lower-estimate hypothesis fails, no exponent exists"
        )
    return 2.0 * math.log(2.0) / math.log(2.0 / c)


# Euler-Maclaurin for sum_{i>=1} i^(-s): the first _EM_N - 1 terms directly,
# then the tail from _EM_N with the B2..B8 corrections; B_2k / (2k)! for k = 1..4
_EM_N = 64
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def lower_r_constant(c: float, p: float, r: float) -> float:
    """The constant c^2 * (sum_{i>=1} i^(-r/p))^(1/r), for r > p.

    The series zeta(s), s = r/p, is summed directly below n = 64 and its
    tail from n on by Euler-Maclaurin (DLMF §2.10, §25.2):
    n^(1-s)/(s-1) + n^(-s)/2 plus the B2, B4 and B6 corrections.  Every
    even derivative of x^(-s) is positive, so the remainder lies between
    0 and the omitted B8 term; half of that term is added.
    Fixed cost, deterministic, and accurate to a few ulp for every s > 1.
    """
    c = _check_c(c)
    p = _check_p(p)
    r = _real(r, "exponent r")
    if not r > p:
        raise ValueError(f"need r > p for the series to converge, got r={r}, p={p}")
    s = r / p
    n = _EM_N
    terms = [i ** -s for i in range(1, n)]
    a = n ** -s
    if a > 0.0:  # once n^(-s) underflows the tail is 0 to double precision
        terms += [n * a / (s - 1.0), 0.5 * a]
        deriv = s * a / n  # s (s+1) ... (s+2k-2) n^(-s-2k+1), from k = 1
        for k, coef in enumerate(_EM_COEFFS, start=1):
            terms.append(coef * deriv)
            deriv *= (s + 2 * k - 1) * (s + 2 * k) / (n * n)
        terms[-1] *= 0.5
    return c * c * math.fsum(terms) ** (1.0 / r)


@dataclass(frozen=True)
class InfChainCheck:
    """Result of the smallest-member bound checks on one disjoint family."""

    passed: bool
    dyadic_ok: bool
    powerlaw_ok: bool | None  # None when c >= 2: no derived exponent exists
    inf_norm: float
    total_norm: float
    dyadic_bound: float
    powerlaw_bound: float | None
    m: int
    k: int


def check_inf_chain(N: NormOracle, c: float, family) -> InfChainCheck:
    """Check the smallest member of a disjoint family against both bounds.

    Dyadic: min norm <= (c^(k+1) / 2^k) * N(sum), with 2^k <= m < 2^(k+1);
    power law: min norm <= (c / m^(1/p)) * N(sum) with p derived from c.
    The power-law half is skipped (None) when c >= 2.  Both bounds hold
    for the true constant c of the space; an undershooting estimate can
    legitimately fail them.  A c below 1 or NaN is no norm's constant
    and raises ValueError.
    """
    c = _check_c(c)
    X = _family_rows(family, N.dim)
    m = X.shape[0]
    k = m.bit_length() - 1
    v = N.values(np.vstack([X, X.sum(axis=0)]))
    inf_norm = float(v[:-1].min())
    total = float(v[-1])

    dyadic_bound = (c ** (k + 1) / 2.0 ** k) * total
    dyadic_ok = inf_norm <= dyadic_bound + REL_TOL * dyadic_bound + ABS_TOL

    powerlaw_bound: float | None = None
    powerlaw_ok: bool | None = None
    if c < 2.0:
        p = derived_exponent(c)
        powerlaw_bound = (c / m ** (1.0 / p)) * total
        powerlaw_ok = inf_norm <= powerlaw_bound + REL_TOL * powerlaw_bound + ABS_TOL

    return InfChainCheck(
        passed=bool(dyadic_ok and powerlaw_ok is not False),
        dyadic_ok=bool(dyadic_ok),
        powerlaw_ok=powerlaw_ok,
        inf_norm=inf_norm,
        total_norm=total,
        dyadic_bound=float(dyadic_bound),
        powerlaw_bound=powerlaw_bound,
        m=m,
        k=k,
    )


def _units(dim: int, atoms) -> np.ndarray:
    """The unit rows e_i, i in ``atoms``, in that order."""
    X = np.zeros((len(atoms), dim))
    X[np.arange(len(atoms)), list(atoms)] = 1.0
    return X


def _greedy_unit_family(N: NormOracle, p: float) -> np.ndarray:
    """Grow a family of unit atoms, adding whichever atom helps most.

    Each step scores the remaining atoms in batches, built as they are
    scored; the first strict best above the current ratio is taken.
    """
    chosen: list[int] = [0]
    best = next(_ratios(N, p, [_units(N.dim, chosen)]))
    while len(chosen) < N.dim:
        rest = [j for j in range(N.dim) if j not in chosen]
        step_best, step_atom = best, None
        for j, r in zip(rest, _ratios(N, p, (_units(N.dim, chosen + [j]) for j in rest))):
            if r > step_best:
                step_best, step_atom = r, j
        if step_atom is None:
            break
        chosen.append(step_atom)
        best = step_best
    return _units(N.dim, sorted(chosen))


def estimate_lower_p_constant(
    N: NormOracle, p: float, budget: int = 400, seed: int = 0
) -> tuple[float, list[LatticeVector]]:
    """Best found ratio (sum of norms^p)^(1/p) / N(sum) over disjoint families.

    Candidates: singleton unit atoms, a greedily grown unit-atom family,
    seeded random disjoint families, and exact-renorm decompositions of
    random small-support vectors (which tie this constant to the renorm
    equivalence audit).  Returns the best ratio and its witness family.
    """
    p = _check_p(p)
    budget, seed = _count(budget, "budget"), _seed(seed)
    rng = np.random.default_rng(seed)
    dim = N.dim

    def candidates():
        for i in range(dim):
            yield _units(dim, [i]), False
        yield _greedy_unit_family(N, p), True
        # scoring draws nothing from rng, so all candidates are drawn first
        # and the renorm candidates share one batch call
        draws = []
        for t in range(budget):
            if t % 2 == 0 and dim >= 2:
                m = int(rng.integers(1, min(dim, 8) + 1))
                # the public sampler on purpose: bench/tracing.py reaches random_disjoint_family only here
                draws.append(random_disjoint_family(rng, dim, m))
            else:
                size = int(rng.integers(1, min(dim, 8, EXACT_THRESHOLD) + 1))
                draws.append(random_vector(rng, dim, support_size=size))
        batch = renorm_batch(N, p, [d for d in draws if isinstance(d, LatticeVector)])
        witnesses = (batch.witness(i).blocks for i in range(len(batch)))
        for d in draws:
            if isinstance(d, LatticeVector):
                d = [restrict(d, blk) for blk in next(witnesses)]
            yield _rows(d, dim), True

    ratio, X = _search(N, p, candidates(), _hill_climb)
    return ratio, [LatticeVector(row) for row in X]


def verify_lower_r_estimate(N: NormOracle, r: float, K: float, trials: int = 10_000, seed: int = 0) -> int:
    """Count sampled disjoint families violating (sum norms^r)^(1/r) <= K*N(sum); needs 1 <= r < inf."""
    r = _check_p(r)
    if isinstance(K, bool) or not (isinstance(K, Real) and math.isfinite(K)):
        raise ValueError(f"K must be a finite number, got {K!r}")
    trials, seed = _count(trials, "trials"), _seed(seed)
    rng = np.random.default_rng(seed)
    counts = (int(rng.integers(1, min(N.dim, 8) + 1)) for _ in range(trials))
    violations = 0
    for lhs, total in _lower_estimates(N, r, _sampled_runs(rng, N.dim, counts)):
        rhs = K * total
        if not lhs <= rhs + REL_TOL * abs(rhs) + ABS_TOL:  # a NaN side is a violation
            violations += 1
    return violations


@dataclass
class EstimateReport(_Report):
    """Full constant-estimation pipeline output for one space."""

    norm: dict
    seed: int
    c_hat: float
    c_witness: tuple[LatticeVector, LatticeVector]
    hypothesis_satisfied: bool  # c_hat < 2 up to HYPOTHESIS_MARGIN
    p_derived: float | None
    kr_table: list[tuple[float, float]]
    lower_p_constant: float | None
    lower_p_witness: list[LatticeVector] | None
    budget_used: dict[str, int]


def run_estimate_pipeline(
    N: NormOracle,
    budget: int = 400,
    seed: int = 0,
    rs: tuple[float, ...] | None = None,
) -> EstimateReport:
    """c_hat, then (if c_hat < 2) exponent, series constants, and C.

    When the measurement lands at 2 the report carries
    ``hypothesis_satisfied = False`` and the derived quantities are
    None; that is a finding, not an error.
    """
    if not (rs is None or isinstance(rs, (list, tuple))):  # gated before the search, r > p once p is known
        raise ValueError(f"rs must be None or a list or tuple of exponents r, got {rs!r}")
    rs = None if rs is None else [_real(r, "exponent r") for r in rs]
    seed = _seed(seed)
    c_hat, c_witness = estimate_two_disjoint_constant(N, budget=budget, seed=seed)
    budgets = {"two_disjoint": budget}
    satisfied = c_hat < 2.0 - HYPOTHESIS_MARGIN

    p_derived: float | None = None
    kr_table: list[tuple[float, float]] = []
    C: float | None = None
    witness: list[LatticeVector] | None = None
    if satisfied:
        p_derived = derived_exponent(c_hat)
        chosen_rs = rs if rs is not None else (p_derived + 1.0, p_derived + 2.0)
        for r in chosen_rs:
            kr_table.append((r, lower_r_constant(c_hat, p_derived, r)))
        C, witness = estimate_lower_p_constant(N, p_derived, budget=budget, seed=seed + 1)
        budgets["lower_p"] = budget

    return EstimateReport(
        norm=N.describe(),
        seed=seed,
        c_hat=c_hat,
        c_witness=c_witness,
        hypothesis_satisfied=bool(satisfied),
        p_derived=p_derived,
        kr_table=kr_table,
        lower_p_constant=C,
        lower_p_witness=witness,
        budget_used=budgets,
    )
