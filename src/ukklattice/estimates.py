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

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .norms import NormOracle, _check_p, report_dict
from .renorm import ABS_TOL, EXACT_THRESHOLD, REL_TOL, block_terms, fold_terms, renorm_batch
from .sampling import random_disjoint_family, random_disjoint_pair, random_vector
from .vectors import LatticeVector, _family_rows, _rows, restrict

__all__ = [
    "estimate_two_disjoint_constant",
    "derived_exponent",
    "lower_r_constant",
    "InfChainCheck",
    "check_inf_chain",
    "estimate_lower_p_constant",
    "verify_lower_r_estimate",
    "family_power_ratio",
    "EstimateReport",
    "run_estimate_pipeline",
]

HYPOTHESIS_MARGIN = 1e-9  # c_hat must clear 2 by this much to count as c < 2


def _lower_estimate(N: NormOracle, p: float, X: np.ndarray) -> tuple[float, float]:
    """(fold of row norms^p)^(1/p) and N(sum of rows), for disjoint rows ``X``.

    One ``N.values`` call evaluates the rows and their sum.  The terms fold in
    order of smallest support atom (zero rows first), as the renorm objective
    does; at p = 1 on two rows this is N(x) + N(y) exactly.
    """
    nz = X != 0.0
    first = np.where(nz.any(axis=1), nz.argmax(axis=1), -1)
    v = N.values(np.vstack([X[np.argsort(first, kind="stable")], X.sum(axis=0)]))
    return fold_terms(block_terms(v[:-1], p)) ** (1.0 / p), float(v[-1])


def _ratio(N: NormOracle, p: float, X: np.ndarray) -> float:
    """The lower-estimate ratio of disjoint rows ``X``; 0 when their sum has norm 0."""
    num, denom = _lower_estimate(N, p, X)
    return num / denom if denom > 0.0 else 0.0


def _hill_climb(X: np.ndarray, best: float, score) -> tuple[np.ndarray, float]:
    """Coordinatewise rescaling hill climb over the rows of ``X``; supports fixed.

    Each nonzero entry is scaled by each factor in turn and a strict
    improvement of ``score(X)`` is kept at once; at most two sweeps.
    """
    for _ in range(2):
        improved = False
        for i in range(X.shape[0]):
            for j in np.flatnonzero(X[i]):
                for f in (0.5, 0.8, 1.25, 2.0):
                    cand = X.copy()
                    cand[i, j] *= f
                    r = score(cand)
                    if r > best:
                        X, best, improved = cand, r, True
        if not improved:
            break
    return X, best


def _search(N: NormOracle, p: float, candidates, refine) -> tuple[float, np.ndarray]:
    """Best ratio at ``p`` over lazily yielded (rows, refine?) candidates.

    Each new best is first improved by ``refine(X, ratio, score)``.
    """

    def score(X):
        return _ratio(N, p, X)

    best, best_X = -1.0, None
    for X, polish in candidates:
        r = score(X)
        if r > best:
            if polish:
                X, r = refine(X, r, score)
            best, best_X = r, X
    return best, best_X


def _refine_pair(N: NormOracle, X: np.ndarray, ratio: float, score) -> tuple[np.ndarray, float]:
    """Local improvement of a disjoint pair of rows; supports never change.

    The first row is rescaled to balance the two norms (equal norms maximize
    the ratio for the q-norms), then by a grid on the best so far; then the climb.
    """
    v = N.values(X)
    balance = [v[1] / v[0]] if v[0] > 0 and v[1] > 0 else []
    for t in balance + [0.25, 0.5, 0.8, 1.25, 2.0, 4.0]:
        cand = X.copy()
        cand[0] *= t
        r = score(cand)
        if r > ratio:
            X, ratio = cand, r
    return _hill_climb(X, ratio, score)


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
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    dim = N.dim
    eye = np.eye(dim)
    unit_pairs = [[i, j] for i in range(dim) for j in range(i + 1, dim)][: min(128, budget)]

    def candidates():
        for pair in unit_pairs:
            yield eye[pair], True
        for _ in range(budget - len(unit_pairs)):
            x, y = random_disjoint_pair(rng, dim)
            yield _rows([x, y], dim), True

    ratio, X = _search(N, 1.0, candidates(), lambda X, r, score: _refine_pair(N, X, r, score))
    return ratio, (LatticeVector(X[0]), LatticeVector(X[1]))


def _check_c(c: float) -> float:
    """The one rule for a two-disjoint constant: c >= 1, which every norm has."""
    c = float(c)
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
    r = float(r)
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


def family_power_ratio(N: NormOracle, p: float, family) -> float:
    """(fold of member norms^p)^(1/p) / N(sum), the lower-estimate ratio of a disjoint family."""
    return _ratio(N, _check_p(p), _family_rows(family, N.dim))


def _greedy_unit_family(N: NormOracle, p: float) -> np.ndarray:
    """Grow a family of unit atoms, adding whichever atom helps most."""
    eye = np.eye(N.dim)
    chosen: list[int] = [0]
    best = _ratio(N, p, eye[chosen])
    while len(chosen) < N.dim:
        step_best, step_atom = best, None
        for j in range(N.dim):
            if j in chosen:
                continue
            r = _ratio(N, p, eye[chosen + [j]])
            if r > step_best:
                step_best, step_atom = r, j
        if step_atom is None:
            break
        chosen.append(step_atom)
        best = step_best
    return eye[sorted(chosen)]


def estimate_lower_p_constant(
    N: NormOracle, p: float, budget: int = 400, seed: int = 0
) -> tuple[float, list[LatticeVector]]:
    """Best found ratio (sum of norms^p)^(1/p) / N(sum) over disjoint families.

    Candidates: singleton unit atoms, a greedily grown unit-atom family,
    seeded random disjoint families, and exact-renorm decompositions of
    random small-support vectors (which tie this constant to the renorm
    equivalence audit).  Returns the best ratio and its witness family.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    dim = N.dim

    def candidates():
        eye = np.eye(dim)
        for i in range(dim):
            yield eye[[i]], False
        yield _greedy_unit_family(N, p), True
        # scoring draws nothing from rng, so all candidates are drawn first
        # and the renorm candidates share one batch call
        draws = []
        for t in range(budget):
            if t % 2 == 0 and dim >= 2:
                m = int(rng.integers(1, min(dim, 8) + 1))
                draws.append(random_disjoint_family(rng, dim, m))
            else:
                size = int(rng.integers(1, min(dim, 8, EXACT_THRESHOLD) + 1))
                draws.append(random_vector(rng, dim, support_size=size))
        batch = renorm_batch(N, p, [d for d in draws if isinstance(d, LatticeVector)])
        witnesses = (batch.witness(i).blocks for i in range(len(batch)))
        for d in draws:
            if isinstance(d, LatticeVector):
                d = [restrict(d, blk) for blk in next(witnesses)]
            if d:
                yield _rows(d, dim), True

    ratio, X = _search(N, p, candidates(), _hill_climb)
    return ratio, [LatticeVector(row) for row in X]


def verify_lower_r_estimate(N: NormOracle, r: float, K: float, trials: int = 10_000, seed: int = 0) -> int:
    """Count sampled disjoint families violating (sum norms^r)^(1/r) <= K*N(sum); needs 1 <= r < inf."""
    r = _check_p(r)
    if not (isinstance(K, Real) and math.isfinite(K)):
        raise ValueError(f"K must be a finite number, got {K!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    dim = N.dim
    violations = 0
    for _ in range(trials):
        m = int(rng.integers(1, min(dim, 8) + 1))
        X = _rows(random_disjoint_family(rng, dim, m), dim)
        lhs, total = _lower_estimate(N, r, X)
        rhs = K * total
        if lhs > rhs + REL_TOL * abs(rhs) + ABS_TOL:
            violations += 1
    return violations


@dataclass
class EstimateReport:
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

    def to_dict(self) -> dict:
        return report_dict(self)


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
        kr_table = [(float(r), lower_r_constant(c_hat, p_derived, float(r))) for r in chosen_rs]
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
