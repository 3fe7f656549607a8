"""Finite-horizon trials of the uniform Kadec-Klee property of the renorm.

A trial is a finite, coordinatewise-convergent, pairwise-separated
sequence inside the renorm unit ball together with its declared limit;
the verdict checks the explicit modulus: the limit's renorm must not
exceed 1 - delta(epsilon, p).  Trials produced by the disjoint-bump
generator satisfy the verified preconditions by construction, so any
failing bump trial indicates a defect in the renorm or the modulus,
never a mathematical discovery.

Honesty notes baked into the design:

* Coordinatewise convergence at a finite horizon is read as "every
  coordinate settles within the horizon, except coordinates whose first
  movement happens in the final quarter (still in flight)".  The full
  quantified property concerns infinite sequences; a finite campaign
  samples witnesses and can refute, never certify, the universal claim.
* Separation distances computed heuristically are only lower bounds;
  such trials are flagged advisory.
* A trial whose measured separation is inconsistent with the distances
  to the limit (epsilon/2 > min distance) cannot be a prefix of a
  genuine separated convergent sequence and is classified invalid, so
  adversarial fuzz sequences can never manufacture a false violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import NormOracle, _check_p, _count, _real, _Report, _seed, report_dict
from .renorm import renorm, renorm_batch
from .sampling import random_coords, random_vector
from .vectors import LatticeVector, _rows, truncate

__all__ = [
    "ukk_modulus",
    "generate_bump_sequence",
    "Separation",
    "measure_separation",
    "check_truncation_vanishing",
    "UkkTrial",
    "run_ukk_trial",
    "UkkCampaign",
    "run_bump_campaign",
]

# the one tolerance of a trial's ball, convergence, consistency and pass rules:
# a constant, so that every record replays to itself
_TOL = 1e-9


def ukk_modulus(epsilon: float, p: float) -> float:
    """delta = 1 - (1 - (epsilon/2)^p)^(1/p), for 0 < epsilon <= 2, p >= 1.

    Strictly increasing in epsilon; equals 1 at epsilon = 2.  Separation
    above 2 is impossible in the unit ball of the p-superadditive
    renorm, hence the domain cap.
    """
    epsilon = _real(epsilon, "separation")
    p = _check_p(p)
    if not 0.0 < epsilon <= 2.0:
        raise ValueError(f"separation must lie in (0, 2], got {epsilon}")
    return 1.0 - (1.0 - (epsilon / 2.0) ** p) ** (1.0 / p)


def generate_bump_sequence(
    N: NormOracle,
    p: float,
    core: LatticeVector,
    bump_height: float,
    horizon: int = 64,
) -> list[LatticeVector]:
    """x_n = core + bump_height * e_(fresh atom n), verified in the unit ball.

    Fresh atoms start right after the core's last support atom, one per
    element, so the elements' differences from the core are pairwise
    disjoint and every coordinate is eventually constant.  Each element's
    renorm is checked against 1 + ``_TOL``; a violation raises with the
    offending index.  ``core`` is a vector or a coordinate list.
    """
    c = _rows([core], N.dim)[0]
    horizon, bump_height = _count(horizon, "horizon"), _real(bump_height, "bump_height")
    X = _bump_rows(c, bump_height, horizon)
    for n, value in enumerate(renorm_batch(N, p, X).values):
        if value > 1.0 + _TOL:
            raise ValueError(f"element {n} lies outside the renorm unit ball: {value}")
    return [LatticeVector(x) for x in X]


def _bump_rows(core: np.ndarray, bump_height: float, horizon: int) -> np.ndarray:
    """Rows core + bump_height * e_(first_fresh + n), n < horizon, first_fresh right after the core's support.

    The bumps ride on a zero matrix added to the core, so each row equals
    ``core + LatticeVector.unit(...)`` bit for bit, signed zeros included;
    a core whose dim has no room for ``horizon`` fresh atoms raises ValueError.
    """
    supp = np.flatnonzero(core)
    first_fresh = int(supp[-1]) + 1 if supp.size else 0
    if first_fresh + horizon > core.size:
        raise ValueError(
            f"ambient dim {core.size} too small: need {first_fresh + horizon} atoms "
            f"for the core plus {horizon} fresh bumps"
        )
    bumps = np.zeros((horizon, core.size))
    bumps[np.arange(horizon), first_fresh + np.arange(horizon)] = bump_height
    return core + bumps


@dataclass(frozen=True)
class Separation:
    """Minimum pairwise renorm distance; advisory if any distance was heuristic."""

    value: float
    advisory: bool


def measure_separation(sequence, N: NormOracle, p: float) -> Separation:
    """Min over n != m of renorm(x_n - x_m).

    Heuristic renorm values are lower bounds on the true distances, so a
    separation involving them is itself only a lower bound; the flag
    says so.
    """
    X = _rows(sequence, N.dim)
    if len(X) < 2:
        raise ValueError("separation needs at least two elements")
    n, m = np.triu_indices(len(X), 1)
    res = renorm_batch(N, p, X[n] - X[m])
    return Separation(float(min(res.values)), "heuristic" in res.methods)


def _tracks_settle(T: np.ndarray, tol: float) -> bool:
    """Finite-horizon reading of the deviation tracks in the columns of ``T``.

    A track fails if any entry is non-finite, or if it is above ``tol`` at its last
    entry and already was before the final quarter; else it settled or is in flight.
    """
    moving = T > tol
    # the final quarter starts at this row; movements starting there are "in flight"
    cutoff = max(1, math.ceil(0.75 * len(T)))
    return bool(np.isfinite(T).all()) and not np.any(moving[-1] & moving[:cutoff].any(axis=0))


def check_truncation_vanishing(
    u: LatticeVector,
    sequence,
    declared_limit,
    N: NormOracle,
) -> bool:
    """Do both truncation norms vanish along the sequence?

    Tracks N(truncate(u, x_n - limit)) and N(truncate(x_n - limit, u));
    both must fall and stay below ``_TOL`` within the horizon (same
    settled-or-in-flight reading as the trial's convergence rule).  For
    1-monotone norms this follows from coordinatewise convergence via
    the bound by twice the norm of |x_n - limit| meet |u|, with one
    finite-horizon caveat: when u overlaps atoms whose movement is
    still in flight at the end of the horizon (a bump landing in the
    final quarter), the norm track cannot have settled yet and the
    check reports False even though the infinite extension vanishes.
    Choosing u on settled atoms avoids the artifact.  ``u`` and the
    limit are vectors or coordinate lists, gated like the sequence.
    """
    u = LatticeVector(_rows([u], N.dim)[0])
    D = _rows(sequence, N.dim) - _rows([declared_limit], N.dim)[0]
    if not len(D):
        raise ValueError("empty sequence")
    tracks = [(N(truncate(u, d)), N(truncate(d, u))) for d in map(LatticeVector, D)]
    return _tracks_settle(np.array(tracks), _TOL)


@dataclass
class UkkTrial(_Report):
    """One finite-horizon trial record; serializable for replay."""

    valid: bool
    advisory: bool
    seed: int
    p: float
    horizon: int
    norm: dict
    sequence: list[list[float]]
    declared_limit: list[float]
    reason: str | None = None  # set when invalid
    # the verdict, None when invalid
    passed: bool | None = None
    epsilon: float | None = None
    delta: float | None = None
    limit_renorm: float | None = None
    min_dist_to_limit: float | None = None
    liminf_ok: bool | None = None  # epsilon/2 <= min distance to limit + _TOL


def run_ukk_trial(
    N: NormOracle,
    p: float,
    sequence,
    declared_limit,
    seed: int = 0,
) -> UkkTrial:
    """Verify preconditions, then the modulus bound on the declared limit.

    Precondition failures (outside the ball, not convergent, a pairwise
    difference beyond binary64, not separated, separation inconsistent
    with the limit distances) yield an invalid trial with the reason
    recorded; they are never counted as property violations.  For a valid trial:
    pass  iff  renorm(limit) <= 1 - delta(epsilon, p) + ``_TOL``.
    ``sequence`` is rows or vectors, ``declared_limit`` a vector or a list: a record replays as written.

    The convergence tracks need no renorm, so they are read first; one
    ``renorm_batch`` then takes the elements, and, when the tracks
    settle, the distances ``x_n - limit`` and the limit too.  The
    separation is a second batch.  The reasons are still checked in the
    order above, and an invalid trial is advisory exactly when a
    heuristic renorm came before its reason: for an element outside the
    ball, among the elements up to it.
    """
    p, seed = _check_p(p), _seed(seed)
    X = _rows(sequence, N.dim)
    limit = _rows([declared_limit], N.dim)[0]
    base = dict(seed=seed, p=p, horizon=len(X), norm=N.describe(), sequence=X.tolist(),
                declared_limit=limit.tolist())
    advisory = False

    def invalid(reason: str) -> UkkTrial:  # flagged advisory if any renorm so far was heuristic
        return UkkTrial(False, advisory, reason=reason, **base)

    if len(X) < 2:
        return invalid("need at least two elements")

    n = len(X)
    D = X - limit  # deviations from the limit: read for convergence, then renormed as distances
    settled = _tracks_settle(np.abs(D), _TOL)
    res = renorm_batch(N, p, np.vstack([X, D, limit]) if settled else X)
    for i, (value, method) in enumerate(zip(res.values[:n], res.methods[:n])):
        advisory = advisory or method == "heuristic"
        if value > 1.0 + _TOL:
            return invalid(f"element {i} outside the renorm unit ball ({value})")

    if not settled:
        return invalid("coordinatewise convergence to the declared limit not established at this horizon")

    with np.errstate(over="ignore"):  # a coordinate's largest pairwise difference bounds all the others
        if not np.isfinite(np.ptp(X, axis=0)).all():
            return invalid("a pairwise difference x_n - x_m overflows binary64: separation not measured")
    sep = measure_separation(X, N, p)
    advisory = advisory or sep.advisory
    epsilon = sep.value
    if not epsilon > 0.0:
        return invalid("sequence is not separated (epsilon = 0)")

    advisory = advisory or "heuristic" in res.methods[n : 2 * n]
    min_dist = float(min(res.values[n : 2 * n]))
    if not epsilon / 2.0 <= min_dist + _TOL:
        return invalid("separation inconsistent with distances to the limit (finite-horizon artifact)")

    delta = ukk_modulus(min(epsilon, 2.0), p)
    limit_renorm = res.values[-1]
    advisory = advisory or res.methods[-1] == "heuristic"
    return UkkTrial(
        True,
        advisory,
        passed=bool(limit_renorm <= 1.0 - delta + _TOL),
        epsilon=epsilon,
        delta=delta,
        limit_renorm=limit_renorm,
        min_dist_to_limit=min_dist,
        liminf_ok=True,
        **base,
    )


@dataclass
class UkkCampaign:
    """Aggregate of a trial campaign; failed > 0 signals an implementation bug."""

    norm: dict
    p: float
    mode: str
    horizon: int
    seed: int
    trials: list[UkkTrial]
    total: int
    valid: int
    passed: int
    failed: int
    invalid: int
    advisory: int
    min_margin: float | None  # min over valid trials of (1 - delta + _TOL) - limit_renorm

    def to_dict(self, include_trials: bool = True) -> dict:
        return report_dict(self, omit=() if include_trials else ("trials",))


def _bump_trial(
    N: NormOracle, p: float, rng: np.random.Generator, index: int, horizon: int
) -> UkkTrial:
    dim = N.dim
    core_room = dim - horizon
    if core_room < 1:
        raise ValueError(f"oracle dim {dim} leaves no room for a core before {horizon} bumps")
    size = int(rng.integers(1, min(3, core_room) + 1))
    atoms = np.sort(rng.choice(core_room, size=size, replace=False))
    coords = np.zeros(dim, dtype=np.float64)
    coords[atoms] = random_coords(rng, size)
    bump = float(rng.uniform(0.3, 1.0))

    # scale the whole family into the unit ball, with headroom for rounding
    worst = max(0.0, *renorm_batch(N, p, _bump_rows(coords, bump, horizon)).values)
    scale = (1.0 - 1e-12) / worst
    core = coords * scale
    bump = bump * scale

    seq = generate_bump_sequence(N, p, core, bump, horizon=horizon)
    return run_ukk_trial(N, p, seq, core, seed=index)


def _fuzz_trial(
    N: NormOracle, p: float, rng: np.random.Generator, index: int, horizon: int
) -> UkkTrial:
    dim = N.dim
    limit = random_vector(rng, dim, support_size=int(rng.integers(1, min(4, dim) + 1)))
    r = renorm(N, p, limit).value
    limit = limit * (0.9 / r)

    decay = float(rng.uniform(0.4, 0.8))
    # renorm draws nothing from rng, so drawing all the noise first keeps the stream
    noises = [random_vector(rng, dim, support_size=int(rng.integers(1, min(3, dim) + 1))) for _ in range(horizon)]
    seq = [
        limit + noise * (0.09 * decay**n / nr)
        for n, (noise, nr) in enumerate(zip(noises, renorm_batch(N, p, noises).values))
    ]
    return run_ukk_trial(N, p, seq, limit, seed=index)


_TRIAL_KINDS = {"bump": _bump_trial, "fuzz": _fuzz_trial}


def run_bump_campaign(
    N: NormOracle,
    p: float,
    trials: int,
    seed: int = 0,
    mode: str = "bump",
    horizon: int = 16,
) -> UkkCampaign:
    """Run a seeded campaign of UKK trials.

    ``bump`` mode generates disjoint-bump families (always valid, and
    guaranteed to pass when the renorm is correct); ``fuzz`` mode
    generates non-disjoint decaying perturbations whose trials may be
    invalid but, by the validity rules, never yield a false violation.
    """
    if not (isinstance(mode, str) and mode in _TRIAL_KINDS):  # an unhashable mode, a list say, is unknown too
        raise ValueError(f"unknown campaign mode {mode!r}")
    p, seed = _check_p(p), _seed(seed)
    trials, horizon = _count(trials, "trials"), _count(horizon, "horizon")
    rng = np.random.default_rng(seed)
    records = [_TRIAL_KINDS[mode](N, p, rng, t, horizon) for t in range(trials)]
    valid = [t for t in records if t.valid]
    return UkkCampaign(
        norm=dict(records[0].norm),  # trial 0 described N already; a copy keeps its record its own
        p=p,
        mode=mode,
        horizon=horizon,
        seed=seed,
        trials=records,
        total=len(records),
        valid=len(valid),
        passed=sum(1 for t in valid if t.passed),
        failed=sum(1 for t in valid if not t.passed),
        invalid=len(records) - len(valid),
        advisory=sum(1 for t in records if t.advisory),
        min_margin=min(((1.0 - t.delta + _TOL) - t.limit_renorm for t in valid), default=None),
    )
