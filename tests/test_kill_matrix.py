"""Which verdict catches which mutant of the renorm engine: a kill matrix.

Each mutant of ``mutants.py`` replaces ``renorm_batch`` in the renorm and
ukk namespaces.  Four counts, read off three verdicts, are then taken on
each of three spaces, all at seed 3:

``ukk``       trials of a 30-trial bump campaign (horizon 8) that do not pass
``lower``     lower violations of ``audit_equivalence`` over 200 samples
``upper``     its upper violations
``superadd``  failed ``check_superadditivity`` checks of 60 disjoint pairs
              drawn on the first 10 atoms

The real engine sets off none of them.  Every cell of the matrix is
pinned: a caught mutant by its nonzero counts, an escape by its reason.
A verdict that starts or stops catching a mutant fails here.
"""

import numpy as np
import pytest

from mutants import MUTANTS, install
from ukklattice import (
    LatticeVector,
    LqNorm,
    PosNegMaxNorm,
    audit_equivalence,
    check_superadditivity,
    random_disjoint_pair,
    run_bump_campaign,
)

SEED = 3

# space id -> (N, p, C), C the upper constant of the equivalence audit
SPACES = {
    "Lq3-p2": (LqNorm(3, 20), 2.0, 20 ** (1 / 6)),
    "Lq2-p4": (LqNorm(2, 20), 4.0, 1.0),
    "PosNegMax-p2": (PosNegMaxNorm(LqNorm(2, 20)), 2.0, 2.0),
}

# (mutant, space) -> the counts that are not 0
CAUGHT = {
    ("one block", "Lq3-p2"): {"ukk": 9, "superadd": 60},
    ("one block", "PosNegMax-p2"): {"ukk": 8, "superadd": 31},
    ("x(1-1e-6)", "Lq3-p2"): {"lower": 44},
    ("x(1-1e-6)", "Lq2-p4"): {"lower": 200},
    ("x(1-1e-6)", "PosNegMax-p2"): {"lower": 70},
    ("x(1+1e-3)", "Lq2-p4"): {"upper": 200},
    ("all singletons", "Lq2-p4"): {"lower": 156},
}

_SCALED_UP = ("is the renorm of the norm 1.001 N, itself p-superadditive, so only the upper bound of the "
              "equivalence audit could see it, and {} leaves more than 1e-3 of headroom")
# (mutant, space) -> why no verdict catches it
ESCAPES = {
    ("one block", "Lq2-p4"): "at p = 4 >= q = 2 one block is the best decomposition: the mutant is the true renorm",
    ("x(1+1e-3)", "Lq3-p2"): _SCALED_UP.format("C = 20^(1/6) over the renorm's 6^(1/6) on supports <= 6"),
    ("x(1+1e-3)", "PosNegMax-p2"): _SCALED_UP.format("C = 2 over the renorm's sqrt(2)"),
    ("all singletons", "Lq3-p2"): "at p = 2 < q = 3 singletons are the best decomposition: the mutant is the true renorm",
    ("all singletons", "PosNegMax-p2"): "at p = 2 a block's N^2, the larger of its parts' squared L2 norms, is at "
                                        "most its singletons' sum: the mutant is the true renorm",
}


def _pairs(dim: int):
    rng = np.random.default_rng(SEED)
    pad = np.zeros(dim - 10)
    for _ in range(60):
        x, y = random_disjoint_pair(rng, 10)
        yield LatticeVector(np.concatenate([x.coords, pad])), LatticeVector(np.concatenate([y.coords, pad]))


def _flagged(space: str) -> dict:
    """The verdicts' counts on ``space`` that are not 0."""
    N, p, C = SPACES[space]
    campaign = run_bump_campaign(N, p, 30, seed=SEED, horizon=8)
    audit = audit_equivalence(N, p, C, samples=200, seed=SEED)
    counts = {
        "ukk": campaign.total - campaign.passed,
        "lower": audit.lower_violations,
        "upper": audit.upper_violations,
        "superadd": sum(not check_superadditivity(N, p, x, y).passed for x, y in _pairs(N.dim)),
    }
    return {k: v for k, v in counts.items() if v}


def test_every_cell_is_caught_or_an_expected_escape():
    cells = {(m, s) for m in MUTANTS for s in SPACES}
    assert set(CAUGHT) | set(ESCAPES) == cells
    assert not set(CAUGHT) & set(ESCAPES)


@pytest.mark.parametrize("space", SPACES)
def test_real_engine_sets_off_no_verdict(space):
    assert _flagged(space) == {}


@pytest.mark.parametrize("mutant,space", CAUGHT, ids=[f"{m}-{s}" for m, s in CAUGHT])
def test_mutant_is_caught(monkeypatch, mutant, space):
    install(monkeypatch, mutant)
    assert _flagged(space) == CAUGHT[mutant, space]


@pytest.mark.parametrize("mutant,space", ESCAPES, ids=[f"{m}-{s}" for m, s in ESCAPES])
def test_expected_escape(monkeypatch, mutant, space):
    install(monkeypatch, mutant)
    assert _flagged(space) == {}, ESCAPES[mutant, space]
