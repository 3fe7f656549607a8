"""Output checks, the determinism digest, and the checker's self-test.

Checks run outside the timed region and are the only part of the
benchmark that reads results.  An op fails when it raised or when any
check on its result fails; failures feed ``failed_frac``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math

import numpy as np

from ukklattice.partitions import iter_set_partitions

_renorm = importlib.import_module("ukklattice.renorm")
_ukk = importlib.import_module("ukklattice.ukk")

BRUTE_FORCE_MAX_SUPPORT = 8
# fl(fl(t^p)^(1/p)) can land one ulp below t; two ulps bound that rounding
ROOT_ROUNDING = 2.0 * np.finfo(np.float64).eps


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


class Digest:
    """sha256 over the canonical JSON of every op result, in op order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, text: str | None) -> None:
        """Add one result as canonical JSON; None marks a result JSON cannot hold."""
        self._h.update(("null" if text is None else text).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _fold(terms) -> float:
    acc = 0.0
    for t in reversed(terms):
        acc = t + acc
    return acc


def brute_force_power_sum(N, p: float, x) -> float:
    """Maximum over every set partition of supp(x) of the folded objective.

    Block terms are evaluated once per support subset and folded in the
    library's canonical order, so the maximum is comparable bit for bit.
    """
    supp = np.flatnonzero(x.coords)
    s = supp.size
    masks = (np.arange(1 << s)[:, None] >> np.arange(s)[None, :]) & 1
    rows = np.zeros((1 << s, x.dim))
    rows[:, supp] = masks * x.coords[supp][None, :]
    terms = [float(v) ** p for v in N.values(rows).tolist()]
    best = -math.inf
    for blocks in iter_set_partitions(range(s)):
        best = max(best, _fold([terms[sum(1 << j for j in blk)] for blk in blocks]))
    return best


@dataclasses.dataclass
class RenormTally:
    """Ops whose value fell below N(x) only by the final root's rounding."""

    root_rounding_shortfalls: int = 0


def check_renorm(N, p: float, x, res, tally: RenormTally) -> bool:
    """Witness replay bit for bit, value >= N(x), brute force at small support."""
    replay = _renorm.partition_power_sum(N, p, x, res.witness.blocks)
    if replay != res.power_sum:
        return False
    base = N(x)
    if res.value < base:
        # one-block decomposition admissible: power_sum >= N(x)^p exactly,
        # and the root may only lose its own rounding
        if not (res.power_sum >= base**p and res.value >= base * (1.0 - ROOT_ROUNDING)):
            return False
        tally.root_rounding_shortfalls += 1
    if np.count_nonzero(x.coords) <= BRUTE_FORCE_MAX_SUPPORT:
        return brute_force_power_sum(N, p, x) == res.power_sum
    return True


def check_campaign(campaign, mode: str) -> bool:
    """Bump trials are valid and passed; a valid fuzz trial passed."""
    if campaign.total != len(campaign.trials) or not campaign.trials:
        return False
    for t in campaign.trials:
        if mode == "bump" and not t.valid:
            return False
        if t.valid and t.passed is not True:
            return False
    return True


def check_space(audit, report, violations, expect_hypothesis: bool) -> bool:
    return (
        audit.passed
        and sum(violations) == 0
        and len(violations) == len(report.kr_table)
        and report.hypothesis_satisfied == expect_hypothesis
    )


def check_cli(returncode: int, out_files: dict[str, int]) -> bool:
    """Exit 0 and at least one nonempty report file."""
    return returncode == 0 and bool(out_files) and all(n > 0 for n in out_files.values())


def self_test() -> list[str]:
    """Feed known-bad results to the checker; return those it let through.

    A renorm result one ulp high, a bump trial marked not passed, and a CLI
    exit code of 2 must each count as one failed op.  The untouched
    originals come from the program under test, so whether they pass is
    left to the run itself.
    """
    from ukklattice.norms import LqNorm
    from ukklattice.vectors import LatticeVector

    N = LqNorm(3, 6)
    x = LatticeVector([0.5, -0.25, 0.0, 0.75, 0.0, 0.125])
    res = _renorm.renorm(N, 2.0, x)
    high = dataclasses.replace(res, power_sum=float(np.nextafter(res.power_sum, math.inf)))
    camp = _ukk.run_bump_campaign(LqNorm(2, 8), 2.0, trials=1, seed=0, horizon=4)
    not_passed = dataclasses.replace(camp, trials=[dataclasses.replace(camp.trials[0], passed=False)])

    known_bad = {
        "renorm result one ulp high": check_renorm(N, 2.0, x, high, RenormTally()),
        "bump trial not passed": check_campaign(not_passed, "bump"),
        "cli exit code 2": check_cli(2, {"out": 1}),
    }
    failed = sum(1 for ok in known_bad.values() if not ok)
    missed = [name for name, ok in known_bad.items() if ok]
    if failed != len(known_bad) and not missed:
        missed.append(f"{failed} of {len(known_bad)} counted as failed")
    return missed
