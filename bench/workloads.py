"""The three benchmark workloads: seeded op schedules over the public API.

Each workload is a closed loop with one client.  Its ops are grouped in
cycles; cycle ``c`` of seed ``s`` draws its inputs from
``numpy.random.default_rng([s, c])``, so the same seed always gives the
same ops.  One round is the first ``cycles_per_round`` cycles.  The
library is reached through module attributes at call time
(``_renorm.renorm(...)``), so boundary wrappers installed by the traced
run see every call the benchmark makes.

Cycle compositions are fixed so that, sorted by cost, the median op and
the tail op (the 11th slowest of a round) each fall inside a group of
identical op kinds rather than on the boundary between two groups; a
boundary would make those metrics jump between seeds.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

import checks
from ukklattice.vectors import LatticeVector

_config = importlib.import_module("ukklattice.config")
_estimates = importlib.import_module("ukklattice.estimates")
_norms = importlib.import_module("ukklattice.norms")
# the package re-exports the function ``renorm``, which shadows the submodule
_renorm = importlib.import_module("ukklattice.renorm")
_ukk = importlib.import_module("ukklattice.ukk")


def _pairs(n: int) -> list[list[int]]:
    return [[2 * i, 2 * i + 1] for i in range(n)]


def _triples(n: int) -> list[list[int]]:
    return [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(n)]


@dataclass(frozen=True)
class Op:
    """One closed-loop request: the kind names the input group it belongs to."""

    kind: str
    space: str
    args: tuple


class Workload:
    """Norm specs, warm-up, seeded cycles, op execution and the CLI twin."""

    name: str
    why: str
    specs: dict[str, dict]
    cli_command: str
    cycles_per_round: int

    def build(self) -> dict:
        """Parse every norm spec through the config grammar, as the CLI does."""
        return {key: _config.parse_norm_spec(spec) for key, spec in self.specs.items()}

    def warm_up(self, oracles: dict) -> None:
        raise NotImplementedError

    def cycle(self, seed: int, c: int) -> list[Op]:
        raise NotImplementedError

    def round_ops(self, seed: int) -> list[Op]:
        return [op for c in range(self.cycles_per_round) for op in self.cycle(seed, c)]

    def run(self, oracles: dict, op: Op):
        raise NotImplementedError

    def result_doc(self, op: Op, result) -> dict:
        """JSON-ready record of one op's result, hashed into the digest."""
        raise NotImplementedError

    def check(self, oracles: dict, op: Op, result, tally: checks.RenormTally) -> bool:
        """Whether one op's result passes the output checks."""
        raise NotImplementedError

    def trials(self, result) -> tuple[int, int]:
        """(trials, invalid trials) in one op's result; only campaigns have trials."""
        return 0, 0

    def cli_config(self, seed: int) -> dict:
        raise NotImplementedError


class UkkBump(Workload):
    name = "ukk-bump"
    why = "115 tiny renorm calls per bump trial: per-call overhead in renorm, norms, vectors, partitions"
    specs = {
        "lq2": {"kind": "Lq", "q": 2, "dim": 20},
        "block": {"kind": "Block", "blocks": _pairs(10), "inner": {"kind": "Lq", "q": 1},
                  "outer": {"kind": "Lq", "q": "inf", "dim": 10}},
    }
    cli_command = "ukk"
    cycles_per_round = 16
    P = 2.0
    HORIZON = 12

    def warm_up(self, oracles):
        for N in oracles.values():
            for mode in ("bump", "fuzz"):
                _ukk.run_bump_campaign(N, self.P, trials=1, seed=0, mode=mode, horizon=self.HORIZON)

    def cycle(self, seed, c):
        rng = np.random.default_rng([seed, c])
        ops = []
        for i in range(8):
            # the norm alternates op by op and flips every four ops, so the
            # fuzz quarter (i % 4 == 3) runs on both norms
            space = ("lq2", "block")[(i + i // 4) % 2]
            mode = "fuzz" if i % 4 == 3 else "bump"
            ops.append(Op(f"{mode}/{space}", space, (mode, int(rng.integers(2**31)))))
        return ops

    def run(self, oracles, op):
        mode, trial_seed = op.args
        return _ukk.run_bump_campaign(
            oracles[op.space], self.P, trials=1, seed=trial_seed, mode=mode, horizon=self.HORIZON
        )

    def result_doc(self, op, result):
        return result.to_dict(include_trials=True)

    def check(self, oracles, op, result, tally):
        return checks.check_campaign(result, op.args[0])

    def trials(self, result):
        return result.total, result.invalid

    def cli_config(self, seed):
        return {
            "seed": seed,
            "space": self.specs["block"],
            "ukk": {"p": self.P, "trials": 40, "horizon": self.HORIZON, "mode": "bump"},
        }


class RenormMixed(Workload):
    name = "renorm-mixed"
    why = "subset DP at s=9-14 and local search at s=15-20 do the work; s=13-14 sit on EXACT_THRESHOLD"
    specs = {
        "lq3": {"kind": "Lq", "q": 3, "dim": 24},
        "block": {"kind": "Block", "blocks": _triples(8), "inner": {"kind": "Lq", "q": 2},
                  "outer": {"kind": "Lq", "q": 1, "dim": 8}},
    }
    cli_command = "renorm"
    cycles_per_round = 8
    DIM = 24
    # (support, space, p).  Nine cheap ops, a median group of four
    # identical-kind ops at s=10, and nine dearer ops whose slowest kind,
    # (20, lq3, 2), appears twice per cycle: 16 per round, so the tail op
    # falls inside it.
    SCHEDULE = (
        (2, "lq3", 2.0), (2, "block", 3.0), (3, "block", 2.0), (4, "lq3", 3.0), (5, "block", 3.0),
        (6, "lq3", 2.0), (7, "block", 2.0), (8, "lq3", 3.0), (9, "block", 3.0),
        (10, "lq3", 2.0), (10, "lq3", 2.0), (10, "lq3", 2.0), (10, "lq3", 2.0),
        (11, "block", 2.0), (12, "lq3", 2.0), (12, "block", 3.0), (13, "lq3", 3.0),
        (14, "block", 2.0), (16, "block", 3.0), (18, "block", 2.0),
        (20, "lq3", 2.0), (20, "lq3", 2.0),
    )

    def warm_up(self, oracles):
        # fills the per-support mask cache of the subset DP for every exact size
        N = oracles["lq3"]
        for s in range(1, _renorm.EXACT_THRESHOLD + 1):
            _renorm.renorm(N, 2.0, LatticeVector([1.0 / (i + 1) if i < s else 0.0 for i in range(self.DIM)]))

    def cycle(self, seed, c):
        rng = np.random.default_rng([seed, c])
        ops = []
        for s, space, p in self.SCHEDULE:
            coords = np.zeros(self.DIM)
            atoms = rng.choice(self.DIM, size=s, replace=False)
            coords[atoms] = rng.uniform(0.1, 1.0, size=s) * np.where(rng.random(s) < 0.5, -1.0, 1.0)
            ops.append(Op(f"s{s}/{space}/p{p:g}", space, (p, LatticeVector(coords))))
        return ops

    def run(self, oracles, op):
        p, x = op.args
        return _renorm.renorm(oracles[op.space], p, x)

    def result_doc(self, op, result):
        return result.to_dict()

    def check(self, oracles, op, result, tally):
        p, x = op.args
        return checks.check_renorm(oracles[op.space], p, x, result, tally)

    def cli_config(self, seed):
        vectors = [op.args[1].to_list() for op in self.cycle(seed, 0) if op.space == "lq3" and op.args[0] == 2.0]
        return {"seed": seed, "space": self.specs["lq3"], "renorm": {"p": 2.0, "mode": "auto", "vectors": vectors}}


class SpaceEstimate(Workload):
    name = "space-estimate"
    why = "norms kernel in bulk (audit, 1e4 rows) and in 1-3 row calls (searches), plus the estimates layer"
    DIM = 12
    specs = {
        "lq2": {"kind": "Lq", "q": 2, "dim": DIM},
        "lqinf": {"kind": "Lq", "q": "inf", "dim": DIM},
        "wlq3": {"kind": "WeightedLq", "q": 3, "weights": [1.0 + 0.25 * i for i in range(DIM)]},
        "posneg": {"kind": "PosNegMax", "base": {"kind": "Lq", "q": 1.5, "dim": DIM}},
        "block": {"kind": "Block", "blocks": _pairs(DIM // 2), "inner": {"kind": "Lq", "q": 1},
                  "outer": {"kind": "Lq", "q": 2, "dim": DIM // 2}},
    }
    # The sup norm has c = 2 (hypothesis failure).  PosNegMax has true c = 2
    # as well (opposite-sign pairs), but a budget below the 66 unit-atom
    # pairs of dim 12 only searches nonnegative pairs, so the pipeline
    # deterministically reports c_hat = 2^(1/3) there.
    EXPECT_HYPOTHESIS = {"lq2": True, "lqinf": False, "wlq3": True, "posneg": True, "block": True}
    cli_command = "estimate"
    # WeightedLq is the slowest space (its lower_r_constant sums ~6e6 terms):
    # 12 per round put the tail op inside it
    cycles_per_round = 12
    AUDIT_SAMPLES = 10_000
    BUDGET = 40
    VERIFY_TRIALS = 50

    def warm_up(self, oracles):
        N = oracles["lq2"]
        _norms.audit_norm_axioms(N, samples=self.AUDIT_SAMPLES, seed=0)
        _estimates.run_estimate_pipeline(N, budget=self.BUDGET, seed=0)

    def cycle(self, seed, c):
        rng = np.random.default_rng([seed, c])
        return [Op(space, space, (int(rng.integers(2**31)),)) for space in self.specs]

    def run(self, oracles, op):
        N = oracles[op.space]
        (s,) = op.args
        audit = _norms.audit_norm_axioms(N, samples=self.AUDIT_SAMPLES, seed=s)
        report = _estimates.run_estimate_pipeline(N, budget=self.BUDGET, seed=s)
        violations = [
            _estimates.verify_lower_r_estimate(N, r, K, trials=self.VERIFY_TRIALS, seed=s + 2)
            for r, K in report.kr_table
        ]
        return audit, report, violations

    def result_doc(self, op, result):
        audit, report, violations = result
        return {"audit": audit.to_dict(), "estimate": report.to_dict(), "violations": violations}

    def check(self, oracles, op, result, tally):
        audit, report, violations = result
        return checks.check_space(audit, report, violations, self.EXPECT_HYPOTHESIS[op.space])

    def cli_config(self, seed):
        return {
            "seed": seed,
            "space": self.specs["lq2"],
            "estimate": {"budget": self.BUDGET, "verify_trials": 200},
        }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (UkkBump(), RenormMixed(), SpaceEstimate())}
