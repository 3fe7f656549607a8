"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success; on failure the line appears in the captured output).
Tolerances are stated inline and are not adjustable from outside.
"""

import json
import math
import os

import numpy as np
import pytest

from ukklattice import (
    BlockNorm,
    LatticeVector,
    LqNorm,
    PosNegMaxNorm,
    WeightedLqNorm,
    audit_equivalence,
    check_superadditivity,
    estimate_lower_p_constant,
    estimate_two_disjoint_constant,
    iter_set_partitions,
    lower_r_constant,
    partition_power_sum,
    renorm_exact,
    renorm_heuristic,
    run_bump_campaign,
    run_estimate_pipeline,
    truncate,
    verify_lower_r_estimate,
)
from ukklattice.cli import main as cli_main
from ukklattice.sampling import random_disjoint_pair, random_vector
from ukklattice.vectors import is_disjoint, disjoint_residuals


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_residuals_exactly_disjoint():
    rng = np.random.default_rng(101)
    violations = 0
    total = 100_000
    for i in range(total):
        dim = int(rng.integers(1, 17))
        if dim >= 2 and i % 3 == 0:
            x, y = random_disjoint_pair(rng, dim)
        else:
            # overlapping supports, mixed signs
            x = random_vector(rng, dim)
            y = random_vector(rng, dim)
        rx, ry = disjoint_residuals(x, y)
        if not is_disjoint(rx, ry):
            violations += 1
    report(1, violations == 0,
           f"{total} residual pairs, dims 1-16, zero tolerance: {violations} violations")


def test_criterion_02_truncation_identities():
    rng = np.random.default_rng(102)
    violations = 0
    total = 10_000
    for _ in range(total):
        dim = int(rng.integers(1, 17))
        x = random_vector(rng, dim)
        u = random_vector(rng, dim)
        z = LatticeVector.zeros(dim)
        if not np.array_equal(truncate(x, x).coords, x.coords):
            violations += 1
        if not np.array_equal(truncate(u, z).coords, z.coords):
            violations += 1
    report(2, violations == 0,
           f"{total} inputs, self-truncation and zero-truncation exact: {violations} violations")


def test_criterion_03_closed_forms():
    rng = np.random.default_rng(103)
    worst_a = 0.0
    bad = 0
    # (a) matching exponent: the decomposition norm collapses to the q-norm
    for i in range(1000):
        q = [1.0, 2.0, 3.0, 1.5][i % 4]
        N = LqNorm(q, 12)
        x = random_vector(rng, 12, support_size=int(rng.integers(1, 11)))
        got = renorm_exact(N, q, x).value
        want = N(x)
        err = abs(got - want)
        worst_a = max(worst_a, err / want)
        if err > 1e-9 * want:
            bad += 1
    # (b) p = 1 gives the singleton sum for every built-in
    builtins = [
        LqNorm(1, 8),
        LqNorm(2, 8),
        LqNorm(float("inf"), 8),
        WeightedLqNorm(2, [0.5, 1, 2, 1, 3, 0.25, 1, 1]),
        BlockNorm([[0, 1], [2, 3], [4, 5], [6, 7]],
                  [LqNorm(1, 2)] * 4, LqNorm(float("inf"), 4)),
        PosNegMaxNorm(LqNorm(2, 8)),
    ]
    for N in builtins:
        for _ in range(40):
            x = random_vector(rng, 8, support_size=int(rng.integers(1, 9)))
            singles = sum(
                N(LatticeVector(np.eye(8)[j] * x.coords[j])) for j in x.support()
            )
            got = renorm_exact(N, 1.0, x).value
            if abs(got - singles) > 1e-9 * singles:
                bad += 1
    # independent cross-check: exhaustive partition enumeration
    for _ in range(50):
        N = LqNorm(3, 8)
        x = random_vector(rng, 8, support_size=int(rng.integers(1, 8)))
        res = renorm_exact(N, 2.0, x)
        brute = max(
            partition_power_sum(N, 2.0, x, blocks)
            for blocks in iter_set_partitions(x.support())
        )
        if abs(res.power_sum - brute) > 1e-9 * brute:
            bad += 1
    report(3, bad == 0,
           f"closed forms + enumeration oracle: {bad} violations, worst rel err {worst_a:.2e}")


def test_criterion_04_superadditivity():
    rng = np.random.default_rng(104)
    oracles = [
        LqNorm(1, 10),
        LqNorm(2, 10),
        LqNorm(float("inf"), 10),
        BlockNorm([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
                  [LqNorm(1, 2)] * 5, LqNorm(float("inf"), 5)),
    ]
    violations = 0
    per = 2500
    for N in oracles:
        for _ in range(per):
            x, y = random_disjoint_pair(rng, 10)
            chk = check_superadditivity(N, 2.0, x, y)
            if not chk.passed:
                violations += 1
    report(4, violations == 0,
           f"{per * len(oracles)} disjoint pairs x 4 oracles, slack >= -1e-9: {violations} violations")


def test_criterion_05_equivalence_sandwich():
    cases = [
        (LqNorm(2, 8), 2.0),
        (LqNorm(1, 8), 2.0),
        (LqNorm(float("inf"), 8), 2.0),
        (BlockNorm([[0, 1], [2, 3], [4, 5], [6, 7]],
                   [LqNorm(1, 2)] * 4, LqNorm(float("inf"), 4)), 2.0),
    ]
    total_violations = 0
    samples = 2500
    for N, p in cases:
        C, _ = estimate_lower_p_constant(N, p, budget=200, seed=105)
        audit = audit_equivalence(N, p, C, samples=samples, seed=106)
        total_violations += audit.lower_violations + audit.upper_violations
    report(5, total_violations == 0,
           f"{samples * len(cases)} samples, base <= renorm <= C*base at 1e-9 rel: "
           f"{total_violations} violations")


def test_criterion_06_estimation_pipeline():
    # l2: c -> sqrt(2), p -> 4, then the r = 5 bound verifies
    N2 = LqNorm(2, 8)
    rep = run_estimate_pipeline(N2, budget=300, seed=107, rs=(5.0,))
    ok = rep.hypothesis_satisfied
    c_ok = math.sqrt(2) - 1e-3 <= rep.c_hat <= math.sqrt(2) + 1e-9
    p_ok = abs(rep.p_derived - 4.0) <= 1e-2
    K = lower_r_constant(rep.c_hat, rep.p_derived, 5.0)
    violations = verify_lower_r_estimate(N2, 5.0, K, trials=10_000, seed=108)
    # sup norm: the hypothesis must fail at exactly 2
    Ninf = LqNorm(float("inf"), 6)
    rep_inf = run_estimate_pipeline(Ninf, budget=300, seed=107)
    inf_ok = (abs(rep_inf.c_hat - 2.0) <= 1e-9) and not rep_inf.hypothesis_satisfied
    all_ok = ok and c_ok and p_ok and violations == 0 and inf_ok
    report(6, all_ok,
           f"l2: c_hat={rep.c_hat:.12f}, p={rep.p_derived:.6f}, r=5 violations={violations}; "
           f"sup: c_hat={rep_inf.c_hat}, hypothesis_failure={not rep_inf.hypothesis_satisfied}")


def test_criterion_07_series_constant_accuracy():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    want = float((mp.pi ** 2 / 6) ** mp.mpf("0.25"))
    got = lower_r_constant(1.0, 2.0, 4.0)
    err = abs(got - want)
    # cross-check the series target itself against zeta
    zeta_q = float(mp.zeta(2) ** mp.mpf("0.25"))
    report(7, err <= 1e-6 and abs(zeta_q - want) < 1e-12,
           f"K(1,2,4) = {got!r} vs (pi^2/6)^(1/4) = {want!r}, err {err:.2e}")


def test_criterion_08_modulus_campaign():
    cases = [
        (LqNorm(2, 20), 2.0),
        (LqNorm(1, 20), 1.0),
        # sup-of-pairs block norm; its two-disjoint constant is 2, so no
        # derived exponent exists and the campaign runs at p = 2
        (BlockNorm([[2 * i, 2 * i + 1] for i in range(10)],
                   [LqNorm(1, 2)] * 10, LqNorm(float("inf"), 10)), 2.0),
    ]
    per = 1000
    bad = 0
    details = []
    for N, p in cases:
        camp = run_bump_campaign(N, p, trials=per, seed=109, horizon=12)
        liminf_bad = sum(1 for t in camp.trials if t.valid and not t.liminf_ok)
        bad += camp.failed + camp.invalid + liminf_bad
        details.append(f"{N.describe()['kind']}/p={p}: {camp.passed}/{camp.total} pass, "
                       f"min margin {camp.min_margin:.3e}")
    report(8, bad == 0, f"{per} bump trials x 3 oracles, 0 failures required; " + "; ".join(details))


def test_criterion_09_heuristic_quality():
    rng = np.random.default_rng(110)
    cases = [
        (LqNorm(1, 12), 2.0),
        (LqNorm(float("inf"), 12), 2.0),
        (BlockNorm([[2 * i, 2 * i + 1] for i in range(6)],
                   [LqNorm(1, 2)] * 6, LqNorm(float("inf"), 6)), 2.0),
        (LqNorm(3, 12), 1.5),
        (LqNorm(1, 12), 3.0),
    ]
    exact_hits = 0
    overshoots = 0
    off_but_close = 0
    far = 0
    total = 500
    per = total // len(cases)
    for N, p in cases:
        for _ in range(per):
            x = random_vector(rng, 12, support_size=int(rng.integers(1, 13)))
            ex = renorm_exact(N, p, x)
            he = renorm_heuristic(N, p, x)
            if he.power_sum > ex.power_sum:
                overshoots += 1
            if he.value == ex.value:
                exact_hits += 1
            elif abs(he.value - ex.value) <= 0.02 * ex.value:
                off_but_close += 1
            else:
                far += 1
    ok = overshoots == 0 and exact_hits >= 0.95 * total and far == 0
    report(9, ok,
           f"{total} instances: {exact_hits} exact, {off_but_close} within 2%, "
           f"{far} beyond, {overshoots} overshoots")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "seed": 23,
        "space": {"kind": "Lq", "q": 2, "dim": 14},
        "audit": {"samples": 400},
        "estimate": {"budget": 60, "verify_trials": 100},
        "renorm": {"p": 2, "random": {"count": 6, "support": 8}},
        "ukk": {"p": 2, "trials": 6, "horizon": 10},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    blobs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        for cmd in ("space-check", "estimate", "renorm", "ukk"):
            rc = cli_main([cmd, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0, f"{cmd} exited {rc}"
        blob = {
            fn: (out / fn).read_bytes() for fn in sorted(os.listdir(out))
        }
        blobs.append(blob)
    same = blobs[0] == blobs[1]
    report(10, same,
           f"two runs of all 4 subcommands, {len(blobs[0])} files each: "
           f"{'byte-identical' if same else 'DIFFER'}")
