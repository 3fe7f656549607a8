"""Byte-identity against reports recorded before the batched renorm engine.

Each digest is the sha256 of the canonical JSON (sorted keys, compact
separators) of one report, or of one file the CLI writes, recorded with
the per-mask subset DP that the layered batch engine replaced and, for
the equivalence audit and the space-check, estimate and ukk files, with
the hand-written per-report serializers that one field walk replaced.
A change of tie-break, pow or fold order, or of a report's JSON shape,
shows here even when two runs of the same code agree with each other.
The CLI ``estimate.json`` digest was recorded again when
``lower_r_constant`` became a fixed Euler-Maclaurin sum, which moved only
its ``kr_table``; the ``estimate`` report digest, recorded before that,
pins the rest of the pipeline report.
The pinned ``threshold=14`` results do the same for support sizes above
the default exact threshold.  The local-search digests were recorded
with the per-candidate Python step that one vectorized fold per step
replaced; they pin its move order, tie-break and fold order at
s = 13 to 24.  The estimate-layer pins (the two-disjoint search on five
spaces and the verify counts) were recorded with the separate pair,
family and numpy-power paths that one lower-estimate ratio replaced.
"""

import hashlib
import json

import numpy as np
import pytest

from ukklattice import (
    BlockNorm,
    LatticeVector,
    LqNorm,
    PosNegMaxNorm,
    WeightedLqNorm,
    audit_equivalence,
    estimate_lower_p_constant,
    estimate_two_disjoint_constant,
    family_power_ratio,
    parse_norm_spec,
    random_disjoint_pair,
    renorm_batch,
    renorm_exact,
    renorm_heuristic,
    run_bump_campaign,
    run_estimate_pipeline,
    run_ukk_trial,
    verify_lower_r_estimate,
)
from ukklattice.cli import main as cli_main


def _block(pairs: int) -> BlockNorm:
    return BlockNorm([[2 * i, 2 * i + 1] for i in range(pairs)], [LqNorm(1, 2)] * pairs,
                     LqNorm(float("inf"), pairs))


SPACES = {"lq": lambda: LqNorm(2, 20), "block": lambda: _block(10)}


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CAMPAIGN_DIGESTS = {
    ("bump", "lq", 3):
        "bb9ba5b799972c66b078f4c5d1afbdd0a4989a728bf7210388deaf2595e5e5f8",
    ("bump", "lq", 17):
        "f50f95123cd6e8092580e2d4e3500165007148c92fd241feaf68722e629395e0",
    ("bump", "lq", 2024):
        "52ced133f78a6fa9aecf5fe407c1bca2399f6c0b541777ab49afd80437661759",
    ("bump", "block", 3):
        "bf037f2319acac723077796fb01dc1eecf1caac8b797aaf91495871f522919c9",
    ("bump", "block", 17):
        "e826c56f613332bfd7de3a658e1b75a26f30248b68d93faac9265ad7d2dd55f8",
    ("bump", "block", 2024):
        "098fac2a668997d45c62e6bc43479f1c1fb7ba290a1ebdf5afa0db2bc5bfd558",
    ("fuzz", "lq", 3):
        "dd6174f3b3bffdaad31ef52b59555bc923880af5f13d97bce6d81e07c2bdbde1",
    ("fuzz", "lq", 17):
        "bc10cd81a575a7681f82b53733a1265bedf0e57fb1dfc748ed5c1eee677d110e",
    ("fuzz", "lq", 2024):
        "2c7ca59106f38d012164b71727611142876b4b248c9899e407fd6914de04c7c5",
    ("fuzz", "block", 3):
        "a01d64a408a8c54d6c3668d5ddc601fb8a5f508641b3ad15e72715824b82b9d9",
    ("fuzz", "block", 17):
        "3b39732723ead87ffc4772122ebeff4f2ef0a2f999dff6fb06f512500d2fca2b",
    ("fuzz", "block", 2024):
        "d918e13096ecfec3e6303bf94c674478a611c392a89601f7732618c786ea20c1",
}


@pytest.mark.parametrize("mode,space,seed", sorted(CAMPAIGN_DIGESTS))
def test_campaign_report_unchanged(mode, space, seed):
    camp = run_bump_campaign(SPACES[space](), 2.0, trials=4, seed=seed, mode=mode, horizon=12)
    assert _digest(camp.to_dict()) == CAMPAIGN_DIGESTS[mode, space, seed]


@pytest.mark.parametrize("mode", ["bump", "fuzz"])
@pytest.mark.parametrize("space", sorted(SPACES))
def test_trial_record_replays_to_itself(mode, space):
    N = SPACES[space]()
    camp = run_bump_campaign(N, 2.0, trials=4, seed=3, mode=mode, horizon=12)
    assert camp.invalid == (0 if mode == "bump" else 4)  # every fuzz trial here is invalid
    for d in camp.to_dict()["trials"]:
        for limit in (d["declared_limit"], LatticeVector(d["declared_limit"])):  # as written and wrapped
            replay = run_ukk_trial(N, d["p"], d["sequence"], limit, seed=d["seed"])
            assert replay.to_dict() == d


def _lower_p_report():
    N = WeightedLqNorm(3, [1.0 + 0.25 * i for i in range(10)])
    ratio, family = estimate_lower_p_constant(N, 2.5, budget=60, seed=5)
    return {"ratio": ratio, "family": [x.to_list() for x in family]}


def _equivalence_report():
    return audit_equivalence(_block(6), 2.0, 1.05, samples=200, seed=9, max_support=8).to_dict()


def _estimate_report():
    """The pipeline report without ``kr_table``: c_hat, p, C and witnesses."""
    N = WeightedLqNorm(2, [1.0 + 0.5 * i for i in range(10)])
    doc = run_estimate_pipeline(N, budget=30, seed=4).to_dict()
    del doc["kr_table"]
    return doc


REPORTS = {"lower_p": _lower_p_report, "equivalence": _equivalence_report, "estimate": _estimate_report}
REPORT_DIGESTS = {
    "lower_p": "40ece72f410b174c59b1615894783ada668fedf1bba7afda91a6e26cbf2bfd5f",
    "estimate": "a72fa6402cbc87a3faa5b92a3b19fe4ad255d4d63db6e4c5f3f4d7bfcfa60739",
    "equivalence": "b0dc48aff3c6236201bbc76276943fc800fd1b2e6018f3a44fc6aa38f671e7c6",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_unchanged(name):
    assert _digest(REPORTS[name]()) == REPORT_DIGESTS[name]


def _renorm_vectors():
    rng = np.random.default_rng(31)
    vectors = []
    for s in (1, 3, 5, 7, 9, 11, 12, 14):
        coords = np.zeros(16)
        coords[rng.choice(16, size=s, replace=False)] = rng.uniform(0.1, 1.0, size=s)
        vectors.append(coords.tolist())
    vectors.append(np.round(np.asarray(vectors[4]), 1).tolist())  # ties
    return vectors


def _mode_vectors():
    """A zero row, a row of support 9 and one of support 14, above the exact threshold."""
    rng = np.random.default_rng(41)
    rows = [[0.0] * 16]
    for s in (9, 14):
        coords = np.zeros(16)
        coords[rng.choice(16, size=s, replace=False)] = rng.uniform(0.1, 1.0, size=s)
        rows.append(coords.tolist())
    return rows


def _cli_config(case: str) -> dict:
    """The config of a CLI case: a subcommand, or ``renorm:<mode>``."""
    if case == "renorm":
        return {"seed": 4, "space": _block(8).describe(), "renorm": {"p": 3, "vectors": _renorm_vectors()}}
    if case.startswith("renorm:"):
        mode = case.partition(":")[2]
        return {"seed": 4, "space": _block(8).describe(), "renorm": {"p": 3, "mode": mode, "vectors": _mode_vectors()}}
    # a weighted 2-norm has c = sqrt(2) < 2, so the estimate report carries every field
    return {
        "seed": 4,
        "space": WeightedLqNorm(2, [1.0 + 0.5 * i for i in range(10)]).describe(),
        "audit": {"samples": 500},
        "estimate": {"budget": 30, "verify_trials": 40},
        "ukk": {"p": 2, "trials": 8, "horizon": 4, "mode": "fuzz"},
    }


# sha256 of each report file the CLI writes with --out, by (case, file); the
# renorm mode cases were recorded before the subcommands shared one preamble,
# and in exact mode the support-14 row writes the SupportTooLarge record
CLI_DIGESTS = {
    ("renorm", "renorm.jsonl"): "f4ff864fbfe90cd5419b0ec780f70f11c36a57d041713f99f39230f66ab9753e",
    ("renorm:exact", "renorm.jsonl"): "e04a7019bc33cde828726685b3c7121012c80013e806b8e7450a3cd1b35514c0",
    ("renorm:heuristic", "renorm.jsonl"): "b83767d28c9c9407b1469b204bfbe88beb1f339beb67b70b7d3972593001a3d0",
    ("renorm:auto", "renorm.jsonl"): "5662d2ab2772d6c15c8a5aeee189a5c70bb188a4fe897a0318dec7e61a4a73e6",
    ("space-check", "space_check.json"): "06edb1391b50dd94eb210f1394146d9a88b8226f49a8529c5572fbb818467824",
    ("estimate", "estimate.json"): "87da9c9aa358491df4b39529e93e40a8bc9ce6a195c7b03fcb461d03607a8cad",
    ("ukk", "ukk_summary.json"): "798b043a6ddd162ed6230282200658d51d2a5d2a9cec8dc23c62b41e4c41cce8",
    ("ukk", "ukk_trials.jsonl"): "34937b693ea74760383d29410bbc228dc6342311a5a1ac5c602ad243186e0d43",
    ("ukk", "ukk_summary.csv"): "118b3d6b12784699277633a733e3cfd9676ec209a615cbc61fa62de9db9e0366",
}


@pytest.mark.parametrize("case,name", sorted(CLI_DIGESTS))
def test_cli_report_unchanged(tmp_path, case, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_cli_config(case)), encoding="utf-8")
    command = case.partition(":")[0]
    assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    blob = (tmp_path / "out" / name).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == CLI_DIGESTS[case, name]


@pytest.mark.parametrize("flag,mode", [("--exact", "exact"), ("--heuristic", "heuristic"), (None, "auto")])
def test_cli_direct_mode_matches_config_mode(tmp_path, flag, mode):
    """``--space/--p/--vector`` with the config's seed writes the config mode's file."""
    space, vec = tmp_path / "space.json", tmp_path / "vec.json"
    space.write_text(json.dumps(_block(8).describe()), encoding="utf-8")
    vec.write_text(json.dumps(_mode_vectors()), encoding="utf-8")
    argv = ["renorm", "--space", str(space), "--p", "3", "--vector", str(vec), "--seed", "4",
            "--out", str(tmp_path / "out"), *([flag] if flag else [])]
    assert cli_main(argv) == 0
    blob = (tmp_path / "out" / "renorm.jsonl").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == CLI_DIGESTS[f"renorm:{mode}", "renorm.jsonl"]


TIES_DIGEST = "af87a7454026b9eca3dfeea7f7539b5e460b7b92a058d9bd4fc32fd586f4cef8"


def _tie_reports():
    """Exact renorms of half-integer rows, where many partitions tie exactly."""
    rng = np.random.default_rng(12)
    spaces = [
        (LqNorm(1, 8), 1.0),
        (LqNorm(2, 8), 2.0),
        (LqNorm(3, 8), 1.5),
        (WeightedLqNorm(2, [1, 2, 1, 2, 1, 2, 1, 2]), 3.0),
        (_block(4), 2.0),
        (PosNegMaxNorm(LqNorm(1, 8)), 1.0),
    ]
    reports = []
    for N, p in spaces:
        for _ in range(12):
            s = int(rng.integers(1, 9))
            coords = np.zeros(8)
            coords[rng.choice(8, size=s, replace=False)] = rng.integers(-3, 4, size=s) * 0.5
            reports.append(renorm_exact(N, p, LatticeVector(coords)).to_dict())
    return reports


def test_tie_breaks_unchanged():
    assert _digest(_tie_reports()) == TIES_DIGEST


# renorm_exact(..., threshold=14) results: (value hex, power_sum hex, witness)
THRESHOLD_14 = {
    ("lq", 13): ("0x1.e53c40c23f517p+0", "0x1.cbdeadc737ad0p+1",
                   [[0], [1], [2], [4], [5], [7], [8], [9], [10], [11], [12], [13], [14]]),
    ("lq", 14): ("0x1.0614008ff4afep+1", "0x1.0c4cf2b6bf569p+2",
                   [[0], [1], [2], [4], [6], [7], [8], [9], [10], [11], [12], [13], [14], [15]]),
    ("block", 13): ("0x1.3c9e3dfcaf4e2p+1", "0x1.87970ad863b3bp+2",
                   [[0, 1], [2], [4, 5], [7], [8, 9], [10, 11], [12, 13], [14]]),
    ("block", 14): ("0x1.51b9fc2ca9c55p+1", "0x1.bd8b310c07eecp+2",
                   [[0, 1], [2], [4], [6, 7], [8, 9], [10, 11], [12, 13], [14, 15]]),
}


def _threshold_case(space: str, s: int):
    rng = np.random.default_rng(100 + s)
    coords = np.zeros(16)
    coords[rng.choice(16, size=s, replace=False)] = rng.uniform(0.1, 1.0, size=s) * np.where(
        rng.random(s) < 0.5, -1.0, 1.0)
    N = LqNorm(3, 16) if space == "lq" else _block(8)
    return N, LatticeVector(coords)


@pytest.mark.parametrize("space,s", sorted(THRESHOLD_14))
def test_raised_threshold_unchanged(space, s):
    N, x = _threshold_case(space, s)
    res = renorm_exact(N, 2.0, x, threshold=14)
    assert res.method == "exact"
    assert (res.value.hex(), res.power_sum.hex(), res.witness.to_lists()) == THRESHOLD_14[space, s]


def _triples() -> BlockNorm:
    return BlockNorm([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)], [LqNorm(2, 3)] * 8, LqNorm(1, 8))


HEURISTIC_SPACES = {
    "lq3": lambda: LqNorm(3, 24),
    "block": _triples,
    "posneg": lambda: PosNegMaxNorm(LqNorm(1.5, 24)),
    "weighted": lambda: WeightedLqNorm(2.5, [0.5 + 0.125 * i for i in range(24)]),
}


def _heuristic_row(rng, s: int, dim: int = 24) -> np.ndarray:
    coords = np.zeros(dim)
    coords[rng.choice(dim, size=s, replace=False)] = rng.uniform(0.25, 2.0, size=s) * np.where(
        rng.random(s) < 0.5, -1.0, 1.0)
    return coords


def _heuristic_reports(space: str, p: float):
    """Local-search results at s = 13 to 24, seeds 0 and 7.

    A quarter of the rows lie on a 0.25 grid, where partitions tie.
    """
    N = HEURISTIC_SPACES[space]()
    rng = np.random.default_rng(round(10 * p))
    reports = []
    for s in (13, 16, 20, 24):
        for seed in (0, 7):
            coords = _heuristic_row(rng, s)
            if seed == 7 and s in (16, 24):
                coords = np.round(coords * 4.0) / 4.0
            reports.append(renorm_heuristic(N, p, LatticeVector(coords), seed=seed).to_dict())
    return reports


def _mixed_batch_report(p: float):
    """One ``renorm_batch`` call whose rows go exact, local search and zero."""
    rng = np.random.default_rng(6)
    rows = [_heuristic_row(rng, s) for s in (3, 6, 7, 10, 14, 1, 9)]
    rows.insert(2, np.zeros(24))
    rows.append(np.round(rows[-1] * 4.0) / 4.0)
    res = renorm_batch(HEURISTIC_SPACES["weighted"](), p, np.array(rows), threshold=6, seed=3)
    return [res.result(i).to_dict() for i in range(len(res))]


# sha256 of the local-search results by (space, p), and of the mixed batch at p = 1.5
HEURISTIC_DIGESTS = {
    ("block", 1.5): "df347d4e37a58e52dbf4bcd37fb2b937c65f7a42cfe69f20655fce8c1109efdf",
    ("block", 2.0): "f127ef9f72a361337a375b75b3b8e1a4b6ae7593b8ad4512d63b16b7c1f954ec",
    ("block", 3.0): "554165197111ed528caeaa32b10ab61c3df74388c149bc52a768c1bd008dc58d",
    ("lq3", 1.5): "fbe271cc53367af3cf5f57537918fc0cadf8f525cdac57f92396d5d7492bccb4",
    ("lq3", 2.0): "ad12c0651201da94c827a829c317d286ed10a183708dc50d4fddef077025127b",
    ("lq3", 3.0): "510b8354e910ab7460c12b75aaccd69e928fca63b25228453a30a78aa57a0076",
    ("posneg", 1.5): "8762b25fc6ddc4f2e3c05c00d18cab36318bde17656ebfc4d9dca30cc9428128",
    ("posneg", 2.0): "e97057f49076a88f2dc97b788c2f58ba6d5e7ebbec71db792177e6a73f10b109",
    ("posneg", 3.0): "c88303cf39bd781800e69131df735912d041d35ce743da89736f7a9a44bf5cca",
    ("weighted", 1.5): "68b951323e13c669ba18e18cb4f6aad13908bfe324a524daf5b6eea0105d6eb2",
    ("weighted", 2.0): "ca45a5ddd4ada48a27a0618cf1bc86d8a9a9db65e8621986aba14733831b9b34",
    ("weighted", 3.0): "20de066b26de4b56fe098b402e61817182941c3a37336ece071eee71b30e8955",
    ("batch", 1.5): "93d1b8ce20490d750496ddfbcf3b26bb2f7956709a6af6d2a2d6897bcac48476",
}


@pytest.mark.parametrize("space,p", sorted(HEURISTIC_DIGESTS))
def test_heuristic_unchanged(space, p):
    doc = _mixed_batch_report(p) if space == "batch" else _heuristic_reports(space, p)
    assert _digest(doc) == HEURISTIC_DIGESTS[space, p]


ESTIMATE_SPECS = {
    "lq2": {"kind": "Lq", "q": 2, "dim": 12},
    "lqinf": {"kind": "Lq", "q": "inf", "dim": 12},
    "wlq3": {"kind": "WeightedLq", "q": 3, "weights": [1.0 + 0.25 * i for i in range(12)]},
    "posneg": {"kind": "PosNegMax", "base": {"kind": "Lq", "q": 1.5, "dim": 12}},
    "block": {"kind": "Block", "blocks": [[2 * i, 2 * i + 1] for i in range(6)], "inner": {"kind": "Lq", "q": 1},
              "outer": {"kind": "Lq", "q": 2, "dim": 6}},
}

# estimate_two_disjoint_constant(budget=90, seed=3): (c_hat hex, sha256 of the witness pair);
# 90 is past the 66 unit-atom pairs of dim 12, so random pairs are searched too
TWO_DISJOINT = {
    "lq2": ("0x1.6a09e667f3bccp+0", "c901995d1051445f74acf6909d4463d15660dec3722b2cd60ce5d046a3bb598b"),
    "lqinf": ("0x1.0000000000000p+1", "c901995d1051445f74acf6909d4463d15660dec3722b2cd60ce5d046a3bb598b"),
    "wlq3": ("0x1.965fea53d6e3dp+0", "8644d8d6cf2c50c8358016df6d6d8229324a60e4d35151006a7f53d0199b9b11"),
    "posneg": ("0x1.ca317ccb694d8p+0", "372f5c419eefdd467996bcd537cb566b35f9141f046536e7d8c8a302620cb822"),
    "block": ("0x1.6a09e667f3bccp+0", "23b48bfef6113452d7a1b900e699724e4844e56cc8e2be6fd0694238dd19a09e"),
}


@pytest.mark.parametrize("space", sorted(TWO_DISJOINT))
def test_two_disjoint_search_unchanged(space):
    c, (x, y) = estimate_two_disjoint_constant(parse_norm_spec(ESTIMATE_SPECS[space]), budget=90, seed=3)
    assert (c.hex(), _digest([x.to_list(), y.to_list()])) == TWO_DISJOINT[space]


# verify_lower_r_estimate(trials=300, seed=5) violation counts at (r, K) for
# (3.5, 1), (3.5, 0.9), (6, 1), (6, 0.9); at K = 1 a one-member family sits on
# the bound, so only the tolerance keeps it from counting
VERIFY_COUNTS = {
    "lq2": (0, 57, 0, 47),
    "lqinf": (259, 300, 259, 300),
    "wlq3": (0, 300, 0, 116),
    "posneg": (15, 64, 11, 59),
    "block": (0, 52, 0, 46),
}


@pytest.mark.parametrize("space", sorted(VERIFY_COUNTS))
def test_verify_counts_unchanged(space):
    N = parse_norm_spec(ESTIMATE_SPECS[space])
    counts = tuple(verify_lower_r_estimate(N, r, K, trials=300, seed=5)
                   for r in (3.5, 6.0) for K in (1.0, 0.9))
    assert counts == VERIFY_COUNTS[space]


@pytest.mark.parametrize("space", sorted(ESTIMATE_SPECS))
def test_pair_ratio_is_family_ratio_at_p1(space):
    """At p = 1 the lower-estimate ratio of a pair is (N(x)+N(y))/N(x+y), bit for bit."""
    N = parse_norm_spec(ESTIMATE_SPECS[space])
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y = random_disjoint_pair(rng, N.dim)
        assert family_power_ratio(N, 1.0, [x, y]) == (N(x) + N(y)) / N(x + y)
