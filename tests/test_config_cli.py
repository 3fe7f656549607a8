import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ukklattice import ConfigError, LatticeVector, load_config, parse_norm_spec, run_ukk_trial
from ukklattice import cli
from ukklattice.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE_CFG = {
    "seed": 11,
    "space": {"kind": "Lq", "q": 2, "dim": 12},
    "audit": {"samples": 200},
    "estimate": {"budget": 40, "verify_trials": 30},
    "renorm": {"p": 2, "vectors": [[1.0, -2.0] + [0.0] * 10, [0.0] * 12]},
    "ukk": {"p": 2, "trials": 3, "horizon": 8},
}


# -- norm spec grammar --------------------------------------------------


L1 = {"kind": "Lq", "q": 1}
SUP2 = {"kind": "Lq", "q": "inf", "dim": 2}
PAIRS = [[0, 1], [2, 3]]


def block(**fields):
    """A valid 4-atom Block spec (1-norm pair blocks, sup outer) with ``fields`` replaced."""
    return {"kind": "Block", "blocks": PAIRS, "inner": L1, "outer": SUP2, **fields}


# (spec, its describe(), None when that is the spec itself); json.dumps of
# both must agree, so key order and int-versus-float are pinned, not only the values
ROUND_TRIP = [
    ({"kind": "Lq", "q": 2, "dim": 4}, None),
    ({"kind": "Lq", "q": "inf", "dim": 4}, None),
    ({"kind": "Lq", "q": 2.5, "dim": 2}, None),
    ({"kind": "Lq", "q": 1e20, "dim": 2}, {"kind": "Lq", "q": 10 ** 20, "dim": 2}),
    ({"kind": "Lq", "q": "Infinity", "dim": 2}, {"kind": "Lq", "q": "inf", "dim": 2}),
    ({"kind": "Lq", "q": 3.0, "dim": 2}, {"kind": "Lq", "q": 3, "dim": 2}),
    ({"kind": "WeightedLq", "q": 1, "weights": [1.0, 2.0, 0.5], "dim": 3}, None),
    ({"kind": "WeightedLq", "q": 3, "weights": [1.0, 2.0]},
     {"kind": "WeightedLq", "q": 3, "weights": [1.0, 2.0], "dim": 2}),
    ({"kind": "WeightedLq", "q": 2, "weights": [1, 2]},
     {"kind": "WeightedLq", "q": 2, "weights": [1.0, 2.0], "dim": 2}),
    (block(inner=[{"kind": "Lq", "q": 1, "dim": 2}] * 2, dim=4), None),
    (block(inner={"kind": "WeightedLq", "q": 2, "weights": [1.0, 0.5]}, outer={"kind": "Lq", "q": 1, "dim": 2}),
     block(inner=[{"kind": "WeightedLq", "q": 2, "weights": [1.0, 0.5], "dim": 2}] * 2,
           outer={"kind": "Lq", "q": 1, "dim": 2}, dim=4)),
    ({"kind": "PosNegMax", "base": {"kind": "Lq", "q": 2, "dim": 3}, "dim": 3}, None),
    ({"kind": "PosNegMax", "base": {"kind": "Block", "blocks": [[1], [0]], "inner": {"kind": "Lq", "q": "inf"},
                                    "outer": {"kind": "Lq", "q": 3, "dim": 2}}},
     {"kind": "PosNegMax", "base": {"kind": "Block", "blocks": [[1], [0]],
                                    "inner": [{"kind": "Lq", "q": "inf", "dim": 1}] * 2,
                                    "outer": {"kind": "Lq", "q": 3, "dim": 2}, "dim": 2}, "dim": 2}),
]


def test_parse_round_trip_all_kinds():
    for spec, described in ROUND_TRIP:
        expected = json.dumps(spec if described is None else described)
        N = parse_norm_spec(spec)
        assert json.dumps(N.describe()) == expected
        assert json.dumps(parse_norm_spec(N.describe()).describe()) == expected


# (bad spec, the exact ConfigError text), one row per rule of the grammar
SPEC_ERRORS = [
    ([1],
     'space: expected an object, got list'),
    ("Lq",
     'space: expected an object, got str'),
    ({"kind": ["Lq"], "q": 2, "dim": 2},
     "space.kind: unknown kind ['Lq']; expected one of Lq, WeightedLq, Block, PosNegMax"),
    ({"kind": {"a": 1}, "q": 2, "dim": 2},
     "space.kind: unknown kind {'a': 1}; expected one of Lq, WeightedLq, Block, PosNegMax"),
    ({"kind": None, "q": 2, "dim": 2},
     'space.kind: unknown kind None; expected one of Lq, WeightedLq, Block, PosNegMax'),
    ({"q": 2, "dim": 2},
     'space.kind: unknown kind None; expected one of Lq, WeightedLq, Block, PosNegMax'),
    ({"kind": "Mystery", "dim": 3},
     "space.kind: unknown kind 'Mystery'; expected one of Lq, WeightedLq, Block, PosNegMax"),
    ({"kind": "Lq", "q": 2},
     'space: missing required field(s): dim'),
    ({"kind": "Block", "blocks": [[0]]},
     'space: missing required field(s): inner, outer'),
    ({"kind": "Lq", "q": 2, "dim": 3, "bogus": 1, "extra": 2},
     'space: unknown field(s): bogus, extra'),
    ({"kind": "PosNegMax", "base": L1, "weights": [1.0]},
     'space: unknown field(s): weights'),
    ({"kind": "Lq", "q": 2, "dim": 2.0},
     'space.dim: dim must be an integer, got 2.0'),
    ({"kind": "Lq", "q": 2, "dim": True},
     'space.dim: dim must be an integer, got True'),
    ({"kind": "Lq", "q": 2, "dim": 0},
     'space: dim must be a positive integer'),
    ({"kind": "Lq", "q": 2, "dim": -1},
     'space: dim must be a positive integer'),
    ({"kind": "WeightedLq", "q": 2, "weights": [1.0, 2.0], "dim": 3},
     'space.dim: dim 3 disagrees with the 2 atoms of the WeightedLq spec'),
    ({"kind": "PosNegMax", "base": {"kind": "Lq", "q": 2, "dim": 3}, "dim": 4},
     'space.dim: dim 4 disagrees with the 3 atoms of the PosNegMax spec'),
    (block(dim=5),
     'space.dim: dim 5 disagrees with the 4 atoms of the Block spec'),
    ({"kind": "Lq", "q": 0.5, "dim": 3},
     'space: exponent must satisfy q >= 1 (or be inf), got 0.5'),
    ({"kind": "Lq", "q": True, "dim": 3},
     'space: exponent q must be a number or "inf", got True'),
    ({"kind": "Lq", "q": "two", "dim": 3},
     'space: unrecognized exponent q = \'two\' (use a number >= 1 or "inf")'),
    ({"kind": "Lq", "q": None, "dim": 3},
     'space: exponent q must be a number or "inf", got None'),
    ({"kind": "Lq", "q": [2], "dim": 3},
     'space: exponent q must be a number or "inf", got [2]'),
    ({"kind": "WeightedLq", "q": 2, "weights": 3},
     'space.weights: expected an array of finite numbers'),
    ({"kind": "WeightedLq", "q": 2, "weights": [[1.0]]},
     'space.weights: expected an array of finite numbers'),
    ({"kind": "WeightedLq", "q": 2, "weights": []},
     'space: weights must be a nonempty 1-d sequence'),
    ({"kind": "WeightedLq", "q": 2, "weights": [True, 2.0]},
     'space.weights: expected an array of finite numbers'),
    ({"kind": "WeightedLq", "q": 2, "weights": [1.0, -1.0]},
     'space: weights must be finite and strictly positive'),
    ({"kind": "WeightedLq", "q": 2, "weights": [1.0, 0.0]},
     'space: weights must be finite and strictly positive'),
    ({"kind": "WeightedLq", "q": 0, "weights": "w"},
     'space.weights: expected an array of finite numbers'),
    (block(blocks=[[0, 1], 2]),
     'space.blocks: blocks must be an array of nonempty integer arrays'),
    (block(blocks=[[0, 1], []]),
     'space.blocks: blocks must be an array of nonempty integer arrays'),
    (block(blocks=[[0, True], [2, 3]]),
     'space.blocks: blocks must be an array of nonempty integer arrays'),
    (block(blocks=[[0, 1.0], [2, 3]]),
     'space.blocks: blocks must be an array of nonempty integer arrays'),
    (block(blocks={"a": 1}),
     'space.blocks: blocks must be an array of nonempty integer arrays'),
    (block(blocks=[]),
     'space: blocks must be nonempty and contain no empty block'),
    (block(blocks=[[0, 1], [1, 2]]),
     'space: blocks must partition 0..dim-1 with no repeats or gaps'),
    (block(blocks=[[0, 1], [3, 4]]),
     'space: blocks must partition 0..dim-1 with no repeats or gaps'),
    (block(blocks=[[0, 1.5]], inner=3),
     'space.blocks: blocks must be an array of nonempty integer arrays'),
    (block(inner=3),
     'space.inner: inner must be a spec object or an array of spec objects'),
    (block(inner="Lq"),
     'space.inner: inner must be a spec object or an array of spec objects'),
    (block(inner=[{"kind": "Lq", "q": 1, "dim": 2}, 5]),
     'space.inner[1]: expected an object, got int'),
    (block(inner=[L1, L1]),
     'space.inner[0]: missing required field(s): dim'),
    (block(inner=[{"kind": "Lq", "q": 1, "dim": 2}, {"kind": "Lq", "q": 0, "dim": 2}]),
     'space.inner[1]: exponent must satisfy q >= 1 (or be inf), got 0'),
    (block(inner=[{"kind": "Lq", "q": 1, "dim": 2}]),
     'space: 2 blocks but 1 inner oracles'),
    (block(inner={"kind": "Lq", "q": 1, "dim": 3}),
     'space: inner[0] has dim 3, block has 2 atoms'),
    (block(inner={"kind": "WeightedLq", "q": 1, "weights": [1.0, 2.0, 3.0]}),
     'space.inner.dim: dim 2 disagrees with the 3 atoms of the WeightedLq spec'),
    (block(inner={"kind": "Lq", "q": 1}, outer={"kind": "Lq", "q": 0.5, "dim": 2}),
     'space.outer: exponent must satisfy q >= 1 (or be inf), got 0.5'),
    (block(outer=2),
     'space.outer: expected an object, got int'),
    (block(outer={"kind": "Lq", "q": 1, "dim": 3}),
     'space: outer has dim 3, need one coordinate per block (2)'),
    (block(outer={"kind": "Lq", "q": 1}),
     'space.outer: missing required field(s): dim'),
    ({"kind": "PosNegMax", "base": 4},
     'space.base: expected an object, got int'),
    ({"kind": "PosNegMax", "base": {"kind": "Lq", "q": 0.5, "dim": 2}},
     'space.base: exponent must satisfy q >= 1 (or be inf), got 0.5'),
    ({"kind": "PosNegMax", "base": {"kind": "Nope"}},
     "space.base.kind: unknown kind 'Nope'; expected one of Lq, WeightedLq, Block, PosNegMax"),
    (block(blocks=[[0, 1]], inner={"kind": "PosNegMax", "base": L1}, outer={"kind": "Lq", "q": 1, "dim": 1}),
     'space.inner.base: missing required field(s): dim'),
    (block(blocks=[[0, 1]], inner={"kind": "PosNegMax", "base": {"kind": "Lq", "q": 2, "dim": 3}},
           outer={"kind": "Lq", "q": 1, "dim": 1}),
     'space.inner.dim: dim 2 disagrees with the 3 atoms of the PosNegMax spec'),
]


@pytest.mark.parametrize("spec,message", SPEC_ERRORS, ids=lambda v: json.dumps(v) if not isinstance(v, str) else None)
def test_parse_error_message(spec, message):
    with pytest.raises(ConfigError) as exc:
        parse_norm_spec(spec)
    assert str(exc.value) == message


def test_parse_block_inner_template():
    spec = {
        "kind": "Block",
        "blocks": [[0, 1], [2, 3], [4, 5]],
        "inner": {"kind": "Lq", "q": 1},
        "outer": {"kind": "Lq", "q": "inf", "dim": 3},
    }
    N = parse_norm_spec(spec)
    assert N.dim == 6
    assert N(LatticeVector([1.0, -1.0, 0.0, 0.0, 0.5, 0.0])) == 2.0


def test_parse_errors_carry_paths():
    cases = [
        ({"kind": "Lq", "q": 0.5, "dim": 3}, "q"),
        ({"kind": "Lq", "q": True, "dim": 3}, "q"),
        ({"kind": "WeightedLq", "q": "two", "weights": [1.0, 2.0]}, "q"),
        ({"kind": "Lq", "q": 2}, "dim"),
        ({"kind": "Lq", "q": 2, "dim": 3, "bogus": 1}, "bogus"),
        ({"kind": "Mystery", "dim": 3}, "kind"),
        ({"kind": "WeightedLq", "q": 2, "weights": [1.0, -1.0]}, "weights"),
        ({"kind": "WeightedLq", "q": 2, "weights": [True, 2.0]}, "weights"),
        ({"kind": "Block", "blocks": [[0, True]], "inner": {"kind": "Lq", "q": 1},
          "outer": {"kind": "Lq", "q": 1, "dim": 1}}, "blocks"),
        ({"kind": "Block", "blocks": [[0], [0]], "inner": {"kind": "Lq", "q": 1},
          "outer": {"kind": "Lq", "q": 1, "dim": 2}}, "block"),
    ]
    for spec, fragment in cases:
        with pytest.raises(ConfigError) as exc:
            parse_norm_spec(spec)
        assert fragment in str(exc.value)


def test_parse_dim_cross_check():
    for spec in (
        {"kind": "PosNegMax", "base": {"kind": "Lq", "q": 2, "dim": 3}, "dim": 4},
        {"kind": "WeightedLq", "q": 2, "weights": [1.0, 2.0], "dim": 3},
        {"kind": "Block", "blocks": [[0, 1]], "inner": {"kind": "Lq", "q": 1},
         "outer": {"kind": "Lq", "q": 1, "dim": 1}, "dim": 3},
    ):
        with pytest.raises(ConfigError) as exc:
            parse_norm_spec(spec)
        assert exc.value.path == "space.dim"


def test_block_inner_count_is_checked_by_the_oracle():
    spec = {"kind": "Block", "blocks": [[0], [1]], "inner": [{"kind": "Lq", "q": 1, "dim": 1}],
            "outer": {"kind": "Lq", "q": 1, "dim": 2}}
    with pytest.raises(ConfigError) as exc:
        parse_norm_spec(spec)
    assert exc.value.path == "space" and "inner" in str(exc.value)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert "line" in str(exc.value)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(arr))


# -- CLI ----------------------------------------------------------------


def test_space_check_ok(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    assert main(["space-check", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["schema_version"] == 1


def test_missing_seed_is_usage_error(tmp_path, capsys):
    cfg_doc = dict(BASE_CFG)
    del cfg_doc["seed"]
    cfg = write(tmp_path, "cfg.json", cfg_doc)
    assert main(["space-check", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_seed_flag_overrides(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    assert main(["space-check", "--config", cfg, "--seed", "99"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 99
    assert main(["space-check", "--config", cfg, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_bad_config_is_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"seed": 1, "space": {"kind": "Lq", "q": 0, "dim": 2}})
    assert main(["space-check", "--config", cfg]) == 2
    assert "error" in capsys.readouterr().err


def test_estimate_writes_report(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["estimate", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "out" / "estimate.json").read_text())
    assert doc["hypothesis_satisfied"] is True
    assert doc["verify"]["violations"] == 0


def test_renorm_config_mode(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    assert main(["renorm", "--config", cfg]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 2
    assert lines[0]["value"] == pytest.approx(5 ** 0.5)
    assert lines[1]["value"] == 0.0


def test_renorm_negative_seed_is_usage_error(tmp_path, capsys):
    doc = {"seed": 0, "space": {"kind": "Lq", "q": 2, "dim": 4}, "renorm": {"p": 2, "vectors": [[1.0, 0.5, 0.0, 0.25]]}}
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc), "--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed: seed must be a nonnegative integer" in captured.err


# json writes nan and inf as NaN and Infinity, which the config reader parses
@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_renorm_bad_exponent_is_usage_error(tmp_path, capsys, p):
    doc = {"seed": 0, "space": {"kind": "Lq", "q": 2, "dim": 4}, "renorm": {"p": p, "vectors": [[1.0, 0.5, 0.0, 0.25]]}}
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config.renorm.p: ")


def test_renorm_oversized_support_reported_in_record(tmp_path, capsys):
    doc = {"seed": 0, "space": {"kind": "Lq", "q": 2, "dim": 16}, "renorm": {"p": 2, "mode": "exact", "vectors": [[1.0] * 16]}}
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["error"].startswith("support size 16 exceeds")
    assert rec["vector"] == [1.0] * 16


# renorm's config-free mode (--space/--p/--vector with --exact or --heuristic) was
# removed: every subcommand reads one config, and argparse rejects the old flags
@pytest.mark.parametrize("flag", [["--space", "space.json"], ["--p", "2"], ["--vector", "vec.json"], ["--exact"], ["--heuristic"]])
def test_removed_renorm_flags_are_usage_errors(tmp_path, capsys, flag):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["renorm", "--config", cfg, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["space-check", "estimate", "renorm", "ukk"])
def test_config_flag_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


def test_ukk_outputs(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    out = str(tmp_path / "ukk_out")
    assert main(["ukk", "--config", cfg, "--out", out]) == 0
    summary = json.loads((tmp_path / "ukk_out" / "ukk_summary.json").read_text())
    assert summary["failed"] == 0
    lines = (tmp_path / "ukk_out" / "ukk_trials.jsonl").read_text().splitlines()
    assert len(lines) == 3
    csv_lines = (tmp_path / "ukk_out" / "ukk_summary.csv").read_text().splitlines()
    assert csv_lines[0].startswith("index,seed,valid")
    assert len(csv_lines) == 4  # header + one row per trial


@pytest.mark.parametrize("mode", ["bump", "fuzz"])
def test_ukk_trial_lines_replay_to_themselves(tmp_path, mode):
    # every trial line carries all a replay needs: its space, p, sequence, limit and seed
    doc = json.loads(json.dumps(BASE_CFG))
    doc["ukk"]["mode"] = mode
    out = tmp_path / "ukk_out"
    assert main(["ukk", "--config", write(tmp_path, "cfg.json", doc), "--out", str(out)]) == 0
    lines = (out / "ukk_trials.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        d = json.loads(line)
        del d["schema_version"], d["index"]
        N = parse_norm_spec(d["norm"])
        replay = run_ukk_trial(N, d["p"], d["sequence"], d["declared_limit"], seed=d["seed"])
        assert replay.to_dict() == d


def test_threads_flag_validated(tmp_path, capsys):
    # --threads was a documented no-op and has been removed: argparse rejects it
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    for value in ("0", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["space-check", "--config", cfg, "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert main(["space-check", "--config", cfg]) == 0


# (subcommand, config section, field, bad value): each must be a usage
# error naming the field, never exit 1, which means a violation
BAD_FIELDS = [
    ("space-check", "audit", "samples", "100"),
    ("space-check", "audit", "samples", 0),
    ("space-check", "audit", "samples", 1.5),
    ("estimate", "estimate", "budget", "40"),
    ("estimate", "estimate", "budget", 0),
    ("estimate", "estimate", "budget", True),
    ("estimate", "estimate", "verify_trials", "30"),
    ("estimate", "estimate", "rs", [5.0, True]),
    ("renorm", "renorm", "vectors", [["a", 1, 0]]),
    ("renorm", "renorm", "vectors", [[True] + [0.0] * 11]),
    ("renorm", "renorm", "vectors", [[float("nan")] + [0.0] * 11]),
    ("renorm", "renorm", "vectors", [1.0, 2.0]),
    ("renorm", "renorm", "mode", 3),
    ("renorm", "renorm", "random", {"support": 0}),
    ("renorm", "renorm", "random", {"count": "5"}),
    ("ukk", "ukk", "horizon", "12"),
    ("ukk", "ukk", "horizon", 0),
    ("ukk", "ukk", "mode", "sweep"),
    # a negative count is an error, not an empty run
    ("renorm", "renorm", "random", {"count": -3}),
    ("estimate", "estimate", "verify_trials", -5),
    # a misspelt or retired field is an error, not a silent default
    ("space-check", "audit", "sampels", 100),
    ("estimate", "estimate", "verify_trails", 5),
    ("estimate", "estimate", "tail_tol", 1e-9),
    ("space-check", "audit", "tol", 1e-9),
    ("ukk", "ukk", "tol", 1e-9),
    ("renorm", "renorm", "mdoe", "exact"),
    ("renorm", "renorm", "random", {"cuont": 5}),
    ("ukk", "ukk", "horizn", 3),
    # the library checks the fields it takes; a required one is checked present first
    ("ukk", "ukk", "p", "2"),
    ("ukk", "ukk", "mode", 3),
    ("ukk", "ukk", "trials", None),
    # a random support is checked against the space before any draw
    ("renorm", "renorm", "random", {"support": 20}),
    ("renorm", "renorm", "random", {"count": 3, "support": 13}),
]


@pytest.mark.parametrize(
    "command,section,field,value", BAD_FIELDS,
    ids=lambda v: json.dumps(v, separators=(",", ":")) if isinstance(v, (list, dict)) else None,
)
def test_bad_field_is_exit_2(tmp_path, capsys, command, section, field, value):
    doc = json.loads(json.dumps(BASE_CFG))
    if field == "random":
        del doc["renorm"]["vectors"]
    doc[section][field] = value
    assert main([command, "--config", write(tmp_path, "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert f"config.{section}" in err and field in err


# a field the library takes is checked by the library: its error is the library's
# message on the section path; renorm.p keeps its own path
LIBRARY_MESSAGES = [
    ("space-check", "audit", "samples", "100", "config.audit: samples must be an integer, got '100'"),
    ("estimate", "estimate", "budget", True, "config.estimate: budget must be an integer, got True"),
    ("ukk", "ukk", "horizon", "12", "config.ukk: horizon must be an integer, got '12'"),
    ("ukk", "ukk", "trials", 1.5, "config.ukk: trials must be an integer, got 1.5"),
    ("ukk", "ukk", "p", "2", "config.ukk: exponent p must be a number, got '2'"),
    ("ukk", "ukk", "mode", [3], "config.ukk: unknown campaign mode [3]"),
    ("renorm", "renorm", "p", "2", "config.renorm.p: exponent p must be a number, got '2'"),
    ("renorm", "renorm", "p", float("nan"), "config.renorm.p: exponent must satisfy 1 <= p < infinity, got nan"),
    ("ukk", "ukk", "trials", None, "config.ukk.trials: missing required field"),
    ("renorm", "renorm", "p", None, "config.renorm.p: missing required field"),
]


@pytest.mark.parametrize("command,section,field,value,message", LIBRARY_MESSAGES)
def test_library_field_error_is_the_library_message(tmp_path, capsys, command, section, field, value, message):
    doc = json.loads(json.dumps(BASE_CFG))
    doc[section][field] = value
    assert main([command, "--config", write(tmp_path, "cfg.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_null_library_field_takes_the_library_default(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_CFG))
    doc["space"]["dim"] = 20  # room for the default horizon of 16
    doc["ukk"].update(trials=1, horizon=None, mode=None, p=2.5)
    assert main(["ukk", "--config", write(tmp_path, "cfg.json", doc)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["horizon"], summary["mode"], summary["p"]) == (16, "bump", 2.5)


def test_unknown_renorm_mode_is_exit_2(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_CFG))
    doc["renorm"]["mode"] = "fast"
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc)]) == 2
    assert capsys.readouterr() == ("", "error: config.renorm.mode: expected auto|exact|heuristic, got 'fast'\n")


def test_renorm_takes_one_vector_source(tmp_path, capsys):
    # random used to be ignored when vectors was given
    doc = json.loads(json.dumps(BASE_CFG))
    doc["renorm"]["random"] = {"count": 2}
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config.renorm: give one vector source, vectors or random, not both\n"


@pytest.mark.parametrize("sources, absent, records", [
    ({"vectors": None}, {}, 0),
    ({"vectors": None, "random": {"count": 2}}, {"random": {"count": 2}}, 2),
    ({"random": None}, {}, 0),
])
def test_null_vector_source_is_absent(tmp_path, capsys, sources, absent, records):
    # each used to exit 2: null vectors as a bad array, or beside random as a second
    # source, and null random as a missing field
    outs = []
    for i, ren in enumerate([sources, absent]):
        doc = {**BASE_CFG, "renorm": {"p": 2, **ren}}
        assert main(["renorm", "--config", write(tmp_path, f"cfg{i}.json", doc)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(outs[0].strip().splitlines()) == records


@pytest.mark.parametrize("sources, message", [
    ({"vectors": 5}, "config.renorm.vectors: expected an array of coordinate arrays"),
    ({"random": 5}, "config.renorm.random: expected dict, got 5"),
    ({"vectors": [], "random": {}}, "config.renorm: give one vector source, vectors or random, not both"),
])
def test_non_null_vector_source_is_checked(tmp_path, capsys, sources, message):
    doc = {**BASE_CFG, "renorm": {"p": 2, **sources}}
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["space-check", "estimate", "renorm", "ukk"])
def test_misspelt_top_level_section_is_exit_2(tmp_path, capsys, command):
    # BASE_CFG holds every section, and stays valid for each subcommand
    doc = {**BASE_CFG, "audti": {"samples": 5}}
    assert main([command, "--config", write(tmp_path, "cfg.json", doc)]) == 2
    assert "config: unknown field(s): audti" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_determinism_across_runs(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["ukk", "--config", cfg, "--out", str(out)]) == 0
        blob = {}
        for fn in sorted(os.listdir(out)):
            blob[fn] = (out / fn).read_bytes()
        outs.append(blob)
    assert outs[0] == outs[1]


# -- one writer, one exit rule --------------------------------------------


def console(*argv):
    """``python -m ukklattice.cli *argv`` on the package in ``src``: (exit code, stdout bytes, stderr text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ukklattice.cli", *argv], env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# (sha256 of stdout, sha256 of each --out file) on BASE_CFG, recorded while each
# handler still wrote its own output; stdout carries the first report, and a
# renorm section with no vectors prints nothing and writes an empty file
CONSOLE_DIGESTS = {
    "estimate": ("1667642982fcaab5dae58ed6beeffc6cce1d6c4398a9724e94a9ea28e9fef7f3", {
        "estimate.json": "1667642982fcaab5dae58ed6beeffc6cce1d6c4398a9724e94a9ea28e9fef7f3",
    }),
    "renorm": ("059dbfd03f51b3b1fb878ae5569002586ab5734ac56e73d0a86227d37833d204", {
        "renorm.jsonl": "059dbfd03f51b3b1fb878ae5569002586ab5734ac56e73d0a86227d37833d204",
    }),
    "renorm:empty": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "renorm.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "space-check": ("022f83f77643907199c9b6c6a21ebae31fa44278f7321bcb63c6417d1681eb91", {
        "space_check.json": "022f83f77643907199c9b6c6a21ebae31fa44278f7321bcb63c6417d1681eb91",
    }),
    "ukk": ("cfb7c0e8f91c1a93e15bcb8da78b278e8f8cd14531701f2e9a015caf9cc4818c", {
        "ukk_summary.csv": "f5592e6836aa63effe1e346c77ec58f694f90afcf19ee04a697bc5ea9204dc47",
        "ukk_summary.json": "cfb7c0e8f91c1a93e15bcb8da78b278e8f8cd14531701f2e9a015caf9cc4818c",
        "ukk_trials.jsonl": "8606d05698c266d72e00fc8fbb677719e17192419db1b88b94447c4b2365772f",
    }),
}


@pytest.mark.parametrize("case", sorted(CONSOLE_DIGESTS))
def test_console_reports_unchanged(tmp_path, case):
    command, _, variant = case.partition(":")
    doc = json.loads(json.dumps(BASE_CFG))
    if variant == "empty":
        doc["renorm"] = {"p": 2}
    cfg = write(tmp_path, "cfg.json", doc)
    code, out, err = console(command, "--config", cfg)
    assert (code, err) == (0, "")
    assert console(command, "--config", cfg, "--out", str(tmp_path / "out")) == (0, b"", "")
    files = {f.name: sha(f.read_bytes()) for f in (tmp_path / "out").iterdir()}
    assert (sha(out), files) == CONSOLE_DIGESTS[case]


@pytest.mark.parametrize("renorm", [{"p": 2}, {"p": 2, "vectors": []}, {"p": 2, "random": {"count": 0}}], ids=json.dumps)
def test_empty_renorm_writes_nothing(tmp_path, renorm):
    # an empty report is written as it is: no stray newline, which is not valid JSONL
    cfg = write(tmp_path, "cfg.json", {**BASE_CFG, "renorm": renorm})
    assert console("renorm", "--config", cfg) == (0, b"", "")
    assert console("renorm", "--config", cfg, "--out", str(tmp_path / "out")) == (0, b"", "")
    assert (tmp_path / "out" / "renorm.jsonl").read_bytes() == b""


@pytest.mark.parametrize("seed", ["3", True, 1.5, None], ids=json.dumps)
def test_config_seed_must_be_an_integer(tmp_path, seed):
    code, out, err = console("space-check", "--config", write(tmp_path, "cfg.json", {**BASE_CFG, "seed": seed}))
    assert (code, out) == (2, b"")
    assert err.startswith("error: config.seed: ") and err.count("\n") == 1


def test_overflowing_campaign_is_exit_2_without_a_traceback(tmp_path):
    doc = {"seed": 1, "space": {"kind": "Lq", "q": 2, "dim": 6}, "ukk": {"p": 1000000, "trials": 2, "horizon": 4}}
    code, out, err = console("ukk", "--config", write(tmp_path, "cfg.json", doc))
    assert (code, out) == (2, b"")
    assert err.startswith("error: config.ukk: OverflowError") and "Traceback" not in err


# an overflowing vector gets an error record, as an oversized support does, and the
# other vectors still run; (space, p, vectors, the value of each vector or None)
OVERFLOWING_RENORMS = [
    ({"kind": "Lq", "q": 3, "dim": 6}, 2000, [[3, 1, 0, 0, 0, 0], [1, 0.5, 0, 0, 0, 0]], [None, 1.040041911525952]),
    ({"kind": "Lq", "q": 2, "dim": 6}, 2, [[1e200, 1e200, 0, 0, 0, 0], [3, 4, 0, 0, 0, 0]], [None, 5.0]),
]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("space,p,vectors,values", OVERFLOWING_RENORMS)
def test_overflowing_renorm_vector_gets_an_error_record(tmp_path, capsys, space, p, vectors, values):
    doc = {"seed": 0, "space": space, "renorm": {"p": p, "vectors": vectors}}
    assert main(["renorm", "--config", write(tmp_path, "cfg.json", doc)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for rec, coords, value in zip(records, vectors, values, strict=True):
        assert rec["vector"] == coords
        if value is None:
            assert rec["error"].startswith("OverflowError") and "value" not in rec
        else:
            assert rec["value"] == value and "error" not in rec


class _Report:
    passed = True

    def to_dict(self):
        return {"tol": float("inf")}


@pytest.mark.parametrize("fault,message", [
    (lambda *a, **k: _Report(), "error: Out of range float values are not JSON compliant\n"),
    (lambda *a, **k: 1 / 0, "error: config.audit: ZeroDivisionError: division by zero\n"),
])
def test_only_a_verdict_exits_1(tmp_path, capsys, monkeypatch, fault, message):
    # a report holding a non-finite number, or an arithmetic error, is a rejection
    monkeypatch.setattr(cli, "audit_norm_axioms", fault)
    assert main(["space-check", "--config", write(tmp_path, "cfg.json", BASE_CFG)]) == 2
    assert capsys.readouterr() == ("", message)


def test_space_check_of_a_nan_oracle_is_not_exit_0(tmp_path, capsys, monkeypatch, nan_lq):
    # its audit fails with NaN worst cases, a report that is rejected rather than written
    monkeypatch.setattr(cli, "parse_norm_spec", lambda spec: nan_lq(2, 12))
    assert main(["space-check", "--config", write(tmp_path, "cfg.json", BASE_CFG)]) == 2
    assert capsys.readouterr() == ("", "error: Out of range float values are not JSON compliant\n")


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    cfg = write(tmp_path, "cfg.json", BASE_CFG)
    assert main(["renorm", "--config", cfg, "--out", str(tmp_path / "taken")]) == 2
    assert capsys.readouterr().err.startswith("error: FileExistsError: ")
