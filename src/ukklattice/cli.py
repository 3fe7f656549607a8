"""Batch command-line front-end.

Subcommands: ``space-check`` (norm axiom audit), ``estimate`` (constant
pipeline), ``renorm`` (decomposition values for listed or sampled
vectors), ``ukk`` (trial campaign).  All randomness is seeded from the
config (or ``--seed``); identical config + seed gives byte-identical
output.

Exit codes: 0 = checks passed (a hypothesis-failure report is a valid
scientific outcome, still 0); 1 = an inequality violation was detected;
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from .config import ConfigError, coordinate_arrays, count, known_fields, load_config, number_array
from .config import parse_norm_spec, require
from .estimates import run_estimate_pipeline, verify_lower_r_estimate
from .norms import _check_p, audit_norm_axioms
from .renorm import EXACT_THRESHOLD, renorm, renorm_exact, renorm_heuristic
from .sampling import random_vector
from .ukk import run_bump_campaign
from .vectors import LatticeVector

__all__ = ["main"]

SCHEMA_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _resolve_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        seed, path = args.seed, "--seed"
    elif "seed" in cfg:
        seed, path = require(cfg, "seed", int, "config"), "config.seed"
    else:
        raise ConfigError("config.seed", "a seed is mandatory (config field or --seed); wall-clock seeding is not supported")
    if seed < 0:
        raise ConfigError(path, f"seed must be a nonnegative integer, got {seed!r}")
    return seed


# the fields of each subcommand's config section; a field outside its table exits 2
_SECTIONS = {
    "audit": ("samples",),
    "estimate": ("budget", "rs", "verify_trials"),
    "renorm": ("p", "mode", "vectors", "random"),
    "ukk": ("p", "trials", "horizon", "mode"),
}


def _setup(args, section: str, *default) -> tuple:
    """The shared start of a subcommand: load the config (one file may hold every section), parse its
    space, read ``section`` (``default`` when absent, else required; its fields in ``_SECTIONS``), resolve the seed."""
    cfg = known_fields(load_config(args.config), ("seed", "space", *_SECTIONS), "config")
    N = parse_norm_spec(require(cfg, "space", dict, "config"))
    doc = known_fields(require(cfg, section, dict, "config", *default), _SECTIONS[section], f"config.{section}")
    return N, doc, _resolve_seed(args, cfg)


@contextlib.contextmanager
def _rejected_in(section: str):
    """Report a config value the library rejects as a ConfigError on its section."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(section, str(e)) from None


def _given(doc: dict, *skip: str) -> dict:
    """A section's fields less ``skip`` and null ones, which take the library's default, as keyword arguments."""
    return {k: v for k, v in doc.items() if v is not None and k not in skip}


def _cmd_space_check(args) -> int:
    N, audit_cfg, seed = _setup(args, "audit", {})
    with _rejected_in("config.audit"):
        report = audit_norm_axioms(N, seed=seed, **_given(audit_cfg))
    doc = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    _write(args.out, "space_check.json", _dump(doc) + "\n")
    return 0 if report.passed else 1


def _cmd_estimate(args) -> int:
    N, est, seed = _setup(args, "estimate", {})
    if est.get("rs") is not None:  # checked here, so that its messages name the field
        number_array(require(est, "rs", list, "config.estimate"), "config.estimate.rs")
    verify_trials = count(est, "verify_trials", "config.estimate", 1000)

    with _rejected_in("config.estimate"):
        report = run_estimate_pipeline(N, seed=seed, **_given(est, "verify_trials"))
    violations = 0
    verified = 0
    if report.hypothesis_satisfied and verify_trials > 0:
        for r, K in report.kr_table:
            violations += verify_lower_r_estimate(N, r, K, trials=verify_trials, seed=seed + 2)
            verified += verify_trials
    doc = {
        "schema_version": SCHEMA_VERSION,
        **report.to_dict(),
        "verify": {"trials": verified, "violations": violations},
    }
    _write(args.out, "estimate.json", _dump(doc) + "\n")
    return 1 if violations > 0 else 0


def _renorm_one(N, p: float, coords, mode: str, index: int, seed: int) -> dict:
    rec: dict = {"schema_version": SCHEMA_VERSION, "index": index}
    try:
        x = LatticeVector(coords)
        if mode == "exact":
            res = renorm_exact(N, p, x)
        elif mode == "heuristic":
            res = renorm_heuristic(N, p, x, seed=seed)
        else:
            res = renorm(N, p, x, seed=seed)
        rec.update(res.to_dict())
        rec["vector"] = x.to_list()
    except ValueError as e:  # SupportTooLarge and DimensionMismatch among them
        rec["error"] = str(e)
        rec["vector"] = [float(c) for c in coords]
    return rec


def _cmd_renorm(args) -> int:
    N, ren, seed = _setup(args, "renorm")
    p = require(ren, "p", object, "config.renorm")
    mode = require(ren, "mode", str, "config.renorm", "auto")
    if mode not in ("auto", "exact", "heuristic"):
        raise ConfigError("config.renorm.mode", f"expected auto|exact|heuristic, got {mode!r}")
    if "vectors" in ren and "random" in ren:
        raise ConfigError("config.renorm", "give one vector source, vectors or random, not both")
    if "vectors" in ren:
        vectors = coordinate_arrays(ren["vectors"], "config.renorm.vectors")
    elif "random" in ren:
        rnd = known_fields(require(ren, "random", dict, "config.renorm"), ("count", "support"), "config.renorm.random")
        n = count(rnd, "count", "config.renorm.random", 10)
        support = require(rnd, "support", int, "config.renorm.random", min(N.dim, EXACT_THRESHOLD))
        if not 1 <= support <= N.dim:  # checked before any draw: a draw may fall below an oversized bound
            raise ConfigError("config.renorm.random.support", f"expected an integer from 1 to {N.dim}, got {support}")
        rng = np.random.default_rng(seed)
        vectors = [
            random_vector(rng, N.dim, support_size=int(rng.integers(1, support + 1))).to_list()
            for _ in range(n)
        ]
    else:
        vectors = []
    with _rejected_in("config.renorm.p"):
        _check_p(p)

    lines = [_dump(_renorm_one(N, p, v, mode, i, seed + i)) for i, v in enumerate(vectors)]
    _write(args.out, "renorm.jsonl", "".join(line + "\n" for line in lines))
    return 0


def _ukk_csv(campaign) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "seed", "valid", "epsilon", "delta", "limit_renorm", "pass", "advisory"])
    for i, t in enumerate(campaign.trials):
        w.writerow([
            i,
            t.seed,
            int(t.valid),
            "" if t.epsilon is None else repr(t.epsilon),
            "" if t.delta is None else repr(t.delta),
            "" if t.limit_renorm is None else repr(t.limit_renorm),
            "" if t.passed is None else int(t.passed),
            int(t.advisory),
        ])
    return buf.getvalue()


def _cmd_ukk(args) -> int:
    N, ukk_cfg, seed = _setup(args, "ukk")
    for key in ("p", "trials"):
        require(ukk_cfg, key, object, "config.ukk")

    with _rejected_in("config.ukk"):
        campaign = run_bump_campaign(N, seed=seed, **_given(ukk_cfg))

    summary = {"schema_version": SCHEMA_VERSION, **campaign.to_dict(include_trials=False)}
    if campaign.valid == 0:
        summary["warning"] = "no valid trials (nothing was verified)"
    trial_lines = "".join(
        _dump({"schema_version": SCHEMA_VERSION, "index": i, **t.to_dict()}) + "\n"
        for i, t in enumerate(campaign.trials)
    )
    if args.out is None:
        _write(None, "", _dump(summary) + "\n")
    else:
        _write(args.out, "ukk_summary.json", _dump(summary) + "\n")
        _write(args.out, "ukk_trials.jsonl", trial_lines)
        _write(args.out, "ukk_summary.csv", _ukk_csv(campaign))
    return 1 if campaign.failed > 0 else 0


# subcommand -> (help, handler); a handler, never a library function, so that a
# library name rebound in this module's namespace is the one each run calls
_COMMANDS = {
    "space-check": ("audit the norm axioms of the configured space", _cmd_space_check),
    "estimate": ("run the constant-estimation pipeline", _cmd_estimate),
    "renorm": ("evaluate the decomposition renorm on vectors", _cmd_renorm),
    "ukk": ("run a separated-sequence trial campaign", _cmd_ukk),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ukklattice",
        description="Lattice geometry experiments: norm audits, disjointness constants, "
        "partition renormings, separated-sequence trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="directory for report files (default: stdout)")
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
