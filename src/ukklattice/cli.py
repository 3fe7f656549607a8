"""Batch command-line front-end.

Subcommands: ``space-check`` (norm axiom audit), ``estimate`` (constant
pipeline), ``renorm`` (decomposition values for listed or sampled
vectors), ``ukk`` (trial campaign).  All randomness is seeded from the
config (or ``--seed``); identical config + seed gives byte-identical
output.

Each handler returns its exit code and its reports by file name; ``main``
alone writes them (every file under ``--out``, else the first report on
stdout) and alone turns a rejection into exit 2.  Exit codes: 0 = checks
passed (a hypothesis-failure report is a valid scientific outcome, still
0); 1 = an inequality violation was detected; 2 = usage or configuration
error, a numeric overflow, or a report that would hold a non-finite number.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .config import ConfigError, coordinate_arrays, count, known_fields, load_config, number_array
from .config import parse_norm_spec, require
from .estimates import run_estimate_pipeline, verify_lower_r_estimate
from .norms import _check_p, _seed, audit_norm_axioms
from .renorm import EXACT_THRESHOLD, renorm, renorm_exact, renorm_heuristic
from .sampling import random_vector
from .ukk import run_bump_campaign
from .vectors import LatticeVector

__all__ = ["main"]

SCHEMA_VERSION = 1


def _line(doc: dict) -> str:
    """``doc`` with the schema version as one line of canonical JSON; a non-finite number raises ValueError."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _reason(e: Exception) -> str:
    """An error's message, typed unless it is a ValueError: an overflow's own text may be a bare errno tuple."""
    return str(e) if isinstance(e, ValueError) else f"{type(e).__name__}: {e}"


def _resolve_seed(args, cfg: dict) -> int:
    path, seed = ("--seed", args.seed) if args.seed is not None else ("config.seed", cfg.get("seed"))
    if seed is None:
        raise ConfigError("config.seed", "a seed is mandatory (config field or --seed); wall-clock seeding is not supported")
    with _rejected_in(path):
        return _seed(seed)


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
def _rejected_in(path: str):
    """Report a value the library rejects, or an arithmetic error it raises, as a ConfigError on ``path``."""
    try:
        yield
    except (ValueError, ArithmeticError) as e:
        raise ConfigError(path, _reason(e)) from None


def _given(doc: dict, *skip: str) -> dict:
    """A section's fields less ``skip`` and null ones, which take the library's default, as keyword arguments."""
    return {k: v for k, v in doc.items() if v is not None and k not in skip}


def _cmd_space_check(args) -> tuple[int, dict]:
    N, audit_cfg, seed = _setup(args, "audit", {})
    with _rejected_in("config.audit"):
        report = audit_norm_axioms(N, seed=seed, **_given(audit_cfg))
    return (0 if report.passed else 1), {"space_check.json": _line(report.to_dict())}


def _cmd_estimate(args) -> tuple[int, dict]:
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
    verify = {"trials": verified, "violations": violations}
    return (1 if violations > 0 else 0), {"estimate.json": _line({**report.to_dict(), "verify": verify})}


def _renorm_one(N, p: float, coords, mode: str, index: int, seed: int) -> str:
    """The record line of vector ``index``: its renorm, or an error if the engine rejects it or the renorm overflows."""
    try:
        x = LatticeVector(coords)
        if mode == "exact":
            res = renorm_exact(N, p, x)
        elif mode == "heuristic":
            res = renorm_heuristic(N, p, x, seed=seed)
        else:
            res = renorm(N, p, x, seed=seed)
        if not (math.isfinite(res.value) and math.isfinite(res.power_sum)):
            raise OverflowError(f"renorm overflows binary64: value {res.value}, power_sum {res.power_sum}")
        return _line({"index": index, **res.to_dict(), "vector": x.to_list()})
    except (ValueError, OverflowError) as e:  # SupportTooLarge and DimensionMismatch among them
        return _line({"index": index, "error": _reason(e), "vector": [float(c) for c in coords]})


def _cmd_renorm(args) -> tuple[int, dict]:
    N, ren, seed = _setup(args, "renorm")
    p = require(ren, "p", object, "config.renorm")
    mode = require(ren, "mode", str, "config.renorm", "auto")
    if mode not in ("auto", "exact", "heuristic"):
        raise ConfigError("config.renorm.mode", f"expected auto|exact|heuristic, got {mode!r}")
    given, rnd = ren.get("vectors"), ren.get("random")  # a null source is absent
    if given is not None and rnd is not None:
        raise ConfigError("config.renorm", "give one vector source, vectors or random, not both")
    if given is not None:
        vectors = coordinate_arrays(given, "config.renorm.vectors")
    elif rnd is not None:
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

    return 0, {"renorm.jsonl": "".join(_renorm_one(N, p, v, mode, i, seed + i) for i, v in enumerate(vectors))}


def _ukk_csv(campaign) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "seed", "valid", "epsilon", "delta", "limit_renorm", "pass", "advisory"])
    for i, t in enumerate(campaign.trials):
        passed = None if t.passed is None else int(t.passed)
        w.writerow([i, t.seed, int(t.valid), t.epsilon, t.delta, t.limit_renorm, passed, int(t.advisory)])
    return buf.getvalue()


def _cmd_ukk(args) -> tuple[int, dict]:
    N, ukk_cfg, seed = _setup(args, "ukk")
    for key in ("p", "trials"):
        require(ukk_cfg, key, object, "config.ukk")

    with _rejected_in("config.ukk"):
        campaign = run_bump_campaign(N, seed=seed, **_given(ukk_cfg))

    warning = {"warning": "no valid trials (nothing was verified)"} if campaign.valid == 0 else {}
    return (1 if campaign.failed > 0 else 0), {
        "ukk_summary.json": _line({**campaign.to_dict(include_trials=False), **warning}),
        "ukk_trials.jsonl": "".join(_line({"index": i, **t.to_dict()}) for i, t in enumerate(campaign.trials)),
        "ukk_summary.csv": _ukk_csv(campaign),
    }


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
        code, reports = _COMMANDS[args.command][1](args)
        if args.out is None:  # stdout carries the first report
            sys.stdout.write(next(iter(reports.values())))
        else:
            os.makedirs(args.out, exist_ok=True)
            for name, text in reports.items():
                with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="\n") as f:
                    f.write(text)
    except (ValueError, ArithmeticError, OSError) as e:  # a ConfigError is a ValueError
        print(f"error: {_reason(e)}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
