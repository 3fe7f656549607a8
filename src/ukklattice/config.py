"""Experiment configuration: JSON parsing and the norm spec grammar.

A norm spec is a JSON object with a ``kind`` plus kind-specific fields:

    {"kind": "Lq", "q": 2, "dim": 8}
    {"kind": "Lq", "q": "inf", "dim": 4}
    {"kind": "WeightedLq", "q": 1, "weights": [1, 2, 3]}
    {"kind": "Block", "blocks": [[0, 1], [2, 3]],
     "inner": {"kind": "Lq", "q": 1},
     "outer": {"kind": "Lq", "q": "inf", "dim": 2}}
    {"kind": "PosNegMax", "base": {"kind": "Lq", "q": 1, "dim": 4}}

``inner`` may be one spec (applied to every block, ``dim`` filled in
from the block size) or a list with one spec per block.  Errors carry
the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

from .norms import BlockNorm, LqNorm, NormOracle, PosNegMaxNorm, WeightedLqNorm

__all__ = ["ConfigError", "parse_norm_spec", "load_config"]

_KINDS = ("Lq", "WeightedLq", "Block", "PosNegMax")


class ConfigError(ValueError):
    """Configuration problem, annotated with the JSON field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect_keys(spec: dict, path: str, allowed: set[str], required: set[str]) -> None:
    missing = required - spec.keys()
    if missing:
        raise ConfigError(path, f"missing required field(s): {', '.join(sorted(missing))}")
    unknown = spec.keys() - allowed
    if unknown:
        raise ConfigError(path, f"unknown field(s): {', '.join(sorted(unknown))}")


def _parse_q(q: Any, path: str) -> float | str:
    if isinstance(q, str):
        if q.lower() in ("inf", "infinity"):
            return "inf"
        raise ConfigError(f"{path}.q", f"unrecognized exponent {q!r} (use a number >= 1 or \"inf\")")
    if not isinstance(q, (int, float)) or isinstance(q, bool):
        raise ConfigError(f"{path}.q", "exponent must be a number or \"inf\"")
    if math.isnan(float(q)) or float(q) < 1.0:
        raise ConfigError(f"{path}.q", f"exponent must be >= 1, got {q}")
    return float(q)


def _parse_dim(spec: dict, path: str) -> int:
    dim = spec.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ConfigError(f"{path}.dim", f"dim must be a positive integer, got {dim!r}")
    return dim


def parse_norm_spec(spec: Any, path: str = "space") -> NormOracle:
    """Build a norm oracle from its JSON spec; raises ConfigError with field paths."""
    if not isinstance(spec, dict):
        raise ConfigError(path, f"expected an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")

    try:
        if kind == "Lq":
            _expect_keys(spec, path, {"kind", "q", "dim"}, {"kind", "q", "dim"})
            return LqNorm(_parse_q(spec["q"], path), _parse_dim(spec, path))

        if kind == "WeightedLq":
            _expect_keys(spec, path, {"kind", "q", "weights", "dim"}, {"kind", "q", "weights"})
            weights = spec["weights"]
            if not isinstance(weights, list) or not weights or not all(_is_number(w) for w in weights):
                raise ConfigError(f"{path}.weights", "weights must be a nonempty array of positive numbers")
            if "dim" in spec and _parse_dim(spec, path) != len(weights):
                raise ConfigError(f"{path}.dim", f"dim {spec['dim']} disagrees with {len(weights)} weights")
            return WeightedLqNorm(_parse_q(spec["q"], path), weights)

        if kind == "PosNegMax":
            _expect_keys(spec, path, {"kind", "base", "dim"}, {"kind", "base"})
            base = parse_norm_spec(spec["base"], f"{path}.base")
            if "dim" in spec and _parse_dim(spec, path) != base.dim:
                raise ConfigError(f"{path}.dim", f"dim {spec['dim']} disagrees with base dim {base.dim}")
            return PosNegMaxNorm(base)

        # Block
        _expect_keys(spec, path, {"kind", "blocks", "inner", "outer", "dim"}, {"kind", "blocks", "inner", "outer"})
        blocks = spec["blocks"]
        if (
            not isinstance(blocks, list)
            or not blocks
            or not all(isinstance(b, list) and b and all(type(i) is int for i in b) for b in blocks)
        ):
            raise ConfigError(f"{path}.blocks", "blocks must be a nonempty array of nonempty integer arrays")
        inner_spec = spec["inner"]
        if isinstance(inner_spec, dict):
            inner = []
            for j, blk in enumerate(blocks):
                filled = dict(inner_spec)
                filled.setdefault("dim", len(blk))
                inner.append(parse_norm_spec(filled, f"{path}.inner"))
        elif isinstance(inner_spec, list):
            if len(inner_spec) != len(blocks):
                raise ConfigError(f"{path}.inner", f"{len(blocks)} blocks but {len(inner_spec)} inner specs")
            inner = [parse_norm_spec(s, f"{path}.inner[{j}]") for j, s in enumerate(inner_spec)]
        else:
            raise ConfigError(f"{path}.inner", "inner must be a spec object or an array of spec objects")
        outer = parse_norm_spec(spec["outer"], f"{path}.outer")
        oracle = BlockNorm(blocks, inner, outer)
        if "dim" in spec and _parse_dim(spec, path) != oracle.dim:
            raise ConfigError(f"{path}.dim", f"dim {spec['dim']} disagrees with the blocks ({oracle.dim} atoms)")
        return oracle
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def load_json(path: str, what: str) -> Any:
    """Parse a JSON input file; a missing file or bad JSON is a ConfigError on ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(path, f"{what} file not found") from None
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None


def load_config(path: str) -> dict:
    """Read a JSON experiment config; errors carry file and position."""
    doc = load_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(path, "top-level config must be a JSON object")
    return doc


_MISSING = object()


def require(doc: dict, key: str, kind: type, path: str, default=_MISSING):
    """Fetch a typed field, ``default`` when it is absent or null, or raise a path-annotated error.

    ``kind`` float accepts any finite JSON number and returns it as
    written, so an integer value reaches the report unchanged.  A bool is
    never a number.  Without a default the field is required.
    """
    val = doc.get(key)
    if val is None:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    if kind is float:
        ok = _is_number(val)
    else:
        ok = isinstance(val, kind) and (kind is bool or not isinstance(val, bool))
    if not ok:
        name = "finite number" if kind is float else kind.__name__
        raise ConfigError(f"{path}.{key}", f"expected {name}, got {val!r}")
    return val


def _is_number(v) -> bool:
    """A finite JSON number; a bool is not a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def number_array(doc: Any, path: str) -> list:
    """``doc`` checked to be an array of finite numbers."""
    if not isinstance(doc, list) or not all(_is_number(v) for v in doc):
        raise ConfigError(path, "expected an array of finite numbers")
    return doc


def coordinate_arrays(doc: Any, path: str) -> list[list]:
    """``doc`` checked to be an array of coordinate arrays of finite numbers."""
    if not isinstance(doc, list):
        raise ConfigError(path, "expected an array of coordinate arrays")
    for i, row in enumerate(doc):
        number_array(row, f"{path}[{i}]")
    return doc
