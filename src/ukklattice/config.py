"""Experiment configuration: JSON parsing and the norm spec grammar.

A norm spec is a JSON object with a ``kind`` plus the fields its class
lists in ``spec_fields``; ``dim`` is optional where it is not one of them:

    {"kind": "Lq", "q": "inf", "dim": 4}
    {"kind": "WeightedLq", "q": 1, "weights": [1, 2, 3]}
    {"kind": "Block", "blocks": [[0, 1], [2, 3]], "inner": {"kind": "Lq", "q": 1},
     "outer": {"kind": "Lq", "q": "inf", "dim": 2}}
    {"kind": "PosNegMax", "base": {"kind": "Lq", "q": 1, "dim": 4}}

``inner`` may be one spec (applied to every block, ``dim`` filled in
from the block size; the blocks of one size share one oracle, which
``BlockNorm.values`` calls once for them all) or a list with one spec
per block.  A field of the wrong JSON type is an error on its own path;
a value the oracle constructor rejects (an exponent below 1, say) is an
error on the path of its spec.  A spec, like each config section,
rejects unknown fields.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .norms import _KINDS, NormOracle

__all__ = ["ConfigError", "parse_norm_spec", "load_config"]

class ConfigError(ValueError):
    """Configuration problem, annotated with the JSON field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def parse_norm_spec(spec: Any, path: str = "space") -> NormOracle:
    """Build a norm oracle from its JSON spec; raises ConfigError with field paths.

    Only the JSON shape is checked here, each field by the rule of its
    name; the oracle constructors own the value rules, and their
    ValueError becomes a ConfigError on ``path``.
    """
    if not isinstance(spec, dict):
        raise ConfigError(path, f"expected an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
    missing = set(cls.spec_fields) - spec.keys()
    if missing:
        raise ConfigError(path, f"missing required field(s): {', '.join(sorted(missing))}")
    known_fields(spec, ("kind", "dim", *cls.spec_fields), path)
    dim = spec.get("dim")
    if "dim" in spec and type(dim) is not int:
        raise ConfigError(f"{path}.dim", f"dim must be an integer, got {dim!r}")
    try:
        oracle = cls(*(_read(spec, f, f"{path}.{f}") for f in cls.spec_fields))
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(path, str(e)) from e
    if "dim" in spec and dim != oracle.dim:
        raise ConfigError(f"{path}.dim", f"dim {dim} disagrees with the {oracle.dim} atoms of the {kind} spec")
    return oracle


def _read(spec: dict, field: str, path: str):
    """A spec field as its constructor argument, by the rule of its name; ``q``
    and ``dim`` pass as written.  ``inner`` reads ``blocks``, which is read first."""
    val = spec[field]
    if field in ("base", "outer"):
        return parse_norm_spec(val, path)
    if field == "weights":
        return number_array(val, path)
    if field == "blocks" and not (isinstance(val, list) and all(
        isinstance(b, list) and b and all(type(i) is int for i in b) for b in val
    )):
        raise ConfigError(path, "blocks must be an array of nonempty integer arrays")
    if field == "inner":
        if isinstance(val, dict):  # one spec for every block: one oracle per block size, its dim that size
            sizes = dict.fromkeys(len(blk) for blk in spec["blocks"])  # in block order, so errors name the first
            oracles = {size: parse_norm_spec({"dim": size, **val}, path) for size in sizes}
            return [oracles[len(blk)] for blk in spec["blocks"]]
        if not isinstance(val, list):
            raise ConfigError(path, "inner must be a spec object or an array of spec objects")
        return [parse_norm_spec(s, f"{path}[{j}]") for j, s in enumerate(val)]
    return val


def known_fields(doc: dict, known, path: str) -> dict:
    """``doc``, checked to have no field outside ``known``: a misspelt field never takes its default."""
    unknown = doc.keys() - set(known)
    if unknown:
        raise ConfigError(path, f"unknown field(s): {', '.join(sorted(unknown))}")
    return doc


def load_config(path: str) -> dict:
    """Read a JSON experiment config; a missing file, bad JSON or a non-object is a ConfigError on ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found") from None
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(path, "top-level config must be a JSON object")
    return doc


_MISSING = object()


def require(doc: dict, key: str, kind: type, path: str, default=_MISSING):
    """Fetch a typed field, ``default`` when it is absent or null, or raise a path-annotated error.

    A bool is never an int.  Without a default the field is required;
    ``kind`` object only checks that it is present, leaving its value to
    the library call that takes it.
    """
    val = doc.get(key)
    if val is None:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {val!r}")
    return val


def count(doc: dict, key: str, path: str, default) -> int:
    """A nonnegative integer field; 0 is a count of nothing, a negative count an error."""
    n = require(doc, key, int, path, default)
    if n < 0:
        raise ConfigError(f"{path}.{key}", f"expected a nonnegative integer, got {n!r}")
    return n


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
