"""Boundary wrappers around the public functions of every ukklattice module.

The traced run replaces each public function, in every ukklattice
namespace that bound it by name, with a wrapper that records a span
(name, start, end, parent) and the counts the per-layer metrics need.
Methods are patched on their classes, so every caller goes through the
wrapper.  A layer's self time is its spans' time minus the time covered
by their child spans.  Spans stay in memory and are written out at the
end of the run.

``cross_check`` proves that no call escapes the wrappers: under a
profiler that counts calls to the original code objects, the wrapper
counts must match exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function name) of the wrapped module-level functions
FUNCTIONS = (
    ("vectors", ("pos_part", "neg_part", "absolute", "meet", "join", "is_disjoint", "truncate",
                 "disjoint_residuals", "restrict")),
    ("norms", ("audit_norm_axioms",)),
    ("sampling", ("random_coords", "random_vector", "random_disjoint_pair", "random_disjoint_family")),
    ("renorm", ("renorm", "renorm_exact", "renorm_heuristic")),
    ("estimates", ("estimate_two_disjoint_constant", "estimate_lower_p_constant", "lower_r_constant",
                   "verify_lower_r_estimate", "run_estimate_pipeline")),
    ("ukk", ("run_bump_campaign", "generate_bump_sequence", "measure_separation", "run_ukk_trial")),
)
# (module, class, method names) of the wrapped methods
METHODS = (
    ("vectors", "LatticeVector", ("__init__", "unit", "zeros", "__add__", "__sub__", "__mul__",
                                  "__rmul__", "__neg__")),
    ("partitions", "SupportPartition", ("__init__",)),
    ("norms", "LqNorm", ("values",)),
    ("norms", "WeightedLqNorm", ("values",)),
    ("norms", "BlockNorm", ("values",)),
    ("norms", "PosNegMaxNorm", ("values",)),
)

_RENORM_ENTRIES = ("renorm.renorm", "renorm.renorm_exact", "renorm.renorm_heuristic")
_EXACT_BUCKETS = (("s1_4", 1, 4), ("s5_8", 5, 8), ("s9_12", 9, 12), ("s13_14", 13, 14))


def _nxp(args, kwargs):
    """The (N, p, x) arguments of a renorm entry point."""
    names = ("N", "p", "x")
    vals = list(args[:3]) + [kwargs[k] for k in names[len(args):3]]
    return vals[0], vals[1], vals[2]


def _ukk_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ukklattice" or name.startswith("ukklattice."))]


class Tracer:
    """Span recorder plus the counters measured at the wrapped boundaries."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, time covered by children, parent, start]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.values_calls = 0
        self.values_rows = 0
        self.renorm_calls = 0
        self.renorm_repeats = 0
        self.heuristic_rows = 0
        self.exact_dp_pairs = 0
        self.exact_bucket_s: defaultdict = defaultdict(float)
        self.exact_bucket_calls: Counter = Counter()
        self._values_depth = 0
        self._renorm_depth = 0
        self._heuristic_depth = 0
        self._seen: set = set()

    def begin_op(self) -> None:
        """Repeats are counted within one op."""
        self._seen = set()

    # -- hooks run on entry and exit of particular spans --------------------

    def _enter(self, name, args, kwargs):
        if name.endswith(".values"):
            if self._values_depth == 0:
                rows = int(args[1].shape[0])
                self.values_calls += 1
                self.values_rows += rows
                if self._heuristic_depth:
                    self.heuristic_rows += rows
            self._values_depth += 1
            return None
        if name in _RENORM_ENTRIES:
            N, p, x = _nxp(args, kwargs)
            if self._renorm_depth == 0:
                self.renorm_calls += 1
                key = (id(N), float(p), x.coords.tobytes())
                if key in self._seen:
                    self.renorm_repeats += 1
                self._seen.add(key)
            self._renorm_depth += 1
            if name == "renorm.renorm_heuristic":
                self._heuristic_depth += 1
            return int(np.count_nonzero(x.coords))
        return None

    def _exit(self, name, support, duration):
        if name.endswith(".values"):
            self._values_depth -= 1
        elif name in _RENORM_ENTRIES:
            self._renorm_depth -= 1
            if name == "renorm.renorm_heuristic":
                self._heuristic_depth -= 1
            elif name == "renorm.renorm_exact":
                self.exact_dp_pairs += (3**support - 1) // 2
                for bucket, lo, hi in _EXACT_BUCKETS:
                    if lo <= support <= hi:
                        self.exact_bucket_s[bucket] += duration
                        self.exact_bucket_calls[bucket] += 1

    def _open(self) -> list:
        frame = [len(self.spans), 0.0, self._stack[-1][0] if self._stack else -1, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _close(self, name: str, frame: list) -> float:
        t1 = time.perf_counter()
        index, covered, parent, t0 = frame
        self._stack.pop()
        d = t1 - t0
        if self._stack:
            self._stack[-1][1] += d
        self.spans[index] = (name, t0, t1, parent)
        self.calls[name] += 1
        self.self_s[name] += d - covered
        self.total_s[name] += d
        return d

    def wrap(self, name: str, fn):
        tracer = self
        hooked = name.endswith(".values") or name in _RENORM_ENTRIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            ctx = tracer._enter(name, args, kwargs) if hooked else None
            frame = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                d = tracer._close(name, frame)
                if hooked:
                    tracer._exit(name, ctx, d)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around benchmark-side code, such as a whole CLI command."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == layer)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def install(tracer: Tracer) -> dict:
    """Wrap every listed function and method; return {span name: original code}.

    Module-level functions are replaced in every ukklattice namespace that
    holds them (the package re-exports, ``ukk``'s ``renorm`` and
    ``truncate``, ``estimates``' ``renorm_exact``, the CLI's imports).
    Raises if an original is left reachable from any ukklattice module.
    """
    codes = {}
    originals = []
    for mod_name, names in FUNCTIONS:
        mod = importlib.import_module(f"ukklattice.{mod_name}")
        for fname in names:
            orig = vars(mod)[fname]
            span = f"{mod_name}.{fname}"
            wrapper = tracer.wrap(span, orig)
            for m in _ukk_modules():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
            codes[span] = orig.__code__
            originals.append(orig)
    for mod_name, cls_name, names in METHODS:
        cls = getattr(importlib.import_module(f"ukklattice.{mod_name}"), cls_name)
        for mname in names:
            orig = vars(cls)[mname]
            span = f"{mod_name}.{cls_name}.{mname}"
            if isinstance(orig, classmethod):
                setattr(cls, mname, classmethod(tracer.wrap(span, orig.__func__)))
                codes[span] = orig.__func__.__code__
            else:
                setattr(cls, mname, tracer.wrap(span, orig))
                codes[span] = orig.__code__
            originals.append(orig)
    stale = [
        f"{m.__name__}.{key}"
        for m in _ukk_modules()
        for key, val in vars(m).items()
        if any(val is o for o in originals)
    ]
    if stale:
        raise RuntimeError(f"unwrapped references remain: {', '.join(stale)}")
    return codes


def cross_check(tracer: Tracer, codes: dict, scenario) -> list[str]:
    """Run ``scenario`` under a call-counting profiler and the wrappers.

    Every wrapped original must have been entered exactly as often as its
    wrappers recorded; a namespace the patching missed shows as a mismatch.
    Spans sharing one code object (``__mul__`` is ``__rmul__``) are summed.
    """
    spans_of: defaultdict = defaultdict(list)
    for span, code in codes.items():
        spans_of[code].append(span)
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in spans_of:
            seen[frame.f_code] += 1

    tracer.reset()
    tracer.active = True
    sys.setprofile(profile)
    try:
        scenario()
    finally:
        sys.setprofile(None)
        tracer.active = False
    problems = []
    for code, spans in spans_of.items():
        wrapped = sum(tracer.calls[s] for s in spans)
        if wrapped != seen[code]:
            problems.append(f"{'/'.join(spans)}: wrapper {wrapped}, profiler {seen[code]}")
        elif wrapped == 0:
            problems.append(f"{'/'.join(spans)}: not exercised by the cross-check")
    tracer.reset()
    return problems


def scenario() -> None:
    """Reach every wrapped function once, through the library's own call paths."""
    from ukklattice.norms import BlockNorm, LqNorm, PosNegMaxNorm, WeightedLqNorm
    from ukklattice.vectors import LatticeVector

    vectors = importlib.import_module("ukklattice.vectors")
    norms = importlib.import_module("ukklattice.norms")
    renorm = importlib.import_module("ukklattice.renorm")
    estimates = importlib.import_module("ukklattice.estimates")
    ukk = importlib.import_module("ukklattice.ukk")
    x = LatticeVector([0.5, -0.25, 0.0, 0.75])
    y = LatticeVector([0.0, 0.0, -0.5, 0.0])
    for unary in (vectors.pos_part, vectors.neg_part, vectors.absolute):
        unary(x)
    for binary in (vectors.meet, vectors.join, vectors.is_disjoint, vectors.disjoint_residuals):
        binary(x, y)
    vectors.restrict(x, [0, 1])
    LatticeVector.zeros(4)
    -x  # __neg__
    2.0 * x  # __rmul__
    block = BlockNorm([[0, 1], [2, 3]], [LqNorm(1, 2)] * 2, LqNorm("inf", 2))
    ukk.run_bump_campaign(LqNorm(2, 8), 2.0, trials=1, seed=0, horizon=4)
    ukk.run_bump_campaign(block, 2.0, trials=1, seed=0, mode="fuzz", horizon=3)
    limit = LatticeVector.unit(4, 0, 0.5)
    ukk.check_truncation_vanishing(x, [limit, limit], limit, block)  # truncate via ukk's import
    renorm.renorm_heuristic(LqNorm(3, 14), 2.0, LatticeVector([0.1 + 0.05 * i for i in range(14)]))
    norms.audit_norm_axioms(PosNegMaxNorm(LqNorm(1.5, 4)), samples=50)
    N = WeightedLqNorm(3, [1.0, 1.5, 2.0, 2.5])
    report = estimates.run_estimate_pipeline(N, budget=12, seed=0)
    r, K = report.kr_table[0]
    estimates.verify_lower_r_estimate(N, r, K, trials=5)


def renorm_counts_per_bump_trial(tracer: Tracer, N, horizon: int, seed: int = 0) -> tuple[int, int]:
    """(renorm calls, byte-identical repeats) of one bump trial."""
    ukk = importlib.import_module("ukklattice.ukk")
    tracer.reset()
    tracer.active = True
    try:
        tracer.begin_op()
        ukk.run_bump_campaign(N, 2.0, trials=1, seed=seed, horizon=horizon)
    finally:
        tracer.active = False
    counts = (tracer.renorm_calls, tracer.renorm_repeats)
    tracer.reset()
    return counts


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass, as {name: (value, unit)}."""

    def ratio(a, b):
        return a / b if b else 0.0

    def self_of(*spans):
        return sum(tr.self_s[s] for s in spans)

    values_self = sum(v for k, v in tr.self_s.items() if k.endswith(".values"))
    exact_calls = tr.calls["renorm.renorm_exact"]
    heur_calls = tr.calls["renorm.renorm_heuristic"]
    m = {
        "norms.values.calls": (tr.values_calls, "count"),
        "norms.values.rows": (tr.values_rows, "count"),
        "norms.values.rows_per_call": (ratio(tr.values_rows, tr.values_calls), "rows/call"),
        "norms.values.self_s": (values_self, "s"),
        "norms.values.ns_per_row": (ratio(values_self * 1e9, tr.values_rows), "ns/row"),
        "norms.audit_norm_axioms.self_s": (self_of("norms.audit_norm_axioms"), "s"),
        "renorm.calls": (tr.renorm_calls, "count"),
        "renorm.repeat_frac": (ratio(tr.renorm_repeats, tr.renorm_calls), "1"),
        "renorm.exact.calls": (exact_calls, "count"),
        "renorm.exact.self_s": (self_of("renorm.renorm_exact"), "s"),
    }
    for bucket, _, _ in _EXACT_BUCKETS:
        m[f"renorm.exact.us_per_call.{bucket}"] = (
            ratio(tr.exact_bucket_s[bucket] * 1e6, tr.exact_bucket_calls[bucket]), "us")
    m["renorm.exact.dp_pairs"] = (tr.exact_dp_pairs, "count")
    m["renorm.exact.ns_per_dp_pair"] = (ratio(self_of("renorm.renorm_exact") * 1e9, tr.exact_dp_pairs), "ns/pair")
    m["renorm.heuristic.calls"] = (heur_calls, "count")
    m["renorm.heuristic.self_s"] = (self_of("renorm.renorm_heuristic"), "s")
    m["renorm.heuristic.ms_per_call"] = (ratio(tr.total_s["renorm.renorm_heuristic"] * 1e3, heur_calls), "ms")
    m["renorm.heuristic.rows_per_call"] = (ratio(tr.heuristic_rows, heur_calls), "rows/call")
    for layer in ("vectors", "partitions"):
        m[f"{layer}.calls"] = (tr.layer_calls(layer), "count")
        m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    m["sampling.self_s"] = (tr.layer_self_s("sampling"), "s")
    for fname in ("generate_bump_sequence", "measure_separation", "run_ukk_trial"):
        m[f"ukk.{fname}.self_s"] = (self_of(f"ukk.{fname}"), "s")
    m["estimates.two_disjoint.self_s"] = (self_of("estimates.estimate_two_disjoint_constant"), "s")
    m["estimates.lower_p.self_s"] = (self_of("estimates.estimate_lower_p_constant"), "s")
    m["estimates.lower_r_constant.s"] = (tr.total_s["estimates.lower_r_constant"], "s")
    m["estimates.verify.self_s"] = (self_of("estimates.verify_lower_r_estimate"), "s")
    return m
