"""ukklattice benchmark: seeded closed-loop workloads over the public API.

    python3 bench/run.py --workload ukk-bump --seed 1 --seconds 30 --trace 0

Run from the repository root.  A workload's seed fixes one round of ops.
``--trace 0`` replays the round, uninstrumented, for ``--seconds``, with
set-up probes and CLI runs in the gaps between rounds, and reports the
end-to-end metrics from each op's median latency over the rounds, every
time scaled to the host's speed as ``speed.py`` explains.  ``--trace 1``
replays the round once untraced and once with boundary wrappers around
every public function, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md``.

Exit codes: 0 after a completed run (``correct`` says whether every check
passed), 2 when the package cannot be imported, 3 when the benchmark's own
self-tests fail (checker or wrappers), in which case no result is printed.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy loads, so numbers
# measure the program and not the scheduler.  Children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import math  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)

# CPUs this process may use, read before it pins itself to one
NPROC = len(os.sched_getaffinity(0))
# set-up probes, and CLI runs, per untraced run
SUBPROCESS_RUNS = 15
TAIL_BEYOND = 10
# a run repeats its op list at least this often: the repeats give each op
# a median latency and check determinism
MIN_ROUNDS = 3


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


if not os.path.isdir(os.path.join(SRC, "ukklattice")):
    _fail(2, f"no ukklattice package under {SRC}; run from the repository root")
try:
    import numpy as np
    import ukklattice
    import ukklattice.cli  # loaded before wrapping, so its imported names get wrapped too
    from ukklattice.norms import LqNorm
    from ukklattice.vectors import LatticeVector
except ImportError as e:
    _fail(2, f"cannot import ukklattice from {SRC}: {e}")

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def setup(wl):
    """Everything before the first timed op: specs, oracles, warm-up."""
    oracles = wl.build()
    wl.warm_up(oracles)
    return oracles


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on.

    The host's speed can differ between its CPUs; on one CPU, the reference
    kernel run in this process reads the speed that a child process meets.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no /proc or no affinity control: run unpinned


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str, seed: int) -> float:
    """Time in a fresh interpreter until the first op could start, scaled."""
    before = speed.burst()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or line.strip() != "ready":
        _fail(3, f"setup probe exited {rc} without reporting ready")
    return speed.scale_one(t1 - t0, before, speed.burst())


class Rounds:
    """Op timings over rounds, failures, and one digest per round.

    Every round replays the same seeded op list on freshly built oracles and
    freshly generated inputs; the rounds are also the repeats whose digests
    must agree.  Each op is timed right after a reading of the reference
    kernel, so ``times[j]`` (op ``ops[j]``) pairs with ``refs[j]``.
    """

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.ops: list[int] = []
        self.times: list[float] = []
        self.refs: list[float] = []
        self.busy = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.tally = checks.RenormTally()
        self.trials = 0
        self.invalid_trials = 0

    def latencies(self) -> list[float]:
        """Each op's median over rounds of its host-speed-scaled time."""
        per_op: list[list[float]] = [[] for _ in range(self.n_ops)]
        for i, t in zip(self.ops, speed.scale_sequence(self.times, self.refs)):
            per_op[i].append(t)
        return [statistics.median(ts) for ts in per_op]


def run_rounds(wl, seed: int, *, seconds: float = 0.0, rounds: int | None = None, tracer=None,
               between=None) -> Rounds:
    """Closed loop, one client: whole rounds until ``rounds``, or for ``seconds``.

    ``between(share)`` runs in each gap between rounds, with the share of
    ``seconds`` that has passed.
    """
    res = Rounds(len(wl.round_ops(seed)))
    first: list[tuple[str, bool]] = []  # (result JSON, check outcome) of round 0
    start = time.perf_counter()
    last = 0.0
    while (res.rounds < rounds) if rounds is not None else (
        res.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds
    ):
        if between is not None and res.rounds:
            between((time.perf_counter() - start) / seconds)
        oracles = wl.build()
        digest = checks.Digest()
        for i, op in enumerate(wl.round_ops(seed)):
            if tracer is not None:
                tracer.begin_op()
            ref = speed.reading(speed.SHARE * last)
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = wl.run(oracles, op)
            except Exception as e:  # an op that raises is a failed op, not a crash
                out = e
            dt = last = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            res.ops.append(i)
            res.times.append(dt)
            res.refs.append(ref)
            res.busy += dt
            try:
                doc = checks.canonical({"error": repr(out)} if isinstance(out, Exception) else wl.result_doc(op, out))
            except ValueError:  # NaN or infinity in a result
                doc = None
            digest.add(doc)
            if res.rounds == 0:
                ok = doc is not None and not isinstance(out, Exception) and wl.check(oracles, op, out, res.tally)
                first.append((doc, ok))
                if not isinstance(out, Exception):
                    trials, invalid = wl.trials(out)
                    res.trials += trials
                    res.invalid_trials += invalid
            else:
                # a result identical to round 0's has round 0's check outcome
                ok = doc == first[i][0] and first[i][1]
            res.attempted += 1
            if not ok:
                res.failed += 1
                if len(res.errors) < 5:
                    res.errors.append(f"round {res.rounds} op {i} {op.kind}: {out!r}"[:300])
        res.digests.append(digest.hexdigest())
        res.rounds += 1
    return res


def write_cli_config(wl, seed: int) -> tuple[str, str]:
    """Write the workload's CLI config; return its path and the report directory."""
    base = os.path.join(OUT, f"cli-{wl.name}")
    os.makedirs(base, exist_ok=True)
    cfg = os.path.join(base, "config.json")
    with open(cfg, "w", encoding="utf-8") as f:
        json.dump(wl.cli_config(seed), f)
    return cfg, os.path.join(base, "out")


def out_files(out: str) -> dict[str, int]:
    if not os.path.isdir(out):
        return {}
    return {name: os.path.getsize(os.path.join(out, name)) for name in sorted(os.listdir(out))}


def cli_run(wl, cfg: str, out: str) -> tuple[float, str | None]:
    """Scaled wall time of the CLI subcommand in a fresh process, and a failure message."""
    shutil.rmtree(out, ignore_errors=True)
    before = speed.burst()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ukklattice.cli", wl.cli_command, "--config", cfg, "--out", out],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
    )
    wall = speed.scale_one(time.perf_counter() - t0, before, speed.burst())
    if checks.check_cli(proc.returncode, out_files(out)):
        return wall, None
    return wall, f"cli {wl.cli_command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"


def src_line_count() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "ukklattice", "*.py"))):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": NPROC,
        "src_lines": src_line_count(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency of the slowest op with TAIL_BEYOND samples beyond it, and its percentile."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(0, n - TAIL_BEYOND - 1)
    return lat[k], 100.0 * (k + 1) / n


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]], notes: list[str]):
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))


def run_untraced(wl, seed: int, seconds: float) -> None:
    cfg, out = write_cli_config(wl, seed)
    setup_times: list[float] = []
    cli_walls: list[float] = []
    cli_errors: list[str] = []

    def between(share: float):
        # set-up probes and CLI runs are spread evenly over the run
        while len(cli_walls) < min(SUBPROCESS_RUNS, math.ceil(share * SUBPROCESS_RUNS)):
            setup_times.append(setup_probe(wl.name, seed))
            wall, err = cli_run(wl, cfg, out)
            cli_walls.append(wall)
            if err:
                cli_errors.append(err)

    setup(wl)
    res = run_rounds(wl, seed, seconds=seconds, between=between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    between(1.0)
    shutil.rmtree(os.path.dirname(cfg), ignore_errors=True)

    lat = res.latencies()
    n = len(lat)
    tail_s, tail_pct = tail(lat)
    attempted = res.attempted + SUBPROCESS_RUNS
    failed = res.failed + len(cli_errors)
    same = len(set(res.digests)) == 1
    notes = [
        f"workload {wl.name} seed {seed} trace 0: {wl.why}",
        f"env {json.dumps(environment(), sort_keys=True)}",
        f"digest sha256 {res.digests[0]} over {n} ops; {res.rounds} rounds "
        + ("all identical" if same else "DIFFER: " + " ".join(res.digests)),
        f"latency of an op is its median of {res.rounds} rounds, scaled to the host's speed "
        f"(reference kernel median {statistics.median(res.refs) * 1e6:.1f} us, scaled to "
        f"{speed.REF_S * 1e6:.1f} us); op_tail_ms is p{tail_pct:.2f}, "
        f"the slowest op with {TAIL_BEYOND} of {n} ops beyond it",
        f"metric failed_frac = {failed / attempted!r} 1 ({failed} of {attempted} attempted ops, "
        f"{SUBPROCESS_RUNS} of them CLI runs)",
    ]
    if wl.name == "renorm-mixed":
        notes.append(f"finding renorm value below N(x) by its final root's rounding on "
                     f"{res.tally.root_rounding_shortfalls} of {n} ops")
    notes += [f"failure {e}" for e in res.errors + cli_errors]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / sum(lat), "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_wall_s": (statistics.median(cli_walls), "s"),
    }
    emit(failed == 0 and same, attempted, failed, metrics, notes)


def baseline() -> dict[str, tuple[float, str]]:
    """Single-call timings of the renorm engines, medians over repeats, fixed inputs."""
    renorm = importlib.import_module("ukklattice.renorm")
    rng = np.random.default_rng(0)

    def vec(dim, s):
        coords = np.zeros(dim)
        coords[rng.choice(dim, size=s, replace=False)] = rng.uniform(0.1, 1.0, size=s)
        return LatticeVector(coords)

    def median_ms(call, reps):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    n16, n24 = LqNorm(3, 16), LqNorm(3, 24)
    out = {}
    for s, reps in ((4, 7), (8, 5), (10, 5), (12, 3)):
        x = vec(16, s)
        out[f"renorm.exact.ms_at_s{s}"] = (median_ms(lambda: renorm.renorm_exact(n16, 2.0, x), reps), "ms")
    for s in (16, 20):
        x = vec(24, s)
        out[f"renorm.heuristic.ms_at_s{s}"] = (median_ms(lambda: renorm.renorm_heuristic(n24, 2.0, x), 3), "ms")
    return out


def run_traced(wl, seed: int) -> None:
    setup(wl)
    bench = baseline()
    plain = run_rounds(wl, seed, rounds=1)

    tracer = tracing.Tracer()
    try:
        codes = tracing.install(tracer)
    except RuntimeError as e:
        _fail(3, str(e))
    problems = tracing.cross_check(tracer, codes, tracing.scenario)
    if problems:
        _fail(3, "wrappers miss calls: " + "; ".join(problems))
    per_trial = {(h, d): tracing.renorm_counts_per_bump_trial(tracer, LqNorm(2, d), h) for h, d in ((12, 20), (16, 24))}

    traced = run_rounds(wl, seed, rounds=1, tracer=tracer)
    metrics = tracing.layer_metrics(tracer)
    trials = traced.trials or math.inf  # no trials outside ukk-bump: both read 0
    metrics["ukk.renorm_calls_per_trial"] = (tracer.renorm_calls / trials, "calls/trial")
    metrics["ukk.invalid_frac"] = (traced.invalid_trials / trials, "1")

    cfg, out = write_cli_config(wl, seed)
    shutil.rmtree(out, ignore_errors=True)
    tracer.active = True
    try:
        with tracer.span(f"cli.{wl.cli_command}"):
            rc = ukklattice.cli.main([wl.cli_command, "--config", cfg, "--out", out])
    except Exception as e:  # a crashing subcommand is a failed op
        rc = repr(e)
    finally:
        tracer.active = False
    files = out_files(out)
    shutil.rmtree(os.path.dirname(cfg), ignore_errors=True)
    cli_failed = 0 if checks.check_cli(rc, files) else 1
    for cmd in ("ukk", "renorm", "estimate"):
        mine = cmd == wl.cli_command
        metrics[f"cli.{cmd}.self_s"] = (tracer.self_s[f"cli.{cmd}"] if mine else 0.0, "s")
        metrics[f"cli.{cmd}.bytes_out"] = (sum(files.values()) if mine else 0, "B")

    metrics["trace_overhead_frac"] = (1.0 - plain.busy / traced.busy, "1")
    metrics.update(bench)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}.tsv")
    tracer.write_spans(spans_path)

    ops = plain.n_ops
    same = plain.digests == traced.digests
    attempted = plain.attempted + traced.attempted + 1
    failed = plain.failed + traced.failed + cli_failed
    notes = [
        f"workload {wl.name} seed {seed} trace 1: one round of {ops} ops, untraced then traced",
        f"env {json.dumps(environment(), sort_keys=True)}",
        f"digest sha256 {plain.digests[0]} over {ops} ops; "
        f"traced round {'identical' if same else 'DIFFERS: ' + traced.digests[0]}",
        "baseline renorm calls per bump trial (calls, byte-identical repeats): "
        + ", ".join(f"horizon {h} dim {d}: {counts}" for (h, d), counts in per_trial.items()),
        f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}",
        "computed renorm.exact.dp_pairs is sum over exact calls of (3^s - 1)/2, not a measured count",
    ]
    notes += [f"failure {e}" for e in plain.errors + traced.errors]
    if cli_failed:
        notes.append(f"failure cli {wl.cli_command} exited {rc}")
    emit(failed == 0 and same, attempted, failed, metrics, notes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.setup_probe:
        setup(wl)
        print("ready", flush=True)
        return 0

    pin_to_current_cpu()
    missed = checks.self_test()
    if missed:
        _fail(3, "checker self-test: " + "; ".join(missed))
    if args.trace:
        run_traced(wl, args.seed)
    else:
        run_untraced(wl, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
