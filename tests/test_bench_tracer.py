"""The benchmark's tracer reaches every function it wraps.

``bench/tracing.py`` wraps each public function of the package and its
cross-check fails when a wrapped name is never reached, or reached past
its wrapper.  Running that check here makes a library change that
leaves a wrapped name unreached fail in the ordinary test run, not only
in a traced benchmark run.  The subprocess keeps the wrappers out of
this test session and writes no bytecode under ``bench/``.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import ukklattice.cli  # loaded before wrapping, as bench/run.py does
import tracing

tracer = tracing.Tracer()
problems = tracing.cross_check(tracer, tracing.install(tracer), tracing.scenario)
print("\\n".join(problems))
raise SystemExit(1 if problems else 0)
"""


def test_tracer_cross_check_finds_no_problems():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
