"""One untimed round of each benchmark workload keeps its recorded digest.

``bench/run.py`` hashes the canonical JSON of every op result of a round
into one sha256 digest.  The digests below were recorded at seed 1; a
library change that alters any result of any workload op changes them,
so this pins every benchmark output in the ordinary test run.  Each op
must also pass the workload's own output check.  The subprocess keeps
the benchmark's modules out of this test session and writes no bytecode
under ``bench/``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGESTS = {
    "ukk-bump": "c62ce506d83231aee2e6adf5dc4e497996dd19de4b0a424cbc09bab7c5ec308d",
    "renorm-mixed": "e779bfe2410ba00b4e9dc65ccf32a476f5cf44b979a555331b9059403970b4bd",
    "space-estimate": "fb325fb62b2f177f0c6b5bd55c55a67d1e6bfb90ec572f1543e1cb357fc7193b",
}

SCRIPT = """
import sys
import checks
from workloads import WORKLOADS

wl = WORKLOADS[sys.argv[1]]
oracles = wl.build()
tally = checks.RenormTally()
digest = checks.Digest()
failed = 0
for op in wl.round_ops(1):
    out = wl.run(oracles, op)
    digest.add(checks.canonical(wl.result_doc(op, out)))
    failed += not wl.check(oracles, op, out, tally)
print(digest.hexdigest(), failed)
"""


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_bench_round_digest_unchanged(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", SCRIPT, workload], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [DIGESTS[workload], "0"]
