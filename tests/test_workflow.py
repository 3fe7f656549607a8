"""The CI workflow's no-AVX-512 step runs every test file that holds an AVX-512-pinned test."""

import re
from pathlib import Path

from conftest import AVX512_PINNED, _avx512_disabled

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _step(name: str) -> str:
    """The text of the workflow step whose name starts with ``name``."""
    steps = re.split(r"\n\s*- name: ", WORKFLOW.read_text())
    return next(step for step in steps if step.startswith(name))


def test_the_no_avx512_step_runs_every_pinned_file(monkeypatch):
    step = _step("Pinned bits without AVX-512")
    run = re.search(r"^\s*run: (.*)$", step, re.M).group(1)
    pinned = {name.split("::")[0] for name in AVX512_PINNED}
    assert pinned <= set(re.findall(r"tests/(\w+\.py)", run))
    # and its environment is one that marks the pins as strict xfails
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", re.search(r'NPY_DISABLE_CPU_FEATURES: "([^"]*)"', step).group(1))
    assert _avx512_disabled()
