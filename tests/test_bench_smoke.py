"""The benchmark's correctness checks and tracer self-test, one short traced
run per workload: ``bench/run.py --trace 1`` fails a workload whose result
is wrong or whose traced layers record no call."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["interim_fit", "forecast", "cli_pipeline"])
def test_traced_run_passes_its_checks(workload):
    # no bytecode, so that the run leaves nothing under bench/
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
