"""The benchmark's command line, run as the benchmark is run: every workload
in a fresh process on its reduced (``--smoke``) instance, checks included."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["flow_od", "chain_steer", "mfg_hub", "dense_cycle"])
def test_smoke_run_passes_its_checks(workload):
    # The run writes only under .perfbench_out/ and removes its own folder there.
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--smoke", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
