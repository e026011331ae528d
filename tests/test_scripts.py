"""The example scripts run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import anbit

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("architecture_census.py", ["--draws", "3"], "arch        devices wires    worst err  kinds"),
        ("loop_convergence.py", ["--draws", "5"], "spectral radius  draws  median terms  max terms  capped"),
        ("trajectory_demo.py", ["--steps", "4"], "axis = ("),
    ],
)
def test_script_runs(script, args, header):
    src = Path(anbit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)


def test_output_digest_is_reproducible():
    # one small-jobs cycle, twice: the digest of its CLI outputs does not depend on the run
    src = Path(anbit.__file__).resolve().parent.parent
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPTS / "output_digest.py"), "--seed", "1", "--cycles", "1", "--workloads", "small-jobs"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        for _ in range(2)
    ]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    name, digest = runs[0].stdout.split()
    assert name == "small-jobs" and len(digest) == 64 and int(digest, 16) >= 0
    assert runs[1].stdout == runs[0].stdout
