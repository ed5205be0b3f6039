"""Tests of the stdlib-only helper scripts under ``scripts/``."""

import subprocess
import sys
from pathlib import Path

import pytest

CHECK_REPORT = Path(__file__).resolve().parents[1] / "scripts" / "check_report.py"


@pytest.mark.parametrize(
    "report, checks, rc",
    [
        ('{"suite": "morphism", "pass": true, "checks": 2, '
         '"counterexample": null, "notes": []}', "2", 0),
        ('{"suite": "morphism", "pass": true, "checks": 2, '
         '"counterexample": null, "notes": []}', "3", 1),
        ('{"suite": "tangent", "pass": false, "checks": 0, '
         '"counterexample": "N=2 order=8", "notes": []}', "0", 1),
    ],
    ids=["pass", "wrong-count", "fail"],
)
def test_check_report(report, checks, rc):
    done = subprocess.run([sys.executable, str(CHECK_REPORT), checks],
                          input=report, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (rc, "")
    assert (done.stderr == "") == (rc == 0)
