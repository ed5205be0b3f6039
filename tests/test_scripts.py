"""Tests of the stdlib-only helper scripts under ``scripts/``."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECK_REPORT = ROOT / "scripts" / "check_report.py"


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


def test_same_outputs(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    src = ROOT / "src"
    argvs = [["-h"], ["theta", "-h"], ["expand", "S[1,1]", "--to", "R"], ["hilbert"]]
    assert same_outputs.differences(src, src, argvs) == []
    # A copy of the tree with one argument's help line reworded.
    shutil.copytree(src / "nsympeak", tmp_path / "nsympeak",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "nsympeak" / "cli.py"
    old = "divide each generator image by 1 - zeta"
    assert cli.read_text().count(old) == 1
    cli.write_text(cli.read_text().replace(old, "divide by 1 - zeta"))
    assert same_outputs.differences(src, tmp_path, argvs) == [(["theta", "-h"], ["stdout"])]
    monkeypatch.setattr(same_outputs, "default_argvs", lambda: argvs)
    assert same_outputs.main([str(src), str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        "differs (stdout): theta -h\n4 requests, 1 differ\n")
    assert same_outputs.main([str(src)]) == 0
