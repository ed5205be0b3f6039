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


def _same_outputs():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return same_outputs


def test_same_outputs(tmp_path, monkeypatch, capsys):
    same_outputs = _same_outputs()
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


def test_same_outputs_error_argvs(tmp_path):
    same_outputs = _same_outputs()
    src = ROOT / "src"
    errors = same_outputs.ERROR_ARGVS
    argvs = same_outputs.default_argvs()
    assert all(argv in argvs for argv in errors)
    # Ten malformed requests exit 2; of the internal products, the
    # ribbons R[2^k,1] are refused in both forms and R[1^n] is answered.
    codes = [code for code, _, _ in same_outputs.answers(src, errors)]
    assert codes == [2] * 10 + [4, 4, 0, 0, 0, 4]
    # A copy of the tree that never takes a ribbon in its other form
    # refuses exactly the three R[1^n] products.
    shutil.copytree(src / "nsympeak", tmp_path / "nsympeak",
                    ignore=shutil.ignore_patterns("__pycache__"))
    descent = tmp_path / "nsympeak" / "descent.py"
    old = "if 2 * length > n + 1:"
    assert descent.read_text().count(old) == 1
    descent.write_text(descent.read_text().replace(old, "if False:"))
    ones = [argv for argv in errors if argv[0] == "internal" and argv[1].startswith("R[1,")]
    assert len(ones) == 3
    assert same_outputs.differences(tmp_path, src, errors) == [
        (argv, ["exit code", "stdout", "stderr"]) for argv in ones]
    assert same_outputs.shown(ones[-1]) == (
        "internal 'R[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,... (30002 chars)' "
        "'R[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,... (30002 chars)'")
def test_same_outputs_scalar_argvs(tmp_path):
    same_outputs = _same_outputs()
    src = ROOT / "src"
    scalar = same_outputs.SCALAR_ARGVS
    assert all(argv in same_outputs.default_argvs() for argv in scalar)
    # Every product is answered but the one on two conductors.
    answered = same_outputs.answers(src, scalar)
    assert [code for code, _, _ in answered] == [0] * 7 + [2]
    assert answered[-1][2] == "error: conductor mismatch: 3 vs 5 (no automatic lifting)\n"
    # A copy of the tree that reads the product's sum over one operand's
    # denominator instead of both answers the four requests on Fraction
    # coefficients differently, and only those.
    shutil.copytree(src / "nsympeak", tmp_path / "nsympeak",
                    ignore=shutil.ignore_patterns("__pycache__"))
    descent = tmp_path / "nsympeak" / "descent.py"
    old = "return N, den * den, width, out"
    assert descent.read_text().count(old) == 1
    descent.write_text(descent.read_text().replace(old, "return N, den, width, out"))
    assert same_outputs.differences(src, tmp_path, scalar) == [
        (argv, ["stdout"]) for argv in scalar[:4]]


