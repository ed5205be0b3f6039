"""Tests of the benchmark itself, at tiny scale.

Run with ``python3 -m pytest bench -q`` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_DEFECTS, MALFORMED, WORKLOADS, catalogue, stream)

# (argv, malformed): a small cli-mix stream, drawn from its catalogue so
# that every request has a reference, and touching the disk cache.
_CLI = catalogue("cli-mix")
TINY = [
    (_CLI["expand"][0], False),
    (_CLI["internal-w3"][0], False),
    (_CLI["hilbert"][0], False),
    (_CLI["malformed"][0], True),
]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run cli-mix on four requests with one set-up and one pass."""
    def fake_stream(workload, seed):
        return [{"argv": argv, "kind": argv[0], "malformed": bad}
                for argv, bad in TINY]

    monkeypatch.setattr(run, "stream", fake_stream)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setitem(run.SETUP_RUNS, "cli-mix", 1)

    def go(trace=False, reference=None):
        work = tmp_path / f"work-{trace}-{reference is not None}"
        work.mkdir()
        return run.run("cli-mix", 1, 0, trace, work,
                       reference or run.load_reference())
    return go


def _declared():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_every_metric_emitted_with_its_unit(tiny):
    end_to_end, per_layer = _declared()
    for trace, declared in ((False, end_to_end), (True, per_layer)):
        _, _, _, result = tiny(trace)
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == declared
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(TINY) * (2 if trace else 1)


def test_tampered_reference_raises_error_rate(tiny):
    info, _, _, clean = tiny()
    reference = run.load_reference()
    key = run.request_key(TINY[0][0])
    code, digest = reference["cli-mix"][key]
    reference["cli-mix"][key] = [code, "0" * len(digest)]
    tampered_info, failures, _, tampered = tiny(reference=reference)
    assert tampered_info["error_rate"] > info["error_rate"]
    assert tampered["failed"] == clean["failed"] + 1
    assert not tampered["correct"]
    assert key in failures


def test_streams_follow_the_seed():
    for workload in ("internal-cold", "cli-mix"):
        assert stream(workload, 1) == stream(workload, 1)
        assert stream(workload, 1) != stream(workload, 2)
    assert stream("verify-all", 1) == stream("verify-all", 2)


def test_known_defects_stay_out_of_the_timed_stream(tiny):
    keys = {run.request_key(argv) for argv in KNOWN_DEFECTS}
    assert not keys & {run.request_key(argv) for argv in MALFORMED}
    for seed in (1, 2):
        assert not keys & {run.request_key(r["argv"])
                           for r in stream("cli-mix", seed)}
    info, _, defects, result = tiny()
    assert set(defects) <= keys
    assert info["known_defects"] == f"{len(defects)} of {len(keys)}"
    assert result["attempted"] == len(TINY)


def test_probe_lists_inputs_not_rejected(tiny, monkeypatch):
    # A well-formed request exits 0, so as a must-exit-2 probe it shows.
    good, bad = _CLI["expand"][0], MALFORMED[0]
    monkeypatch.setattr(run, "KNOWN_DEFECTS", [bad, good])
    info, _, defects, result = tiny()
    assert defects == {run.request_key(good): "exit 0, expected 2"}
    assert info["known_defects"] == "1 of 2"
    assert result["failed"] == 0 and result["correct"]


def test_every_catalogue_request_has_a_reference():
    reference = run.load_reference()
    for workload in ("internal-cold", "cli-mix"):
        for kind, entries in catalogue(workload).items():
            for argv in entries:
                if kind != "malformed":
                    assert run.request_key(argv) in reference[workload]


def test_verify_report_needs_the_seed_check_count():
    request = {"argv": ["verify", "det"], "kind": "det", "malformed": False}
    good = json.dumps({"suite": "det", "pass": True, "checks": 27})
    short = json.dumps({"suite": "det", "pass": True, "checks": 0})
    assert run.judge("verify-all", request, [0, None, good, 0.1], {}) is None
    reason, wrong = run.judge("verify-all", request, [0, None, short, 0.1], {})
    assert wrong and "27" in reason


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
