"""The nsympeak benchmark.

Usage::

    python3 bench/run.py --workload {verify-all,internal-cold,cli-mix}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up and every timed pass run in a
fresh interpreter (``worker.py``) with their own descent cache directory
under ``.bench_work/``, which is removed at the end.  Each request's
outcome is checked against ``reference.json`` (or, for ``verify``
suites, against the seed's check counts).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates plain
and traced passes and reports the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import LAYERS  # noqa: E402
from worker import calibrate  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_DEFECTS, SUITE_CHECKS, WORKLOADS, stream)

# Set-up repeats per run; the median is reported.  cli-mix set-up warms
# the disk cache, which takes seconds, so it repeats fewer times.
SETUP_RUNS = {"verify-all": 11, "internal-cold": 11, "cli-mix": 5}
# Plain passes per run at the least, however short --seconds is.  Two
# keep a verify-all run (about 15 s a pass) inside the time a run may
# take on a loaded machine; shorter workloads fit many more.
MIN_PASSES = 2
WORKER_TIMEOUT_S = 150
# Median time of the worker's calibration loop on the baseline machine
# when nothing else loads it.  Each request's time is scaled by this over
# the median of the calibration samples taken nearest to it.
CALIBRATION_NOMINAL_S = 0.004
CALIBRATION_WINDOW = 3
# Latency percentile p averages the ranks within PERCENTILE_BANDS[p]
# points of p.  The p90 band stays narrow so that it leaves out the few
# requests that build a whole table.
PERCENTILE_BANDS = {50: 10, 90: 5}

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for op in ("mul", "add", "inv"):
        units[f"scalars.{op}_calls"] = "count"
        units[f"scalars.{op}_us"] = "us"
    for name in ("lower_set", "descent_composition"):
        units[f"compositions.{name}_calls"] = "count"
    for name in ("s_to_r", "r_to_s", "multiply", "add"):
        units[f"elements.{name}_calls"] = "count"
    units["elements.terms_out"] = "count"
    for name in ("generator", "inverse", "theta"):
        units[f"series.{name}_calls"] = "count"
    for name in ("membership", "expand", "decomp"):
        units[f"peak.{name}_calls"] = "count"
    units["descent.internal_product_ms"] = "ms"
    units["descent.cache_bytes"] = "bytes"
    units["descent.cache_files"] = "count"
    units["cli.build_parser_calls"] = "count"
    units["cli.build_parser_us"] = "us"
    units["textforms.bytes_in"] = "bytes"
    for suite in SUITE_CHECKS:
        units[f"cli.suite_s.{suite}"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """The benchmark itself could not run."""


# ---------------------------------------------------------------------------
# running workers


def spawn(job, work, cache_dir):
    """Run one worker to completion: (result dict, seconds from spawn to exit)."""
    fd, job_path = tempfile.mkstemp(dir=work, suffix=".job.json")
    with os.fdopen(fd, "w") as fh:
        json.dump({"src": str(SRC), "bench": str(BENCH), **job}, fh)
    result_path = job_path[: -len(".job.json")] + ".result.json"
    env = dict(os.environ, NSYMPEAK_CACHE_DIR=str(cache_dir),
               PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), job_path, result_path],
        env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh), elapsed


def cache_stats(cache_dir):
    files = [p for p in Path(cache_dir).glob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


# ---------------------------------------------------------------------------
# checking outcomes


def load_reference():
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)


def request_key(argv):
    return json.dumps(argv, separators=(",", ":"))


def judge(workload, request, record, reference):
    """None if the request did what it should, else (failure, wrong output)."""
    code, exc, out = record[:3]
    if exc is not None:
        return f"raised {exc}", False
    if request["malformed"]:
        return None if code == 2 else (f"exit {code}, expected 2", False)
    if workload == "verify-all":
        suite = request["kind"]
        try:
            report = json.loads(out)
        except ValueError:
            return "unparsable verify report", True
        if code != 0 or report.get("pass") is not True:
            return f"suite {suite} did not pass", True
        if report.get("checks") != SUITE_CHECKS[suite]:
            return (f"suite {suite} ran {report.get('checks')} checks, "
                    f"expected {SUITE_CHECKS[suite]}"), True
        return None
    ref = reference[workload].get(request_key(request["argv"]))
    if ref is None:
        raise BenchError(f"no reference for {request['argv']}")
    ref_code, ref_out = ref
    if code != ref_code:
        return f"exit {code}, expected {ref_code}", False
    if out != ref_out:
        return "stdout differs from the reference", True
    return None


def check(workload, requests, passes, reference):
    """(attempted, failed, wrong, {argv key: reason}) over all passes."""
    attempted = failed = wrong = 0
    failures = {}
    for result in passes:
        for request, record in zip(requests, result["records"]):
            attempted += 1
            verdict = judge(workload, request, record, reference)
            if verdict is None:
                continue
            reason, is_wrong = verdict
            failed += 1
            wrong += is_wrong
            failures[request_key(request["argv"])] = reason
    return attempted, failed, wrong, failures


def probe_defects(work):
    """{argv key: reason} for each known defect the program still shows.

    The inputs of ``KNOWN_DEFECTS`` must exit 2, like the malformed
    requests of the stream.  They are sent once per run, in a worker of
    their own outside the timed passes, and count neither as attempted
    nor as failed operations: a timed stream holds no request that fails.
    """
    result, _ = spawn({"requests": KNOWN_DEFECTS, "calibrate": False}, work,
                      work / "defect-cache")
    found = {}
    for argv, record in zip(KNOWN_DEFECTS, result["records"]):
        request = {"argv": argv, "kind": "malformed", "malformed": True}
        verdict = judge("cli-mix", request, record, {})
        if verdict is not None:
            found[request_key(argv)] = verdict[0]
    return found


# ---------------------------------------------------------------------------
# metrics


def percentile(values, p):
    """The p-th percentile, smoothed over the ranks within its band.

    The mean of the values whose rank lies in that band, or the value
    interpolated at p when none does.  A stream mixes requests of very
    different cost, so the plain order statistic at p can sit in a gap
    between two groups and jump from seed to seed.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    band = PERCENTILE_BANDS[p]
    lo = math.ceil(last * (p - band) / 100)
    hi = math.floor(last * (p + band) / 100)
    if lo <= hi:
        return statistics.fmean(ordered[lo:hi + 1])
    pos = last * p / 100
    i = int(pos)
    j = min(i + 1, last)
    return ordered[i] + (ordered[j] - ordered[i]) * (pos - i)


def slowdown(samples):
    """How much slower than nominal the machine ran while these were taken."""
    return statistics.median(samples) / CALIBRATION_NOMINAL_S


def request_slowdown(result, record):
    """Slowdown from the samples taken during one request and next to it."""
    first, end = record[4:6]
    return slowdown(result["calibration_s"][max(0, first - CALIBRATION_WINDOW):
                                            end + CALIBRATION_WINDOW])


def request_times(passes, scaled=True):
    """Each request's median time over the passes, in stream order.

    The machine is shared, and its speed drifts by a fifth within
    seconds to minutes.  Scaling each request by the calibration loop
    timed around it takes most of the drift out; each request's median
    over passes removes what is left of the bursts that hit one pass.
    """
    per_request = zip(*(
        [rec[3] / (request_slowdown(result, rec) if scaled else 1)
         for rec in result["records"]]
        for result in passes))
    return [statistics.median(times) for times in per_request]


def end_to_end_metrics(passes, setups):
    times = request_times(passes)
    return {
        "wall_s": sum(times),
        "req_p50_ms": percentile(times, 50) * 1e3,
        "req_p90_ms": percentile(times, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in passes) / 1024,
        "setup_s": statistics.median(setups),
    }


def layer_metrics(trace, cache):
    """Per-layer metrics of one traced pass."""
    calls = trace["kind_calls"]
    times = trace["kind_time_s"]

    def mean_us(kind):
        n = calls.get(kind, 0)
        return times.get(kind, 0.0) / n * 1e6 if n else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = trace["layer_calls"].get(layer, 0)
        out[f"{layer}.self_s"] = trace["layer_self_s"].get(layer, 0.0)
    for op in ("mul", "add", "inv"):
        out[f"scalars.{op}_calls"] = calls.get(f"scalars.{op}", 0)
        out[f"scalars.{op}_us"] = mean_us(f"scalars.{op}")
    for metric, kind in (
        ("compositions.lower_set_calls", "compositions.lower_set"),
        ("compositions.descent_composition_calls",
         "compositions.descent_composition"),
        ("elements.s_to_r_calls", "elements.s_to_r"),
        ("elements.r_to_s_calls", "elements.r_to_s"),
        ("elements.multiply_calls", "elements.multiply"),
        ("elements.add_calls", "elements.add"),
        ("series.generator_calls", "series.generator"),
        ("series.inverse_calls", "series.inverse"),
        ("series.theta_calls", "series.theta"),
        ("peak.membership_calls", "peak.membership"),
        ("peak.expand_calls", "peak.expand"),
        ("peak.decomp_calls", "peak.decomp"),
        ("cli.build_parser_calls", "cli.build_parser"),
    ):
        out[metric] = calls.get(kind, 0)
    out["elements.terms_out"] = trace["terms_out"]
    out["descent.internal_product_ms"] = (
        times.get("descent.internal_product", 0.0) * 1e3)
    out["descent.cache_files"], out["descent.cache_bytes"] = cache
    out["cli.build_parser_us"] = mean_us("cli.build_parser")
    out["textforms.bytes_in"] = trace["bytes_in"]
    return out


def suite_times(workload, requests, result):
    times = {f"cli.suite_s.{s}": 0.0 for s in SUITE_CHECKS}
    if workload == "verify-all":
        for request, t in zip(requests, request_times([result])):
            times[f"cli.suite_s.{request['kind']}"] = t
    return times


def _median_dicts(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# the run


def run(workload, seed, seconds, trace, work, reference):
    requests = stream(workload, seed)
    argvs = [r["argv"] for r in requests]
    keep = workload == "verify-all"

    # Set-up: interpreter start and import; for cli-mix also a separate
    # process that runs the stream's internal requests to fill the disk
    # cache the timed passes then read.
    warm = [a for a in argvs if a[0] == "internal"] if workload == "cli-mix" else []
    setups = []
    for i in range(SETUP_RUNS[workload]):
        warm_dir = work / f"setup-cache-{i}"
        before = [calibrate() for _ in range(5)]
        _, elapsed = spawn({"requests": warm, "calibrate": False}, work,
                           warm_dir)
        after = [calibrate() for _ in range(5)]
        setups.append(elapsed / slowdown(before + after))

    def one_pass(traced):
        n = len(plain) + len(traced_passes)
        cache_dir = warm_dir if workload == "cli-mix" else work / f"cache-{n}"
        # A traced pass is not calibrated, so that the calibration loop
        # adds nothing to the layers' self times.
        result, _ = spawn(
            {"requests": argvs, "trace": traced, "calibrate": not traced,
             "keep_stdout": keep},
            work, cache_dir)
        result["cache"] = cache_stats(cache_dir)
        return result

    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        plain.append(one_pass(False))
        if trace:
            traced_passes.append(one_pass(True))
        if (len(plain) >= (1 if trace else MIN_PASSES)
                and time.perf_counter() - start >= seconds):
            break

    attempted, failed, wrong, failures = check(
        workload, requests, plain + traced_passes, reference)
    defects = probe_defects(work) if workload == "cli-mix" else {}
    if trace:
        per_pass = []
        for p, t in zip(plain, traced_passes):
            m = layer_metrics(t["trace"], t["cache"])
            m.update(suite_times(workload, requests, p))
            m["trace.overhead_frac"] = t["wall_s"] / p["wall_s"] - 1
            per_pass.append(m)
        metrics = _median_dicts(per_pass)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(plain, setups)
        units = END_TO_END
    info = {
        "workload": workload,
        "seed": seed,
        "plain_passes": len(plain),
        "traced_passes": len(traced_passes),
        "requests_per_pass": len(requests),
        "slowdown": statistics.median(
            slowdown(r["calibration_s"]) for r in plain),
        "unscaled_wall_s": sum(request_times(plain, scaled=False)),
        "setup_runs": len(setups),
        "error_rate": failed / attempted,
        "wrong_outputs": wrong,
    }
    if workload == "cli-mix":
        info["known_defects"] = f"{len(defects)} of {len(KNOWN_DEFECTS)}"
    return info, failures, defects, {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="nsympeak benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nsympeak" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        info, failures, defects, result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for key, value in info.items():
        print(f"# {key}: {value}")
    for key, reason in sorted(failures.items()):
        print(f"# failed: {key}: {reason}")
    for key, reason in sorted(defects.items()):
        print(f"# known defect: {key}: {reason}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
