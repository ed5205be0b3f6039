"""One pass of a workload in a fresh interpreter.

Usage: ``python3 worker.py JOB.json RESULT.json``.  The job names the
program's source directory, the argv of each request and whether to
trace.  The worker imports the program, sends each request through
``nsympeak.cli.main(argv)`` with stdout and stderr captured in memory,
and writes per-request outcomes, its peak RSS, and the times of a fixed
calibration loop run on a timer throughout.  The descent cache directory
comes from ``NSYMPEAK_CACHE_DIR``, which the caller sets.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time

# Wall time between two runs of the calibration loop.
CALIBRATION_INTERVAL_S = 0.2


_PERMS = [tuple(i * k % 7 for i in range(7)) for k in range(1, 7)]


def spin():
    """Fixed pure-Python work, timed to follow the machine's speed.

    Integer arithmetic, dict stores and permutation products, like the
    program's inner loops.  The collector is off, so the time does not
    depend on the heap beside it.  It imports nothing from the program,
    so no change to the program moves it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        acc, table = 0, {}
        for i in range(30000):
            acc = (acc * 31 + i) % 1000003
            table[i & 255] = acc
        for _ in range(40):
            for s in _PERMS:
                for t in _PERMS:
                    u = tuple(s[x] for x in t)
                    table[u] = table.get(u, 0) + 1
        return acc
    finally:
        if collecting:
            gc.enable()


def calibrate():
    t0 = time.perf_counter()
    spin()
    return time.perf_counter() - t0


class Calibration:
    """Times ``spin`` from a timer signal while requests run.

    The handler runs between bytecodes of whatever request is running, so
    long requests get samples from their own span of time.  ``spent`` is
    the time the samples took, which is taken out of request times.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        t = calibrate()
        self.samples.append(t)
        self.spent += t

    def __enter__(self):
        for _ in range(5):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self.sample()


def call(main, argv):
    """Run one request: (exit code, exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as error:  # a raised exception is a failed request
        exc = type(error).__name__
    if exc is None:
        if code is None:
            code = 0
        elif not isinstance(code, int):
            code = 1
    return code, exc, out.getvalue()


def run(job):
    sys.path.insert(0, job["src"])
    from nsympeak import cli

    tracer = None
    if job.get("trace"):
        sys.path.insert(0, job["bench"])
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main = cli.main
    keep = job.get("keep_stdout", False)
    records = []
    # Set-up is timed from outside; the caller calibrates around it.
    cal = Calibration()
    with cal if job.get("calibrate", True) else contextlib.nullcontext():
        for argv in job["requests"]:
            first, spent = len(cal.samples), cal.spent
            t0 = time.perf_counter()
            code, exc, out = call(main, argv)
            latency = time.perf_counter() - t0 - (cal.spent - spent)
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            # The last two fields place the request among the samples.
            records.append([code, exc, out if keep else digest, latency,
                            first, len(cal.samples)])
    return {
        "records": records,
        "wall_s": sum(rec[3] for rec in records),
        "calibration_s": cal.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }


if __name__ == "__main__":
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
