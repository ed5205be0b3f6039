"""Run the benchmark in alternating before/after pairs and write two
``BENCH_*.json`` files.

Usage::

    python3 scripts/bench_pairs.py BEFORE_DIR AFTER_DIR OUT_BEFORE OUT_AFTER
        --before-commit C --after-commit C [--pairs 10] [--seed S]
        [--seconds 5] [--workloads verify-all internal-cold cli-mix]

BEFORE_DIR and AFTER_DIR are two checkouts, each with its own ``bench/``
and ``src/``.  For every workload the two sides run ``bench/run.py``
one after the other, ``--pairs`` times, with the side that goes first
alternating pair by pair, so that drift in the machine's load falls on
both sides alike.  Each output file holds one side's runs with their
median and quartiles, in the schema of the committed ``BENCH_*.json``
files.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
PAIRING = ("runs alternate with the other side of the comparison, which side "
           "goes first alternating pair by pair")


def run_once(checkout, workload, seed, seconds):
    """The JSON summary that run.py prints as its last line."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "os": f"{platform.system()} {platform.release().split('-')[0]}",
    }


def summary(workload, seed, results):
    metrics = {}
    for name, m in results[0]["metrics"].items():
        runs = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        metrics[name] = {"unit": m["unit"], "median": statistics.median(runs),
                         "q1": q1, "q3": q3, "runs": runs}
    return {
        "workload": workload,
        "seed": seed,
        "runs": len(results),
        "all_correct": all(r["correct"] is True for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": results[0]["attempted"],
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before_dir")
    p.add_argument("after_dir")
    p.add_argument("out_before")
    p.add_argument("out_after")
    p.add_argument("--before-commit", required=True)
    p.add_argument("--after-commit", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--workloads", nargs="+",
                   default=["verify-all", "internal-cold", "cli-mix"])
    args = p.parse_args(argv)
    dirs = (args.before_dir, args.after_dir)
    results = ([], [])  # per side, one list of run summaries per workload
    for workload in args.workloads:
        pair = ([], [])
        for i in range(args.pairs):
            for side in (1, 0) if i % 2 else (0, 1):
                r = run_once(dirs[side], workload, args.seed, args.seconds)
                pair[side].append(r)
                print(f"{workload} pair {i + 1} {dirs[side]}: wall_s "
                      f"{r['metrics']['wall_s']['value']:.4f} correct "
                      f"{r['correct']} failed {r['failed']}", file=sys.stderr)
        for side in (0, 1):
            results[side].append(pair[side])
    for side, out, label, commit, note in (
        (0, args.out_before, "before", args.before_commit,
         "parent of this change"),
        (1, args.out_after, "after", args.after_commit, "this change"),
    ):
        doc = {
            "label": label,
            "commit": commit,
            "note": note,
            "machine": machine(),
            "command": COMMAND.format(seconds=args.seconds),
            "pairing": PAIRING,
            "workloads": [summary(w, args.seed, runs)
                          for w, runs in zip(args.workloads, results[side])],
        }
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
