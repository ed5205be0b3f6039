"""Record the reference outcome of every catalogue request.

Usage: ``python3 bench/record_reference.py`` from the root of a checkout.
Runs each well-formed request of the ``internal-cold`` and ``cli-mix``
catalogues through the program at the checked-out commit and writes
``bench/reference.json``: ``{workload: {argv as JSON: [exit code, stdout
digest]}}``.  Malformed requests need no reference; they must exit 2.
Run it only when the catalogues change, on a commit whose outputs are
trusted.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, request_key, spawn
from workloads import catalogue

CHUNK = 60


def record(workload, work):
    out = {}
    requests = [argv for kind, entries in catalogue(workload).items()
                if kind != "malformed" for argv in entries]
    for start in range(0, len(requests), CHUNK):
        chunk = requests[start:start + CHUNK]
        result, _ = spawn({"requests": chunk}, work, work / f"cache-{start}")
        for argv, (code, exc, digest, *_) in zip(chunk, result["records"]):
            if exc is not None:
                sys.exit(f"{argv} raised {exc}; fix the catalogue or the program")
            out[request_key(argv)] = [code, digest]
    return out


def main():
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        reference = {w: record(w, work) for w in ("internal-cold", "cli-mix")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
