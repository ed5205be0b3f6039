"""Compare the command line's answers of two source trees, request by
request: exit code, stdout and stderr.

Usage::

    python3 scripts/same_outputs.py PARENT_SRC [SRC]

PARENT_SRC and SRC are ``src`` directories, each holding an
``nsympeak`` package; SRC defaults to the one in this checkout.  Each
tree answers every request in one subprocess of this interpreter, with
``COLUMNS=80`` so that help text wraps alike, by calling
``nsympeak.cli.main(argv)`` once per request.  The requests are the
benchmark catalogues of ``bench/workloads.py`` (``cli_mix_catalogue()``
and ``internal_cold_catalogue()``), its ``MALFORMED`` and
``KNOWN_DEFECTS`` inputs, and ``-h`` on the root and on each command of
``cli.COMMANDS``.  Every request whose answers differ is printed with
the fields that differ; the exit status is 1 if any does, else 0.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Answers each argv read from stdin, one JSON list per line, with one
# JSON line [exit code, stdout, stderr].
_RUNNER = r"""
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from nsympeak import cli
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(json.loads(line))
        except SystemExit as stop:
            code = stop.code
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""

FIELDS = ("exit code", "stdout", "stderr")


def default_argvs():
    """The requests compared by default, each once, in catalogue order."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from nsympeak.cli import COMMANDS

    argvs = [["-h"], *([name, "-h"] for name in COMMANDS)]
    for catalogue in (workloads.cli_mix_catalogue(), workloads.internal_cold_catalogue()):
        for entries in catalogue.values():
            argvs += entries
    argvs += workloads.MALFORMED + workloads.KNOWN_DEFECTS
    return list(map(list, dict.fromkeys(map(tuple, argvs))))


def answers(src, argvs):
    """[exit code, stdout, stderr] of each argv, answered by the tree at src."""
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(Path(src).resolve())],
        input="".join(json.dumps(argv) + "\n" for argv in argvs),
        capture_output=True, text=True, check=True,
        env=dict(os.environ, COLUMNS="80"),
    )
    found = [json.loads(line) for line in done.stdout.splitlines()]
    if len(found) != len(argvs):
        raise RuntimeError(f"{src} answered {len(found)} of {len(argvs)} requests")
    return found


def differences(src_a, src_b, argvs):
    """[(argv, [the fields that differ])] for the argvs the trees answer
    differently."""
    found = []
    for argv, a, b in zip(argvs, answers(src_a, argvs), answers(src_b, argvs)):
        fields = [field for field, x, y in zip(FIELDS, a, b) if x != y]
        if fields:
            found.append((argv, fields))
    return found


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    parent, src = args[0], args[1] if len(args) == 2 else ROOT / "src"
    argvs = default_argvs()
    found = differences(parent, src, argvs)
    for request, fields in found:
        print(f"differs ({', '.join(fields)}): {shlex.join(request)}")
    print(f"{len(argvs)} requests, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
