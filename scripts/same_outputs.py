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
``KNOWN_DEFECTS`` inputs, ``-h`` on the root and on each command of
``cli.COMMANDS``, the error and size-limit requests of
``ERROR_ARGVS``, the internal products on Fraction and cyclotomic
coefficients of ``SCALAR_ARGVS``, the series and morphism suites, the
tangent report and the ``T`` literals of ``PEAK_ARGVS``, and the argument
shapes of ``SHAPE_ARGVS`` (``=`` forms, abbreviations, repeats, options
before positionals, help after arguments), which the catalogues do not
reach.  Every request whose
answers differ is printed with the fields that differ, each argument
past 40 characters cut short; the exit status is 1 if any does, else 0.
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


# Malformed literals and JSON, a request with two faults, and requests
# at the internal product's limits: R[2^k,1] has k + 1 parts in either
# form and is refused; R[1^n] is taken as R[n].
ERROR_ARGVS = [
    ["expand", "S[1,,2]"],
    ["expand", "S[1,]"],
    ["expand", "S[,]"],
    ["expand", "R[1 2]"],
    ["expand", "S[a]"],
    ["expand", "S[1,x]", "--to", "R"],
    ["expand", '{"basis": "S", "terms": 3}'],
    ["expand", '{"basis": "R", "terms": {"comp": [1]}}'],
    ["expand", '{"basis": "S", "terms": [{"comp": 1, "coeff": 1}]}'],
    ["internal", "Sigma[30]", "S[1,"],
    *(["internal", word, word] for word in (
        "R[" + "2," * 10 + "1]",
        "R[" + "2," * 7499 + "1]",
        "R[" + "1," * 10 + "1]",
        "R[" + "1," * 23 + "1]",
        "R[" + "1," * 14999 + "1]",
        "S[" + "1," * 399 + "1]",
    )),
]


def _zeta_json(N, k):
    """The JSON element zeta_N^k * R[2,1]."""
    coeffs = [{"num": int(i == k), "den": 1} for i in range(k + 1)]
    return json.dumps({"basis": "R", "terms": [
        {"comp": [2, 1], "coeff": {"N": N, "coeffs": coeffs}}]})


# Internal products on the scalars that the catalogues do not carry:
# Fraction coefficients, z on one operand or both, ribbons taken in their
# other form with z on them, and two conductors, which are refused.
SCALAR_ARGVS = [
    ["internal", "1/2*R[2,1] - 3/7*R[1,2]", "2/3*S[1,2] + 5/12*S[3]"],
    ["internal", "(1 + z)*R[2,2] - 1/3*R[4]", "R[1,3] - 7/12*R[2,2]", "--N", "3"],
    ["internal", "(z^2 - 1/2)*R[1,2,1]", "(3*z + 1)*S[2,2] + (z^3)*S[1,3]", "--N", "5"],
    ["internal", "(z - 1/2)*R[1,1,1,2]", "(z^3)*S[2,3] - 2*S[5]", "--N", "5"],
    ["internal", "(z)*R[1,1,2,1]", "(1 - z)*R[2,1,1,1]", "--N", "3"],
    ["internal", "S[1,1,1,1,1]", "(z)*R[1,2,1,1]", "--N", "3", "--format", "json"],
    ["internal", _zeta_json(3, 1), _zeta_json(3, 1), "--to", "S"],
    ["internal", _zeta_json(3, 1), _zeta_json(5, 2)],
]


_T_TERMS = [{"comp": [4, 2], "coeff": {"num": 1, "den": 1}},
            {"comp": [1], "coeff": {"num": 2, "den": 1}}]

# The four series suites and the morphism suite past their default root
# orders, series orders that are refused or negative, a tangent report,
# and T literals (T_K = Sigma_{eps^-1(K)}), in text and JSON and as an
# internal product's operand.
PEAK_ARGVS = [
    *(["verify", suite, "--N", N]
      for suite in ("tangent", "tangent-zeta", "sigma-lambda", "rnij-series", "morphism")
      for N in ("5", "7")),
    ["verify", "rnij-series", "--order", "40"],
    ["tangent", "--N", "3", "--order", "40"],
    ["verify", "sigma-lambda", "--order", "-1"],
    ["tangent", "--N", "2", "--order", "-1"],
    ["tangent", "--N", "5", "--order", "10"],
    ["expand", "T[4,2] + 2*T[1]", "--N", "3", "--to", "R"],
    ["expand", json.dumps({"basis": "T", "terms": _T_TERMS}), "--N", "3", "--to", "R"],
    ["internal", "T[4]", "Sigma[3,1]", "--N", "3"],
]


# Argument shapes the catalogues lack: values joined by =, abbreviated
# flags, repeated flags (the last wins), options before the positionals,
# an int with a leading space, = on a store_true flag, and help after
# arguments.
SHAPE_ARGVS = [
    ["expand", "S[1,1]", "--to=R"],
    ["expand", "S[1,1]", "--to=", "--N", "3"],
    ["theta", "S[2]", "--q=-1/2"],
    ["theta", "S[2]", "--q", "-1/2"],
    ["theta", "S[2]", "--q=zeta", "--N=3", "--normalized"],
    ["theta", "S[2]", "--q", "zeta", "--N", "3", "--normalized=1"],
    ["expand", "S[1]", "--fo", "json"],
    ["theta", "S[2]", "--q", "zeta", "--N", "3", "--norm"],
    ["hilbert", "--max", "5", "--N", "2"],
    ["hilbert", "--N", "2", "--max-n", "4", "--N", "3"],
    ["expand", "S[2]", "--to", "S", "--to", "R", "--format", "json", "--format", "text"],
    ["internal", "--to", "S", "--N", "3", "R[2]", "S[2]"],
    ["internal", "R[2]", "--to", "S", "S[2]"],
    ["expand", "--N", "3", "--to", "rho", "R[2,1,1]"],
    ["hilbert", "--N", " 3", "--max-n", "3_0"],
    ["bases", "--n", "3", "--N", "-1"],
    ["det-theta", "--n", "-1", "--q", "2"],
    ["expand", "S[1]", "--to", "R", "-h"],
    ["internal", "R[1]", "R[1]", "--help"],
    ["verify", "ideal", "--max-n", "2", "-h"],
    ["expand", "S[1]", "--", "x"],
    ["expand", "--", "S[1]"],
    ["expand", "S[1]", "--to"],
    ["expand", "", "--to", "R"],
]


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
    argvs += workloads.MALFORMED + workloads.KNOWN_DEFECTS + ERROR_ARGVS + SCALAR_ARGVS + PEAK_ARGVS
    argvs += SHAPE_ARGVS
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


def shown(argv, width=40):
    """argv as a shell line, each argument longer than ``width`` cut short
    and followed by its length."""
    return shlex.join(
        arg if len(arg) <= width else f"{arg[:width]}... ({len(arg)} chars)"
        for arg in argv
    )


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    parent, src = args[0], args[1] if len(args) == 2 else ROOT / "src"
    argvs = default_argvs()
    found = differences(parent, src, argvs)
    for request, fields in found:
        print(f"differs ({', '.join(fields)}): {shown(request)}")
    print(f"{len(argvs)} requests, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
