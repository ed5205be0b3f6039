"""Check one ``nsympeak verify --format json`` report against the number
of checks it should have run.

Usage::

    nsympeak verify SUITE [FLAGS] --format json | python3 scripts/check_report.py CHECKS

The report is read from stdin.  The exit code is 0 when the report
passed (``"pass": true``) after exactly CHECKS checks, 1 when it failed,
ran another number of checks or is not a report, and 2 on a bad
argument.
"""

import json
import sys


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print("usage: check_report.py CHECKS < REPORT", file=sys.stderr)
        return 2
    try:
        report = json.load(sys.stdin)
        passed, checks = report["pass"], report["checks"]
    except (ValueError, TypeError, KeyError) as exc:
        print(f"check_report.py: not a verify report: {exc!r}", file=sys.stderr)
        return 1
    if passed is True and checks == int(args[0]):
        return 0
    print(f"check_report.py: want a pass after {args[0]} checks, got "
          f"pass={json.dumps(passed)} after {checks} checks", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
