#!/usr/bin/env python3
"""Re-run a stackroute-sweep table and compare it byte for byte with a golden.

Usage:
    check_golden.py SWEEP GOLDEN.csv SWEEP_ARG...

Runs SWEEP with the given arguments plus ``--format csv``, drops the
wall-clock ``millis`` column (the one column that differs between two runs
of the same sweep), and compares the rest with GOLDEN.csv byte for byte.
Exits 0 when they match; otherwise prints the first differing line of each
and exits 1. A golden is made the same way: run the sweep, drop ``millis``.
"""

import subprocess
import sys


def table(sweep, args):
    out = subprocess.run([sweep] + args + ["--format", "csv"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    rows = [line.split(",") for line in out.splitlines()]
    if rows and "millis" in rows[0]:
        col = rows[0].index("millis")
        for row in rows:
            del row[col]
    return "".join(",".join(row) + "\n" for row in rows)


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    sweep, golden_path, args = argv[0], argv[1], argv[2:]
    fresh = table(sweep, args)
    with open(golden_path) as fh:
        golden = fh.read()
    if fresh == golden:
        print("golden match: %d lines" % golden.count("\n"))
        return 0
    for n, (want, got) in enumerate(
            zip(golden.splitlines() + [""], fresh.splitlines() + [""]), 1):
        if want != got:
            print("line %d differs from %s:\n  golden: %s\n  fresh:  %s"
                  % (n, golden_path, want, got))
            break
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
