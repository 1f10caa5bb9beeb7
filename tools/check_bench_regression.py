#!/usr/bin/env python3
"""Diff fresh Google Benchmark JSON against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json COUNTER [COUNTER...]
        [--threshold 0.25]

Fails (exit 1) when any named counter's cpu_time is more than
``threshold`` slower than the baseline, when a counter is missing from
either file, or when the fresh run was not produced by a Release build of
the library (the ``stackroute_build_type`` custom context stamped by
bench/bench_main.h). Speedups and small noise pass; shared-runner timings
are indicative, so the threshold is generous by design — this is a
tripwire for order-of-magnitude mistakes (debug baselines, accidentally
devectorized hot loops), not a microbenchmark judge.

``--calibrate NAME`` makes the comparison machine-independent: the
baseline is rescaled by fresh[NAME]/baseline[NAME] before the threshold
applies, so what is actually gated is each counter's ratio to the
calibration counter — CI runners and the host the baseline was recorded
on need not share a clock. Pick a calibration counter from a different
code path than the gated ones (a regression that hits both cancels out);
for the warm-chain counters the natural choice is their own cold
counterpart, which turns the gate into "the warm speedup must not shrink
by more than threshold".

A file recorded with ``--benchmark_repetitions=N`` carries a
``NAME_median`` aggregate next to its N ``NAME`` runs; every counter —
gated or calibration — then reads that median, so one noisy repetition
cannot trip the gate. A file without it is read from its single ``NAME``
entry. Each file is resolved on its own, so a repeated fresh run can be
checked against a single-run baseline and vice versa.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    benchmarks = {b["name"]: b for b in doc.get("benchmarks", [])
                  if "name" in b}
    return doc.get("context", {}), benchmarks


def entry(table, name):
    """NAME's median aggregate when the file has one, else its NAME entry
    (None when neither exists)."""
    return table.get(f"{name}_median", table.get(name))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("counters", nargs="+")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--calibrate", metavar="NAME", default=None,
                        help="rescale the baseline by fresh/baseline of "
                             "this counter (machine-speed normalization)")
    args = parser.parse_args()

    base_ctx, base = load(args.baseline)
    fresh_ctx, fresh = load(args.fresh)

    failed = False
    scale = 1.0
    if args.calibrate is not None:
        base_entry = entry(base, args.calibrate)
        fresh_entry = entry(fresh, args.calibrate)
        if base_entry is None or fresh_entry is None:
            print(f"FAIL: calibration counter {args.calibrate!r} missing")
            return 1
        base_cal = base_entry.get("cpu_time")
        fresh_cal = fresh_entry.get("cpu_time")
        # A zero or absent cpu_time means the baseline is unusable (e.g. a
        # truncated or hand-edited JSON): fail cleanly, don't divide by it.
        if not base_cal or not fresh_cal:
            print(f"FAIL: calibration counter {args.calibrate!r} has "
                  f"unusable cpu_time (baseline {base_cal!r}, "
                  f"fresh {fresh_cal!r})")
            return 1
        scale = fresh_cal / base_cal
        print(f"calibration {args.calibrate}: fresh/baseline = {scale:.2f}x")
    build = fresh_ctx.get("stackroute_build_type")
    if build != "Release":
        print(f"FAIL: fresh run built as {build!r}, need 'Release' "
              "(perf JSON from non-Release builds is not comparable)")
        failed = True

    for name in args.counters:
        b, f = entry(base, name), entry(fresh, name)
        missing = [label for label, e in (("baseline", b), ("fresh", f))
                   if e is None]
        if missing:
            print(f"FAIL: counter {name!r} missing from {', '.join(missing)}")
            failed = True
            continue
        if b.get("time_unit") != f.get("time_unit"):
            print(f"FAIL: {name}: time_unit mismatch "
                  f"({b.get('time_unit')} vs {f.get('time_unit')})")
            failed = True
            continue
        if not b.get("cpu_time") or not f.get("cpu_time"):
            # Guard the division below: a zero or missing cpu_time must be
            # a readable FAIL line, not a ZeroDivisionError traceback.
            print(f"FAIL: {name}: unusable cpu_time "
                  f"(baseline {b.get('cpu_time')!r}, "
                  f"fresh {f.get('cpu_time')!r})")
            failed = True
            continue
        ratio = f["cpu_time"] / (b["cpu_time"] * scale)
        verdict = "ok" if ratio <= 1.0 + args.threshold else "REGRESSION"
        print(f"{verdict}: {name}: {b['cpu_time']:.3f} -> "
              f"{f['cpu_time']:.3f} {b['time_unit']} "
              f"({ratio:.2f}x of calibrated baseline)")
        if verdict != "ok":
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
