#!/usr/bin/env python3
"""Toy-size self-test of the benchmark (stdlib only).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with one-second runs:
  * the same seed gives byte-identical request lines and a different seed
    changes them (serve-warm and serve-churn);
  * every workload prints every metric BENCHMARK.json names, with its unit,
    end-to-end with --trace 0 and per-layer with --trace 1, and is correct;
  * each traced run's chrome trace passes tools/check_trace.py, and the
    solver counters of two traced runs with the same seed are equal;
  * a deliberately corrupted reference value makes the run incorrect and
    its failed count, hence failed_ratio, above 0.
Prints one line per check and exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build step)

WORKLOADS = ["anaheim-bush-chain", "serve-warm", "serve-churn"]


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def ok(msg):
    print("ok: " + msg)


def bench(binary, workload, seed, trace, *extra):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace)] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    if out.returncode != 0:
        fail("%s --trace %d exited %d: %s"
             % (workload, trace, out.returncode, out.stderr[-400:]))
    return json.loads(out.stdout.splitlines()[-1])


def dump(binary, workload, seed):
    return subprocess.run(
        [binary, "--dump-lines", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, check=True).stdout


def check_metrics(result, expected, what):
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        fail("%s prints %s, BENCHMARK.json names %s"
             % (what, sorted(got), sorted(m["name"] for m in expected)))
    for m in expected:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s has unit %s, expected %s"
                 % (what, m["name"], got[m["name"]]["unit"], m["unit"]))
    if not result["correct"] or result["failed"] != 0:
        fail("%s is not correct: %s" % (what, result))


def counters(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" and k.startswith("solver.")}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        fail("build")

    for w in ("serve-warm", "serve-churn"):
        if dump(binary, w, 7) != dump(binary, w, 7):
            fail(w + ": same seed gave different request lines")
        if dump(binary, w, 7) == dump(binary, w, 8):
            fail(w + ": seeds 7 and 8 gave the same request lines")
        ok(w + ": request lines are a function of the seed")

    for w in WORKLOADS:
        check_metrics(bench(binary, w, 3, 0), spec["end_to_end"],
                      w + " --trace 0")
        ok(w + ": end-to-end metrics printed with units, correct")
        first = bench(binary, w, 3, 1)
        check_metrics(first, spec["per_layer"], w + " --trace 1")
        trace = os.path.join(run.BUILD_DIR, "trace-%s.json" % w)
        if subprocess.run([sys.executable, os.path.join("tools",
                                                        "check_trace.py"),
                           trace], check=False).returncode != 0:
            fail(w + ": trace fails tools/check_trace.py")
        second = bench(binary, w, 3, 1)
        if counters(first) != counters(second):
            fail("%s: solver counters differ between runs: %s vs %s"
                 % (w, counters(first), counters(second)))
        ok(w + ": per-layer metrics printed, trace valid, counters repeat")

    corrupt = os.path.join(run.BUILD_DIR, "selftest-references")
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "references"), corrupt)
    # Keys every run checks: the first axis point, and the warm-up cycle of
    # the client holding grid-bpr seed 1000.
    for name, key in (("anaheim.json", "anaheim/x0.25/nash_cost"),
                      ("serve_warm.json", "warm/g1000/equilibrium/l00/cost")):
        path = os.path.join(corrupt, name)
        with open(path) as f:
            doc = json.load(f)
        doc["values"][key] *= 1.01
        with open(path, "w") as f:
            json.dump(doc, f)
    for w in ("anaheim-bush-chain", "serve-warm"):
        for trace in (0, 1):
            r = bench(binary, w, 3, trace, "--references", corrupt)
            if r["correct"] or r["failed"] == 0:
                fail(w + ": a corrupted reference went unnoticed")
            if trace == 1 and not r["metrics"]["failed_ratio"]["value"] > 0:
                fail(w + ": failed_ratio stayed 0 with a corrupted reference")
        ok(w + ": a corrupted reference raises failed_ratio above 0")
    shutil.rmtree(corrupt, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
