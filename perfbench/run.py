#!/usr/bin/env python3
"""Build and run the repository benchmark (stdlib only).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/ as its own CMake project in .bench_build (Release),
builds the driver with the stackroute libraries from the checkout's src/,
runs it, and passes its output through. The last stdout line is the result
object; with --trace 1 the chrome trace the run wrote is validated with
tools/check_trace.py, and a trace that fails marks the result incorrect.
Build output goes to .bench_build/build.log. Exits non-zero, printing no
result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                sys.stderr.write("perfbench: build failed, see %s\n"
                                 % log_path)
                return None
    return os.path.join(BUILD_DIR, "perfbench")


def trace_ok(workload):
    trace = os.path.join(BUILD_DIR, "trace-%s.json" % workload)
    checked = subprocess.run(
        [sys.executable, os.path.join("tools", "check_trace.py"), trace],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        check=False)
    sys.stderr.write("perfbench: check_trace: " + checked.stdout)
    return checked.returncode == 0


def main(argv):
    if "--workload" not in argv:
        sys.stderr.write(__doc__)
        return 2
    binary = build()
    if binary is None:
        return 1
    run = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True,
                         check=False)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    result = json.loads(lines[-1])
    traced = argv[argv.index("--trace") + 1] == "1" if "--trace" in argv \
        else False
    if traced and not trace_ok(argv[argv.index("--workload") + 1]):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
