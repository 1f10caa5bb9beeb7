#!/usr/bin/env python3
"""Exit-code contract of stackroute-sweep.

  0  clean sweep (every row converged)
  1  usage error (bad flags/values) or runtime error
  2  sweep completed but some rows failed or were degraded

Run with the binary path as the only argument:

  test_cli_exit_codes.py /path/to/stackroute-sweep
"""
import os
import subprocess
import sys

INSTANCES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples", "instances"
)


def run(binary, *args):
    proc = subprocess.run(
        [binary, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    return proc


def main():
    if len(sys.argv) != 2:
        print("usage: test_cli_exit_codes.py <stackroute-sweep binary>")
        return 2
    binary = sys.argv[1]
    failures = []

    def check(name, expected_code, *args, stderr_contains=None):
        proc = run(binary, *args)
        if proc.returncode != expected_code:
            failures.append(
                f"{name}: expected exit {expected_code}, got {proc.returncode}"
                f"\n  stderr: {proc.stderr.strip()[:300]}"
            )
            return None
        if stderr_contains is not None and stderr_contains not in proc.stderr:
            failures.append(
                f"{name}: stderr missing {stderr_contains!r}"
                f"\n  stderr: {proc.stderr.strip()[:300]}"
            )
        return proc

    common = ["--scenario", "pigou-grid", "--threads", "1", "--format", "csv"]

    # 0: clean run.
    clean = check("clean", 0, *common)

    # 0: the listing flags, and --list-scenarios/--list parity.
    scenarios = check("list-scenarios", 0, "--list-scenarios")
    list_short = check("list-short", 0, "--list")
    if (
        scenarios is not None
        and list_short is not None
        and scenarios.stdout != list_short.stdout
    ):
        failures.append("list-scenarios: output differs from --list")
    if scenarios is not None and "pigou-grid" not in scenarios.stdout:
        failures.append("list-scenarios: pigou-grid missing from the listing")
    generators = check("list-generators", 0, "--list-generators")
    if generators is not None and "grid-bpr" not in generators.stdout:
        failures.append("list-generators: grid-bpr missing from the listing")

    # Usage errors print the usage text exactly once (no doubled footer
    # when an error path and the catch-all both try to print it).
    bad = run(binary, "--bogus")
    if bad.stderr.count("usage: stackroute-sweep") != 1:
        failures.append(
            "usage-footer: expected exactly one usage block on stderr, got "
            f"{bad.stderr.count('usage: stackroute-sweep')}"
        )

    # 1: usage errors — unknown flag, bad value, bad inject spec, unknown
    # scenario.
    check("unknown-flag", 1, "--bogus")
    check("bad-threads", 1, *common[:4], "--threads", "-2")
    check("bad-inject-kind", 1, *common, "--inject", "frobnicate:1")
    check("bad-inject-field", 1, *common, "--inject", "fail:xyz")
    check("unknown-scenario", 1, "--scenario", "no-such-scenario")

    # --backend: unknown names are usage errors (one footer, like unknown
    # scenarios), and the flag needs an instance sweep, sans --strategy.
    gen = [
        "--generate", "grid-bpr", "--threads", "1", "--format", "csv",
        "--demand", "1.0", "2.0", "3",
    ]
    bad_backend = check(
        "unknown-backend", 1, *gen, "--backend", "simplex",
        stderr_contains="unknown backend",
    )
    if (
        bad_backend is not None
        and bad_backend.stderr.count("usage: stackroute-sweep") != 1
    ):
        failures.append(
            "unknown-backend: expected exactly one usage block on stderr, "
            f"got {bad_backend.stderr.count('usage: stackroute-sweep')}"
        )
    check("backend-needs-instance", 1, "--backend", "bush")
    check(
        "backend-vs-strategy", 1, *gen, "--backend", "bush",
        "--strategy", "llf",
    )

    # 0: pe and bush both sweep cleanly and agree on every Nash cost.
    pe_run = check("backend-pe", 0, *gen, "--backend", "pe")
    bush_run = check("backend-bush", 0, *gen, "--backend", "bush")
    if pe_run is not None and bush_run is not None:
        def nash_costs(stdout):
            rows = [ln.split(",") for ln in stdout.splitlines() if ln.strip()]
            col = rows[0].index("nash_cost")
            return [float(r[col]) for r in rows[1:]]

        pe_costs = nash_costs(pe_run.stdout)
        bush_costs = nash_costs(bush_run.stdout)
        if len(pe_costs) != 3 or len(bush_costs) != 3:
            failures.append(
                f"backend-agree: expected 3 rows, got {len(pe_costs)} pe / "
                f"{len(bush_costs)} bush"
            )
        elif any(
            abs(a - b) > 1e-6 * max(abs(a), abs(b), 1.0)
            for a, b in zip(pe_costs, bush_costs)
        ):
            failures.append(
                f"backend-agree: pe {pe_costs} vs bush {bush_costs}"
            )

    # 1: a TNTP network with a sibling _trips.tntp OD matrix has a native
    # demand scale (Anaheim's is ~81k); the default 0.5-3.0 absolute axis
    # would sweep free flow, so the sweep refuses it and names the native
    # total instead. With --demand it runs; a network without trips keeps
    # the default axis (it attaches a unit commodity).
    anaheim = os.path.join(INSTANCES, "Anaheim_net.tntp")
    no_demand = check(
        "trips-need-demand", 1, "--file", anaheim, "--backend", "bush",
        stderr_contains="native total demand 81354",
    )
    if (
        no_demand is not None
        and no_demand.stderr.count("usage: stackroute-sweep") != 1
    ):
        failures.append(
            "trips-need-demand: expected exactly one usage block on stderr"
        )
    check(
        "trips-with-demand", 0, "--file", anaheim, "--backend", "bush",
        "--demand", "40000", "80000", "2", "--format", "csv",
    )
    check(
        "net-without-trips-default-demand", 0,
        "--file", os.path.join(INSTANCES, "SiouxFalls_net.tntp"),
        "--backend", "bush", "--format", "csv",
    )

    # 2: completed with a failed row (fail twice to defeat the one cold
    # retry), with the per-task error line on stderr.
    check(
        "injected-failure",
        2,
        *common,
        "--inject",
        "fail:2:2",
        stderr_contains="task 2",
    )

    # 2: completed with degraded rows (NaN latency on a network assignment
    # surfaces as a degraded solve, not a crash).
    check(
        "injected-nan-degraded",
        2,
        "--scenario",
        "grid-bpr",
        "--threads",
        "1",
        "--format",
        "csv",
        "--inject",
        "nan:1:3",
    )

    # 0: the same NaN on a warm-started water-filling solve is healed by
    # the solver's warm-fallback (cold rerun sees clean arithmetic).
    check("injected-nan-healed", 0, *common, "--inject", "nan:1:3")

    # 0: a single injected failure is healed by the default cold retry.
    healed = check("healed-by-retry", 0, *common, "--inject", "fail:2:1")

    # The healed table must match the clean table byte for byte.
    if clean is not None and healed is not None and clean.stdout != healed.stdout:
        failures.append("healed-by-retry: table differs from the clean run")

    if failures:
        print("FAIL:\n" + "\n".join(failures))
        return 1
    print("ok: exit-code contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
