#!/usr/bin/env python3
"""Transport contract of stackroute-serve.

  0  every request served ok and converged
  1  usage or transport error (bad flags, unreadable replay file)
  2  served to EOF but some responses failed or were degraded

Also checks the per-line behavior: responses are valid single-line JSON
aligned with requests, malformed requests yield line-numbered errors
without killing the stream, sessions warm-start, and --replay matches the
stdin path byte for byte on stdout.

Run with the binary path as the only argument:

  test_serve.py /path/to/stackroute-serve
"""
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def run(binary, *args, stdin=""):
    return subprocess.run(
        [binary, *args],
        input=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


def parse_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def main():
    if len(sys.argv) != 2:
        print("usage: test_serve.py <stackroute-serve binary>")
        return 2
    binary = sys.argv[1]
    failures = []

    def expect(cond, name, detail=""):
        if not cond:
            failures.append(f"{name}: {detail}")

    # --- clean session ramp: warm starts and exit 0 -----------------------
    ramp = "\n".join(
        json.dumps(
            {
                "id": i,
                "op": "mop",
                "generate": "grid-bpr",
                "session": 1,
                "demand": 1.0 + 0.2 * i,
            }
        )
        for i in range(4)
    )
    proc = run(binary, stdin=ramp)
    expect(proc.returncode == 0, "ramp-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(len(resps) == 4, "ramp-count", f"{len(resps)} responses")
    for i, r in enumerate(resps):
        expect(r["id"] == i, "ramp-id", f"response {i} has id {r['id']}")
        expect(r["ok"], "ramp-ok", f"response {i}: {r.get('error')}")
        expect(r["status"] == "converged", "ramp-status", str(r))
    expect(not resps[0]["warm"], "ramp-cold-first", str(resps[0]))
    expect(
        all(r["warm"] for r in resps[1:]),
        "ramp-warm-rest",
        proc.stdout,
    )
    expect("warm: 3/3" in proc.stderr, "ramp-summary", proc.stderr[:300])
    expect("latency ms:" in proc.stderr, "ramp-latency-line", proc.stderr[:300])

    # --- malformed requests: line-numbered errors, stream survives --------
    mixed = "\n".join(
        [
            '{"id":1,"op":"mop","generate":"grid-bpr"}',
            "this is not json",
            '{"id":3,"op":"frobnicate","generate":"grid-bpr"}',
            '{"id":4,"op":"mop","generate":"grid-bpr","bogus_key":1}',
            '{"id":5,"op":"mop"}',
            '{"id":6,"op":"strategy","strategy":"scale","generate":"grid-bpr"}',
            '{"id":7,"op":"mop","generate":"grid-bpr"}',
        ]
    )
    proc = run(binary, stdin=mixed)
    expect(proc.returncode == 2, "mixed-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(len(resps) == 7, "mixed-count", f"{len(resps)} responses")
    expect(resps[0]["ok"] and resps[6]["ok"], "mixed-bookends", proc.stdout)
    for idx, line_no, needle in [
        (1, 2, "invalid"),
        (2, 3, "unknown request kind"),
        (3, 4, "bogus_key"),
        (4, 5, "instance source"),
        (5, 6, "alpha"),
    ]:
        r = resps[idx]
        expect(not r["ok"], f"mixed-{line_no}-fails", str(r))
        expect(
            r.get("error", "").startswith(f"line {line_no}:"),
            f"mixed-{line_no}-line-tag",
            r.get("error", ""),
        )
        expect(needle in r.get("error", ""), f"mixed-{line_no}-msg", str(r))

    # --- hostile numbers: out-of-range / non-integral integer fields are
    # per-line errors (never UB casts), and the stream survives ------------
    hostile = "\n".join(
        [
            '{"id":1e300,"op":"mop","generate":"grid-bpr"}',
            '{"id":1.5,"op":"mop","generate":"grid-bpr"}',
            '{"id":2,"op":"equilibrium","generate":"grid-bpr",'
            '"backend":"bush","max_iters":1e300}',
            '{"id":3,"op":"mop","generate":"grid-bpr","size":1e100}',
            '{"id":4,"op":"mop","generate":"grid-bpr","session":-1}',
            '{"id":5,"op":"mop","generate":"grid-bpr"}',
        ]
    )
    proc = run(binary, stdin=hostile)
    expect(proc.returncode == 2, "hostile-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(len(resps) == 6, "hostile-count", f"{len(resps)} responses")
    for idx, line_no, field in [
        (0, 1, "id"),
        (1, 2, "id"),
        (2, 3, "max_iters"),
        (3, 4, "size"),
        (4, 5, "session"),
    ]:
        r = resps[idx]
        expect(not r["ok"], f"hostile-{line_no}-fails", str(r))
        expect(
            r.get("error", "").startswith(f"line {line_no}:"),
            f"hostile-{line_no}-line-tag",
            r.get("error", ""),
        )
        expect(field in r.get("error", ""), f"hostile-{line_no}-msg", str(r))
    expect(resps[5]["ok"], "hostile-stream-survives", str(resps[5]))

    # --- session cap: the 257th concurrent session is a per-line error;
    # closing one frees a slot --------------------------------------------
    cap_lines = [
        json.dumps(
            {
                "id": i,
                "op": "optimum",
                "generate": "parallel-affine",
                "session": i + 1,
            }
        )
        for i in range(257)
    ]
    cap_lines.append('{"id":900,"op":"close","session":1}')
    cap_lines.append(
        '{"id":901,"op":"optimum","generate":"parallel-affine",'
        '"session":999}'
    )
    proc = run(binary, stdin="\n".join(cap_lines))
    resps = parse_lines(proc.stdout)
    expect(len(resps) == 259, "cap-count", f"{len(resps)} responses")
    expect(
        all(r["ok"] for r in resps[:256]),
        "cap-under",
        next((str(r) for r in resps[:256] if not r["ok"]), ""),
    )
    expect(
        not resps[256]["ok"] and "sessions" in resps[256].get("error", ""),
        "cap-over",
        str(resps[256]),
    )
    expect(resps[257]["ok"], "cap-close", str(resps[257]))
    expect(resps[258]["ok"], "cap-reopen-after-close", str(resps[258]))

    # --- degraded rows: budget-capped solve exits 2, labeled honestly -----
    degraded = json.dumps(
        {
            "id": 1,
            "op": "equilibrium",
            "generate": "grid-bpr",
            "demand": 2.0,
            "backend": "bush",
            "max_iters": 1,
        }
    )
    proc = run(binary, stdin=degraded)
    expect(proc.returncode == 2, "degraded-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(
        resps and resps[0]["ok"] and resps[0]["status"] != "converged",
        "degraded-status",
        proc.stdout,
    )

    # --- backend selection: "backend" names pe or bush, bush solves for
    # real, and unknown names — the retired "fw"/"path" spellings among
    # them — are per-line errors that do not kill the stream. The retired
    # "method" field is an unknown request field like any other typo ------
    backend_stream = "\n".join(
        [
            '{"id":1,"op":"equilibrium","generate":"grid-bpr",'
            '"backend":"bush"}',
            '{"id":2,"op":"equilibrium","generate":"grid-bpr",'
            '"method":"bush"}',
            '{"id":3,"op":"equilibrium","generate":"grid-bpr",'
            '"backend":"simplex"}',
            '{"id":4,"op":"equilibrium","generate":"grid-bpr",'
            '"backend":"fw"}',
            '{"id":5,"op":"equilibrium","generate":"grid-bpr",'
            '"backend":"path"}',
            '{"id":6,"op":"equilibrium","generate":"grid-bpr",'
            '"backend":"pe"}',
        ]
    )
    proc = run(binary, stdin=backend_stream)
    expect(proc.returncode == 2, "backend-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(len(resps) == 6, "backend-count", f"{len(resps)} responses")
    r = resps[0]
    expect(r["ok"] and r["status"] == "converged", "backend-bush", str(r))
    r = resps[1]
    expect(
        not r["ok"]
        and r.get("error", "").startswith("line 2:")
        and "unknown request field 'method'" in r.get("error", ""),
        "backend-method-field-rejected",
        str(r),
    )
    for idx, name in [(2, "simplex"), (3, "fw"), (4, "path")]:
        r = resps[idx]
        expect(
            not r["ok"]
            and r.get("error", "").startswith(f"line {idx + 1}:")
            and "field 'backend'" in r.get("error", "")
            and "unknown backend" in r.get("error", ""),
            f"backend-unknown-{name}",
            str(r),
        )
    expect(resps[5]["ok"], "backend-stream-survives", str(resps[5]))
    # The pe reference solver and the bush backend agree on equilibrium
    # cost.
    rel = abs(resps[0]["cost"] - resps[5]["cost"]) / max(
        abs(resps[5]["cost"]), 1.0
    )
    expect(rel <= 1e-6, "backend-costs-agree", proc.stdout)

    # --backend sets the server-wide default; unknown names are usage
    # errors with exactly one usage block.
    one = '{"id":1,"op":"equilibrium","generate":"grid-bpr"}'
    proc = run(binary, "--backend", "bush", stdin=one)
    resps = parse_lines(proc.stdout)
    expect(
        proc.returncode == 0 and resps and resps[0]["ok"],
        "backend-flag-default",
        proc.stdout,
    )
    proc = run(binary, "--backend", "simplex", stdin=one)
    expect(
        proc.returncode == 1 and "unknown backend" in proc.stderr,
        "backend-flag-unknown",
        f"exit {proc.returncode}: {proc.stderr[:200]}",
    )
    expect(
        proc.stderr.count("usage: stackroute-serve") == 1,
        "backend-flag-usage-once",
        proc.stderr[:200],
    )

    # --- replay mode: same stdout as the stdin path -----------------------
    with tempfile.NamedTemporaryFile(
        "w", suffix=".ldjson", delete=False
    ) as f:
        f.write(ramp + "\n")
        replay_path = f.name
    try:
        direct = run(binary, "--quiet", stdin=ramp)
        replay = run(binary, "--quiet", "--replay", replay_path)
        expect(replay.returncode == 0, "replay-exit", f"{replay.returncode}")

        def strip_clock(stdout):
            out = []
            for r in parse_lines(stdout):
                r.pop("millis", None)
                out.append(r)
            return out

        # Everything but the wall clock is deterministic across the two
        # transports — including every solved cost, bit for bit.
        expect(
            strip_clock(direct.stdout) == strip_clock(replay.stdout),
            "replay-matches-stdin",
            "responses differ between --replay and stdin",
        )
        expect(
            direct.stderr.strip() == "",
            "quiet-suppresses-summary",
            direct.stderr[:200],
        )
    finally:
        os.unlink(replay_path)

    # --- usage / transport errors ----------------------------------------
    expect(
        run(binary, "--bogus").returncode == 1,
        "unknown-flag",
        "expected exit 1",
    )
    expect(
        run(binary, "--replay", "/no/such/file.ldjson").returncode == 1,
        "missing-replay-file",
        "expected exit 1",
    )
    expect(run(binary, "--help").returncode == 0, "help", "expected exit 0")

    # --- session close ----------------------------------------------------
    close = "\n".join(
        [
            '{"id":1,"op":"mop","generate":"grid-bpr","session":9}',
            '{"id":2,"op":"close","session":9}',
            '{"id":3,"op":"close","session":9}',
        ]
    )
    proc = run(binary, stdin=close)
    resps = parse_lines(proc.stdout)
    expect(resps[1]["ok"], "close-known", str(resps[1]))
    expect(not resps[2]["ok"], "close-unknown", str(resps[2]))

    # --- hostile input: oversized lines are per-line errors, the stream
    # survives, and a final line without a newline is still served --------
    long_pad = "x" * 300
    hostile_stream = "\n".join(
        [
            '{"id":1,"op":"mop","generate":"grid-bpr"}',
            '{"id":2,"op":"mop","generate":"grid-bpr","instance":"'
            + long_pad
            + '"}',
            "\x00\x01\x02 binary garbage \xff",
            '{"id":4,"op":"mop","generate":"grid-bpr"}',
        ]
    )
    proc = run(binary, "--max-line-bytes", "128", stdin=hostile_stream)
    expect(proc.returncode == 2, "oversize-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(len(resps) == 4, "oversize-count", f"{len(resps)} responses")
    expect(resps[0]["ok"], "oversize-first-ok", str(resps[0]))
    expect(
        not resps[1]["ok"]
        and "line 2:" in resps[1].get("error", "")
        and "exceeds 128 bytes" in resps[1].get("error", ""),
        "oversize-typed",
        str(resps[1]),
    )
    expect(
        not resps[2]["ok"] and "line 3:" in resps[2].get("error", ""),
        "oversize-garbage-line",
        str(resps[2]),
    )
    expect(resps[3]["ok"], "oversize-stream-survives", str(resps[3]))

    # Mid-line EOF: a final request without a trailing newline is served.
    proc = run(binary, stdin='{"id":9,"op":"mop","generate":"grid-bpr"}')
    resps = parse_lines(proc.stdout)
    expect(
        proc.returncode == 0 and len(resps) == 1 and resps[0]["id"] == 9,
        "midline-eof",
        f"exit {proc.returncode}, {len(resps)} responses",
    )

    # --- byte budgets: responses carry "bytes", summary reports memory ----
    proc = run(
        binary,
        "--table-budget-mb",
        "64",
        "--session-budget-mb",
        "64",
        stdin=ramp,
    )
    expect(proc.returncode == 0, "budget-exit", f"exit {proc.returncode}")
    resps = parse_lines(proc.stdout)
    expect(
        all("bytes" in r and r["bytes"] > 0 for r in resps),
        "budget-bytes-field",
        proc.stdout,
    )
    expect("memory: table cache" in proc.stderr, "budget-memory-line",
           proc.stderr[:400])
    expect("admission:" in proc.stderr, "budget-admission-line",
           proc.stderr[:400])

    # --- graceful shutdown: SIGINT drains in-flight work, refuses later
    # lines with typed errors, and still flushes the summary ---------------
    proc = subprocess.Popen(
        [binary],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        for i in range(2):
            proc.stdin.write(
                json.dumps(
                    {"id": i, "op": "mop", "generate": "grid-bpr",
                     "session": 1, "demand": 1.0 + 0.1 * i}
                )
                + "\n"
            )
        proc.stdin.flush()
        time.sleep(0.5)  # let both solves finish
        proc.send_signal(signal.SIGINT)
        time.sleep(0.3)  # let the reader notice and begin shutdown
        for i in (90, 91):
            proc.stdin.write(
                json.dumps({"id": i, "op": "mop", "generate": "grid-bpr"})
                + "\n"
            )
        proc.stdin.flush()
        proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    except Exception as e:  # noqa: BLE001 - any wedge is the failure
        proc.kill()
        out = err = ""
        expect(False, "shutdown-wedged", repr(e))
    resps = parse_lines(out)
    expect(len(resps) == 4, "shutdown-count", f"{len(resps)} responses")
    expect(
        all(r["ok"] for r in resps[:2]),
        "shutdown-drains-inflight",
        out,
    )
    refusals = [r for r in resps[2:] if not r.get("ok")]
    expect(
        len(refusals) == 2
        and all(r.get("status") == "overloaded" for r in refusals)
        and all("shutting down" in r.get("error", "") for r in refusals),
        "shutdown-typed-refusals",
        out,
    )
    expect("admission:" in err and "2 refused" in err,
           "shutdown-summary-flushed", err[:400])
    expect(proc.returncode == 2, "shutdown-exit", f"exit {proc.returncode}")

    # --- socket mode: concurrent clients, shed under overload, and a
    # client that disconnects with work pending ----------------------------
    sock_dir = tempfile.mkdtemp()
    sock_path = os.path.join(sock_dir, "serve.sock")

    def start_server(*extra):
        p = subprocess.Popen(
            [binary, "--socket", sock_path, *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.time() + 10
        while time.time() < deadline:
            if os.path.exists(sock_path):
                try:
                    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    probe.connect(sock_path)
                    probe.close()
                    return p
                except OSError:
                    pass
            time.sleep(0.05)
        p.kill()
        raise RuntimeError("server socket never came up")

    def stop_server(p):
        p.send_signal(signal.SIGINT)
        try:
            return p.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
            expect(False, "socket-shutdown-wedged", err[:400])
            return out, err

    def socket_session(lines):
        """Sends all lines, half-closes, reads every response to EOF."""
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock_path)
        payload = ("".join(ln + "\n" for ln in lines)).encode()
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
        s.close()
        return [json.loads(ln) for ln in buf.decode().splitlines() if ln]

    # Concurrent well-behaved clients: every request answered ok, warm
    # chains independent per client.
    server = start_server("--workers", "2")
    client_resps = {}

    def client_task(k):
        lines = [
            json.dumps(
                {"id": k * 100 + i, "op": "mop", "generate": "grid-bpr",
                 "session": 1, "demand": 1.0 + 0.1 * i}
            )
            for i in range(4)
        ]
        client_resps[k] = socket_session(lines)

    threads = [
        threading.Thread(target=client_task, args=(k,)) for k in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in range(3):
        resps = client_resps.get(k, [])
        expect(len(resps) == 4, f"socket-client{k}-count", str(resps))
        expect(
            all(r.get("ok") for r in resps),
            f"socket-client{k}-ok",
            str(resps),
        )
        got_ids = [r["id"] for r in resps]
        expect(
            got_ids == [k * 100 + i for i in range(4)],
            f"socket-client{k}-order",
            str(got_ids),
        )

    # Disconnect with pending work: dump requests and slam the socket shut.
    # The server must survive and keep serving others.
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sock_path)
    burst = "".join(
        json.dumps(
            {"id": i, "op": "mop", "generate": "grid-bpr", "session": 1,
             "demand": 1.0 + 0.01 * i}
        )
        + "\n"
        for i in range(20)
    )
    s.sendall(burst.encode())
    s.close()  # no SHUT_WR handshake, no reads: an abrupt disconnect
    survivor = socket_session(
        ['{"id":7,"op":"mop","generate":"grid-bpr"}']
    )
    expect(
        len(survivor) == 1 and survivor[0]["ok"],
        "socket-survives-disconnect",
        str(survivor),
    )
    out, err = stop_server(server)
    expect("serve:" in err and "admission:" in err,
           "socket-summary", err[:400])

    # Saturation: many clients against a tiny queue — typed sheds, every
    # line answered, no crash.
    server = start_server(
        "--workers", "2", "--max-queue", "4", "--max-client-queue", "2"
    )
    sat_resps = {}

    def sat_task(k):
        lines = [
            json.dumps(
                {"id": k * 1000 + i, "op": "equilibrium",
                 "generate": "grid-bpr", "demand": 1.0 + 0.01 * i}
            )
            for i in range(30)
        ]
        sat_resps[k] = socket_session(lines)

    threads = [
        threading.Thread(target=sat_task, args=(k,)) for k in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = sum(len(v) for v in sat_resps.values())
    expect(total == 8 * 30, "saturation-no-lost", f"{total} responses")
    shed = [
        r
        for v in sat_resps.values()
        for r in v
        if not r.get("ok") and r.get("status") == "overloaded"
    ]
    served_ok = [r for v in sat_resps.values() for r in v if r.get("ok")]
    expect(shed, "saturation-sheds-typed", "no typed sheds under 8x load")
    expect(served_ok, "saturation-some-served", "nothing served at all")
    expect(
        all(
            r.get("ok") or r.get("status") == "overloaded"
            for v in sat_resps.values()
            for r in v
        ),
        "saturation-all-typed",
        "untyped failure under load",
    )
    out, err = stop_server(server)
    expect(server.returncode == 2, "saturation-exit",
           f"exit {server.returncode}")
    expect("shed" in err, "saturation-summary", err[:400])

    if failures:
        print("FAIL:\n" + "\n".join(failures))
        return 1
    print("ok: serve transport contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
