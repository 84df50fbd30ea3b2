#!/usr/bin/env python3
"""Release smoke test for orinsim_serve, the streaming HTTP serving daemon.

Exercises the daemon end to end over real sockets, stdlib only:

  0. Flags: --help prints usage and exits 0; an unknown flag, or a
     positional argument (an unquoted multi-word prompt), exits 2 (the
     usage status) naming it. All before any daemon starts.
  1. Bit-identity: the concatenated SSE token stream equals the --offline
     reference for the same prompt/seed, with the prefix cache off and on
     (and on a cache-hit second request), and with --speculative serving
     (where /metrics must also report draft/verify rounds).
  2. Backpressure: concurrent completions against --queue-cap=1 produce at
     least one 429 and at least one 200; /metrics agrees and reports a
     nonzero orinsim_completion_tokens_total.
  3. Graceful drain: SIGTERM mid-stream lets the in-flight SSE response
     finish (terminated by [DONE]) and the daemon exits 0.

Usage: serving_smoke.py /path/to/orinsim_serve
"""

import http.client
import json
import re
import signal
import socket
import subprocess
import sys
import threading

PROMPT = "the history of the"
MAX_TOKENS = 12
LISTEN_RE = re.compile(r"orinsim_serve listening on ([0-9.]+):(\d+)")


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def offline_reference(binary, extra_flags):
    """The daemon's own offline mode: same stack, virtual clock, one prompt."""
    result = subprocess.run(
        [binary, "--offline", f"--prompt={PROMPT}", f"--max-tokens={MAX_TOKENS}"]
        + extra_flags,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if result.returncode != 0:
        fail(f"--offline exited {result.returncode}: {result.stderr}")
    if not result.stdout.endswith("\n"):
        fail("--offline output missing trailing newline")
    return result.stdout[:-1]


def check_flags(binary):
    result = subprocess.run([binary, "--help"], capture_output=True, text=True, timeout=60)
    if result.returncode != 0 or "usage: orinsim_serve" not in result.stdout:
        fail(f"--help exited {result.returncode}: {result.stdout!r} {result.stderr!r}")
    result = subprocess.run(
        [binary, "--bogus-flag"], capture_output=True, text=True, timeout=60
    )
    if result.returncode != 2 or "--bogus-flag" not in result.stderr:
        fail(f"--bogus-flag exited {result.returncode}: {result.stderr!r}")
    # An unquoted multi-word prompt: the words after the first are positional.
    result = subprocess.run(
        [binary, "--offline", "--prompt", "the", "history", "of", "--max-tokens=4"],
        capture_output=True, text=True, timeout=60,
    )
    if result.returncode != 2 or "'history'" not in result.stderr:
        fail(f"a positional argument exited {result.returncode}: {result.stderr!r}")
    print("ok: --help exits 0, --bogus-flag and a positional argument exit 2")


def start_daemon(binary, extra_flags):
    proc = subprocess.Popen(
        [binary, "--port=0"] + extra_flags,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    match = LISTEN_RE.match(line)
    if not match:
        proc.kill()
        fail(f"could not parse listen line: {line!r}")
    return proc, match.group(1), int(match.group(2))


def stop_daemon(proc):
    """SIGTERM, wait, and require a clean drain (exit 0)."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not drain within 120s of SIGTERM")
    rest = proc.stdout.read()
    if code != 0:
        fail(f"daemon exited {code} on SIGTERM (wanted 0)")
    if "drained" not in rest:
        fail(f"daemon exit message missing 'drained': {rest!r}")


def sse_completion(host, port, prompt, max_tokens):
    """POST a streaming completion; returns (status, concatenated_text, done)."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    body = json.dumps({"prompt": prompt, "max_tokens": max_tokens, "stream": True})
    conn.request(
        "POST", "/v1/completions", body, {"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    payload = response.read().decode("utf-8", errors="replace")
    conn.close()
    if response.status != 200:
        return response.status, payload, False
    text, saw_done = "", False
    for event in payload.split("\n\n"):
        if not event.startswith("data: "):
            continue
        data = event[len("data: "):]
        if data == "[DONE]":
            saw_done = True
            continue
        text += json.loads(data)["choices"][0]["text"]
    return response.status, text, saw_done


def scrape_metrics(host, port):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request("GET", "/metrics")
    response = conn.getresponse()
    body = response.read().decode()
    conn.close()
    if response.status != 200:
        fail(f"/metrics returned {response.status}")
    values = {}
    for line in body.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, value = line.rsplit(" ", 1)
        values[name] = value
    return values


def check_bit_identity(binary):
    for label, flags in [
        ("cache-off", []),
        ("cache-on", ["--prefix-cache"]),
        ("speculative", ["--speculative"]),
    ]:
        reference = offline_reference(binary, flags)
        proc, host, port = start_daemon(binary, flags)
        try:
            # Twice: the second request is the prefix-cache-hit path when the
            # cache is on; greedy decode must be byte-identical either way.
            for round_index in (1, 2):
                status, text, saw_done = sse_completion(host, port, PROMPT, MAX_TOKENS)
                if status != 200:
                    fail(f"[{label} round {round_index}] status {status}")
                if not saw_done:
                    fail(f"[{label} round {round_index}] stream missing [DONE]")
                if text != reference:
                    fail(
                        f"[{label} round {round_index}] SSE text diverged from "
                        f"--offline: {text!r} != {reference!r}"
                    )
            if "--speculative" in flags:
                values = scrape_metrics(host, port)
                if float(values.get("orinsim_spec_rounds_total", "0")) <= 0:
                    fail(f"--speculative served no draft/verify rounds: {values}")
        finally:
            stop_daemon(proc)
        print(f"ok: SSE bit-identical to --offline ({label}): {reference!r}")


def check_backpressure_and_metrics(binary):
    proc, host, port = start_daemon(
        binary, ["--queue-cap=1", "--max-concurrency=1"]
    )
    try:
        statuses = []
        lock = threading.Lock()

        def one_request(index):
            status, _, _ = sse_completion(
                host, port, f"the history of the region {index}", 24
            )
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=one_request, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        ok = statuses.count(200)
        rejected = statuses.count(429)
        if ok < 1:
            fail(f"no request succeeded under load: {statuses}")
        if rejected < 1:
            fail(f"queue-cap=1 produced no 429 under 8-way load: {statuses}")
        if ok + rejected != len(statuses):
            fail(f"unexpected statuses under load: {statuses}")

        values = scrape_metrics(host, port)
        if float(values.get("orinsim_completion_tokens_total", "0")) <= 0:
            fail(f"orinsim_completion_tokens_total not positive: {values}")
        if float(values.get("orinsim_requests_rejected_total", "0")) < rejected:
            fail(
                f"metrics rejected_total {values.get('orinsim_requests_rejected_total')}"
                f" < observed 429s {rejected}"
            )
        if values.get("orinsim_request_latency_mean_seconds", "NaN") == "NaN":
            fail("latency mean still NaN after completed requests")
        print(f"ok: backpressure under load ({ok}x200, {rejected}x429), metrics sane")
    finally:
        stop_daemon(proc)


def check_sigterm_drains_in_flight(binary):
    proc, host, port = start_daemon(binary, [])
    started = threading.Event()  # set once the first SSE event arrives
    result = {}

    def in_flight():
        body = json.dumps({"prompt": PROMPT, "max_tokens": 48, "stream": True})
        request = (
            "POST /v1/completions HTTP/1.1\r\nHost: smoke\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n{body}"
        )
        with socket.create_connection((host, port), timeout=120) as sock:
            sock.sendall(request.encode())
            raw = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
                if b"data:" in raw:
                    started.set()
        started.set()  # in case the response never carried an event
        head, _, payload = raw.decode("utf-8", errors="replace").partition(
            "\r\n\r\n"
        )
        result["status"] = int(head.split(" ", 2)[1]) if " " in head else 0
        text, saw_done = "", False
        for event in payload.split("\n\n"):
            if not event.startswith("data: "):
                continue
            data = event[len("data: "):]
            if data == "[DONE]":
                saw_done = True
                continue
            text += json.loads(data)["choices"][0]["text"]
        result["text"], result["done"] = text, saw_done

    client = threading.Thread(target=in_flight)
    client.start()
    # Only SIGTERM once the stream is demonstrably in flight: drain must then
    # flush the remaining tokens and the [DONE] sentinel, never cut it.
    if not started.wait(timeout=120):
        proc.kill()
        fail("stream never produced a first event")
    proc.send_signal(signal.SIGTERM)
    client.join(timeout=120)
    if client.is_alive():
        proc.kill()
        fail("in-flight stream did not finish after SIGTERM")
    try:
        code = proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not exit after SIGTERM with in-flight stream")
    if code != 0:
        fail(f"daemon exited {code} after draining in-flight stream")
    if result.get("status") != 200 or not result.get("done"):
        fail(f"in-flight stream was cut by SIGTERM: {result}")
    print(f"ok: SIGTERM drained in-flight stream ({len(result['text'])} chars), exit 0")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    check_flags(binary)
    check_bit_identity(binary)
    check_backpressure_and_metrics(binary)
    check_sigterm_drains_in_flight(binary)
    print("serving smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
