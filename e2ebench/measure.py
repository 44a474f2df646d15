"""Measurement primitives: timed child processes, the `ja serve` client,
the open-loop load generator, percentiles and span self time."""

import gc
import json
import math
import os
import random
import selectors
import socket
import subprocess
import sys
import time


class MeasureError(Exception):
    """A measurement that cannot be taken (too few samples, server down)."""


# ------------------------------------------------------------ CPU idling

# A busy loop in the SCHED_IDLE class: it runs only when nothing else on its
# CPU is runnable, and exits once its parent is gone.
SPINNER = """\
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class IdleSpinners:
    """Keeps every CPU out of the idle state for the duration of a `with`.

    On a virtual machine a halted virtual CPU takes the host's scheduling
    delay to wake, which depends on what else the host runs and dominated
    sub-millisecond request latencies (median latency spread 0.33-0.45 of
    the median across runs without spinners, 0.06-0.10 with them on a 2-vCPU
    VM).  SCHED_IDLE loops take no CPU time that ja or the load generator
    want.
    """

    def __enter__(self):
        self.procs = [subprocess.Popen([sys.executable, "-c", SPINNER])
                      for _ in os.sched_getaffinity(0)]
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


# ------------------------------------------------------------------ stats


def percentile(values, p):
    """Nearest-rank percentile `p` (0 < p < 100) of `values`.

    Refuses (raises MeasureError) unless at least ten samples lie beyond
    the returned rank, so a reported p99 always rests on >= 1000 samples.
    """
    n = len(values)
    rank = math.ceil(p / 100 * n)
    if n == 0 or n - rank < 10:
        raise MeasureError(f"p{p} of {n} samples has {max(n - rank, 0)} samples beyond it (< 10)")
    return sorted(values)[rank - 1]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once).

    `spans` is a list of dicts with `id`, `parent` (id or None), `start`
    and `end`; returns {id: self time}.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"], hi)
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = (hi - lo) - covered
    return result


# -------------------------------------------------------------- processes


def run_timed(argv):
    """Runs `argv` to completion; returns (wall seconds, peak RSS MiB, exit
    code).  Wall time is spawn to exit; RSS is the child's ru_maxrss."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


# ------------------------------------------------------------ HTTP client


def parse_response(data):
    """(status, headers dict with lower-case names, body bytes)."""
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def http_bytes(method, body=b"", path="/v1/eval"):
    return (f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
            "\r\n").encode() + body


def request(addr, method, path, body=b"", timeout=30.0):
    """One blocking request (one connection, read until close)."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(http_bytes(method, body, path))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return parse_response(b"".join(chunks))


class Server:
    """A `ja serve` child on an ephemeral port.

    Construction blocks until the first 200 from GET /v1/health and records
    that delay (spawn to first 200) as `setup_s`.
    """

    def __init__(self, ja, workdir, args=("--workers", "2", "--eval-workers", "1"),
                 deadline=30.0):
        self.port_file = os.path.join(workdir, "serve.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(workdir, "serve.log"), "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [ja, "serve", "--addr", "127.0.0.1:0", "--port-file", self.port_file, *args],
            stdout=subprocess.DEVNULL, stderr=self.log)
        self.addr = None
        self.rss_mib = 0.0
        try:
            while True:
                if time.perf_counter() - started > deadline or self.proc.poll() is not None:
                    raise MeasureError("ja serve did not become healthy")
                if self._healthy():
                    break
                time.sleep(0.0002)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _healthy(self):
        if self.addr is None:
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
            except FileNotFoundError:
                return False
            if not text:
                return False
            host, _, port = text.rpartition(":")
            self.addr = (host, int(port))
        try:
            status, _, _ = request(self.addr, "GET", "/v1/health", timeout=5.0)
        except OSError:
            return False
        return status == 200

    def health(self):
        status, _, body = request(self.addr, "GET", "/v1/health")
        if status != 200:
            raise MeasureError(f"health returned {status}")
        return json.loads(body)

    def stop(self):
        """Graceful drain; returns the server's exit code and records its
        peak RSS."""
        try:
            request(self.addr, "POST", "/v1/shutdown", timeout=10.0)
        except OSError:
            self.proc.terminate()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mib = usage.ru_maxrss / 1024
        self.log.close()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


# ------------------------------------------------------- open-loop traffic


def poisson_schedule(count, rate, seed):
    """Due times (s from session start) of `count` Poisson arrivals."""
    rng = random.Random(f"arrivals/{seed}")
    due, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        due.append(t)
    return due


def open_loop(addr, payloads, due, max_inflight=2, timeout=10.0):
    """Sends payload i at due[i] (open loop, single thread), never more than
    `max_inflight` connections at once; a request that finds every slot busy
    waits and its wait counts in its latency.

    Returns one dict per payload: latency_s (due time to last response
    byte), late_s (send time minus due time), connect_s, status, headers,
    body, error.
    """
    # select(2) takes a microsecond timeout; epoll and poll round up to whole
    # milliseconds, which would make the generator up to 1 ms late.
    sel = selectors.SelectSelector()
    results = [None] * len(payloads)
    # A collector pause in the generator would be charged to the server.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    inflight = {}
    t0 = time.perf_counter() + 0.02
    nxt = 0

    def finish(sock, error=None):
        state = inflight.pop(sock)
        sel.unregister(sock)
        sock.close()
        end = time.perf_counter()
        res = {"latency_s": end - (t0 + due[state["i"]]), "late_s": state["late"],
               "connect_s": state["connected"] - state["sent"] if state["connected"] else 0.0,
               "status": 0, "headers": {}, "body": b"", "error": error}
        if error is None:
            res["status"], res["headers"], res["body"] = parse_response(b"".join(state["chunks"]))
            if res["status"] == 0:
                res["error"] = "malformed response"
        results[state["i"]] = res

    while nxt < len(payloads) or inflight:
        now = time.perf_counter()
        while nxt < len(payloads) and len(inflight) < max_inflight and t0 + due[nxt] <= now:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.connect_ex(addr)
            inflight[sock] = {"i": nxt, "late": now - (t0 + due[nxt]), "sent": now,
                              "connected": None, "out": payloads[nxt], "chunks": []}
            sel.register(sock, selectors.EVENT_WRITE)
            nxt += 1
        if nxt < len(payloads) and len(inflight) < max_inflight:
            wait = max(0.0, t0 + due[nxt] - time.perf_counter())
        else:
            wait = 0.05
        for key, mask in sel.select(min(wait, 0.05)):
            sock = key.fileobj
            state = inflight[sock]
            try:
                if mask & selectors.EVENT_WRITE:
                    if state["connected"] is None:
                        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                        if err:
                            finish(sock, f"connect failed: {os.strerror(err)}")
                            continue
                        state["connected"] = time.perf_counter()
                    sent = sock.send(state["out"])
                    state["out"] = state["out"][sent:]
                    if not state["out"]:
                        sel.modify(sock, selectors.EVENT_READ)
                else:
                    chunk = sock.recv(262144)
                    if chunk:
                        state["chunks"].append(chunk)
                    else:
                        finish(sock)
            except (BlockingIOError, InterruptedError):
                pass
            except OSError as err:
                finish(sock, str(err))
        now = time.perf_counter()
        for sock in [s for s, st in inflight.items() if now - st["sent"] > timeout]:
            finish(sock, "timed out")
    sel.close()
    if gc_was_enabled:
        gc.enable()
    return results
