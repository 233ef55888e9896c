"""The ``serve`` workload: a ``repro serve`` subprocess under open-loop load.

One client process drives the server over at most two keep-alive
connections.  Each round starts a fresh server and has two parts; the last
round ends with the higher rates of the ladder:

* a closed-loop phase: both connections send a fixed set of fresh
  ``POST /check`` requests back to back; verdicts per second is the
  service's throughput;
* an open-loop phase at the nominal offered rate.  Each request has a due
  time on a fixed schedule and its latency counts from that due time, so a
  stall charges every request queued behind it.  The mix is fresh checks, repeats
  of earlier checks that the response cache answers (reads), and session
  appends replaying 3x6 histories op by op (writes).  Requests are pinned
  to a connection, which keeps each session's appends in order.

The first open-loop rate is the nominal one whose latencies are reported;
``sustained_rps`` is the highest rate whose check tail stays under
:data:`TAIL_LIMIT_MS` without a growing backlog.  Rounds send identical
requests; each starts a fresh server because the response cache would
answer a repeat.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import common
import inputs
from reference import load
from workloads import Outcome, combine

#: Offered rates (requests per second) of the open-loop phases, and the
#: share of the run's seconds each lasts; every round runs the first, the
#: last round the whole ladder.  No documented client or trace gives a
#: rate, so these are assumptions placed against measured capacity: on the
#: host the figures come from, pinned to one CPU (:func:`pin_to_one_cpu`),
#: the closed loop answers 50 to 70 fresh checks a second; the nominal
#: 24 req/s keeps the server busy about a quarter of the time (so its
#: latencies show service time plus some queueing), 48 req/s still meets
#: :data:`TAIL_LIMIT_MS`, and at 96 req/s the backlog grows.  The nominal
#: rate is 24 rather than 12 req/s so that a round times 90 checks, not 45,
#: in the same seconds, and its check tail is p88 of 90 rather than p77 of
#: 45.
RATES = (24.0, 48.0, 96.0)
SHARES = (0.35, 0.08, 0.08)
#: Fresh checks of the closed-loop phase, and of the warm-up.
CLOSED_CHECKS = 120
WARMUP_CHECKS = 4
#: Per-10-request mix of the open-loop phases: 5 fresh checks, 4 session
#: appends, 1 read.  This too is an assumption, not taken from a documented
#: client: fresh checks are the service's main request, appends replay whole
#: sessions, and reads are a small share so the response cache is exercised
#: without answering most of the load.
MIX = ("check", "append", "check", "append", "read", "check", "append",
       "check", "append", "check")
TAIL_LIMIT_MS = 250.0
#: Host-speed calibration runs between phases, while the server is idle.
CALIBRATION_RUNS = 15
CONNECTIONS = 2
#: An open-loop calibration run starts only when no request is due for this
#: long, so that it never delays one.
IDLE_GAP_S = 0.025
#: Closed-loop checks between two calibrations, and calibration runs there.
CLOSED_BATCH = 10
CLOSED_CALIBRATION_RUNS = 3
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0


def pin_to_one_cpu() -> int:
    """Run this process, and the servers it starts, on one CPU; return it.

    The host-speed calibration runs in this process while the server is
    idle.  Unpinned, it can run on the other CPU than the one the server
    is slowed on, and then leaves the slowdown in the figures: over three
    seeds, unpinned check medians read 18-30 ms at the reference speed,
    pinned ones 17-19 ms, at the same closed-loop rate.  The server's two
    worker threads share one interpreter lock, so one CPU is what it uses.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """A ``repro serve`` child process in its own scratch directory."""

    def __init__(self, workdir, traced_spans=None) -> None:
        self.workdir = workdir
        self.port = free_port()
        argv = ["serve", "--workers", "2", "--port", str(self.port),
                "--store", str(workdir / "store.db")]
        if traced_spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "traced_serve.py"),
                   str(traced_spans), *argv]
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self.log = open(workdir / "server.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            cwd=str(common.ROOT),
        )

    def wait_ready(self) -> float:
        """Seconds from spawn until ``GET /healthz`` answers 200."""
        limit = self.started + READY_TIMEOUT_S
        while time.perf_counter() < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Connection:
    """One keep-alive client connection; a failed request reconnects."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body=None) -> tuple[int | None, dict]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        try:
            self.conn.request(method, path, data, headers)
            resp = self.conn.getresponse()
            payload = json.loads(resp.read() or b"{}")
            return resp.status, payload
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            self.conn = None
            return None, {}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


@dataclass
class Req:
    """One scheduled request."""

    kind: str  # "check" | "read" | "append"
    due: float  # seconds after the phase start
    conn: int
    text: str = ""
    want: str = ""
    line: str = ""
    session: int = -1
    # Filled in when it runs.
    sent: float = 0.0
    done: float = 0.0
    due_at: float = 0.0
    late: float = 0.0
    status: int | None = None
    payload: dict = field(default_factory=dict)


def run_open_loop(conns: list[Connection], reqs: list[Req], session_ids: dict,
                  t0: float, calibrate: bool = False) -> list[tuple[float, float]]:
    """Send each connection's requests at their due times, one thread each.

    With ``calibrate``, a connection that gets its reply while nothing is in
    flight and no request is due for :data:`IDLE_GAP_S` runs the host-speed
    calibration once, so the host's speed is sampled through the phase
    without competing with a request.  Returns the (start, seconds) of each
    calibration run, in time order.
    """
    lock = threading.Lock()
    due = [[t0 + r.due for r in reqs if r.conn == i] for i in range(len(conns))]
    nxt = [0] * len(conns)
    busy = [False] * len(conns)
    marks: list[tuple[float, float]] = []

    def drive(i: int) -> None:
        for j, req in enumerate(r for r in reqs if r.conn == i):
            ready = time.perf_counter()
            req.due_at = due[i][j]
            if ready < req.due_at:
                time.sleep(req.due_at - ready)
            with lock:
                busy[i] = True
            req.sent = time.perf_counter()
            req.late = req.sent - max(req.due_at, ready)
            if req.kind == "append":
                path = f"/session/{session_ids[req.session]}/append"
                req.status, req.payload = conns[i].request(
                    "POST", path, {"op": req.line}
                )
            else:
                req.status, req.payload = conns[i].request(
                    "POST", "/check", {"history": req.text, "models": "all"}
                )
            req.done = time.perf_counter()
            with lock:
                busy[i] = False
                nxt[i] = j + 1
                upcoming = [d[k] for d, k in zip(due, nxt) if k < len(d)]
                if (calibrate and not any(busy)
                        and min(upcoming, default=req.done + 1) - req.done > IDLE_GAP_S):
                    seconds: list[float] = []
                    common.calibrate(seconds)
                    marks.append((req.done, seconds[0]))

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(conns))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return sorted(marks)


def schedule(rate: float, seconds: float, fresh: list, sessions: list,
             repeatable: list, seed: int) -> tuple[list[Req], int, int]:
    """One open-loop phase: its requests and how many inputs it consumed.

    The phase takes the first fresh checks and sessions it needs from
    ``fresh`` and ``sessions`` (both in corpus order), so every seed sends
    the same inputs in the phase; the seed shuffles them and picks which
    checks from ``repeatable`` (answered before the phase) the reads repeat.
    Sessions must all have the same number of op lines.
    """
    # Whole sessions only: the slot count is a multiple of the cycle after
    # which every connection has replayed a whole number of sessions, so
    # every seed times the same appends.
    lines_per_session = len(inputs.session_lines(sessions[0][0]))
    cycle = len(MIX) * lines_per_session * CONNECTIONS // MIX.count("append")
    n = max(cycle, int(rate * seconds) // cycle * cycle)
    slots = [(MIX[i % len(MIX)], i / rate) for i in range(n)]
    counts = {"check": 0, "append": 0, "read": 0}
    plan = []
    for kind, due in slots:
        plan.append((kind, due, counts[kind] % CONNECTIONS))
        counts[kind] += 1
    checks = inputs.shuffled(fresh[: counts["check"]], f"serve-fresh-{rate}", seed)
    wanted = counts["append"] // lines_per_session
    opened = inputs.shuffled(sessions[:wanted], f"serve-sessions-{rate}", seed)
    draw = inputs.rng(f"serve-reads-{rate}", seed)
    cursor = {conn: [None, 0, -1] for conn in range(CONNECTIONS)}
    next_session = 0
    reqs: list[Req] = []
    for kind, due, conn in plan:
        if kind == "check":
            text, want = checks.pop()
            reqs.append(Req("check", due, conn, text=text, want=want))
        elif kind == "read":
            text, want = repeatable[draw.randrange(len(repeatable))]
            reqs.append(Req("read", due, conn, text=text, want=want))
        else:
            state = cursor[conn]
            if state[0] is None or state[1] == len(state[0]):
                state[:] = [inputs.session_lines(opened[next_session][0]), 0,
                            next_session]
                next_session += 1
            lines, k, sid = state
            reqs.append(Req("append", due, conn, line=lines[k], session=sid,
                            want=opened[sid][1][k], text=opened[sid][0]))
            state[1] += 1
    return reqs, opened[:next_session], counts["check"]


def _backlog_grew(reqs: list[Req]) -> bool:
    """Whether queueing delay grew: the last quarter's median wait (send
    time minus due time) exceeds 50 ms and twice the first quarter's."""
    order = sorted(reqs, key=lambda r: r.due)
    q = len(order) // 4
    if q < 3:
        return False
    first = statistics.median(r.sent - r.due_at for r in order[:q])
    last = statistics.median(r.sent - r.due_at for r in order[-q:])
    return last > max(0.05, 2 * first)


def _closed_loop(conns: list[Connection], fresh: list) -> list[Req]:
    """Both connections send the fresh checks back to back until none is left."""
    lock = threading.Lock()
    todo = list(fresh)
    out: list[Req] = []

    def drive(i: int) -> None:
        while True:
            with lock:
                if not todo:
                    return
                text, want = todo.pop()
            req = Req("check", 0.0, i, text=text, want=want)
            req.sent = time.perf_counter()
            req.status, req.payload = conns[i].request(
                "POST", "/check", {"history": text, "models": "all"}
            )
            req.done = time.perf_counter()
            with lock:
                out.append(req)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(conns))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return out


def _open_sessions(conn: Connection, opened: list, ids: dict, base: int) -> None:
    for k in range(len(opened)):
        status, payload = conn.request("POST", "/session", {"models": "spec"})
        if status != 201:
            raise RuntimeError(f"POST /session answered {status}: {payload}")
        ids[base + k] = payload["session"]


def measure_serve(seed: int, seconds: float, rounds: int, traced_spans=None) -> Outcome:
    """Identical rounds, each on a fresh server, combined.

    Latencies are put at the reference host speed by the calibration runs
    made in the nominal phase's idle gaps nearest their due times
    (:func:`run_open_loop`).  Check latencies are figured
    per round and the median over rounds is reported, so their tail keeps
    the queueing and stalls of the open loop.  Appends keep each one's best
    time over the rounds: at this rate an append's few milliseconds from
    its due time are mostly the idle host's wake-up noise, and per-round
    figures spread 0.25-0.28 (quartile spread over median, seven seeds)
    against a bound of 0.25; the best times spread 0.05-0.13.  So the
    append figures are a lower envelope: a slower append moves them, a
    stall that hits one round does not.
    """
    return combine([
        serve_round(seed, seconds, traced_spans, ladder=r == rounds - 1)
        for r in range(rounds)
    ], per_round=("check",), best=("append",))


def serve_round(seed: int, seconds: float, traced_spans, ladder: bool) -> Outcome:
    """One round: closed-loop throughput and nominal-rate latency on a fresh
    server, then (``ladder``) the higher offered rates."""
    refs = load("serve")
    models = tuple(refs["models"])
    session_models = tuple(refs["session_models"])
    warm_fresh, warm_session = refs["fresh"][-WARMUP_CHECKS:], refs["sessions"][-1]
    closed_set = inputs.shuffled(refs["fresh"][:CLOSED_CHECKS], "serve-closed", seed)
    fresh = refs["fresh"][CLOSED_CHECKS:-WARMUP_CHECKS]
    sessions = refs["sessions"][:-1]
    out = Outcome()
    phases = []
    workdir = common.scratch_dir("serve")
    server = Server(workdir, traced_spans)
    conns: list[Connection] = []
    try:
        server.wait_ready()
        conns = [Connection(server.port) for _ in range(CONNECTIONS)]
        # Warm-up: inputs that are never timed.
        for text, want in warm_fresh:
            _record(out, conns[0].request("POST", "/check",
                                          {"history": text, "models": "all"}),
                    "check", text, want, models)
        ids: dict[int, str] = {}
        _open_sessions(conns[0], [warm_session], ids, -1)
        for line in inputs.session_lines(warm_session[0]):
            conns[0].request("POST", f"/session/{ids[-1]}/append", {"op": line})
        del ids[-1]

        common.calibrate(out.host, CALIBRATION_RUNS)
        closed: list[Req] = []
        for b in range(0, len(closed_set), CLOSED_BATCH):
            t0 = time.perf_counter()
            closed += _closed_loop(conns, closed_set[b:b + CLOSED_BATCH])
            out.rate_parts.append((time.perf_counter() - t0, len(out.host)))
            common.calibrate(out.host, CLOSED_CALIBRATION_RUNS)
        common.calibrate(out.host, CALIBRATION_RUNS)
        for r in closed:
            _check_reply(out, r, models, session_models)
        out.window = (min(r.sent for r in closed), max(r.done for r in closed))
        out.verdicts = len(closed) * len(models)
        repeatable = [(r.text, r.want) for r in closed if r.status == 200]
        for rate, share in zip(RATES, SHARES) if ladder else [(RATES[0], SHARES[0])]:
            reqs, opened, used = schedule(rate, share * seconds, fresh, sessions,
                                          repeatable, seed)
            fresh, sessions = fresh[used:], sessions[len(opened):]
            base = len(ids)
            for r in reqs:
                if r.kind == "append":
                    r.session += base
            _open_sessions(conns[0], opened, ids, base)
            t0 = time.perf_counter()
            marks = run_open_loop(conns, reqs, ids, t0, calibrate=not phases)
            phases.append((rate, reqs, time.perf_counter() - t0))
            if len(phases) == 1:
                # The nominal phase: each latency is put at the reference
                # speed by the calibration runs made nearest its due time.
                base = len(out.host)
                starts = [start for start, _ in marks]
                out.host += [seconds for _, seconds in marks]
                for i, r in enumerate(reqs):
                    if r.kind in ("check", "append") and r.status == 200:
                        at = base + bisect.bisect(starts, r.due_at)
                        out.record(r.kind, i, r.done - r.due_at, at)
            common.calibrate(out.host, CALIBRATION_RUNS)
            for r in reqs:
                _check_reply(out, r, models, session_models)
            repeatable += [(r.text, r.want) for r in reqs
                           if r.kind == "check" and r.status == 200]
        status, stats = conns[0].request("GET", "/stats")
        out.layer["stats"] = stats if status == 200 else {}
    finally:
        for c in conns:
            c.close()
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    late = [r.late for _, reqs, _ in phases for r in reqs]
    out.layer["generator_late_ms"] = common.latency_summary(late)["tail"] * 1e3
    out.layer["client_check_ms"] = [
        (r.done - r.sent) * 1e3 for r in closed if r.status == 200
    ]
    out.layer["checks_sent"] = len(warm_fresh) + len(closed) + sum(
        1 for _, reqs, _ in phases for r in reqs if r.kind in ("check", "read")
    )
    if ladder:
        out.notes += _ladder_notes(phases, late)
    return out


def _ladder_notes(phases, late: list[float]) -> list[str]:
    """The rate ladder's verdicts and ``sustained_rps``, as printed lines."""
    notes = []
    sustained = 0.0
    for rate, reqs, wall in phases:
        checks = _latencies(reqs, "check")
        tail = common.latency_summary(checks)["tail"] * 1e3 if checks else float("inf")
        grew = _backlog_grew(reqs)
        failed = sum(1 for r in reqs if r.status != 200)
        ok = tail < TAIL_LIMIT_MS and not grew and not failed
        if ok:
            sustained = max(sustained, rate)
        notes.append(
            f"ladder: {rate:g} req/s offered, {len(reqs)} requests in {wall:.2f} s, "
            f"check tail {tail:.1f} ms, backlog {'grew' if grew else 'steady'}, "
            f"{failed} failed -> {'meets' if ok else 'misses'} the "
            f"{TAIL_LIMIT_MS:g} ms limit"
        )
    late_s = common.latency_summary(late)
    notes.append(
        f"ladder: sustained_rps {sustained:g} 1/s (highest offered rate "
        f"meeting the limit; offered {', '.join(f'{r:g}' for r in RATES)})"
    )
    notes.append(
        f"ladder: generator lateness p50 {late_s['p50'] * 1e3:.3f} ms, "
        f"p{late_s['tail_level']:g} {late_s['tail'] * 1e3:.3f} ms"
    )
    return notes


def _latencies(reqs: list[Req], kind: str) -> list[float]:
    """Seconds from due time to reply for the answered requests of ``kind``."""
    return [r.done - r.due_at for r in reqs if r.kind == kind and r.status == 200]


def _record(out: Outcome, reply, kind, text, want, models) -> None:
    status, payload = reply
    if status != 200:
        raise RuntimeError(f"warm-up {kind} answered {status}: {payload}")
    out.verifier.expect(f"serve warm-up {text!r}", payload["models"], want, models)


def _check_reply(out: Outcome, r: Req, models, session_models) -> None:
    out.attempted += 1
    if r.status != 200:
        out.failed += 1
        return
    if r.kind == "append":
        out.verifier.expect(f"session {r.text!r} op {r.line!r}",
                            r.payload["verdicts"], r.want, session_models)
    else:
        out.verifier.expect(f"serve {r.kind} {r.text!r}", r.payload["models"],
                            r.want, models)
