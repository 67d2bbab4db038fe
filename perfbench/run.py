#!/usr/bin/env python3
"""End-to-end benchmark of the certainty query service over the wire.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The command builds the `certainty`
binary with dune, starts `certainty serve` (and, for update-stream,
`certainty router` over two shards) as child processes on Unix sockets
in a fresh directory under _build/, drives them with a closed loop of
two client connections from this one process, checks every response
(see workloads.py and oracle.py), drains the children with SIGTERM and
prints one JSON object as its last line. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 a separate traced run reports the
per-layer ones (see layers.py).
"""

import argparse
import bisect
import gc
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

CLI = "_build/default/bin/certainty_cli.exe"
LAYERS = "_build/default/perfbench/layers/layers.exe"
RECV_TIMEOUT = 30.0
HEALTH_TIMEOUT = 20.0
DRAIN_TIMEOUT = 40.0
SETUPS = 9
CLIENTS = 2
MIN_TIMED = 1000  # >= 10 samples beyond the p99 even in a short run
WINDOW_S = 1.0  # the timed phase is cut into windows this long
CALM_SHARE = 0.1  # at least this share of the windows is kept
TICK_EVERY_NS = 100_000_000  # host steal sampled this often while timing
SETTLE_S = 3.0  # untimed load before each timed phase
LINE_KEPT = 400

CHILDREN = []


class CannotRun(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    targets = [CLI, LAYERS]
    r = subprocess.run(["dune", "build", "--root", ".", *targets], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not all(os.path.exists(t) for t in targets):
        raise CannotRun("dune build failed (exit %d)" % r.returncode)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def proc_stat_cpu(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def host_ticks():
    """(steal, total) CPU ticks of the whole host so far: other tenants
    of a shared machine show as steal."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def request_once(path, line, timeout):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall(line)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed")
            buf += chunk
        return json.loads(buf)


class Cluster:
    """The server processes of one workload, started in [tmp]."""

    def __init__(self, tmp, spec, trace=False):
        self.tmp = tmp
        self.procs = []
        for kind, sock, extra in spec:
            args = [os.path.abspath(CLI), kind, "--socket", sock, *extra]
            if trace:
                args += ["--trace", sock + ".trace", "--metrics-json"]
            out = open(os.path.join(tmp, sock + ".out"), "wb")
            p = subprocess.Popen(args, cwd=tmp, stdout=out, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL, start_new_session=True)
            out.close()
            CHILDREN.append(p)
            self.procs.append((kind, sock, p))
            self.wait_healthy(sock, kind == "router", p)

    def path(self, sock):
        return os.path.join(self.tmp, sock)

    def wait_healthy(self, sock, router, p):
        deadline = time.monotonic() + HEALTH_TIMEOUT
        while time.monotonic() < deadline:
            if p.poll() is not None:
                raise CannotRun("%s exited with %d during start-up" % (sock, p.returncode))
            try:
                h = request_once(self.path(sock), b'{"op":"health"}\n', 2.0)
                if h.get("ok") and (not router or h.get("shards_up") == h.get("shards")):
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise CannotRun("%s not healthy after %.0fs" % (sock, HEALTH_TIMEOUT))

    def cpu_s(self):
        return sum(proc_stat_cpu(p.pid) for _, _, p in self.procs)

    def hwm_mb(self, kinds=("serve", "router")):
        return sum(proc_hwm_mb(p.pid) for kind, _, p in self.procs if kind in kinds)

    def drain(self):
        """SIGTERM every process, front first; True iff all exit 0."""
        clean = True
        for _, sock, p in reversed(self.procs):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
            try:
                rc = p.wait(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                p.kill()
                rc = p.wait()
            if rc != 0:
                log("drain: %s exited with %d" % (sock, rc))
                clean = False
            CHILDREN.remove(p)
        return clean

    def output(self, sock):
        with open(self.path(sock + ".out"), "rb") as f:
            return f.read().decode(errors="replace")


def stop_children():
    for p in CHILDREN:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    for p in CHILDREN:
        try:
            p.wait(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    CHILDREN.clear()


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------


class Results:
    """Responses awaiting their checks. Pure ops are kept once per
    distinct response; history-dependent ones in order."""

    def __init__(self):
        self.pure = Counter()
        self.ops = {}
        self.ordered = []
        self.attempted = 0

    def add(self, op, resp):
        self.attempted += 1
        if op.key is not None and resp is not None:
            self.ops[op.key] = op
            self.pure[(op.key, resp)] += 1
        else:
            self.ordered.append((op, resp))
            if op.key is None:  # sent once; update-stream lines carry the whole db
                op.line = op.line[:LINE_KEPT]


def judge(op, resp):
    if resp is None:
        return "no response within %.0fs or connection lost" % RECV_TIMEOUT
    try:
        r = json.loads(resp)
    except ValueError:
        return "response is not JSON"
    if not r.get("ok"):
        return "error %s: %s" % (r.get("error"), r.get("message"))
    try:
        return op.check(r)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return "malformed response (%s: %s)" % (type(e).__name__, e)


def evaluate(results, show=5):
    """Run every check; returns (failed, {reason: count}) and prints the
    first few distinct failures with their requests."""
    failed = 0
    reasons = Counter()
    shown = set()
    items = [(results.ops[k], resp, n) for (k, resp), n in results.pure.items()]
    items += [(op, resp, 1) for op, resp in results.ordered]
    for op, resp, n in items:
        err = judge(op, resp)
        if err is None:
            continue
        failed += n
        reasons["%s: %s" % (op.kind, err)] += n
        if len(shown) < show and (op.kind, err) not in shown:
            shown.add((op.kind, err))
            print("FAILED %s: %s\n  request: %s" % (op.kind, err, op.line[:LINE_KEPT].decode(errors="replace").rstrip()))
    return failed, reasons


class Conn:
    def __init__(self, path):
        self.path = path
        self.sock = None
        self.connect()

    def connect(self):
        if self.sock is not None:
            self.sock.close()
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(RECV_TIMEOUT)
        self.sock.connect(self.path)
        self.buf = b""
        self.op = None


def closed_loop(path, source, results, latencies=None, ticks=None):
    """Each connection sends its next op only after the previous reply.
    [source(i)] gives connection i's next op or None when it is done.
    With [ticks], the host's steal ticks are appended as (ns, steal,
    total) every TICK_EVERY_NS."""
    sel = selectors.DefaultSelector()
    next_tick = [0]

    def sample(now):
        if ticks is not None and now >= next_tick[0]:
            ticks.append((now, *host_ticks()))
            next_tick[0] = now + TICK_EVERY_NS
    conns = [Conn(path) for _ in range(CLIENTS)]

    def send_next(i, c):
        op = source(i)
        c.op = op
        if op is None:
            return
        c.t0 = time.perf_counter_ns()
        try:
            c.sock.sendall(op.line)
        except OSError:
            finish(i, c, None)

    def finish(i, c, resp):
        results.add(c.op, resp)
        if resp is None:
            # A lost or silent connection: count the op as failed and
            # go on with a fresh connection.
            sel.unregister(c.sock)
            try:
                c.connect()
            except OSError as e:
                raise CannotRun("server unreachable: %s" % e)
            sel.register(c.sock, selectors.EVENT_READ, i)
        elif latencies is not None:
            done = time.perf_counter_ns()
            latencies.append((done, done - c.t0))
        send_next(i, c)

    # The collector would stall both connections at once; the loop's
    # garbage is collected after it ends.
    gc.disable()
    try:
        for i, c in enumerate(conns):
            sel.register(c.sock, selectors.EVENT_READ, i)
        sample(time.perf_counter_ns())
        for i, c in enumerate(conns):
            send_next(i, c)
        while any(c.op is not None for c in conns):
            for key, _ in sel.select(timeout=0.1 if ticks is not None else 1.0):
                i = key.data
                c = conns[i]
                try:
                    chunk = c.sock.recv(1 << 20)
                except OSError:
                    chunk = b""
                if not chunk:
                    if c.op is None:
                        sel.unregister(c.sock)
                    else:
                        finish(i, c, None)
                    continue
                c.buf += chunk
                if c.buf.endswith(b"\n"):
                    resp, c.buf = c.buf, b""
                    finish(i, c, resp)
            now = time.perf_counter_ns()
            sample(now)
            for i, c in enumerate(conns):
                if c.op is not None and now - c.t0 > RECV_TIMEOUT * 1e9:
                    finish(i, c, None)
        next_tick[0] = 0
        sample(time.perf_counter_ns())
    finally:
        for c in conns:
            c.sock.close()
        sel.close()
        gc.enable()
        gc.collect()


def round_source(wl, enough, results):
    """Whole rounds: a new round starts only while [enough()] is false;
    a started round always completes."""
    started = [0]
    if wl.shared:
        queue = deque()

        def source(_i):
            if not queue:
                if enough():
                    return None
                queue.extend(wl.next_round())
                started[0] += 1
            return queue.popleft()
    else:
        queues = [deque() for _ in range(CLIENTS)]

        def source(i):
            q = queues[i]
            if not q:
                if enough():
                    return None
                q.extend(wl.next_round(i))
                started[0] += 1
            return q.popleft()
    return source, started


def list_source(ops):
    queue = deque(ops)
    return lambda _i: queue.popleft() if queue else None


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def setup(tmp, name, seed, trace=False):
    """Inputs generated, servers healthy, warm-up pass done."""
    t0 = time.perf_counter()
    wl = W.WORKLOADS[name](seed)
    cluster = Cluster(tmp, wl.servers(), trace=trace)
    try:
        closed_loop(cluster.path(wl.target()), list_source(wl.warmup()), Results())
    except BaseException:
        cluster.drain()
        raise
    return wl, cluster, time.perf_counter() - t0


class Timed:
    """One timed phase: the results, every answered request as
    (completion ns, latency ns), the host steal samples, the start and
    end ns, the servers' CPU seconds."""

    def __init__(self, results, latencies, ticks, t0, t1, cpu):
        self.results, self.latencies, self.ticks = results, latencies, ticks
        self.t0, self.t1, self.cpu = t0, t1, cpu
        self.elapsed = (t1 - t0) / 1e9
        self._calm = None

    def calm(self):
        """The calmest part of the run. The phase is cut into windows of
        WINDOW_S seconds, ranked by the share of the host's CPU time
        stolen by other tenants (/proc/stat steal) while they ran; the
        calmest are kept until they are at least CALM_SHARE of the
        windows and hold MIN_TIMED answered requests. Returns the sorted
        latencies completed in those windows, their total seconds and
        the most steal among them."""
        if self._calm is None:
            k = max(2, round(self.elapsed / WINDOW_S))
            width = (self.t1 - self.t0) / k
            when = [s[0] for s in self.ticks]

            def at(ns):
                return self.ticks[min(len(self.ticks) - 1, bisect.bisect_left(when, ns))]

            steal = []
            for i in range(k):
                a, b = at(self.t0 + i * width), at(self.t0 + (i + 1) * width)
                steal.append((b[1] - a[1]) / max(1, b[2] - a[2]))
            wins = [[] for _ in range(k)]
            for done, lat in self.latencies:
                wins[min(k - 1, int((done - self.t0) // width))].append(lat)
            kept = []
            for i in sorted(range(k), key=lambda i: (steal[i], i)):
                kept.append(i)
                if len(kept) >= CALM_SHARE * k and sum(len(wins[j]) for j in kept) >= MIN_TIMED:
                    break
            lats = sorted(x for i in kept for x in wins[i])
            self._calm = (lats, len(kept) * width / 1e9, max(steal[i] for i in kept))
        return self._calm

    def rate(self):
        """Answered requests per second in the calmest windows."""
        lats, seconds, _ = self.calm()
        return len(lats) / seconds

    def percentiles(self):
        """Median and 99th percentile (nearest rank) of the latencies in
        the calmest windows, and the number of samples beyond the p99."""
        lats, _, _ = self.calm()
        rank = max(0, math.ceil(0.99 * len(lats)) - 1)
        return statistics.median(lats), lats[rank], len(lats) - rank - 1


def timed_phase(wl, cluster, seconds, min_ops=MIN_TIMED):
    """Whole rounds for SETTLE_S seconds untimed, so the session store
    and caches reach their steady state, then whole rounds for [seconds]
    (longer if fewer than [min_ops] requests were timed). The responses
    of both are checked."""
    results = Results()
    settled = time.perf_counter() + SETTLE_S
    source, _ = round_source(wl, lambda: time.perf_counter() >= settled, results)
    closed_loop(cluster.path(wl.target()), source, results)
    settle_ops = results.attempted
    latencies = []
    ticks = []
    until = time.perf_counter() + seconds

    def enough():
        return time.perf_counter() >= until and results.attempted - settle_ops >= min_ops

    source, rounds = round_source(wl, enough, results)
    cpu0 = cluster.cpu_s()
    t0 = time.perf_counter_ns()
    closed_loop(cluster.path(wl.target()), source, results, latencies, ticks)
    if not latencies:
        raise CannotRun("no request of the timed phase was answered")
    t1 = latencies[-1][0]
    t = Timed(results, latencies, ticks, t0, t1, cluster.cpu_s() - cpu0)
    steal = (ticks[-1][1] - ticks[0][1]) / max(1, ticks[-1][2] - ticks[0][2])
    lats, calm_s, calm_steal = t.calm()
    print("timed phase: %d rounds, %d answered in %.2fs, host steal %.1f%% of CPU time;"
          " calmest %.0fs: %d answered, steal at most %.1f%%"
          % (rounds[0], len(latencies), t.elapsed, 100 * steal, calm_s, len(lats), 100 * calm_steal))
    return t


def end_to_end(tmp, name, seed, seconds):
    setup_times = []
    for _ in range(SETUPS - 1):
        _, cluster, dt = setup(tmp, name, seed)
        setup_times.append(dt)
        if not cluster.drain():
            raise CannotRun("a set-up cluster did not drain cleanly")
    wl, cluster, dt = setup(tmp, name, seed)
    setup_times.append(dt)
    t = timed_phase(wl, cluster, seconds)
    results = t.results
    rss = cluster.hwm_mb()
    drained = cluster.drain()
    failed, reasons = evaluate(results)
    p50, p99, beyond = t.percentiles()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "req_per_s": (t.rate(), "req/s"),
        "latency_p50_ms": (p50 / 1e6, "ms"),
        "latency_p99_ms": (p99 / 1e6, "ms"),
        "cpu_ms_per_req": (t.cpu * 1e3 / len(t.latencies), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    for name_, (v, unit) in metrics.items():
        print("%-16s %14.4f %s" % (name_, v, unit))
    print("ops_attempted    %14d" % results.attempted)
    print("ops_failed       %14d" % failed)
    print("beyond p99       %14d" % beyond)
    for reason, count in reasons.most_common():
        print("  %6d x %s" % (count, reason[:200]))
    if not drained:
        print("drain: a server did not exit 0 on SIGTERM")
    return {
        "correct": drained,
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(args):
    build()
    os.makedirs("_build/perfbench", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir="_build/perfbench")
    try:
        if args.trace:
            import layers
            return layers.traced_run(tmp, args.workload, args.seed, args.seconds, sys.modules[__name__])
        return end_to_end(tmp, args.workload, args.seed, args.seconds)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)


def on_signal(signum, _frame):
    raise KeyboardInterrupt("signal %d" % signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        if args.self_test:
            import selftest
            return selftest.main(sys.modules[__name__])
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args)
    except CannotRun as e:
        log("perfbench: cannot run: %s" % e)
        return 2
    except KeyboardInterrupt as e:
        log("perfbench: interrupted (%s)" % e)
        return 130
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
