"""The traced run behind --trace 1: per-layer metrics.

One run, three parts, all on the workload's own requests:

1. Untraced: the timed closed loop for half the run, then idle probes
   on the same servers: each sampled read request alone, direct to a
   shard and through a router, in turn (shard.hop_us). The router is
   the workload's own (update-stream) or one started for the probe.
2. Traced: fresh servers with --trace/--metrics-json, the timed closed
   loop for the other half, then the same idle probes direct to the
   shard, each matched with the daemon's serve.request span inside it
   (daemon.residual_us).
3. In-process: layers/layers.exe calls each layer's public entry point
   on its own inside a span (see layers.ml).

Spans of all processes share CLOCK_MONOTONIC. A span's self time is its
duration minus the part of it that spans of other layers cover; pool
folds are not a layer boundary (they run the caller's own work).
"""

import json
import os
import statistics
import subprocess
import time

REPS = 5
PROBE_LINES = 24
PROBE_REPS = 7
UPDATE_LINES = 40

# Program span name prefix -> layer; "pool." is transparent.
PROGRAM_LAYERS = [
    ("support_poly.", "core"), ("conditional.", "core"), ("certain.", "incomplete"),
    ("support.", "incomplete"), ("analysis.", "analysis"), ("chase.", "constraints"),
    ("approx.", "approx_measure"), ("serve.", "server"), ("router.", "shard"), ("sep.", "compare"),
]

# Per-layer metric -> the in-process span whose mean self time it is.
SELF_TIME_US = {
    "wire.parse_us": "server.wire.parse",
    "wire.render_us": "server.wire.render",
    "session.load_us": "server.session.load",
    "session.update_us": "server.session.update",
    "logic.query_parse_us": "logic.query_parse",
    "analysis.report_us": "analysis.report",
    "analysis.decomp_us": "analysis.decomp",
    "core.symbolic_us": "core.symbolic",
    "core.conditional_us": "core.conditional",
    "incomplete.kernel_db_us": "incomplete.kernel_db",
    "incomplete.kernel_compile_us": "incomplete.kernel_compile",
}

UNITS = {
    "wire.parse_us": "us/req", "wire.render_us": "us/req", "session.hit_ratio": "hits/gets",
    "session.load_us": "us/load", "session.update_us": "us/update", "daemon.residual_us": "us/req",
    "logic.query_parse_us": "us/req", "analysis.report_us": "us/req", "analysis.decomp_us": "us/req",
    "core.symbolic_us": "us/req", "core.conditional_us": "us/req", "incomplete.kernel_db_us": "us/call",
    "incomplete.kernel_compile_us": "us/call", "incomplete.sweep_ns_per_valuation": "ns",
    "incomplete.valuations_per_req": "count", "incomplete.certain_sweep_us": "us/req",
    "exec.pool_tasks_per_req": "count", "exec.pool_steal_ratio": "stolen/queued",
    "exec.cache_hit_ratio": "hits/lookups", "constraints.chase_us": "us",
    "constraints.chase_steps_per_req": "count", "approx.ns_per_sample": "ns", "shard.hop_us": "us/req",
    "shard.log_lines": "count", "shard.router_rss_mb": "MB", "obs.trace_overhead": "traced/untraced",
}


def layer_of(name):
    if name.startswith("perfbench."):
        return name.split(".")[1]
    for prefix, layer in PROGRAM_LAYERS:
        if name.startswith(prefix):
            return layer
    return None


def read_spans(path):
    """Completed spans of a trace file: dicts with name, b, e, attrs."""
    opened, spans = {}, []
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            if ev["ev"] == "b":
                opened[ev["id"]] = ev
            else:
                b = opened.pop(ev["id"])
                spans.append({"name": ev["name"], "b": b["t"], "e": ev["t"],
                              "attrs": {k[2:]: v for k, v in ev.items() if k.startswith("a_")}})
    return spans


def self_times(spans):
    """Self time of every span: duration minus the union of the spans
    of other layers nested in it."""
    spans = sorted(spans, key=lambda s: (s["b"], -s["e"]))
    out = []
    for i, s in enumerate(spans):
        mine = layer_of(s["name"])
        covered, cur_b, cur_e = 0, None, None
        for j in range(i + 1, len(spans)):
            c = spans[j]
            if c["b"] > s["e"]:
                break
            lc = layer_of(c["name"])
            if c["e"] > s["e"] or lc is None or lc == mine:
                continue
            if cur_e is None or c["b"] > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_b
                cur_b, cur_e = c["b"], c["e"]
            else:
                cur_e = max(cur_e, c["e"])
        if cur_e is not None:
            covered += cur_e - cur_b
        out.append((s, s["e"] - s["b"] - covered))
    return out


def round_trips(paths, line, reps):
    """[reps] idle round trips of [line] to each of [paths], taken in
    turn on one connection each so slow spells hit all alike: per path,
    the list of (sent, answered) CLOCK_MONOTONIC ns."""
    import socket
    socks = []
    try:
        for p in paths:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(30)
            s.connect(p)
            socks.append(s)
        trips = [[] for _ in paths]
        for _ in range(reps):
            for s, ts in zip(socks, trips):
                t0 = time.monotonic_ns()
                s.sendall(line)
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = s.recv(1 << 20)
                    if not chunk:
                        raise ConnectionError("connection closed")
                    buf += chunk
                ts.append((t0, time.monotonic_ns()))
        return trips
    finally:
        for s in socks:
            s.close()


def median_rtt(trips):
    return statistics.median(e - b for b, e in trips)


def sample(ops, n):
    step = max(1, len(ops) // n)
    return ops[::step][:n]


def read_ops(wl, results):
    """Distinct read requests of the run, in first-seen order."""
    seen, out = set(), []
    ops = list(results.ops.values()) if wl.shared else [op for op, _ in results.ordered]
    for op in ops:
        line = op.request()
        if op.kind != "update" and line not in seen:
            seen.add(line)
            out.append(op)
    return out


def probe_lines(wl, results, reads):
    """The helper's input: the sampled reads, plus updates (update-stream:
    the run's first ones per session, a valid sequence from the initial
    state; otherwise an insert and a delete of a fresh row per session)
    and, where the workload sends no approx, an approx per sampled
    measure."""
    lines = [op.request() for op in reads]
    if wl.shared:
        seen = set()
        for op in reads:
            f = op.fields
            key = (f["schema"], f["db"])
            if key in seen:
                continue
            seen.add(key)
            rel, cols = f["schema"].split(";")[0].strip().rstrip(")").split("(")
            row = "(%s)" % ", ".join(["'zz'"] * len(cols.split(",")))
            for action in ("insert", "delete"):
                lines.append(json.dumps({"op": "update", "schema": f["schema"], "db": f["db"],
                                         "action": action, "relation": rel, "tuple": row}).encode() + b"\n")
    else:
        per_session = {}
        for op, _ in results.ordered:
            if op.kind == "update":
                per_session.setdefault(op.fields["db"], []).append(op.request())
        for ups in per_session.values():
            lines += ups[:UPDATE_LINES]
    if not any(op.kind == "approx" for op in reads):
        for op in reads:
            if op.kind == "measure":
                f = dict(op.fields, op="approx", k=max(map(int, op.fields["ks"].split(","))),
                         eps="1/10", delta="1/1000", seed=0)
                del f["ks"]
                lines.append(json.dumps(f).encode() + b"\n")
    return lines


def traced_run(tmp, name, seed, seconds, R):
    half = seconds / 2.0
    attempted = failed = 0

    # 1. Untraced half, then idle probes on the same servers.
    wl, cluster, _ = R.setup(tmp, name, seed)
    t = R.timed_phase(wl, cluster, half, min_ops=0)
    res, untraced_rps = t.results, t.rate()
    reads = sample(read_ops(wl, res), PROBE_LINES)
    direct = cluster.path(wl.servers()[0][1])
    routed_name = next((s for k, s, _ in wl.servers() if k == "router"), None)
    probe_router = None
    if routed_name is None:
        probe_router = R.Cluster(cluster.tmp, [("router", "probe.sock", ["--shard", wl.servers()[0][1]])])
        routed_name = "probe.sock"
    hops = []
    for op in reads:
        d, r = round_trips([direct, cluster.path(routed_name)], op.request(), PROBE_REPS)
        hops.append((median_rtt(r) - median_rtt(d)) / 1e3)
    router_cluster = probe_router or cluster
    router_rss = router_cluster.hwm_mb(kinds=("router",))
    log_lines = sum(1 for op, resp in res.ordered
                    if op.kind == "update" and resp is not None and b'"ok":true' in resp)
    drained = (probe_router.drain() if probe_router else True) & cluster.drain()
    f, _ = R.evaluate(res)
    attempted, failed = attempted + res.attempted, failed + f
    helper_lines = probe_lines(wl, res, reads)

    # 2. Traced half.
    wl, cluster, _ = R.setup(tmp, name, seed, trace=True)
    t = R.timed_phase(wl, cluster, half, min_ops=0)
    res, traced_rps = t.results, t.rate()
    serves = [s for k, s, _ in wl.servers() if k == "serve"]
    trips = [t for op in reads for t in round_trips([cluster.path(serves[0])], op.request(), PROBE_REPS)[0]]
    drained &= cluster.drain()
    f, _ = R.evaluate(res)
    attempted, failed = attempted + res.attempted, failed + f
    counters = {}
    spans = []
    for s in serves:
        out = cluster.output(s).strip().splitlines()
        for k, v in json.loads(out[-1])["counters"].items():
            counters[k] = counters.get(k, 0) + v
        spans += read_spans(cluster.path(s + ".trace"))

    # 3. In-process layer probes.
    lines_path = os.path.join(tmp, "layers.lines")
    trace_path = os.path.join(tmp, "layers.trace")
    with open(lines_path, "wb") as fh:
        fh.writelines(helper_lines)
    out = subprocess.run([R.LAYERS, lines_path, trace_path, str(REPS)], capture_output=True)
    if out.returncode != 0:
        raise R.CannotRun("layers.exe failed: %s" % out.stderr.decode(errors="replace")[-500:])
    helper = self_times(read_spans(trace_path))

    m = {}
    by_name = {}
    for s, self_ns in helper:
        by_name.setdefault(s["name"], []).append((s, self_ns))
    for metric, span in SELF_TIME_US.items():
        xs = by_name.get("perfbench." + span, [])
        m[metric] = statistics.fmean(x for _, x in xs) / 1e3 if xs else 0.0
    approx = by_name.get("perfbench.approx_measure.mu_k", [])
    samples = sum(int(s["attrs"].get("samples", 0)) for s in spans_of(helper, "approx.run"))
    m["approx.ns_per_sample"] = sum(x for _, x in approx) / samples if samples else 0.0
    # Idle round trip minus the daemon's own Service.handle span for it
    # (the probes are sequential, so each holds exactly one).
    handled = sorted((s["b"], s["e"]) for s in read_spans(cluster.path(serves[0] + ".trace"))
                     if s["name"] == "serve.request")
    residual = []
    for b, e in trips:
        inside = [(sb, se) for sb, se in handled if sb >= b and se <= e]
        if len(inside) == 1:
            residual.append((e - b - (inside[0][1] - inside[0][0])) / 1e3)
    if not residual:
        raise R.CannotRun("no serve.request span matched an idle probe")
    m["daemon.residual_us"] = statistics.median(residual)

    requests = [s for s in spans if s["name"] == "serve.request"]
    nreq = max(1, len(requests))
    ops_of = lambda kind: sum(1 for s in requests if s["attrs"].get("op") == kind)
    m["session.hit_ratio"] = 1 - counters.get("serve_session_loads", 0) / nreq
    m["incomplete.valuations_per_req"] = counters.get("valuations_evaluated", 0) / nreq
    counts = [s for s in spans if s["name"] == "support.count"]
    vals = sum(int(s["attrs"]["k"]) ** int(s["attrs"]["nulls"]) for s in counts)
    m["incomplete.sweep_ns_per_valuation"] = sum(s["e"] - s["b"] for s in counts) / vals if vals else 0.0
    m["incomplete.certain_sweep_us"] = sum(
        s["e"] - s["b"] for s in spans if s["name"] == "certain.sweep") / 1e3 / max(1, ops_of("certain"))
    queued = counters.get("pool_tasks_queued", 0)
    m["exec.pool_tasks_per_req"] = queued / nreq
    m["exec.pool_steal_ratio"] = counters.get("pool_tasks_stolen", 0) / queued if queued else 0.0
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    m["exec.cache_hit_ratio"] = counters.get("cache_hits", 0) / lookups if lookups else 0.0
    chases = [s for s in spans if s["name"].startswith("chase.")]
    m["constraints.chase_us"] = statistics.fmean(s["e"] - s["b"] for s in chases) / 1e3 if chases else 0.0
    m["constraints.chase_steps_per_req"] = counters.get("chase_steps", 0) / max(1, ops_of("conditional"))
    m["shard.hop_us"] = statistics.median(hops)
    m["shard.log_lines"] = log_lines
    m["shard.router_rss_mb"] = router_rss
    m["obs.trace_overhead"] = traced_rps / untraced_rps

    for k in UNITS:
        print("%-36s %14.4f %s" % (k, m[k], UNITS[k]))
    print("ops_attempted    %14d" % attempted)
    print("ops_failed       %14d" % failed)
    return {
        "correct": drained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m[k], "unit": UNITS[k]} for k in UNITS},
    }


def spans_of(helper, name):
    return [s for s, _ in helper if s["name"] == name]
