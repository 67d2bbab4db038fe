"""The benchmark's own self-test: python3 perfbench/run.py --self-test

1. The oracles: on a fresh daemon the intern-order reproduction request
   gets the right answer and its check passes; the same response checked
   against a deliberately wrong expected answer must fail. Then the
   two-request reproduction of the intern-order fault is replayed and
   its outcome printed.
2. Every workload runs one short timed phase. Its only failed
   operations may be the intern-order reproductions of serve-mix.
3. For each op kind, a real response from step 2 is corrupted and the
   op's own check must reject it, and the failure must be counted.

Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import tempfile
from fractions import Fraction

import workloads as W

EIGHT_CONSTANTS = {
    "op": "certain",
    "schema": "R(a)",
    "db": "R = { %s }" % ", ".join("('a%d')" % i for i in range(1, 9)),
    "query": "Q(x) := R(x)",
}


def corrupt(kind, resp):
    """A copy of a response with one answer made wrong."""
    r = dict(resp)
    if kind == "measure":
        k, _, v = r["series"].split(";")[0].partition("=")
        r["series"] = "%s=%s" % (k, Fraction(v) + Fraction(1, 1000))
    elif kind == "certain":
        r["naive"] = "; ".join(filter(None, [r["naive"], "(zz)"]))
    elif kind == "conditional":
        r["value"] = str(Fraction(r["value"]) + 1)
    elif kind == "approx":
        r["ci_lo"] = r["ci_hi"] = "2"
    elif kind == "analyze":
        r["errors"] = 1
    elif kind == "update":
        r["cardinality"] += 1
    return r


def main(R):
    R.build()
    os.makedirs("_build/perfbench", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir="_build/perfbench")
    problems = []

    def expect(cond, what):
        print("%s  %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    try:
        # 1. Oracles on the reproduction request, then the fault: the
        # same request on a fresh daemon after 8 other constants.
        line = (json.dumps(W.REPRO) + "\n").encode()
        answers = []
        for before in ([], [EIGHT_CONSTANTS]):
            cluster = R.Cluster(tmp, [("serve", "s0.sock", W.SERVE_FLAGS)])
            for req in before:
                R.request_once(cluster.path("s0.sock"), (json.dumps(req) + "\n").encode(), R.RECV_TIMEOUT)
            answers.append(R.request_once(cluster.path("s0.sock"), line, R.RECV_TIMEOUT))
            expect(cluster.drain(), "daemon drains with exit 0")
        fresh, after = answers
        right = W.check_measure(fresh, 1, lambda k: 1, False)
        expect(right is None, "fresh daemon answers the reproduction correctly (%s)" % fresh.get("series"))
        wrong = W.check_measure(fresh, 1, lambda k: 2, False)
        expect(wrong is not None, "a wrong expected answer is rejected: %s" % wrong)
        fault = W.check_measure(after, 1, lambda k: 1, False)
        print("info  intern-order fault after 8 other constants: %s (series %s)"
              % ("reproduced" if fault else "not reproduced", after.get("series")))

        # 2. Every workload, briefly.
        samples = {}
        for name, cls in W.WORKLOADS.items():
            wl, cluster, _ = R.setup(tmp, name, 1)
            res = R.timed_phase(wl, cluster, 1.0, min_ops=0).results
            expect(cluster.drain(), "%s: servers drain with exit 0" % name)
            failed, reasons = R.evaluate(res)
            only_repro = all("series at k=2 is 0" in r for r in reasons)
            want = 0 if name != "serve-mix" else res.attempted * len(W.REPRO_SLOTS) // wl.round_len
            expect(failed == want and only_repro,
                   "%s: %d ops, %d failed (expected %d)" % (name, res.attempted, failed, want))
            answered = [(res.ops[key], resp) for key, resp in res.pure] + res.ordered
            for op, resp in answered:
                if resp is not None and op.fields is not W.REPRO:
                    samples.setdefault(op.kind, (op, resp))

        # 3. Corrupted responses are rejected and counted.
        for kind, (op, resp) in sorted(samples.items()):
            bad = json.dumps(corrupt(kind, json.loads(resp))).encode()
            results = R.Results()
            results.add(op, bad)
            failed, _ = R.evaluate(results, show=0)
            expect(failed == 1, "%s: a corrupted response is counted as failed (%s)"
                   % (kind, R.judge(op, bad)))
    finally:
        R.stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test: %s" % ("passed" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1
