"""The three workloads: seeded request generators with their checks.

A workload is a list of operations: a request line, an op kind and a
check that takes the parsed response and returns None or the reason it
is wrong. The program sees only the generated request lines. Every run
attempts whole rounds of the same operations, so the share of failed
operations is the same in every run.

The µ^k sweeps of the program range over the process-global intern
codes 1..k (see the README's intern-order fault). Every seeded request
therefore asks for k at or above the number of constants its server
process ever interns; only the fixed reproduction request of serve-mix
does not, and it fails on every round.
"""

import functools
import itertools
import json
import random
from fractions import Fraction

import oracle as O


class Op:
    __slots__ = ("kind", "line", "key", "check", "fields")

    def __init__(self, kind, fields, check, key=True):
        self.kind = kind
        self.fields = fields
        self.line = self.request()
        # Ops with a key are pure: the same request always deserves the
        # same answer, so each distinct (request, response) is checked
        # once. Ops without one depend on the session's history.
        self.key = self.line if key else None
        self.check = check

    def request(self):
        """The full request line (the runner trims [line] once sent)."""
        return (json.dumps(self.fields, separators=(",", ":")) + "\n").encode()


# One service worker. With several, two requests sweep at once in one
# domain and their answers can be wrong; see the README's race fault.
SERVE_FLAGS = ["--workers", "1"]


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------


def check_measure(resp, m, count, naive_true):
    """mu is 0 or 1; verdict true iff the tuple is a naive answer
    (Theorem 1); every series value equals count(k)/k^m and
    supp_poly(k)/k^m (Theorem 3 construction)."""
    if resp.get("mu") not in ("0", "1"):
        return "mu %r not in {0,1}" % resp.get("mu")
    verdict_true = resp.get("verdict") == "almost certainly true"
    if verdict_true != naive_true:
        return "verdict %r but naive membership is %s" % (resp.get("verdict"), naive_true)
    if (resp["mu"] == "1") != verdict_true:
        return "mu %s disagrees with verdict %r" % (resp["mu"], resp["verdict"])
    poly = O.parse_poly(resp["supp_poly"])
    for k, v in O.parse_series(resp.get("series", "")).items():
        want = Fraction(count(k), k ** m)
        if v != want:
            return "series at k=%d is %s, enumeration gives %s" % (k, v, want)
        if Fraction(O.poly_eval(poly, k), k ** m) != want:
            return "supp_poly(%d)/k^%d = %s, enumeration gives %s" % (
                k, m, Fraction(O.poly_eval(poly, k), k ** m), want)
    return None


def check_certain(resp, naive, certain=None, possible=None):
    """certain ⊆ naive ⊆ possible (Theorem 1), naive answers equal the
    benchmark's own naive evaluation, and exact sets where known."""
    c, n, p = (O.parse_rel(resp[f]) for f in ("certain", "naive", "possible"))
    if not c <= n <= p:
        return "certain ⊆ naive ⊆ possible fails: %s / %s / %s" % (c, n, p)
    if n != naive:
        return "naive answers %s, expected %s" % (sorted(n), sorted(naive))
    if certain is not None and c != certain:
        return "certain answers %s, expected %s" % (sorted(c), sorted(certain))
    if possible is not None and p != possible:
        return "possible answers %s, expected %s" % (sorted(p), sorted(possible))
    return None


def check_conditional(resp, value, chase, num=None, den=None, probe_ks=(12, 13)):
    """value = ratio of the leading coefficients when the degrees agree,
    else 0 (Theorem 3); chase equals value under chase_fds (Theorem 5);
    the closed-form value; and, where the generator knows them, the
    closed-form counts |Supp^k(Σ∧Q)| and |Supp^k(Σ)| against the
    numerator and denominator polynomials and the series."""
    pn, pd = O.parse_poly(resp["numerator"]), O.parse_poly(resp["denominator"])
    got = Fraction(resp["value"])
    ratio = O.lead(pn) / O.lead(pd) if pn and max(pn) == max(pd) else Fraction(0)
    if got != ratio:
        return "value %s is not the leading-coefficient ratio %s" % (got, ratio)
    if got != value:
        return "value %s, closed form gives %s" % (got, value)
    want_strategy = "chase_fds" if chase else "symbolic"
    if resp.get("strategy") != want_strategy:
        return "strategy %r, expected %s" % (resp.get("strategy"), want_strategy)
    if chase and Fraction(resp.get("chase", "nan")) != got:
        return "chase %r differs from value %s" % (resp.get("chase"), got)
    if num is None:
        return None
    series = O.parse_series(resp.get("series", ""))
    for k in sorted(series) or probe_ks:
        if (O.poly_eval(pn, k), O.poly_eval(pd, k)) != (num(k), den(k)):
            return "numerator/denominator at k=%d are %s/%s, closed form %d/%d" % (
                k, O.poly_eval(pn, k), O.poly_eval(pd, k), num(k), den(k))
        if k in series and series[k] != Fraction(num(k), den(k)):
            return "series at k=%d is %s, closed form gives %s" % (k, series[k], Fraction(num(k), den(k)))
    return None


def check_approx(resp, exact):
    lo, hi = Fraction(resp["ci_lo"]), Fraction(resp["ci_hi"])
    if not lo <= exact <= hi:
        return "[%s, %s] misses the exact mu^k %s" % (lo, hi, exact)
    if Fraction(resp["hits"], resp["samples"]) != Fraction(resp["estimate"]):
        return "estimate %s is not hits/samples" % resp["estimate"]
    return None


def check_analyze(resp, naive):
    if resp.get("errors") != 0:
        return "analysis reports %r errors on a safe query" % resp.get("errors")
    if not isinstance(resp.get("report"), dict):
        return "report is not an object"
    got = O.parse_rel(resp["returned"])
    if got != naive:
        return "naive scheme returned %s, expected %s" % (sorted(got), sorted(naive))
    return None


# ---------------------------------------------------------------------------
# serve-mix: many small sessions, per-request fixed costs
# ---------------------------------------------------------------------------

SMALL_POOL = ["m%d" % i for i in range(5)]
SMALL_KS = (6, 7)  # above the 5 pool constants plus the reproduction's 'c9'
MIX_FAMILIES = ["plain"] * 5 + ["fd", "sec4", "prop4"]  # by Zipf rank, cycling
MIX_SESSIONS = 64  # 4x the daemon's default store of 16
MIX_ROUND = {"measure": 32, "certain": 28, "conditional": 28, "approx": 12, "analyze": 26}
REPRO_SLOTS = (63, 127)  # the round is 128 ops
ZIPF_S = 1.1

# Templates over R(a,b); S(a): (query text, arity, evaluator(inst, answer)).
PLAIN_TEMPLATES = [
    ("Q(x) := exists y. R(x, y) & S(y)", 1,
     lambda d, a: any(t[0] == a[0] and (t[1],) in d["S"] for t in d["R"])),
    ("Q(x) := exists y. R(x, y) & !S(y)", 1,
     lambda d, a: any(t[0] == a[0] and (t[1],) not in d["S"] for t in d["R"])),
    ("Q(x, y) := R(x, y) & !R(y, x)", 2,
     lambda d, a: a in d["R"] and (a[1], a[0]) not in d["R"]),
    ("Q() := exists x. R(x, x)", 0,
     lambda d, a: any(t[0] == t[1] for t in d["R"])),
]

# Session shapes: "a", "b", "c" stand for distinct constants the seed
# draws from the pool, so every seed yields sessions of the same shapes
# (and costs) under different names.
PLAIN_SHAPES = [
    {"R": [("a", "~1"), ("b", "a"), ("~1", "c")], "S": [("a",), ("c",)]},
    {"R": [("a", "~1"), ("~2", "b"), ("~1", "~2")], "S": [("b",), ("~1",)]},
    {"R": [("~1", "a"), ("~2", "~3"), ("b", "~2")], "S": [("~3",), ("a",)]},
]
FD_SHAPES = [
    {"R": [("a", "~1"), ("a", "~2"), ("b", "~3")], "S": [("c",), ("~1",)]},
    {"R": [("a", "~1"), ("a", "~2"), ("b", "c")], "S": [("c",), ("a",)]},
]
FD_TEMPLATES = [
    ("Q() := exists x y. R(x, y) & S(y)", lambda d: any((t[1],) in d["S"] for t in d["R"])),
    ("Q() := exists x y. R(x, y) & !S(y)", lambda d: any((t[1],) not in d["S"] for t in d["R"])),
    ("Q() := exists x. R(x, x)", lambda d: any(t[0] == t[1] for t in d["R"])),
]
PROP4 = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 5), (4, 5), (1, 1), (3, 5)]  # p/r

REPRO = {
    "op": "measure",
    "schema": "U(a,b)",
    "db": "U = { ('c9', ~1) }",
    "query": "Q() := exists x. U(x, x)",
    "ks": "2,3",
}


def naive_answers(inst, holds, arity):
    """Q(D) with nulls read as pairwise distinct fresh constants."""
    adom = sorted({v for rel in inst.values() for t in rel for v in t})
    return {a for a in itertools.product(adom, repeat=arity) if holds(inst, a)}


def instantiate(shape, names):
    """The shape's placeholders renamed; also its values in shape order."""
    ren = lambda v: names.get(v, v)
    inst = {r: {tuple(ren(v) for v in t) for t in ts} for r, ts in shape.items()}
    order = []
    for ts in shape.values():
        for t in ts:
            order += [ren(v) for v in t if ren(v) not in order]
    return inst, order


def plain_ops(rng, j, inst, adom):
    """The four requests of the j-th plain session."""
    base = {"schema": "R(a,b); S(a)", "db": O.db_text(inst, ["R", "S"])}
    pick = lambda i, ar: tuple(adom[(j + i + 2 * x) % len(adom)] for x in range(ar))
    ops = {}

    q, ar, holds = PLAIN_TEMPLATES[j % 4]
    answer = pick(0, ar)
    fields = dict(base, op="measure", query=q, ks=",".join(map(str, SMALL_KS)))
    if ar:
        fields["tuple"] = O.tuple_text(answer)
    cs, m = O.consts_of(inst, answer), len(O.nulls_of(inst, answer))
    count = lambda k: O.support_count(inst, answer, holds, cs, k)
    ops["measure"] = Op("measure", fields, lambda r: check_measure(r, m, count, holds(inst, answer)))

    q2, ar2, holds2 = PLAIN_TEMPLATES[(j + 1) % 3]
    naive2 = naive_answers(inst, holds2, ar2)
    ops["certain"] = Op("certain", dict(base, op="certain", query=q2), lambda r: check_certain(r, naive2))

    q3, ar3, holds3 = PLAIN_TEMPLATES[(j + 2) % 4]
    answer3 = pick(1, ar3)
    k = SMALL_KS[-1]
    fields = dict(base, op="approx", query=q3, k=k, eps="1/5", delta="1/1000000000",
                  seed=rng.randrange(1 << 20))
    if ar3:
        fields["tuple"] = O.tuple_text(answer3)
    cs3, m3 = O.consts_of(inst, answer3), len(O.nulls_of(inst, answer3))
    exact = lambda: Fraction(O.support_count(inst, answer3, holds3, cs3, k), k ** m3)
    ops["approx"] = Op("approx", fields, lambda r: check_approx(r, exact()))

    q4, ar4, holds4 = PLAIN_TEMPLATES[(j + 3) % 4]
    naive4 = naive_answers(inst, holds4, ar4)
    ops["analyze"] = Op("analyze", dict(base, op="analyze", query=q4, scheme="naive"),
                        lambda r: check_analyze(r, naive4))
    return ops


def conditional_op(family, j, names):
    """The conditional request of the j-th session of an fd, sec4 or
    prop4 family."""
    if family == "fd":
        inst, _ = instantiate(FD_SHAPES[j % 2], names)
        q, holds = FD_TEMPLATES[j % 3]
        # Theorem 5 with Theorem 1: mu(Q|FDs) is 1 iff Q holds naively
        # on the chase.
        value = Fraction(1 if holds(O.fd_chase(inst, "R")) else 0)
        fields = {"schema": "R(a,b); S(a)", "db": O.db_text(inst, ["R", "S"]), "op": "conditional",
                  "query": q, "constraints": "fd R : a -> b"}
        return Op("conditional", fields, lambda r: check_conditional(r, value, chase=True))
    pool = [names[x] for x in "abcde"]
    if family == "sec4":
        n = 3 + j % 3
        a, b = pool[0], pool[1]
        inst = {"R": {(a, b), ("~1", "~1")}, "U": {(u,) for u in pool[:n]}}
        # Section 4: tuple (b, ~1) gets 1/|U|, tuple (a, ~1) gets 2/|U|.
        first, hits = (a, 2) if j % 2 else (b, 1)
        fields = {"schema": "R(a,b); U(u)", "db": O.db_text(inst, ["R", "U"]), "op": "conditional",
                  "query": "Q(x, y) := R(x, y)", "tuple": O.tuple_text((first, "~1")),
                  "constraints": "ind R[1] <= U[1]"}
        return Op("conditional", fields,
                  lambda r: check_conditional(r, Fraction(hits, n), False, lambda k: hits, lambda k: n))
    p, r_ = PROP4[j % len(PROP4)]
    # Proposition 4: diagonal rows for the first p-1 constants and one
    # null row keyed to the p-th realise p/r.
    U = pool[:r_]
    R = {(U[i], U[i]) for i in range(p - 1)} | {("~1", U[p - 1])}
    inst = {"R": R, "S": {("~1", "~1")}, "U": {(u,) for u in U}}
    fields = {"schema": "R(a,b); S(a,b); U(u)", "db": O.db_text(inst, ["R", "S", "U"]), "op": "conditional",
              "query": "Q() := exists x y. R(x, y) & S(x, y)", "constraints": "ind R[1] <= U[1]"}
    return Op("conditional", fields,
              lambda r: check_conditional(r, Fraction(p, r_), False, lambda k: p, lambda k: r_))


def stratified(weights, n):
    """n picks that follow [weights] without sampling noise: the i-th
    pick is where the cumulative share first passes (i + 1/2) / n."""
    total = sum(weights)
    picks, cum, idx = [], 0.0, 0
    for i in range(n):
        target = (i + 0.5) / n * total
        while cum + weights[idx] < target:
            cum += weights[idx]
            idx += 1
        picks.append(idx)
    return picks


class ServeMix:
    name = "serve-mix"
    shared = True

    def __init__(self, seed):
        rng = random.Random(seed)
        per_rank = []
        counters = {f: 0 for f in set(MIX_FAMILIES)}
        for rank in range(MIX_SESSIONS):
            fam = MIX_FAMILIES[rank % len(MIX_FAMILIES)]
            j = counters[fam]
            counters[fam] += 1
            names = dict(zip("abcde", rng.sample(SMALL_POOL, 5)))
            if fam == "plain":
                inst, adom = instantiate(PLAIN_SHAPES[j % 3], names)
                per_rank.append(plain_ops(rng, j, inst, adom))
            else:
                per_rank.append({"conditional": conditional_op(fam, j, names)})
        weight = [1.0 / (rank + 1) ** ZIPF_S for rank in range(MIX_SESSIONS)]
        seeded = []
        for kind, n in MIX_ROUND.items():
            cands = [i for i, ops in enumerate(per_rank) if kind in ops]
            seeded += [per_rank[cands[i]][kind] for i in stratified([weight[c] for c in cands], n)]
        self.seeded, self.rng = seeded, rng
        self.repro = Op("measure", REPRO, lambda r: check_measure(r, 1, lambda k: 1, False))
        self.round_len = len(seeded) + len(REPRO_SLOTS)
        # The warm-up loads the sessions in rank order, the reproduction
        # last, so the intern codes do not depend on the rounds' order.
        used = {op.line for op in seeded}
        self.warm = [op for ops in per_rank for op in ops.values() if op.line in used] + [self.repro]

    def servers(self):
        return [("serve", "s0.sock", SERVE_FLAGS)]

    def target(self):
        return "s0.sock"

    def warmup(self):
        return self.warm

    def next_round(self, client=None):
        """The same operations in a fresh seeded order every round, so
        a run's tail does not hang on one order's pairings and session
        evictions; the reproduction keeps its slots."""
        ops = list(self.seeded)
        self.rng.shuffle(ops)
        for slot in REPRO_SLOTS:
            ops.insert(slot, self.repro)
        return ops


# ---------------------------------------------------------------------------
# sweep-heavy: a few sessions, every request an exact sweep
# ---------------------------------------------------------------------------

SWEEP_KS = (7, 9)  # 7^4 + 9^4 = 8962 valuations on the 4-null cycle
DECOMP_KS = (8, 10)  # spaces 8^5 and 10^5, swept as 8^2 + 8^3 and 10^2 + 10^3
COND_KS = (10, 12)  # 3 nulls: 10^3 + 12^3 = 2728 valuations, each also checking Σ
HEAVY_KS = (20,)  # 20^4 = 160 000 valuations on the same cycle
SWEEP_SHUFFLES = 4
SWEEP_ROUND = ["mono"] * 4 + ["decomp"] * 4 + ["ind"] * 2 + ["fd"] * 2 + ["certain"] * 2 + ["approx"] * 2
HEAVY_SHUFFLES = (0, 2)  # one heavy request in each of these shuffles


def colorings(shape, m, k):
    """Valuations of m nulls chained by R with no R-self-loop."""
    if shape == "path":
        return k * (k - 1) ** (m - 1)
    return (k - 1) ** m + (-1) ** m * (k - 1)


def chain(rel_nulls, shape):
    edges = list(zip(rel_nulls, rel_nulls[1:]))
    if shape == "cycle":
        edges.append((rel_nulls[-1], rel_nulls[0]))
    return set(edges)


class SweepHeavy:
    name = "sweep-heavy"
    shared = True

    def __init__(self, seed):
        rng = random.Random(seed)
        ks = ",".join(map(str, SWEEP_KS))
        cond_ks = ",".join(map(str, COND_KS))
        # Constants sort (and so intern) in the order of their roles
        # whatever the seed; the seed draws the rest of each name.
        pool = ["h%d_%04d" % (i, rng.randrange(10000)) for i in range(5)]
        ops = {k: [] for k in dict.fromkeys(SWEEP_ROUND)}

        # Indecomposable: 4 nulls on one cycle, one component.
        shape = "cycle"
        R = chain(["~1", "~2", "~3", "~4"], shape)
        inst = {"R": R}
        base = {"schema": "R(a,b)", "db": O.db_text(inst, ["R"])}
        for neg in (False, True):
            q = "Q() := !(exists x. R(x, x))" if neg else "Q() := exists x. R(x, x)"
            cnt = (lambda k, s=shape: colorings(s, 4, k)) if neg else (lambda k, s=shape: k ** 4 - colorings(s, 4, k))
            ops["mono"].append(Op("measure", dict(base, op="measure", query=q, ks=ks),
                                  lambda r, c=cnt, n=neg: check_measure(r, 4, c, n)))
            ka = 10
            ops["approx"].append(Op("approx", dict(base, op="approx", query=q, k=ka, eps="1/22",
                                                   delta="1/1000000000", seed=rng.randrange(1 << 20)),
                                    lambda r, c=cnt, ka=ka: check_approx(r, Fraction(c(ka), ka ** 4))))
        # The round's largest sweep: 2 of its 66 requests, so the top 1 %
        # of latencies falls among them and the requests queued behind
        # them, not on whichever requests a steal burst of the host hit.
        cnt = lambda k, s=shape: k ** 4 - colorings(s, 4, k)
        ops["heavy"] = [Op("measure", dict(base, op="measure", query="Q() := exists x. R(x, x)",
                                           ks=",".join(map(str, HEAVY_KS))),
                           lambda r: check_measure(r, 4, cnt, False))]

        # Decomposable: a 2-null block in R beside a 3-null block in T.
        shape_t = "path"
        inst = {"R": chain(["~1", "~2"], "path"), "T": chain(["~3", "~4", "~5"], shape_t)}
        base = {"schema": "R(a,b); T(a,b)", "db": O.db_text(inst, ["R", "T"])}
        for neg_r, neg_t in ((False, True), (True, False)):
            fr = (lambda k: colorings("path", 2, k)) if neg_r else (lambda k: k * k - colorings("path", 2, k))
            ft = (lambda k: colorings(shape_t, 3, k)) if neg_t else (lambda k: k ** 3 - colorings(shape_t, 3, k))
            q = "Q() := %s(exists x. R(x, x)) & %s(exists y. T(y, y))" % ("!" if neg_r else "", "!" if neg_t else "")
            ops["decomp"].append(Op("measure", dict(base, op="measure", query=q, ks=",".join(map(str, DECOMP_KS))),
                                    lambda r, fr=fr, ft=ft, n=neg_r and neg_t: check_measure(
                                        r, 5, lambda k: fr(k) * ft(k), n)))
        naive = {t for t in inst["T"] if (t[1], t[0]) not in inst["T"]}
        for _ in range(2):
            ops["certain"].append(Op("certain", dict(base, op="certain", query="Q(x, y) := T(x, y) & !T(y, x)"),
                                     lambda r, nv=naive: check_certain(r, nv)))

        # Inclusion dependency: 2 of the 3 path nulls must land in U.
        n = 3
        U = pool[:n]
        inst = {"R": chain(["~1", "~2", "~3"], "path"), "U": {(u,) for u in U}}
        base = {"schema": "R(a,b); U(u)", "db": O.db_text(inst, ["R", "U"]), "op": "conditional",
                "constraints": "ind R[1] <= U[1]", "ks": cond_ks}
        for neg in (False, True):
            # v1, v2 in U; Q fails iff v1 != v2 and v2 != v3.
            miss = lambda k, n=n: n * (n - 1) * (k - 1)
            num = (lambda k, f=miss: f(k)) if neg else (lambda k, f=miss, n=n: n * n * k - f(k))
            den = lambda k, n=n: n * n * k
            value = Fraction(n - 1, n)
            value = value if neg else 1 - value
            q = "Q() := !(exists x. R(x, x))" if neg else "Q() := exists x. R(x, x)"
            ops["ind"].append(Op("conditional", dict(base, query=q),
                                 lambda r, v=value, nu=num, de=den: check_conditional(r, v, False, nu, de)))

        # Functional dependency: the FD merges ~1 and ~2 (same key a).
        a, b = pool[3], pool[4]
        inst = {"R": {(a, "~1"), (a, "~2"), (b, "~3")}}
        base = {"schema": "R(a,b)", "db": O.db_text(inst, ["R"]), "op": "conditional",
                "constraints": "fd R : a -> b", "ks": cond_ks}
        for neg in (False, True):
            # Q holds iff v1 = a or v3 = b, over the k^2 choices of (v1, v3).
            num = (lambda k: (k - 1) ** 2) if neg else (lambda k: 2 * k - 1)
            q = "Q() := !(exists x. R(x, x))" if neg else "Q() := exists x. R(x, x)"
            ops["fd"].append(Op("conditional", dict(base, query=q),
                                lambda r, v=Fraction(int(neg)), nu=num: check_conditional(
                                    r, v, True, nu, lambda k: k * k)))

        self.warm = [op for kind in ops for op in ops[kind]]
        self.ops, self.rng = ops, rng

    def servers(self):
        return [("serve", "s0.sock", SERVE_FLAGS)]

    def target(self):
        return "s0.sock"

    def warmup(self):
        return self.warm

    def next_round(self, client=None):
        """Four shuffles of the 16 requests, two of them with the heavy
        request, in a fresh seeded order every round, so a run sees
        many pairings of neighbours (the two clients' requests overlap)."""
        used = {k: 0 for k in self.ops}
        out = []
        for s in range(SWEEP_SHUFFLES):
            kinds = SWEEP_ROUND + ["heavy"] * (s in HEAVY_SHUFFLES)
            self.rng.shuffle(kinds)
            for kind in kinds:
                out.append(self.ops[kind][used[kind] % len(self.ops[kind])])
                used[kind] += 1
        return out


# ---------------------------------------------------------------------------
# update-stream: writes beside reads, through the router
# ---------------------------------------------------------------------------

BIG_DOMAIN = ["1", "2", "3", "4"]
BIG_ARITY = 6
BIG_ROWS = 2500
UPDATE_KS = (6, 7)  # above the five constants 1..5
SESSIONS_PER_CLIENT = 4
PATTERN = "B(x, y, x, y, x, y)"  # the re-queries see B through its "pattern rows"
CORE_KEY = "5"
CORE = "C = { (5,~1), (5,~2) }"  # fd C : a -> b makes ~1 = ~2
CORE_NULLS = ["~1", "~2"]
PAIR_QUERY = "Q() := exists z y w. C(z, y) & C(z, w) & %sB(y, w, y, w, y, w)"


def compact_tuple(t):
    return "(" + ",".join(t) + ")"


def pattern_row(x, y):
    return (x, y) * (BIG_ARITY // 2)


@functools.lru_cache(maxsize=4096)
def certain_possible_pattern(P, neg):
    """Exact certain/possible answers of the update-stream certain
    queries, by enumeration over the core's nulls."""
    consts = BIG_DOMAIN + [CORE_KEY]

    def holds(v, a):
        return a in P and not (neg and a[1] in (v["~1"], v["~2"]))

    return O.certain_possible(itertools.product(consts + CORE_NULLS, repeat=2), CORE_NULLS, consts, holds)


def pair_count(P, neg, k):
    """|Supp^k| of PAIR_QUERY: (v1, v2) over a k-element domain holding
    the five constants, such that some (vi, vj) is (neg: is not) in P."""
    dom = BIG_DOMAIN + [CORE_KEY] + ["#%d" % i for i in range(k - len(BIG_DOMAIN) - 1)]
    return sum(1 for v1 in dom for v2 in dom
               if any(((a, b) in P) != neg for a in (v1, v2) for b in (v1, v2)))


PATTERNS = [pattern_row(x, y) for x in BIG_DOMAIN for y in BIG_DOMAIN]


class BigSession:
    """The benchmark's model of one update-stream session. Queries may
    not mention constants (the analyzer refuses them, ANL002), so they
    read B through its pattern rows (x, y, x, y, x, y); half of the
    updates touch a pattern row, so most re-queries see a change."""

    def __init__(self, rng):
        self.rng = rng
        # Exactly half of the 16 pattern rows start present, so every
        # seed starts from answers of the same size.
        rows = set(rng.sample(PATTERNS, len(PATTERNS) // 2))
        while len(rows) < BIG_ROWS:
            t = tuple(rng.choice(BIG_DOMAIN) for _ in range(BIG_ARITY))
            if t not in PATTERNS:
                rows.add(t)
        self.B = rows
        self.order = sorted(rows - set(PATTERNS))  # for O(1) seeded picks of a present row
        self.db = "B = { %s }; %s" % (",".join(compact_tuple(t) for t in sorted(rows)), CORE)
        self.schema = "B(a,b,c,d,e,f); C(a,b)"
        self.insert_next = True
        self.pattern_turn = False
        self.neg = {}
        self.last_generation = [0]

    def update(self):
        """Inserts and deletes alternate; an insert and the delete after it
        are both of pattern rows or both of other rows, so the number of
        pattern rows (and the re-queries' cost) stays put."""
        if self.insert_next:
            self.pattern_turn = self.rng.random() < 0.5
        if self.pattern_turn:
            t = self.rng.choice([p for p in PATTERNS if (p in self.B) != self.insert_next])
        elif self.insert_next:
            while True:
                t = tuple(self.rng.choice(BIG_DOMAIN) for _ in range(BIG_ARITY))
                if t not in self.B and t not in PATTERNS:
                    break
            self.order.append(t)
        else:
            i = self.rng.randrange(len(self.order))
            t = self.order[i]
            self.order[i] = self.order[-1]
            self.order.pop()
        action = "insert" if self.insert_next else "delete"
        (self.B.add if self.insert_next else self.B.remove)(t)
        self.insert_next = not self.insert_next
        card = len(self.B)
        fields = {"op": "update", "schema": self.schema, "db": self.db, "action": action,
                  "relation": "B", "tuple": compact_tuple(t)}
        gen = self.last_generation

        def check(r):
            if r.get("applied") != action or r.get("relation") != "B":
                return "applied %r to %r, sent %s to B" % (r.get("applied"), r.get("relation"), action)
            if r.get("cardinality") != card or r.get("nulls") != 2:
                return "cardinality/nulls %r/%r, model says %d/2" % (r.get("cardinality"), r.get("nulls"), card)
            if not r.get("generation", 0) > gen[0]:
                return "generation %r does not increase past %d" % (r.get("generation"), gen[0])
            gen[0] = r["generation"]
            return None

        return Op("update", fields, check, key=False)

    def requery(self, kind):
        P = frozenset((x, y) for x in BIG_DOMAIN for y in BIG_DOMAIN if pattern_row(x, y) in self.B)
        # Positive and negated forms alternate per kind, so every round
        # costs about the same.
        neg = self.neg[kind] = not self.neg.get(kind, False)
        base = {"schema": self.schema, "db": self.db}
        if kind == "certain":
            q = "Q(x, y) := %s%s" % (PATTERN, " & !(exists z. C(z, y))" if neg else "")
            return Op("certain", dict(base, op="certain", query=q),
                      lambda r: check_certain(r, set(P), *certain_possible_pattern(P, neg)), key=False)
        q = PAIR_QUERY % ("!" if neg else "")
        if kind == "measure":
            return Op("measure", dict(base, op="measure", query=q, ks=",".join(map(str, UPDATE_KS))),
                      lambda r: check_measure(r, 2, lambda k: pair_count(P, neg, k), neg), key=False)
        # The FD makes v1 = v2, leaving k valuations; (v, v) in P for the
        # d diagonal pattern pairs.
        d = sum(1 for x, y in P if x == y)
        num = (lambda k: k - d) if neg else (lambda k: d)
        return Op("conditional", dict(base, op="conditional", query=q, constraints="fd C : a -> b"),
                  lambda r: check_conditional(r, Fraction(int(neg)), True, num, lambda k: k), key=False)


class UpdateStream:
    name = "update-stream"
    shared = False

    def __init__(self, seed):
        rng = random.Random(seed)
        self.sessions = [[BigSession(random.Random(rng.randrange(1 << 30))) for _ in range(SESSIONS_PER_CLIENT)]
                         for _ in range(2)]
        self.turn = [0, 0]

    def servers(self):
        return [("serve", "s0.sock", SERVE_FLAGS), ("serve", "s1.sock", SERVE_FLAGS),
                ("router", "r.sock", ["--shard", "s0.sock", "--shard", "s1.sock", "--replicas", "2"])]

    def target(self):
        return "r.sock"

    def warmup(self):
        # Two reads per session: replicated reads alternate between the
        # shards, so each shard loads each session once.
        return [s.requery("certain") for per_client in self.sessions for s in per_client for _ in range(2)]

    def next_round(self, client):
        s = self.sessions[client][self.turn[client] % SESSIONS_PER_CLIENT]
        self.turn[client] += 1
        out = []
        # A shuffled order per round keeps the two clients out of step,
        # so their requests do not lock into one pattern of overlaps.
        kinds = ["certain", "measure", "conditional"]
        s.rng.shuffle(kinds)
        for kind in kinds:
            out.append(s.update())
            out.append(s.requery(kind))
        return out


WORKLOADS = {"serve-mix": ServeMix, "sweep-heavy": SweepHeavy, "update-stream": UpdateStream}
