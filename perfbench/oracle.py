"""Expected answers computed apart from the program.

Everything here works on plain Python values: a constant is its name
(a string such as "m3" or "4"), a null is "~<n>", an instance is a dict
from relation name to a set of tuples. Counting is exact (ints and
Fractions). Nothing is compared against a recorded copy of the
program's output; the figures come from brute-force enumeration, from
closed forms the workload generators derive, or from properties the
paper proves (Theorem 1: mu = 1 iff the tuple is a naive answer;
Theorem 3: the conditional value is a ratio of leading coefficients;
Theorem 5: under FDs the conditional value is the measure on the
chase).
"""

import itertools
from fractions import Fraction


def is_null(v):
    return v.startswith("~")


# ---------------------------------------------------------------------------
# Rendering requests
# ---------------------------------------------------------------------------


def value_text(v):
    return v if is_null(v) else "'%s'" % v


def tuple_text(t):
    return "(" + ", ".join(value_text(v) for v in t) + ")"


def db_text(inst, order):
    """Database literal, relations in [order], tuples sorted."""
    return "; ".join(
        "%s = { %s }" % (r, ", ".join(tuple_text(t) for t in sorted(inst.get(r, ()))))
        for r in order
    )


# ---------------------------------------------------------------------------
# Parsing responses
# ---------------------------------------------------------------------------


def parse_poly(s):
    """Coefficients {degree: Fraction} of a support polynomial as the
    program prints it: "3*k^3 - 3*k^2 + k", "1/2*k - 4", "0"."""
    s = s.strip()
    coeffs = {}
    if s == "0":
        return coeffs
    sign = 1
    if s.startswith("-"):
        sign, s = -1, s[1:]
    pieces = []
    for tok in s.replace(" - ", " -").replace(" + ", " +").split(" "):
        if tok.startswith("-"):
            pieces.append((-1, tok[1:]))
        elif tok.startswith("+"):
            pieces.append((1, tok[1:]))
        else:
            pieces.append((sign, tok))
    for sg, term in pieces:
        if "k" in term:
            coef, _, power = term.partition("k")
            coef = Fraction(coef[:-1]) if coef else Fraction(1)
            deg = int(power[1:]) if power.startswith("^") else 1
        else:
            coef, deg = Fraction(term), 0
        coeffs[deg] = coeffs.get(deg, 0) + sg * coef
    return coeffs


def poly_eval(coeffs, k):
    return sum(c * k ** d for d, c in coeffs.items())


def lead(coeffs):
    return coeffs[max(coeffs)] if coeffs else Fraction(0)


def parse_series(s):
    out = {}
    for part in s.split(";"):
        if part:
            k, _, v = part.partition("=")
            out[int(k)] = Fraction(v)
    return out


def parse_rel(s):
    """A relation as the wire renders it: "(a, _|_1); (b, c)"."""
    if not s:
        return set()
    out = set()
    for t in s.split("; "):
        body = t[1:-1]
        vals = [] if body == "" else body.split(", ")
        out.add(tuple("~" + v[3:] if v.startswith("_|_") else v for v in vals))
    return out


# ---------------------------------------------------------------------------
# Instances and valuations
# ---------------------------------------------------------------------------


def nulls_of(inst, extra=()):
    ns = {v for rel in inst.values() for t in rel for v in t if is_null(v)}
    ns.update(v for v in extra if is_null(v))
    return sorted(ns, key=lambda n: int(n[1:]))


def consts_of(inst, extra=()):
    cs = {v for rel in inst.values() for t in rel for v in t if not is_null(v)}
    cs.update(v for v in extra if not is_null(v))
    return sorted(cs)


def apply(inst, v):
    return {r: {tuple(v.get(x, x) for x in t) for t in rel} for r, rel in inst.items()}


def valuations(nulls, consts, k):
    """Every valuation of [nulls] into a k-element domain holding the
    request's constants plus k - |consts| fresh values — the domain
    {c_1..c_k} of the paper with the request's constants among the
    first ones (Theorem 3's setting, k >= |consts|)."""
    domain = list(consts) + ["#%d" % i for i in range(k - len(consts))]
    for image in itertools.product(domain, repeat=len(nulls)):
        yield dict(zip(nulls, image))


def support_count(inst, answer, holds, consts, k):
    """|Supp^k|: valuations v with v(answer) in Q(v(D)), by enumeration."""
    nulls = nulls_of(inst, answer)
    n = 0
    for v in valuations(nulls, consts, k):
        if holds(apply(inst, v), tuple(v.get(x, x) for x in answer)):
            n += 1
    return n


def fd_chase(inst, rel):
    """Chase of [inst] with the FD rel: first column -> second column.
    Returns the chased instance, or None when the chase fails (two
    distinct constants forced equal)."""
    inst = {r: set(ts) for r, ts in inst.items()}
    while True:
        by_key = {}
        merge = None
        for t in sorted(inst[rel]):
            other = by_key.setdefault(t[0], t[1])
            if other != t[1]:
                merge = (other, t[1])
                break
        if merge is None:
            return inst
        a, b = merge
        if not is_null(a) and not is_null(b):
            return None
        old, new = (b, a) if is_null(b) and (not is_null(a) or int(a[1:]) < int(b[1:])) else (a, b)
        inst = {r: {tuple(new if x == old else x for x in t) for t in ts} for r, ts in inst.items()}


def certain_possible(candidates, nulls, consts, holds):
    """Certain and possible answers by enumeration: [holds(v, answer)]
    over every valuation of [nulls] into the constants plus one fresh
    value per null, which realises every equality type (genericity)."""
    domain = list(consts) + ["#%d" % i for i in range(len(nulls))]
    vals = list(valuations(nulls, domain, len(domain)))
    certain, possible = set(), set()
    for a in candidates:
        verdicts = [holds(v, tuple(v.get(x, x) for x in a)) for v in vals]
        if all(verdicts):
            certain.add(a)
        if any(verdicts):
            possible.add(a)
    return certain, possible
