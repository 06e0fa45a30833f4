"""Per-job correctness checks.  They run after the timed loop, never in it.

Every job must end with exit code 0 and every command with status "ok",
and the sha256 of its rendered report must equal the one in
``reference.json``.  On top of that, each workload checks what its answer
claims, by a route other than the one that produced it:

* noeth-dual: the colength equals the number of standard monomials of a
  Groebner basis of I, and every operator kills every generator at P
  (evaluated here from the generators' shifted exponent tuples).
* gb-build: every input generator has normal form zero and every basis is
  reduced, both decided by the exponent-tuple code in this file; the
  intersection lies in both ideals and contains their product; the
  saturation contains I.
* chain-membership: every verdict holds, every strict-inclusion witness
  really separates, and the powers of a rational point's maximal ideal
  equal m^n.
* tower-univariate: the solution-set power equals the closed form
  m^ceil(n/e), with e = p for x^p - g(t) and e = 1 for separable m.

A check returns a list of problems; an empty list means the job passed.
"""

import hashlib
import json
from fractions import Fraction
from math import factorial

from noethops import Ideal, ideal_equal, ideal_power
from noethops.cli import parse_script


def report_sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def script_key(text):
    """Key of a script in reference.json."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_problems(text, report_text, reference):
    """Compare the report's hash with the reference hash of the script."""
    want = reference.get(script_key(text))
    if want is None:
        return ["no reference hash for this script"]
    if report_sha256(report_text) != want:
        return ["report sha256 differs from the reference"]
    return []


# -- exponent-tuple polynomials over QQ (p = 0) or GF(p) -----------------------


def coeff(text, p):
    c = Fraction(text)
    return c if p == 0 else c.numerator * pow(c.denominator, -1, p) % p


def grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def parse_poly(text, names, p):
    """Parse the engine's printed form of a polynomial over QQ or GF(p):
    terms joined by ' + ' / ' - ', each [coefficient*]x^a*y^b... ."""
    index = {n: i for i, n in enumerate(names)}
    poly = {}
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = text.replace(" - ", " + -").split(" + ")
    for k, piece in enumerate(pieces):
        s = sign if k == 0 else 1
        if piece.startswith("-"):
            s, piece = -s, piece[1:]
        c = Fraction(s)
        exps = [0] * len(names)
        for factor in piece.split("*"):
            if factor[0].isdigit():
                c *= Fraction(factor)
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e) if e else 1
        m = tuple(exps)
        c = coeff(str(c), p) + poly.get(m, 0)
        if p:
            c %= p
        if c:
            poly[m] = c
        else:
            poly.pop(m, None)
    return poly


def _inv(c, p):
    return 1 / c if p == 0 else pow(c, -1, p)


def leading(poly):
    return max(poly, key=grevlex)


def normal_form(f, basis, p):
    """Remainder of f on division by `basis` (grevlex)."""
    work = dict(f)
    rem = {}
    lead = [(leading(g), g) for g in basis]
    while work:
        m = max(work, key=grevlex)
        c = work.pop(m)
        for lt, g in lead:
            if all(a >= b for a, b in zip(m, lt)):
                q = c * _inv(g[lt], p)
                shift = tuple(a - b for a, b in zip(m, lt))
                for gm, gc in g.items():
                    if gm == lt:
                        continue
                    t = tuple(a + b for a, b in zip(gm, shift))
                    v = work.get(t, 0) - q * gc
                    if p:
                        v %= p
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            rem[m] = c
    return rem


def mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if p:
                v %= p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def reduced_problems(basis, p):
    """A reduced basis: monic, and no term of an element is divisible by
    the leading monomial of another element."""
    problems = []
    lts = [leading(g) for g in basis]
    for i, g in enumerate(basis):
        if g[lts[i]] != 1:
            problems.append(f"basis element {i} is not monic")
        for j, lt in enumerate(lts):
            if i != j and any(all(a >= b for a, b in zip(m, lt)) for m in g):
                problems.append(f"basis element {i} has a term divisible by lt({j})")
    return problems


# -- per-workload checks --------------------------------------------------------


def check_noeth_dual(job, report):
    data = job.data
    p = data["p"]
    problems = []
    script = parse_script(job.text)
    ideal = script.objects["I"][1]
    (entry,) = report["commands"]
    standard = ideal.standard_monomials()
    if standard is None or len(standard) != entry["colength"]:
        problems.append(f"colength {entry['colength']} != standard monomials "
                        f"{None if standard is None else len(standard)}")
    if len(entry["operators"]) != entry["colength"]:
        problems.append("operator count differs from the colength")
    point = [coeff(str(a), p) for a in data["point"]]
    for k, op in enumerate(entry["operators"]):
        for i, g in enumerate(data["shifted_gens"]):
            # (c x^alpha d^beta g)(P) = c * P^alpha * beta! * [y^beta] g(P + y)
            total = 0
            for term in op:
                beta = tuple(term["dexp"])
                if beta not in g:
                    continue
                v = coeff(term["coeff"], p) * coeff(str(g[beta]), p)
                for a, e in zip(point, term["xexp"]):
                    v *= a**e
                for e in beta:
                    v *= factorial(e)
                total += v
            if (total % p if p else total) != 0:
                problems.append(f"operator {k} does not kill generator {i} at P")
    return problems


def check_gb_build(job, report):
    data = job.data
    p, names = data["p"], data["vars"]
    problems = []
    bases = {}
    for entry in report["commands"]:
        kind = entry["command"]
        if kind == "gb":
            basis = [parse_poly(s, names, p) for s in entry["basis"]]
            bases[entry["ideal"]] = basis
            problems += reduced_problems(basis, p)
            for i, f in enumerate(data[entry["ideal"]]):
                if normal_form(f, basis, p):
                    problems.append(f"generator {i} of {entry['ideal']} has nonzero normal form")
        elif kind == "sat":
            result = [parse_poly(s, names, p) for s in entry["result"]]
            problems += reduced_problems(result, p)
            if any(normal_form(f, result, p) for f in data["I"]):
                problems.append("saturation does not contain I")
        elif kind == "intersect":
            result = [parse_poly(s, names, p) for s in entry["result"]]
            problems += reduced_problems(result, p)
            for name in ("I", "J"):
                if any(normal_form(f, bases[name], p) for f in result):
                    problems.append(f"intersection is not inside {name}")
            for f in data["I"]:
                for g in data["J"]:
                    if normal_form(mul(f, g, p), result, p):
                        problems.append("intersection does not contain I*J")
    return problems


def _ideal(ring, gens):
    return Ideal(ring, [ring.parse(s) for s in gens])


def witness_problems(entry, ring):
    """Every strict-inclusion verdict's witness lies in the bigger ideal
    and outside the smaller one."""
    problems = []
    for v in entry["verdicts"]:
        if v["relation"] != "strict-subset":
            continue
        if "witness" not in v:
            problems.append(f"strict inclusion {v['lhs']} < {v['rhs']} has no witness")
            continue
        w = ring.parse(v["witness"])
        small = _ideal(ring, entry[v["lhs"]])
        big = _ideal(ring, entry[v["rhs"]])
        if not big.contains(w) or small.contains(w):
            problems.append(f"witness {v['witness']} does not separate {v['lhs']} < {v['rhs']}")
    return problems


def check_chain_membership(job, report):
    script = parse_script(job.text)
    ring = script.ring
    problems = []
    prime = next(obj for kind, obj in script.objects.values() if kind == "prime")
    for entry in report["commands"]:
        kind = entry["command"]
        n = entry["n"]
        power = ideal_power(prime.ideal, n)
        if kind == "check-zn":
            problems += [f"verdict {v['lhs']} {v['relation']} {v['rhs']} fails"
                         for v in entry["verdicts"] if not v["holds"]]
            problems += witness_problems(entry, ring)
            results = [entry["symbolic"]] + ([entry["new_diff"]] if entry["new_diff"] else [])
        else:
            results = [entry["result"]]
        for result in results:
            got = _ideal(ring, result)
            if job.data["prime"] == "point":
                # Zariski-Nagata at a smooth point in characteristic 0:
                # every one of the three powers equals m^n.
                if not ideal_equal(got, power):
                    problems.append(f"{kind} result differs from m^{n}")
            elif not all(got.contains(g) for g in power.generators) or not all(
                prime.ideal.contains(g) for g in got.generators
            ):
                problems.append(f"{kind} result is not between p^{n} and p")
    return problems


def check_tower_univariate(job, report):
    script = parse_script(job.text)
    ring = script.ring
    m = script.objects["q"][1].minpoly
    e = job.data["e"]
    problems = []
    for entry in report["commands"]:
        n = entry["n"]
        closed = [str(m ** (-(-n // e)))]
        if entry["command"] == "diffpow":
            if entry["result"] != closed:
                problems.append(f"diffpow {entry['result']} != m^ceil(n/e) {closed}")
        else:
            if entry["new_diff"] != closed:
                problems.append(f"new_diff {entry['new_diff']} != m^ceil(n/e) {closed}")
            if entry["symbolic"] != [str(m**n)]:
                problems.append("symbolic power differs from m^n")
            problems += [f"verdict {v['lhs']} {v['relation']} {v['rhs']} fails"
                         for v in entry["verdicts"] if not v["holds"]]
            problems += witness_problems(entry, ring)
    return problems


CHECKS = {
    "noeth-dual": check_noeth_dual,
    "gb-build": check_gb_build,
    "chain-membership": check_chain_membership,
    "tower-univariate": check_tower_univariate,
}


def job_problems(job, report_text, reference):
    """All problems of one finished job: exit status, reference hash (unless
    `reference` is None) and the workload's own check."""
    report = json.loads(report_text)
    problems = []
    if report["status"]["exit_code"] != 0:
        problems.append(f"exit code {report['status']['exit_code']}")
    problems += [f"{e['command']}: status {e['status']}" for e in report["commands"]
                 if e["status"] != "ok"]
    if reference is not None:
        problems += reference_problems(job.text, report_text, reference)
    if not problems:
        problems += CHECKS[job.workload](job, report)
    return problems
