"""Seeded generators of noethops batch scripts, one generator per workload.

A workload is a list of *shapes*.  A shape fixes everything that sets the
cost of a job: the command, the number of variables, the exponents, the
field and whether the point is the origin.  Each shape has a catalogue of
VARIANTS scripts that differ only in what leaves the cost about the same:
coefficients, point coordinates, variable scalings.  Variant ``v`` of
shape ``s`` is drawn from ``random.Random("<workload>/<s>/<v>")``, so the
catalogue is the same on every machine, and ``reference.json`` can hold
the sha256 of every report it can produce.

A run is a sequence of rounds.  Each round runs every entry of
``shapes`` once (a shape listed twice runs twice), in an order and with
variants drawn from ``random.Random(seed)``.  The seed therefore chooses
the inputs, while each round holds the same mix of costs, which keeps the
figures of two seeds comparable.  Two rules keep the quantiles steady:

* a round has an odd number of entries, so the median job falls inside
  one shape's block of samples rather than on the gap between two shapes;
* the costliest shape gives at least 11 samples in a run, so the job
  latency with 10 samples beyond it falls inside that shape's block.

Each job carries ``data``: facts about its input that its checks need,
such as the generators in exponent-tuple form.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 8
FP = 32003


@dataclass(frozen=True)
class Job:
    workload: str
    shape: str
    variant: int
    text: str
    data: dict = field(compare=False, hash=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: str
    shapes: tuple  # ((shape name, make(rng) -> (text, data)), ...), repeats allowed
    warmup: str  # small fixed script run once during set-up

    def catalogue(self):
        """{shape: [Job, ...]} with VARIANTS jobs per shape."""
        out = {}
        for shape, make in dict(self.shapes).items():
            jobs = []
            for v in range(VARIANTS):
                text, data = make(random.Random(f"{self.name}/{shape}/{v}"))
                jobs.append(Job(self.name, shape, v, text, data))
            out[shape] = jobs
        return out

    def rounds(self, seed):
        """Endless iterator of rounds; each round is one job per entry of
        `shapes`."""
        cat = self.catalogue()
        rng = random.Random(seed)
        names = [s for s, _ in self.shapes]
        while True:
            order = names[:]
            rng.shuffle(order)
            yield [cat[s][rng.randrange(VARIANTS)] for s in order]


# -- shared helpers -----------------------------------------------------------


def _fmt(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _nonzero(rng, lo, hi):
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


def _power(base, e):
    if e == 0:
        return "1"
    return base if e == 1 else f"{base}^{e}"


def _monomial_text(names, exps):
    parts = [_power(n, e) for n, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"


def _term_text(coeff, mono):
    if mono == "1":
        return f"({_fmt(coeff)})"
    return mono if coeff == 1 else f"({_fmt(coeff)})*{mono}"


def _poly_text(poly, names):
    """{exponent tuple: coefficient} -> script text."""
    return " + ".join(_term_text(c, _monomial_text(names, m)) for m, c in poly.items() if c)


def _field_text(p):
    return "QQ" if p == 0 else f"Fp({p})"


# -- noeth-dual -----------------------------------------------------------------

_VARS = ("x", "y", "z", "w")

# Rational point coordinates for the QQ shapes; small integers mod FP for
# the Fp shapes.  Zero is left out so that a "point" shape never lands on
# the origin.
_QQ_COORDS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
              Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3))


def _noeth_shape(exps, binomials, p, at_origin):
    """m-primary ideal at P: (x_i - a_i)^k_i for every variable, plus
    binomials c1*y^alpha - c2*y^beta in the shifted coordinates y = x - P,
    so every generator vanishes at P by construction."""
    n = len(exps)
    names = _VARS[:n]

    def make(rng):
        if at_origin:
            point = [Fraction(0)] * n
        elif p == 0:
            point = [rng.choice(_QQ_COORDS) for _ in range(n)]
        else:
            point = [Fraction(_nonzero(rng, -9, 9)) for _ in range(n)]
        shifted = [
            n_ if a == 0 else f"({n_} - {_fmt(a)})" if a > 0 else f"({n_} + {_fmt(-a)})"
            for n_, a in zip(names, point)
        ]
        gens = []
        for i, k in enumerate(exps):
            e = [0] * n
            e[i] = k
            gens.append({tuple(e): 1})
        for alpha, beta in binomials:
            if p == 0:
                c1, c2 = _nonzero(rng, -5, 5), _nonzero(rng, -5, 5)
            else:
                c1, c2 = 1, _nonzero(rng, 1, p - 1)
            gens.append({tuple(alpha): c1, tuple(beta): -c2})
        text = (
            f"field {_field_text(p)};\n"
            f"ring [{', '.join(names)}];\n"
            f"ideal I = {', '.join(_poly_text(g, shifted) for g in gens)};\n"
            f"point P = ({', '.join(_fmt(a) for a in point)});\n"
            "noeth I at P;\n"
        )
        return text, {"p": p, "point": point, "shifted_gens": gens}

    return make


NOETH_DUAL = Workload(
    name="noeth-dual",
    why=(
        "Noetherian operators of m-primary ideals: linalg (dense rref on the "
        "Macaulay matrix) and dualspace do almost all the work, groebner only "
        "builds the staircase."
    ),
    sizes=(
        "2-4 variables; pure powers k_i = 2..9 plus 1-2 binomials; points at the "
        "origin and at small nonzero rationals; QQ and Fp(32003); colength 6-57; "
        "Macaulay matrices up to 165 columns; about 3-130 ms a job at nominal speed."
    ),
    shapes=(
        ("2v-k34-qq-origin", _noeth_shape((3, 4), [((1, 1), (2, 0))], 0, True)),
        ("2v-k56-fp-point", _noeth_shape((5, 6), [((2, 1), (0, 3))], FP, False)),
        ("2v-k88-qq-point", _noeth_shape((8, 8), [((3, 1), (0, 4))], 0, False)),
        ("2v-k99-fp-origin", _noeth_shape((9, 9), [((5, 3), (1, 6))], FP, True)),
        ("3v-k334-fp-point", _noeth_shape((3, 3, 4), [((1, 1, 0), (0, 0, 2))], FP, False)),
        ("3v-k444-qq-point", _noeth_shape((4, 4, 4), [((1, 1, 0), (0, 0, 2))], 0, False)),
        ("3v-k345-fp-origin", _noeth_shape(
            (3, 4, 5), [((1, 1, 0), (0, 0, 2)), ((1, 0, 1), (0, 2, 0))], FP, True)),
        ("3v-k455-qq-origin", _noeth_shape((4, 5, 5), [((1, 1, 0), (0, 0, 3))], 0, True)),
        ("4v-k2233-qq-origin", _noeth_shape((2, 2, 3, 3), [((1, 1, 0, 0), (0, 0, 1, 1))], 0, True)),
        ("4v-k2333-fp-point", _noeth_shape((2, 3, 3, 3), [((1, 1, 0, 0), (0, 0, 1, 1))], FP, False)),
        ("4v-k3333-qq-origin", _noeth_shape(
            (3, 3, 3, 3), [((1, 1, 0, 0), (0, 0, 2, 0)), ((0, 0, 1, 1), (0, 2, 0, 0))], 0, True)),
    ),
    warmup="field QQ; ring [x, y]; ideal I = x^2, y^2, x*y; noeth I at (0, 0);",
)


# -- gb-build -------------------------------------------------------------------


def _cyclic(n):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and x0*...*x_{n-1} - 1."""
    polys = []
    for d in range(1, n):
        poly = {}
        for i in range(n):
            e = [0] * n
            for j in range(d):
                e[(i + j) % n] += 1
            poly[tuple(e)] = poly.get(tuple(e), 0) + 1
        polys.append(poly)
    polys.append({(1,) * n: 1, (0,) * n: -1})
    return [f"x{i}" for i in range(n)], polys


def _katsura(n):
    """Katsura-n in u0..un: sum_l u_|l| u_|m-l| = u_m for m < n, and
    u0 + 2*(u1 + ... + un) = 1."""
    nv = n + 1
    polys = []
    for m in range(n):
        poly = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b > n:
                continue
            e = [0] * nv
            e[a] += 1
            e[b] += 1
            poly[tuple(e)] = poly.get(tuple(e), 0) + 1
        e = [0] * nv
        e[m] = 1
        poly[tuple(e)] = poly.get(tuple(e), 0) - 1
        polys.append(poly)
    lin = {(0,) * nv: -1}
    for i in range(nv):
        e = [0] * nv
        e[i] = 1
        lin[tuple(e)] = 1 if i == 0 else 2
    polys.append(lin)
    return [f"u{i}" for i in range(nv)], polys


def _scale_vars(polys, scales, p):
    """Substitute x_i -> s_i * x_i: the same system up to a diagonal change
    of coordinates, so the Groebner computation has the same shape."""
    out = []
    for poly in polys:
        new = {}
        for m, c in poly.items():
            for s, e in zip(scales, m):
                c *= s**e
            new[m] = c % p if p else c
        out.append(new)
    return out


def _named_system_shape(system, p):
    names, base = system

    def make(rng):
        if p == 0:
            scales = [rng.choice((1, -1)) for _ in names]
        else:
            scales = [_nonzero(rng, 1, p - 1) for _ in names]
        polys = _scale_vars(base, scales, p)
        text = (
            f"field {_field_text(p)};\nring [{', '.join(names)}];\n"
            f"ideal I = {', '.join(_poly_text(f, names) for f in polys)};\ngb I;\n"
        )
        return text, {"p": p, "vars": names, "I": polys, "J": None}

    return make


def _dense(rng, nvars, degree, p):
    """Dense polynomial with every monomial of degree <= `degree`."""
    poly = {}
    for d in range(degree, -1, -1):
        for m in sorted(_monomials(nvars, d), reverse=True):
            poly[m] = _nonzero(rng, -9, 9) % p if p else _nonzero(rng, -9, 9)
    return poly


def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree + 1) for rest in _monomials(nvars - 1, degree - e)]


def _quadrics_shape(nvars, p, extra=None):
    """nvars dense quadrics in nvars variables (zero-dimensional, 2^nvars
    points).  extra="sat" saturates by a dense linear form; extra="intersect"
    intersects with a second ideal: two dense quadrics and a dense linear form."""
    names = _VARS[:nvars]

    def make(rng):
        I = [_dense(rng, nvars, 2, p) for _ in range(nvars)]
        lines = [
            f"field {_field_text(p)};",
            f"ring [{', '.join(names)}];",
            f"ideal I = {', '.join(_poly_text(f, names) for f in I)};",
            "gb I;",
        ]
        J = None
        if extra == "sat":
            sat = _dense(rng, nvars, 1, p)
            lines.append(f"sat I, {_poly_text(sat, names)};")
        elif extra == "intersect":
            J = [_dense(rng, nvars, 2, p) for _ in range(nvars - 1)]
            J.append(_dense(rng, nvars, 1, p))
            lines += [
                f"ideal J = {', '.join(_poly_text(f, names) for f in J)};",
                "gb J;",
                "intersect I, J;",
            ]
        return "\n".join(lines) + "\n", {"p": p, "vars": names, "I": I, "J": J}

    return make


GB_BUILD = Workload(
    name="gb-build",
    why=(
        "Groebner bases from scratch (pairs, reduction, elimination orders for "
        "sat and intersect) with no linalg or dualspace, so changes to those "
        "layers should leave it unchanged."
    ),
    sizes=(
        "cyclic-5 and katsura-4 over QQ and Fp(32003), katsura-3 over QQ, n dense "
        "quadrics in n = 3-4 variables, sat by a dense linear form, intersect with "
        "two quadrics and a linear form; grevlex; about 5-160 ms a job at nominal "
        "speed.  Kept out: katsura-5 (0.42 s a job over Fp(32003) at nominal "
        "speed; 11 of them beyond the tail of a 20-s run would take 3 a round and "
        "70% of the time), lex orders (lex katsura-4 ran >10 min), sat or "
        "intersect on dense cubics (>8 min over QQ)."
    ),
    shapes=(
        ("cyclic5-fp", _named_system_shape(_cyclic(5), FP)),
        ("cyclic5-qq", _named_system_shape(_cyclic(5), 0)),
        ("cyclic5-qq", _named_system_shape(_cyclic(5), 0)),
        ("katsura4-fp", _named_system_shape(_katsura(4), FP)),
        ("katsura4-qq", _named_system_shape(_katsura(4), 0)),
        ("katsura3-qq", _named_system_shape(_katsura(3), 0)),
        ("quad3-fp", _quadrics_shape(3, FP)),
        ("quad3-qq", _quadrics_shape(3, 0)),
        ("quad4-fp", _quadrics_shape(4, FP)),
        ("quad4-qq", _quadrics_shape(4, 0)),
        ("quad3-sat-fp", _quadrics_shape(3, FP, "sat")),
        ("quad3-sat-qq", _quadrics_shape(3, 0, "sat")),
        ("quad3-intersect-fp", _quadrics_shape(3, FP, "intersect")),
    ),
    warmup=(
        "field QQ; ring [x, y, z]; ideal I = x + y + z, x*y + y*z + z*x, x*y*z - 1; "
        "ideal J = x - 1, y*z; gb I; sat I, x; intersect I, J;"
    ),
)


# -- chain-membership -------------------------------------------------------------


def _point_prime_lines(rng, n, at_origin):
    names = _VARS[:n]
    point = [Fraction(0)] * n if at_origin else [rng.choice(_QQ_COORDS) for _ in range(n)]
    gens = []
    for i, a in enumerate(point):
        # A unit multiple of x_i - a_i: the same prime, written another way.
        s = rng.choice((1, -1, 2, -3))
        e = [0] * n
        e[i] = 1
        gens.append(_poly_text({tuple(e): s, (0,) * n: -s * a}, names))
    return [
        "field QQ;",
        f"ring [{', '.join(names)}];",
        f"point P = ({', '.join(_fmt(a) for a in point)});",
        f"prime m = {', '.join(gens)} : point P;",
    ]


def _chain_point_shape(n, at_origin, commands):
    """A rational-point maximal ideal and `commands` (text templates on m)."""

    def make(rng):
        lines = _point_prime_lines(rng, n, at_origin) + commands
        return "\n".join(lines) + "\n", {"prime": "point"}

    return make


def _twisted_cubic_shape(commands):
    """The twisted cubic after a diagonal scaling of (x, y, z, w); it stays
    prime, and x stays outside it and a witness for its symbolic powers."""

    def make(rng):
        s = [rng.choice((1, -1, 2, -2, 3)) for _ in range(4)]
        x, y, z, w = (f"({_fmt(c)}*{v})" if c != 1 else v for c, v in zip(s, "xyzw"))
        lines = [
            "field QQ;",
            "ring [x, y, z, w];",
            f"prime c = {x}*{z} - {y}^2, {y}*{w} - {z}^2, {x}*{w} - {y}*{z} : witness x;",
        ] + commands
        return "\n".join(lines) + "\n", {"prime": "cubic"}

    return make


CHAIN_MEMBERSHIP = Workload(
    name="chain-membership",
    why=(
        "Containment chain of symbolic, solution-set and classical differential "
        "powers: the read path of groebner (normal_form, contains) plus powers "
        "membership logic, small saturations and small linalg."
    ),
    sizes=(
        "maximal ideals of rational points in 2-3 variables (origin and nonzero "
        "points) and the twisted cubic with witness x, over QQ; check-zn with "
        "n = 2-3 and bound 4-6, sympow n = 2-4, diffpow --classical n = 3-4, "
        "diffpow --new n = 3-4; about 2-50 ms a job at nominal speed."
    ),
    shapes=(
        ("2v-point-chk2-b4", _chain_point_shape(2, False, ["check-zn m 2 bound 4;"])),
        ("2v-point-chk3-b6", _chain_point_shape(2, False, ["check-zn m 3 bound 6;"])),
        ("2v-origin-chk3-b6", _chain_point_shape(2, True, ["check-zn m 3 bound 6;"])),
        ("3v-point-chk2-b4", _chain_point_shape(3, False, ["check-zn m 2 bound 4;"])),
        ("3v-point-chk3-b5", _chain_point_shape(3, False, ["check-zn m 3 bound 5;"])),
        ("3v-origin-chk3-b5", _chain_point_shape(3, True, ["check-zn m 3 bound 5;"])),
        ("2v-origin-classical4", _chain_point_shape(
            2, True, ["sympow m 4;", "diffpow --classical m 4 bound 5;"])),
        ("3v-origin-classical3", _chain_point_shape(
            3, True, ["sympow m 3;", "diffpow --classical m 3 bound 4;"])),
        ("2v-point-sympow-new4", _chain_point_shape(
            2, False, ["sympow m 4;", "diffpow --new m 4;"])),
        ("3v-point-sympow-new3", _chain_point_shape(
            3, False, ["sympow m 3;", "diffpow --new m 3;"])),
        ("cubic-chk2-b5", _twisted_cubic_shape(["check-zn c 2 bound 5;"])),
        ("cubic-chk3-b5", _twisted_cubic_shape(["check-zn c 3 bound 5;"])),
        ("cubic-sympow2", _twisted_cubic_shape(["sympow c 2;"])),
    ),
    warmup=(
        "field QQ; ring [x, y]; prime m = x, y : point (0, 0); check-zn m 2 bound 3; "
        "sympow m 2; diffpow --classical m 2 bound 3;"
    ),
)


# -- tower-univariate -----------------------------------------------------------


def _inseparable_shape(p, n_range, command):
    """x^p - (a*t + b) over Fp(p)(t): irreducible and inseparable, with one
    root of multiplicity e = p in the splitting field."""

    def make(rng):
        a, b = rng.randrange(1, p), rng.randrange(p)
        n = rng.randint(*n_range)
        g = f"{a}*t" if b == 0 else f"{a}*t + {b}"
        cmd = f"diffpow --new q {n};" if command == "diffpow" else f"check-zn q {n};"
        text = (
            f"field Fp({p})(t);\nring [x];\n"
            f"prime q = x^{p} - ({g}) : univariate;\n{cmd}\n"
        )
        return text, {"e": p}

    return make


# Monic irreducible polynomials over QQ (by the rational root test or
# Eisenstein), all separable.
_QQ_IRREDUCIBLE = {
    2: ("x^2 - 2", "x^2 + 1", "x^2 - 3", "x^2 + x + 1", "x^2 - 5", "x^2 + 2",
        "x^2 - x - 1", "x^2 + 3"),
    3: ("x^3 - 2", "x^3 - x - 1", "x^3 - 3", "x^3 + x + 1", "x^3 - 5", "x^3 - 2*x - 2",
        "x^3 + 2", "x^3 - 3*x - 3"),
}


def _separable_shape(degree, n, command):
    def make(rng):
        m = rng.choice(_QQ_IRREDUCIBLE[degree])
        cmd = f"diffpow --new q {n};" if command == "diffpow" else f"check-zn q {n};"
        text = f"field QQ;\nring [x];\nprime q = {m} : univariate;\n{cmd}\n"
        return text, {"e": 1}

    return make


TOWER_UNIVARIATE = Workload(
    name="tower-univariate",
    why=(
        "Solution-set powers of univariate primes: time sits in fields tower "
        "arithmetic (RatFunc gcd, UniPoly divmod) under diff_power_new_univariate; "
        "kept apart because it swamps any mix it joins."
    ),
    sizes=(
        "x^p - (a*t + b) over Fp(p)(t) for p in {2, 3, 5, 7, 11}, with diffpow "
        "n = 2..2p for p <= 7 and n <= 11 for p = 11, and check-zn 2; separable "
        "quadrics and cubics over QQ with diffpow n = 4-5 and check-zn 2; about "
        "2-85 ms a job at nominal speed.  Kept out: p = 11 with n > 11 (0.25 s a "
        "job, a third of a round)."
    ),
    shapes=(
        ("p2-diffpow-n3-4", _inseparable_shape(2, (3, 4), "diffpow")),
        ("p3-diffpow-n4-6", _inseparable_shape(3, (4, 6), "diffpow")),
        ("p5-diffpow-n2-5", _inseparable_shape(5, (2, 5), "diffpow")),
        ("p5-diffpow-n6-10", _inseparable_shape(5, (6, 10), "diffpow")),
        ("p7-diffpow-n8-14", _inseparable_shape(7, (8, 14), "diffpow")),
        ("p11-diffpow-n2-11", _inseparable_shape(11, (2, 11), "diffpow")),
        ("p3-check2", _inseparable_shape(3, (2, 2), "check")),
        ("p7-check2", _inseparable_shape(7, (2, 2), "check")),
        ("p11-check2", _inseparable_shape(11, (2, 2), "check")),
        ("qq-quadratic-diffpow4", _separable_shape(2, 4, "diffpow")),
        ("qq-cubic-diffpow5", _separable_shape(3, 5, "diffpow")),
        ("qq-quadratic-check2", _separable_shape(2, 2, "check")),
        ("qq-cubic-check2", _separable_shape(3, 2, "check")),
    ),
    warmup=(
        "field Fp(2)(t); ring [x]; prime q = x^2 - t : univariate; diffpow --new q 3; "
        "check-zn q 2;"
    ),
)


WORKLOADS = {w.name: w for w in (NOETH_DUAL, GB_BUILD, CHAIN_MEMBERSHIP, TOWER_UNIVARIATE)}
