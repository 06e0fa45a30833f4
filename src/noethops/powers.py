"""Symbolic powers and the two notions of differential powers, with a
checker for the containment chain between them.

Three kinds of prime are supported, matching what can be computed
exactly at desk scale:

* ``rational-point``: the maximal ideal of a point of affine space;
  symbolic powers are ordinary powers, and so is the solution-set power
  (J + m^n with J = 0).  The (x - a)^beta spanning m^n, expanded in
  closed form, are its reduced basis, as is monic m^j for a univariate
  prime, a product of raw coefficient lists: neither runs Buchberger.  A
  prime keeps the powers it builds.
* ``univariate-algebraic``: p = (m(x)) in K[x] with m monic and
  caller-certified irreducible; the solution-set power is m^j with j
  read from the exponents of m by ``diff_power_new_univariate``, no
  extension field built.  This is the home of the inseparability
  phenomena.
* ``general-with-witness``: any prime together with an element s not in
  p that is known to lie in every other associated prime of p^n, so the
  symbolic power is the saturation (p^n : s^infinity).

The classical differential power (operators into the ring itself) is a
membership predicate generated by iterated partial derivatives, read at a
rational point from the Taylor coefficients of degree < n of f(x + a),
shifted on raw coefficients (``Polynomial.translate`` stays on wrapped
values until the benchmark's peak memory stops counting jobs), and
elsewhere by ``diff_power_classical_member``, whose walk over the d^beta f,
each one partial of its parent, is ``Ideal``'s own, on the packed raw terms
its basis reduces against; that description is only valid over
characteristic zero, so anything else is refused rather than silently
approximated.

The chain checker's agreement verdict walks the monomials by degree, one
``Ideal`` batch per degree and ideal, up to the first disagreeing degree.
"""

import sys
from dataclasses import dataclass, field as dataclass_field
from functools import cache, partial, reduce
from itertools import combinations_with_replacement, repeat
from math import comb, gcd, perm, prod

from .errors import (
    ArityMismatchError,
    PointNotOnVarietyError,
    UnsupportedCharacteristicError,
)
from .groebner import Ideal, ideal_equal, ideal_power, ideal_sum, saturate
from .linalg import kernel_basis
from .poly import Polynomial, monomial_div, monomials_of_degree, monomials_up_to, to_unipoly

RATIONAL_POINT = "rational-point"
UNIVARIATE = "univariate-algebraic"
WITNESS = "general-with-witness"


@dataclass
class PrimeData:
    """A prime ideal plus the extra data its kind needs."""

    ideal: Ideal
    kind: str
    point: tuple = None
    minpoly: Polynomial = None
    witness: Polynomial = None
    # p^j by j, as _prime_power built them: later commands on p reuse them
    powers: dict = dataclass_field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def rational_point(cls, ring, point, ideal=None):
        point = ring.point(point)
        gens = [ring.var(i) - ring.const(a) for i, a in enumerate(point)]
        maximal = Ideal(ring, gens, None if ideal is None else ideal.order, reduced=True)
        if ideal is not None and not ideal_equal(ideal, maximal):
            raise ValueError("rational-point prime must be the maximal ideal of its point")
        return cls(ideal=maximal, kind=RATIONAL_POINT, point=point)

    @classmethod
    def univariate(cls, minpoly):
        ring = minpoly.ring
        if ring.nvars != 1:
            raise ArityMismatchError("univariate-algebraic primes need a one-variable ring")
        d = minpoly.total_degree()
        if d < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        if minpoly.coefficient((d,)) != ring.field.one():
            raise ValueError("minimal polynomial must be monic")
        return cls(ideal=Ideal(ring, [minpoly], reduced=True), kind=UNIVARIATE, minpoly=minpoly)

    @classmethod
    def with_witness(cls, ideal, witness):
        if witness.ring != ideal.ring:
            raise ValueError("witness from a different ring")
        if ideal.contains(witness):
            raise ValueError("witness must lie outside the prime")
        return cls(ideal=ideal, kind=WITNESS, witness=witness)

    @property
    def ring(self):
        return self.ideal.ring


def symbolic_power(p, n):
    """Smallest p-primary ideal containing p^n.

    Powers of maximal ideals and of principal primes are already
    primary; otherwise the embedded components of p^n are removed by
    saturating at the witness.
    """
    if n < 1:
        raise ValueError("symbolic power requires n >= 1")
    pn = _prime_power(p, n)
    if p.kind in (RATIONAL_POINT, UNIVARIATE):
        return pn
    if p.witness is None:
        raise ValueError("general primes need a saturation witness")
    return saturate(pn, p.witness)


def _taylor_member(p, n):
    """The classical predicate at a rational point in characteristic 0: by
    Taylor, d^beta f(a) = beta! [x^beta] f(x + a), so f is a member exactly
    when f(x + a) has no term of degree < n.  On raw coefficients, f(a)
    first, then the shift one variable at a time by the binomial theorem,
    skipping zero coordinates.  A term is dropped once its degree in the
    variables shifted so far (zero coordinates count from the start)
    reaches n, as later shifts keep those exponents.  Raw zeros (None, 0,
    a tower's zero) are falsy.  ``Polynomial.translate`` stays wrapped."""
    dom = p.ring.field
    to_raw, mul, submul = dom.to_raw, dom.mul, dom.submul
    one, point = to_raw(dom.one()), [to_raw(a) for a in p.point]
    fixed = [i for i, a in enumerate(point) if not a]
    moving = [i for i, a in enumerate(point) if a]
    power = cache(lambda i, e: to_raw(p.point[i] ** e))  # a_i^e

    @cache
    def weights(i, e):  # C(e, k) * a_i^(e - k) for k < min(e + 1, n)
        return [mul(to_raw(dom.from_int(comb(e, k))), power(i, e - k)) for k in range(min(e + 1, n))]

    def member(f):
        terms = {(s, m): to_raw(c) for m, c in f.terms.items() if (s := sum(m[i] for i in fixed)) < n}
        value = None  # -f(a)
        for (s, m), c in terms.items():
            if not s:
                value = submul(value, c, reduce(mul, [power(i, e) for i, e in enumerate(m) if e], one))
        if value:
            return False
        for i in moving:
            columns = {}  # (degree in the shifted variables, m without x_i): [(e, c), ...]
            for (s, m), c in terms.items():
                columns.setdefault((s, m[:i] + m[i + 1:]), []).append((m[i], c))
            terms = {}
            for (s, rest), column in columns.items():  # c * x_i^e -> c * C(e, k) * a_i^(e - k) * x_i^k
                acc = [None] * min(n - s, max(column)[0] + 1)  # submul negates: signs alternate
                for e, c in column:
                    acc[:e + 1] = map(submul, acc, repeat(c, e + 1), weights(i, e))
                terms.update(((s + k, rest[:i] + (k,) + rest[i:]), c) for k, c in enumerate(acc) if c)
        return not terms

    return member


def diff_power_classical_member(I, n, f):
    """Membership in {f : delta(f) in I for all operators of order < n
    from the ring to itself}; over characteristic zero those operators
    are generated by iterated partials, so f is a member exactly when
    every d^beta f with |beta| < n lies in I; ``Ideal`` walks them on the
    terms its basis reduces against.  Euler: d * g = sum x_j d_j g for g
    homogeneous of degree d, so when f is homogeneous of degree D the
    derivatives of order min(n - 1, D) decide, as those of each lower order
    have degree >= 1; f itself is still tested first, the cheap way out for
    a nonmember.  The chain checker's subset verdict asks this off a
    rational point and ``_taylor_member`` at one."""
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    if I.ring.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "the classical differential power involves divided-power "
            "operators in positive characteristic; refusing to compute "
            "with derivations only"
        )
    if f.ring.nvars != I.ring.nvars:  # as diff_multi refuses a beta of I's arity
        raise ArityMismatchError(f"expected {f.ring.nvars} exponents, got {I.ring.nvars}")
    degrees = {sum(m) for m in f.terms}
    orders = (0, min(n - 1, *degrees)) if len(degrees) == 1 else range(n)
    return next(I._derivatives_in([f], n, orders))


def diff_power_classical_graded(I, n, degree_bound):
    """The classical differential power of a homogeneous ideal, degree by
    degree up to the bound, by exact linear algebra on coefficients."""
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if I.ring.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "classical differential powers are only computed over "
            "characteristic zero"
        )
    if not all(g.is_homogeneous() for g in I.generators):
        raise ValueError("graded extraction requires a homogeneous ideal")
    ring = I.ring
    field = ring.field
    gens = []
    betas = monomials_up_to(ring.nvars, n - 1)
    monomial_nf = cache(lambda gamma: I.normal_form(ring.monomial(gamma)).terms)  # NF(x^gamma)

    def diff_normal_form(m, beta):  # d^beta x^m = (m! / (m - beta)!) x^(m - beta)
        k = prod(map(perm, m, beta))  # 0 unless x^beta divides x^m
        return {s: c * field.from_int(k) for s, c in monomial_nf(monomial_div(m, beta)).items()} if k else {}

    for d in range(degree_bound + 1):
        monos = monomials_of_degree(ring.nvars, d)
        rows = []
        for beta in betas:
            normal_forms = [diff_normal_form(m, beta) for m in monos]
            for s in {s for nf in normal_forms for s in nf}:
                rows.append({i: nf[s] for i, nf in enumerate(normal_forms) if s in nf})
        for v in kernel_basis(rows, len(monos), field):
            gens.append(Polynomial(ring, {monos[i]: c for i, c in v.items()}))
    return Ideal(ring, gens, I.order)


def diff_power_new_point(J, point, n):
    """Solution-set differential power of the maximal ideal of the point
    in the coordinate ring of V(J), as its contraction to the ambient
    polynomial ring: J + m_alpha^n."""
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    ring = J.ring
    point = ring.point(point)
    for g in J.generators:
        if g.evaluate(point):
            raise PointNotOnVarietyError(
                f"generator {g} does not vanish at the point"
            )
    return ideal_sum(J, _prime_power(PrimeData.rational_point(ring, point), n))


def diff_power_new_univariate(p, n):
    """Solution-set differential power of p = (m(x)) in K[x]:
    {f : (x - u)^n divides f in L[x]}, L = K[x]/(m) with root u.

    The contraction is a principal ideal whose monic generator divides
    m^n; with m irreducible that generator is a power m^j.  L[x] is a UFD
    and (x - u)^e exactly divides m for e = ord_u(m), so ord_u(m^j) = j*e
    and the least j with j*e >= n is ceil(n / e).  An irreducible m over a
    field of characteristic q > 0 is g(x^(q^k)) with g separable (Lang,
    Algebra, ch. V, sec. 6), so e = q^k, the largest power of q dividing
    every exponent of m; in characteristic 0, e = 1.  Both rest on m
    being irreducible, which the caller certifies and nothing here
    checks.  When m is inseparable (x^p - t over F_p(t)) e exceeds 1 and
    the power drops below n.
    """
    if p.kind != UNIVARIATE:
        raise ValueError("univariate solution-set power needs a univariate prime")
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    q = p.ring.field.characteristic
    g = gcd(*(d for (d,) in p.minpoly.terms))  # > 0: m is nonconstant
    e = 1
    while q and g % q == 0:
        g //= q
        e *= q
    return _prime_power(p, -(-n // e))


def _prime_power(p, j):
    """p^j, built once per prime and kept in ``p.powers``.  At a rational
    point, each (x - a)^beta, |beta| = j, listed in ideal_power's order, is
    the outer product of the expansions sum_k C(b, k) (-a_i)^(b - k) x_i^k
    of its factors; it is monic with lead x^beta in every order and tail
    terms of degree < j, and the staircase of the leads has C(j+d-1, d)
    monomials, dim K[x]/m_a^j, so these are the reduced basis.  Monic m^j
    is its own reduced basis, multiplied out on m's raw coefficient list
    and made a Polynomial once.  A witness prime's power goes through
    Buchberger; ideal_power stays the reference for both closed forms."""
    if j in p.powers:
        return p.powers[j]
    ring, field = p.ring, p.ring.field
    if p.kind == WITNESS:
        pj = ideal_power(p.ideal, j)
    elif j > sys.maxsize:  # as ideal_power refuses it
        raise ValueError(f"ideal power exponent exceeds {sys.maxsize}")
    elif p.kind == UNIVARIATE:
        mj = reduce(field.pmul, repeat(to_unipoly(p.minpoly).raw, j))
        gen = Polynomial(ring, {(e,): field.from_raw(c) for e, c in enumerate(mj) if c})
        pj = Ideal(ring, [gen], p.ideal.order, reduced=True)
    else:
        expansion = cache(lambda i, b: [  # the (k, coefficient) terms of (x_i - a_i)^b
            (k, c) for k in range(b + 1) if (c := field.from_int(comb(b, k)) * (-p.point[i]) ** (b - k))])
        gens = []
        for combo in combinations_with_replacement(range(ring.nvars), j):
            terms = {(): field.one()}
            for i in range(ring.nvars):
                terms = {m + (k,): c * ck for m, c in terms.items() for k, ck in expansion(i, combo.count(i))}
            gens.append(Polynomial(ring, terms))
        pj = Ideal(ring, gens, p.ideal.order, reduced=True)
    p.powers[j] = pj
    return pj


def diff_power_new(p, n):
    """Solution-set differential power of a prime, by the prime's kind: p^n
    at a rational point, where J = 0 and J + m^n = p^n;
    ``diff_power_new_univariate`` for a univariate prime; refused for a
    general prime given only by a witness."""
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    if p.kind == RATIONAL_POINT:
        return _prime_power(p, n)
    if p.kind == UNIVARIATE:
        return diff_power_new_univariate(p, n)
    raise UnsupportedCharacteristicError(
        "solution-set differential powers need a rational-point "
        "or univariate-algebraic prime"
    )


VERDICT_SUBSET = "subset"
VERDICT_EQUAL = "equal"
VERDICT_STRICT = "strict-subset"
VERDICT_AGREE = "agrees-on-monomials"
VERDICT_UNAVAILABLE = "unavailable"


@dataclass
class Verdict:
    lhs: str
    relation: str
    rhs: str
    holds: bool
    witness: Polynomial = None
    note: str = ""

    def to_json(self):
        out = {
            "lhs": self.lhs,
            "relation": self.relation,
            "rhs": self.rhs,
            "holds": self.holds,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.note:
            out["note"] = self.note
        return out


def _ideal_json(I):
    return [str(g) for g in I.groebner_basis]


@dataclass
class ChainReport:
    """Outcome of comparing the symbolic, solution-set and classical
    differential powers of a prime for one exponent."""

    n: int
    kind: str
    symbolic: Ideal = None
    new_diff: Ideal = None
    classical_available: bool = False
    classical_note: str = ""
    verdicts: list = dataclass_field(default_factory=list)

    def all_hold(self):
        return all(v.holds for v in self.verdicts)

    def find(self, lhs, rhs):
        for v in self.verdicts:
            if v.lhs == lhs and v.rhs == rhs:
                return v
        return None

    def to_json(self):
        return {
            "n": self.n,
            "kind": self.kind,
            "symbolic": _ideal_json(self.symbolic) if self.symbolic is not None else None,
            "new_diff": _ideal_json(self.new_diff) if self.new_diff is not None else None,
            "classical_available": self.classical_available,
            "classical_note": self.classical_note,
            "verdicts": [v.to_json() for v in self.verdicts],
        }


def _inclusion_verdict(report, lhs_name, small, rhs_name, big):
    """Record small subset-of big (by generator membership), upgraded to
    equality or refined to strictness with a generator of big outside
    small as witness; a strict subset always has one."""
    same = small is big  # one ideal in both slots: nothing to reduce
    subset = same or all(big.contains(g) for g in small.generators)
    if same or subset and ideal_equal(small, big):
        report.verdicts.append(Verdict(lhs_name, VERDICT_EQUAL, rhs_name, True))
        return
    witness = next((g for g in big.generators if not small.contains(g)), None)
    report.verdicts.append(Verdict(lhs_name, VERDICT_STRICT, rhs_name, subset, witness))


def chain_check(p, n, agreement_bound=None):
    """Compute whichever of the three powers the prime's kind supports
    and verify the containment chain between them, recording equalities
    exactly and strict inclusions with separating witnesses."""
    if n < 1:
        raise ValueError("chain check requires n >= 1")
    if agreement_bound is not None and agreement_bound < 0:
        raise ValueError("agreement bound must be >= 0")
    report = ChainReport(n=n, kind=p.kind)
    ring = p.ring
    char = ring.field.characteristic

    pn = _prime_power(p, n)
    report.symbolic = symbolic_power(p, n)
    report.verdicts.append(
        Verdict(
            "p^n",
            VERDICT_SUBSET,
            "symbolic",
            report.symbolic is pn or all(report.symbolic.contains(g) for g in pn.generators),
        )
    )

    inner, inner_name = report.symbolic, "symbolic"  # the power the classical one is compared with
    if p.kind != WITNESS:  # a witness prime has no solution-set power to compare
        report.new_diff = inner = diff_power_new(p, n)
        inner_name = "new_diff"
        _inclusion_verdict(report, "symbolic", report.symbolic, inner_name, inner)

    if char != 0:
        report.classical_note = (
            "classical differential power refused in positive characteristic"
        )
        report.verdicts.append(
            Verdict(inner_name, VERDICT_UNAVAILABLE, "classical", True, note=report.classical_note)
        )
    else:
        report.classical_available = True
        report.classical_note = "membership predicate via iterated partials"
        if p.kind == RATIONAL_POINT:
            member = _taylor_member(p, n)
        else:
            member = partial(diff_power_classical_member, p.ideal, n)
        ok = all(member(g) for g in inner.generators)
        report.verdicts.append(Verdict(inner_name, VERDICT_SUBSET, "classical", ok))
        if agreement_bound is not None:
            one = ring.field.one()
            for d in range(agreement_bound + 1):  # one batch per ideal per degree
                monos = monomials_of_degree(ring.nvars, d)
                if p.kind == RATIONAL_POINT:
                    classical = (member(Polynomial(ring, {m: one})) for m in monos)
                else:  # the orders diff_power_classical_member walks for a form of degree d
                    classical = p.ideal._derivatives_in(monos, n, (0, min(n - 1, d)))
                pairs = zip(monos, inner.members(monos), classical)
                witness = next((Polynomial(ring, {m: one}) for m, a, b in pairs if a != b), None)
                if witness is not None:
                    break
            note = f"all monomials of degree <= {agreement_bound}"
            report.verdicts.append(
                Verdict(inner_name, VERDICT_AGREE, "classical", witness is None, witness, note=note))
    return report
