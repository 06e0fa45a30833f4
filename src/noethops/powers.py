"""Symbolic powers and the two notions of differential powers, with a
checker for the containment chain between them.

Three kinds of prime are supported, matching what can be computed
exactly at desk scale:

* ``rational-point``: the maximal ideal of a point of affine space;
  symbolic powers are ordinary powers, and so is the solution-set power
  (J + m^n with J = 0).  The (x - a)^beta spanning m^n are its reduced
  basis, as is monic m^j for a univariate prime: neither runs Buchberger.
* ``univariate-algebraic``: p = (m(x)) in K[x] with m monic and
  caller-certified irreducible; the residue field K[x]/(m) is built as
  an algebraic extension and the solution-set power is found by exact
  division in L[x].  This is the home of the inseparability phenomena.
* ``general-with-witness``: any prime together with an element s not in
  p that is known to lie in every other associated prime of p^n, so the
  symbolic power is the saturation (p^n : s^infinity).

The classical differential power (operators into the ring itself) is a
membership predicate generated by iterated partial derivatives, read at a
rational point from the Taylor coefficients of f(x + a); that
description is only valid over characteristic zero, so anything else is
refused rather than silently approximated.
"""

from dataclasses import dataclass, field as dataclass_field
from math import comb

from .errors import (
    ArityMismatchError,
    PointNotOnVarietyError,
    UnsupportedCharacteristicError,
)
from .fields import AlgExtField, UniPoly
from .groebner import Ideal, ideal_equal, ideal_power, ideal_sum, saturate
from .linalg import kernel_basis
from .poly import Polynomial, add_into, monomials_of_degree, monomials_up_to, to_unipoly

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
    return _symbolic_from_power(p, _prime_power(p, n))


def _symbolic_from_power(p, pn):
    """The symbolic power from pn = p^n, which is pn when already primary."""
    if p.kind in (RATIONAL_POINT, UNIVARIATE):
        return pn
    if p.witness is None:
        raise ValueError("general primes need a saturation witness")
    return saturate(pn, p.witness)


def _classical_member(I, n):
    """diff_power_classical_member for fixed I and n, betas listed once."""
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    if I.ring.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "the classical differential power involves divided-power "
            "operators in positive characteristic; refusing to compute "
            "with derivations only"
        )
    betas = monomials_up_to(I.ring.nvars, n - 1)
    return lambda f: all(I.contains(f.diff_multi(beta)) for beta in betas)


def _shift(f, point):
    """The terms of f(x + a), one variable at a time by the binomial
    theorem, skipping zero coordinates.  ``Polynomial.translate`` moves
    onto this once the benchmark's peak memory stops counting jobs."""
    terms = f.terms
    for i, a in enumerate(point):
        if a:  # c * x_i^e -> sum over k <= e of c * C(e, k) * a^(e - k) * x_i^k
            powers = [a**e for e in range(max((m[i] for m in terms), default=0) + 1)]
            terms = add_into({}, (
                (m[:i] + (k,) + m[i + 1:], c * powers[m[i] - k] * comb(m[i], k))
                for m, c in terms.items() for k in range(m[i] + 1)))
    return terms


def _taylor_member(point, n):
    """The classical predicate at a rational point in characteristic 0: by
    Taylor, d^beta f(a) = beta! [x^beta] f(x + a), so f is a member exactly
    when f(x + a) has no term of degree < n.  f(a), over every coordinate,
    rules out most non-members before any shift."""
    return lambda f: not f.evaluate(point) and all(sum(m) >= n for m in _shift(f, point))


def diff_power_classical_member(I, n, f):
    """Membership in {f : delta(f) in I for all operators of order < n
    from the ring to itself}; over characteristic zero those operators
    are generated by iterated partials."""
    return _classical_member(I, n)(f)


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
    for d in range(degree_bound + 1):
        monos = monomials_of_degree(ring.nvars, d)
        if not monos:
            continue
        rows = []
        for beta in betas:
            normal_forms = [I.normal_form(ring.monomial(m).diff_multi(beta)) for m in monos]
            support = sorted({s for nf in normal_forms for s in nf.terms})
            for s in support:
                rows.append({i: nf.terms[s] for i, nf in enumerate(normal_forms) if s in nf.terms})
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
    maximal = Ideal(ring, [ring.var(i) - ring.const(a) for i, a in enumerate(point)], J.order)
    return ideal_sum(J, ideal_power(maximal, n))


def _vanishing_order_at_root(F, u):
    """Largest e with (x - u)^e dividing the nonzero F, by repeated
    division by the monic linear factor."""
    L = u.field
    linear = UniPoly(L, [-u, L.one()])
    count = 0
    while not F.is_zero():
        F, rem = divmod(F, linear)
        if not rem.is_zero():
            break
        count += 1
    return count


def diff_power_new_univariate(p, n):
    """Solution-set differential power of p = (m(x)) in K[x]:
    {f : (x - u)^n divides f in L[x]}, L = K[x]/(m) with root u.

    The contraction is a principal ideal whose monic generator divides
    m^n; with m irreducible that generator is a power m^j.  L[x] is a UFD
    and (x - u)^e exactly divides m for e = ord_u(m), so ord_u(m^j) = j*e
    and the least j with j*e >= n is ceil(n / e).  When m is inseparable
    (x^p - t over F_p(t)) e exceeds 1 and the power drops below n.
    """
    if p.kind != UNIVARIATE:
        raise ValueError("univariate solution-set power needs a univariate prime")
    return diff_power_new(p, n)


def _solution_set_exponent(p, n):
    """The j with p^j the solution-set power of p: n at a rational point,
    where J = 0 and J + m^n = p^n, and ceil(n / ord_u(m)) for a univariate
    prime; refused for a general prime given only by a witness."""
    if n < 1:
        raise ValueError("differential power requires n >= 1")
    if p.kind == RATIONAL_POINT:
        return n
    if p.kind == UNIVARIATE:
        K = p.ring.field
        L = AlgExtField(K, K.fresh_name("u"), to_unipoly(p.minpoly))
        e = _vanishing_order_at_root(to_unipoly(p.minpoly, L), L.generator())
        return -(-n // e)
    raise UnsupportedCharacteristicError(
        "solution-set differential powers need a rational-point "
        "or univariate-algebraic prime"
    )


def _prime_power(p, j):
    """p^j, with its reduced basis given for a rational-point or univariate
    prime.  Each (x - a)^beta, |beta| = j, is monic with lead x^beta in
    every order and tail terms of degree < j; the staircase of the leads
    has C(j+d-1, d) monomials, dim K[x]/m_a^j.  Monic m^j is its own
    reduced basis.  A witness prime's power goes through Buchberger."""
    pj = ideal_power(p.ideal, j)
    if p.kind == WITNESS:
        return pj
    return Ideal(p.ring, pj.generators, pj.order, reduced=True)


def diff_power_new(p, n):
    """Solution-set differential power of a prime, by the prime's kind;
    refused for a general prime given only by a witness."""
    return _prime_power(p, _solution_set_exponent(p, n))


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
    report.symbolic = _symbolic_from_power(p, pn)
    report.verdicts.append(
        Verdict(
            "p^n",
            VERDICT_SUBSET,
            "symbolic",
            report.symbolic is pn or all(report.symbolic.contains(g) for g in pn.generators),
        )
    )

    if p.kind != WITNESS:  # a witness prime has no solution-set power to compare
        j = _solution_set_exponent(p, n)
        report.new_diff = pn if j == n else _prime_power(p, j)
        _inclusion_verdict(report, "symbolic", report.symbolic, "new_diff", report.new_diff)

    if char != 0:
        report.classical_available = False
        report.classical_note = (
            "classical differential power refused in positive characteristic"
        )
        report.verdicts.append(
            Verdict("new_diff", VERDICT_UNAVAILABLE, "classical", True, note=report.classical_note)
        )
    else:
        report.classical_available = True
        report.classical_note = "membership predicate via iterated partials"
        inner = report.new_diff if report.new_diff is not None else report.symbolic
        inner_name = "new_diff" if report.new_diff is not None else "symbolic"
        at_point = p.kind == RATIONAL_POINT
        member = _taylor_member(p.point, n) if at_point else _classical_member(p.ideal, n)
        ok = all(member(g) for g in inner.generators)
        report.verdicts.append(Verdict(inner_name, VERDICT_SUBSET, "classical", ok))
        if agreement_bound is not None:
            witness = None
            agree = True
            for m in monomials_up_to(ring.nvars, agreement_bound):
                f = ring.monomial(m)
                if inner.contains(f) != member(f):
                    agree = False
                    witness = f
                    break
            report.verdicts.append(
                Verdict(
                    inner_name,
                    VERDICT_AGREE,
                    "classical",
                    agree,
                    witness,
                    note=f"all monomials of degree <= {agreement_bound}",
                )
            )
    return report
