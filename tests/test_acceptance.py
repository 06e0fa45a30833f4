"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
All checks are exact; tolerance is structural equality throughout.
"""

import random
import sys

import pytest

from noethops.fields import GF, QQ, RatFuncField
from noethops.groebner import Ideal, ideal, ideal_equal, ideal_power, ideal_sum, saturate
from noethops.poly import PolyRing, monomials_up_to
from noethops.dualspace import noetherian_operators
from noethops.powers import (
    PrimeData,
    chain_check,
    diff_power_classical_graded,
    diff_power_classical_member,
    diff_power_new_point,
    diff_power_new_univariate,
    symbolic_power,
)
from noethops.weyl import DiffOp, sol_membership

from _oracles import Span, TruncatedMembershipOracle, bracket, lcm, leading_monomial, order
from conftest import random_poly
from test_weyl import random_op

R2 = PolyRing(QQ, ["x", "y"])
ORIGIN2 = (QQ.zero(), QQ.zero())

DUALITY_IDEALS = [("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^3", "y"), ("x^2", "y + x")]


class _report:
    """Prints the per-criterion verdict line even under pytest capture."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{verdict}] {self.description}")
        sys.stdout.flush()
        return False


def test_criterion_1_groebner_duality_operators():
    with _report(1, "noeth operators agree with normal-form membership"):
        rng = random.Random(101)
        for gens in DUALITY_IDEALS:
            I = ideal(R2, *gens)
            res = noetherian_operators(I, ORIGIN2)
            for m in monomials_up_to(2, 4):
                f = R2.monomial(m)
                assert sol_membership(res.operators, res.target, f) == I.contains(f)
            for _ in range(100):
                f = random_poly(R2, rng, max_degree=4, max_terms=5)
                assert sol_membership(res.operators, res.target, f) == I.contains(f)


def test_criterion_2_singular_cubic():
    with _report(2, "solution-set power of the cubic cone equals m^n + J"):
        R3 = PolyRing(QQ, ["x", "y", "z"])
        origin = tuple(QQ.zero() for _ in range(3))
        J = ideal(R3, "x^3 + y^3 + z^3")
        m = ideal(R3, "x", "y", "z")
        for n in (2, 3, 4):
            got = diff_power_new_point(J, origin, n)
            assert ideal_equal(got, ideal_sum(ideal_power(m, n), J))


def test_criterion_3_inseparability_counterexample():
    with _report(3, "chain check reports p^(2) strictly inside p^{2} over F_p(t)"):
        for p in (2, 3, 5):
            K = RatFuncField(GF(p), "t")
            S = PolyRing(K, ["x"])
            prime = PrimeData.univariate(S.parse(f"x^{p} - t"))
            report = chain_check(prime, 2)
            assert ideal_equal(report.new_diff, prime.ideal)
            assert ideal_equal(report.symbolic, ideal_power(prime.ideal, 2))
            v = report.find("symbolic", "new_diff")
            assert v.relation == "strict-subset" and v.holds
            assert v.witness == prime.minpoly


def test_criterion_4_separable_control():
    with _report(4, "separable quadratic point: solution-set power = p^2"):
        S = PolyRing(QQ, ["x"])
        prime = PrimeData.univariate(S.parse("x^2 - 2"))
        got = diff_power_new_univariate(prime, 2)
        p2 = ideal_power(prime.ideal, 2)
        assert ideal_equal(got, p2)
        assert ideal_equal(got, symbolic_power(prime, 2))


def test_criterion_5_smooth_char0_collapse():
    with _report(5, "all three powers collapse in the smooth rational case"):
        p = PrimeData.rational_point(R2, ORIGIN2)
        m = ideal(R2, "x", "y")
        for n in (1, 2, 3, 4):
            mn = ideal_power(m, n)
            assert ideal_equal(symbolic_power(p, n), mn)
            assert ideal_equal(diff_power_new_point(Ideal(R2, []), ORIGIN2, n), mn)
            assert ideal_equal(diff_power_classical_graded(m, n, n + 1), mn)
        R4 = PolyRing(QQ, ["x", "y", "z", "w"])
        cubic = ideal(R4, "x*z - y^2", "y*w - z^2", "x*w - y*z")
        prime = PrimeData.with_witness(cubic, R4.var(0))
        sym = symbolic_power(prime, 2)
        for mono in monomials_up_to(4, 6):
            f = R4.monomial(mono)
            assert sym.contains(f) == diff_power_classical_member(cubic, 2, f)


def test_criterion_6_property_suite():
    with _report(6, "bracket identity, order drop, dual-space closure"):
        rng = random.Random(606)
        for _ in range(500):
            d = random_op(R2, rng)
            r = random_poly(R2, rng, max_degree=3)
            f = random_poly(R2, rng, max_degree=4)
            b = bracket(d.terms, r.terms)
            assert DiffOp(R2, b).apply(f) == d.apply(r * f) - r * d.apply(f)
            assert order(b) <= max(order(d.terms) - 1, -1)
        # Macaulay closure read on operators: [D, x_i - a_i] stays in the
        # span of the operators
        shifts = [R2.var(i) - R2.const(a) for i, a in enumerate(ORIGIN2)]
        for gens in DUALITY_IDEALS:
            I = ideal(R2, *gens)
            res = noetherian_operators(I, ORIGIN2)
            brackets = [bracket(d.terms, s.terms) for d in res.operators for s in shifts]
            columns = sorted({k for terms in brackets for k in terms}
                             | {k for d in res.operators for k in d.terms})
            idx = {k: i for i, k in enumerate(columns)}
            span = Span(len(columns), QQ)
            for d in res.operators:
                row = [QQ.zero()] * len(columns)
                for k, c in d.terms.items():
                    row[idx[k]] = c
                span.insert(row)
            for terms in brackets:
                vec = [QQ.zero()] * len(columns)
                for k, c in terms.items():
                    vec[idx[k]] = c
                assert span.contains(vec)
            k = res.truncation_order
            for m in monomials_up_to(2, k + 1):
                if sum(m) == k + 1:
                    assert sol_membership(res.operators, res.target, R2.monomial(m))


def test_criterion_7_groebner_engine_soundness():
    with _report(7, "GB uniqueness, S-poly reduction, oracle membership"):
        from noethops.poly import monomial_div

        cases = [
            ideal(R2, "x^2 - y", "y^2"),
            ideal(R2, "x^2 + y^2", "x*y"),
            ideal(PolyRing(QQ, ["x", "y", "z"]), "x*y - z", "y^2 + z"),
            ideal(PolyRing(QQ, ["x", "y", "z"]), "x^2 + y^2 + z^2", "x*y*z"),
            ideal(PolyRing(GF(7), ["x", "y"]), "x^3 - y", "x*y^2 + 1"),
        ]
        rng = random.Random(707)
        for I in cases:
            base = I.groebner_basis
            for _ in range(3):
                gens = list(I.generators)
                rng.shuffle(gens)
                assert Ideal(I.ring, gens, I.order).groebner_basis == base
            for i in range(len(base)):
                for j in range(i + 1, len(base)):
                    lti = leading_monomial(base[i], I.order)
                    ltj = leading_monomial(base[j], I.order)
                    l = lcm(lti, ltj)
                    s = I.ring.monomial(monomial_div(l, lti)) * base[i] - I.ring.monomial(
                        monomial_div(l, ltj)
                    ) * base[j]
                    assert I.normal_form(s).is_zero()
            oracle = TruncatedMembershipOracle(list(I.generators), 6)
            for _ in range(40):
                f = random_poly(I.ring, rng, max_degree=3, max_terms=4)
                if rng.random() < 0.5:
                    g = random_poly(I.ring, rng, max_degree=2, max_terms=2)
                    f = f + g * I.generators[rng.randrange(len(I.generators))]
                if f.total_degree() > 6:
                    continue
                assert I.contains(f) == oracle.contains(f)
