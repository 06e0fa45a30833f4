import hashlib
import json
import math
import pickle
import random
from functools import cmp_to_key

import pytest

from noethops import groebner
from noethops.cli import parse_script, run
from noethops.errors import IncompatibleFieldError
from noethops.fields import GF, QQ, AlgExtField, RatFuncField, UniPoly
from noethops.groebner import (
    Ideal,
    MonomialOrder,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_sum,
    intersect,
    saturate,
)
from noethops.poly import Polynomial, PolyRing, monomial_div, monomials_up_to

from _oracles import TruncatedMembershipOracle, lcm, leading_monomial, textbook_compare
from conftest import count_buchberger_runs, random_nonzero, random_nonzero_poly, random_poly

R2 = PolyRing(QQ, ["x", "y"])
R4 = PolyRing(QQ, ["x", "y", "z", "w"])


def twisted_cubic():
    return ideal(R4, "x*z - y^2", "y*w - z^2", "x*w - y*z")


def _bigger(order, a, b):
    """a > b in the order, read off the kernel's packed ints: a smaller
    int is a bigger monomial."""
    pack = groebner._Packing(order, 16).pack
    return pack(a) < pack(b)


def test_order_compare():
    lex = MonomialOrder.lex(R2)
    grevlex = MonomialOrder.grevlex(R2)
    x, y2 = (1, 0), (0, 2)
    assert _bigger(lex, x, y2)  # lex ignores degree
    assert _bigger(grevlex, y2, x)  # degree first
    assert not _bigger(grevlex, x, x)


def test_elimination_order_blocks():
    order = MonomialOrder.elimination(R2, 1)
    # any power of the eliminated variable beats anything without it
    assert _bigger(order, (1, 0), (0, 9))
    assert _bigger(order, (0, 3), (0, 2))


def test_buchberger_linear():
    I = ideal(R2, "x - y", "x + y")
    assert [str(g) for g in I.groebner_basis] == ["y", "x"]


def test_buchberger_already_reduced():
    I = ideal(R2, "x")
    assert [str(g) for g in I.groebner_basis] == ["x"]


def test_twisted_cubic_groebner_basis():
    gb = twisted_cubic().groebner_basis
    expected = {str(R4.parse(s)) for s in ["y^2 - x*z", "y*z - x*w", "z^2 - y*w"]}
    assert {str(g) for g in gb} == expected


def test_twisted_cubic_membership_matches_linear_algebra_oracle(rng):
    I = twisted_cubic()
    oracle = TruncatedMembershipOracle(list(I.generators), 4)
    # the ideal is homogeneous, so degree-truncated span membership is
    # exact ideal membership for polynomials of degree <= 4
    agree = 0
    for k in range(50):
        f = random_poly(R4, rng, max_degree=4, max_terms=5)
        if rng.random() < 0.4:  # mix in guaranteed members
            g = random_poly(R4, rng, max_degree=2, max_terms=3)
            f = g * I.generators[k % 3]
        if f.total_degree() > 4:  # keep the degree-4 part
            f = R4.poly({m: c for m, c in f.terms.items() if sum(m) == 4})
        assert I.contains(f) == oracle.contains(f)
        agree += 1
    assert agree == 50


def test_normal_form_examples():
    I = ideal(R2, "x")
    assert I.normal_form(R2.parse("x^2")).is_zero()
    assert I.normal_form(R2.parse("x + 1")) == R2.one()


def test_normal_form_against_oracle():
    I = ideal(R2, "x^2 + y^2", "x*y")
    oracle = TruncatedMembershipOracle(list(I.generators), 6)
    f = R2.parse("y^3")
    assert I.contains(f) == oracle.contains(f)
    # y*(x^2+y^2) - x*(x*y) = y^3, so both must say yes
    assert I.contains(f)


def test_ideal_sum_product_power():
    m = ideal(R2, "x", "y")
    assert ideal_equal(ideal_power(m, 2), ideal(R2, "x^2", "x*y", "y^2"))
    I = ideal(R2, "x^2", "y")
    assert ideal_equal(ideal_sum(I, Ideal(R2, [])), I)
    with pytest.raises(ValueError):
        ideal_power(m, -1)


def test_intersect_examples():
    assert ideal_equal(intersect(ideal(R2, "x"), ideal(R2, "y")), ideal(R2, "x*y"))
    I = ideal(R2, "x^2", "x*y")
    assert ideal_equal(intersect(I, I), I)
    J = intersect(ideal(R2, "x^2", "x*y"), ideal(R2, "y"))
    assert ideal_equal(J, ideal(R2, "x*y"))
    # derived check: both containments via normal forms
    for g in J.generators:
        assert ideal(R2, "x^2", "x*y").contains(g)
        assert ideal(R2, "y").contains(g)


def test_saturate_examples():
    x = R2.var(0)
    assert saturate(ideal(R2, "x^2"), x).is_unit_ideal()
    y = R2.var(1)
    assert ideal_equal(saturate(ideal(R2, "x*y"), y), ideal(R2, "x"))
    assert ideal_equal(saturate(ideal(R2, "x^2*y"), y), ideal(R2, "x^2"))
    with pytest.raises(ValueError):
        saturate(ideal(R2, "x"), R2.zero())


def test_ideal_equal_examples():
    assert ideal_equal(ideal(R2, "x - y", "x + y"), ideal(R2, "x", "y"))
    assert not ideal_equal(ideal(R2, "x"), ideal(R2, "x^2"))
    assert ideal_equal(ideal(R2, "x^2", "x*y", "y^2"), ideal_power(ideal(R2, "x", "y"), 2))
    # across orders J is compared after being rebuilt in I's order, either way round
    lex, grevlex = MonomialOrder.lex(R4), MonomialOrder.grevlex(R4)
    I = ideal(R4, "x*z - y^2", "y*w - z^2", "x*w - y*z", order=lex)
    same = ideal(R4, "x*z - y^2 + y*w - z^2", "y*w - z^2", "x*w - y*z + x*z - y^2", order=grevlex)
    fewer = ideal(R4, "x*z - y^2", "y*w - z^2", order=grevlex)
    assert I.groebner_basis != same.groebner_basis
    assert ideal_equal(I, same) and ideal_equal(same, I)
    assert not ideal_equal(I, fewer) and not ideal_equal(fewer, I)


TEST_IDEALS = [
    lambda: ideal(R2, "x^2 + y^2", "x*y"),
    lambda: ideal(R2, "x^3 - y", "x*y - 1"),
    lambda: twisted_cubic(),
    lambda: ideal(PolyRing(GF(5), ["x", "y", "z"]), "x^2 + y*z", "y^2 - 2*z^2", "x*z + 3*y"),
    lambda: ideal(PolyRing(QQ, ["x", "y", "z"]), "x^2 - y", "y^2 - z", "x*y*z - 1"),
]


@pytest.mark.parametrize("mk", TEST_IDEALS)
def test_reduced_gb_unique_under_shuffles(mk):
    I = mk()
    base = I.groebner_basis
    rng = random.Random(99)
    for _ in range(3):
        gens = list(I.generators)
        rng.shuffle(gens)
        J = Ideal(I.ring, gens, I.order)
        assert J.groebner_basis == base


@pytest.mark.parametrize("mk", TEST_IDEALS)
def test_reduced_gb_unique_across_generating_sets(mk):
    # same ideal presented by a different generating set: random invertible
    # recombination of the generators plus redundant members
    I = mk()
    rng = random.Random(55)
    alt = list(I.generators)
    if len(alt) >= 2:
        for _ in range(3):
            i = rng.randrange(len(alt))
            j = rng.randrange(len(alt))
            while j == i:
                j = rng.randrange(len(alt))
            h = random_poly(I.ring, rng, max_degree=2, max_terms=2)
            alt[i] = alt[i] + h * alt[j]  # elementary move, ideal unchanged
    alt.append(alt[0] * alt[-1])  # redundant member
    J = Ideal(I.ring, alt, I.order)
    assert J.groebner_basis == I.groebner_basis


@pytest.mark.parametrize("mk", TEST_IDEALS)
def test_spolynomials_reduce_to_zero(mk):
    I = mk()
    gb = I.groebner_basis
    order = I.order
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            lti = leading_monomial(gb[i], order)
            ltj = leading_monomial(gb[j], order)
            l = lcm(lti, ltj)
            si = I.ring.monomial(monomial_div(l, lti))
            sj = I.ring.monomial(monomial_div(l, ltj))
            s = si * gb[i] - sj * gb[j]
            assert I.normal_form(s).is_zero()


def test_normal_form_additivity(rng):
    I = ideal(R2, "x^2 + y^2", "x*y")
    for _ in range(40):
        f = random_poly(R2, rng, max_degree=5)
        g = random_poly(R2, rng, max_degree=5)
        lhs = I.normal_form(f + g)
        rhs = I.normal_form(I.normal_form(f) + I.normal_form(g))
        assert lhs == rhs


def test_saturation_idempotent():
    x = R2.var(0)
    I = ideal(R2, "x^2*y", "x^3")
    S1 = saturate(I, x)
    S2 = saturate(S1, x)
    assert ideal_equal(S1, S2)


def test_intersection_containments(rng):
    I = ideal(R2, "x^2", "x*y")
    J = ideal(R2, "y^2", "x - y")
    K = intersect(I, J)
    for g in K.generators:
        assert I.contains(g)
        assert J.contains(g)
    for f in I.generators:
        for g in J.generators:
            assert K.contains(f * g)  # IJ lies in the intersection


MEMBERSHIP_IDEALS = [
    lambda: ideal(R2, "x^2 - y", "y^2"),
    lambda: ideal(PolyRing(QQ, ["x", "y", "z"]), "x*y - z", "y^2 + z"),
    lambda: ideal(PolyRing(QQ, ["x", "y", "z"]), "x^2 + y^2 + z^2", "x*y*z"),
    lambda: ideal(PolyRing(GF(7), ["x", "y"]), "x^3 - y", "x*y^2 + 1"),
]


@pytest.mark.parametrize("mk", MEMBERSHIP_IDEALS)
def test_membership_agrees_with_truncated_oracle(mk):
    I = mk()
    ring = I.ring
    rng = random.Random(4242)
    oracle = TruncatedMembershipOracle(list(I.generators), 6)
    checked = 0
    for _ in range(40):
        f = random_poly(ring, rng, max_degree=3, max_terms=4)
        if rng.random() < 0.5:
            g = random_poly(ring, rng, max_degree=2, max_terms=2)
            f = f + g * I.generators[rng.randrange(len(I.generators))]
        if f.total_degree() > 6:
            continue
        assert I.contains(f) == oracle.contains(f)
        checked += 1
    assert checked >= 30


def test_standard_monomials():
    I = ideal(R2, "x^2", "y")
    assert I.standard_monomials() == [(0, 0), (1, 0)]
    assert ideal(R2, "x").standard_monomials() is None
    assert ideal(R2, "1").standard_monomials() == []


R5 = PolyRing(QQ, ["a", "b", "c", "d", "e"])


@pytest.mark.parametrize(
    "order",
    [MonomialOrder.lex(R5), MonomialOrder.grevlex(R5), MonomialOrder.elimination(R5, 2)],
    ids=repr,
)
def test_order_key_matches_textbook_definitions(order):
    """The kernel's packed ints sort as the textbook comparisons do
    (``_oracles.textbook_compare``): lex by the leftmost nonzero entry of
    a - b, grevlex by degree then the rightmost nonzero entry of a - b
    (negative means bigger), elimination(2) by grevlex on the first two
    variables, then grevlex on the rest."""
    textbook = textbook_compare(order)
    rng = random.Random(20191)
    monos = list({tuple(rng.randint(0, 4) for _ in range(5)) for _ in range(300)})
    want = sorted(monos, key=cmp_to_key(textbook), reverse=True)
    for width in (16, 32):  # the kernel's packed ints, up to the guard bits
        top = (1 << (width - 1)) - 1
        edge = list({tuple(rng.choice((0, 1, top - 1, top)) for _ in range(5)) for _ in range(300)})
        pack = groebner._Packing(order, width).pack
        assert sorted(monos, key=pack) == want
        assert sorted(edge, key=pack) == sorted(edge, key=cmp_to_key(textbook), reverse=True)


CYCLIC4 = (
    "a + b + c + d",
    "a*b + b*c + c*d + d*a",
    "a*b*c + b*c*d + c*d*a + d*a*b",
    "a*b*c*d - 1",
)
CYCLIC4_BASES = {
    "lex": [
        "c^2*d^6 - c^2*d^2 - d^4 + 1",
        "c^3*d^2 + c^2*d^3 - c - d",
        "b*d^4 + d^5 - b - d",
        "c^2*d^4 + b*c - b*d + c*d - 2*d^2",
        "b^2 + 2*b*d + d^2",
        "a + b + c + d",
    ],
    "grevlex": [
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
        "b*c^2 + c^2*d - b*d^2 - d^3",
        "b*c*d^2 + c^2*d^2 - b*d^3 + c*d^3 - d^4 - 1",
        "b*d^4 + d^5 - b - d",
        "c^3*d^2 + c^2*d^3 - c - d",
        "c^2*d^4 + b*c - b*d + c*d - 2*d^2",
    ],
    "elimination(2)": [
        "c^3*d^2 + c^2*d^3 - c - d",
        "c^2*d^6 - c^2*d^2 - d^4 + 1",
        "c^2*d^4 + b*c - b*d + c*d - 2*d^2",
        "b*d^4 + d^5 - b - d",
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
    ],
}


def test_cyclic4_reduced_bases_pinned():
    ring = PolyRing(QQ, ["a", "b", "c", "d"])
    for order in (
        MonomialOrder.lex(ring),
        MonomialOrder.grevlex(ring),
        MonomialOrder.elimination(ring, 2),
    ):
        gb = ideal(ring, *CYCLIC4, order=order).groebner_basis
        assert [str(g) for g in gb] == CYCLIC4_BASES[repr(order)]


CYCLIC4_GF32003_BASES = {
    "lex": [
        "c^2*d^6 + 32002*c^2*d^2 + 32002*d^4 + 1",
        "c^3*d^2 + c^2*d^3 + 32002*c + 32002*d",
        "b*d^4 + d^5 + 32002*b + 32002*d",
        "c^2*d^4 + b*c + 32002*b*d + c*d + 32001*d^2",
        "b^2 + 2*b*d + d^2",
        "a + b + c + d",
    ],
    "grevlex": [
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
        "b*c^2 + c^2*d + 32002*b*d^2 + 32002*d^3",
        "b*c*d^2 + c^2*d^2 + 32002*b*d^3 + c*d^3 + 32002*d^4 + 32002",
        "b*d^4 + d^5 + 32002*b + 32002*d",
        "c^3*d^2 + c^2*d^3 + 32002*c + 32002*d",
        "c^2*d^4 + b*c + 32002*b*d + c*d + 32001*d^2",
    ],
    "elimination(2)": [
        "c^3*d^2 + c^2*d^3 + 32002*c + 32002*d",
        "c^2*d^6 + 32002*c^2*d^2 + 32002*d^4 + 1",
        "c^2*d^4 + b*c + 32002*b*d + c*d + 32001*d^2",
        "b*d^4 + d^5 + 32002*b + 32002*d",
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
    ],
}


def test_cyclic4_reduced_bases_pinned_over_gf32003():
    ring = PolyRing(GF(32003), ["a", "b", "c", "d"])
    for order in (
        MonomialOrder.lex(ring),
        MonomialOrder.grevlex(ring),
        MonomialOrder.elimination(ring, 2),
    ):
        gb = ideal(ring, *CYCLIC4, order=order).groebner_basis
        assert [str(g) for g in gb] == CYCLIC4_GF32003_BASES[repr(order)]
    I = ideal(ring, *CYCLIC4)
    nf = I.normal_form(ring.parse("a^3*b^2 + 5*c^4*d - 7"))
    assert str(nf) == "5*c^4*d + 32002*c^2*d^3 + 32002*b + 32002*c + 31996"


def _f3t_tower():
    K = RatFuncField(GF(3), "t")
    t = K.generator()
    return AlgExtField(K, "u", UniPoly(K, [-t, K.zero(), K.zero(), K.one()]))


@pytest.mark.parametrize("field", [
    QQ, GF(7), RatFuncField(GF(3), "t"),
    AlgExtField(QQ, "v", UniPoly(QQ, [QQ.from_int(-2), QQ.zero(), QQ.one()])),
], ids=["QQ", "GF(7)", "F3(t)", "QQ[v]/(v^2 - 2)"])
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_a_reduced_ideal_is_its_own_buchberger_basis(field, kind):
    # Ideal(..., reduced=True) takes its generators as the basis and lists
    # them in the order the Buchberger basis of the same generators has
    rng = random.Random(f"reduced-{field!r}-{kind}")
    ring = PolyRing(field, ["x", "y", "z"])
    order = getattr(MonomialOrder, kind)(ring)
    for _ in range(4):
        gens = [random_nonzero_poly(ring, rng, max_degree=2) for _ in range(rng.randint(1, 3))]
        basis = ideal(ring, *gens, order=order).groebner_basis
        given = list(basis)
        rng.shuffle(given)
        reduced = Ideal(ring, given, order, reduced=True)
        assert reduced.groebner_basis == basis
        assert [str(g) for g in reduced.groebner_basis] == [str(g) for g in basis]
        assert all(any(g is h for h in given) for g in reduced.groebner_basis)


# Reduced bases and one normal form: the tower rows captured while the
# kernel still computed on wrapped tower values, the QQ row while it still
# computed on reduced (num, den) pairs.  The QQ remainder is exact only if
# the normal form divides by the factor that cleared f's denominators times
# the scale of the work.
@pytest.mark.parametrize("field, gens, basis, f, remainder", [
    (QQ, ("x^2/3 - y/7", "5*x*y/2 - 1"), ["y^2 - 14/15*x", "x*y - 2/5", "x^2 - 3/7*y"],
     "x^3 + y/5", "1/5*y + 6/35"),
    (RatFuncField(GF(5), "t"), ("t*x^2 + y^2 - 1", "x*y - t - 1"),
     ["x*y + (4*t + 4)", "x^2 + 1/t*y^2 + 4/t", "y^3 + (t^2 + t)*x + 4*y"],
     "x^3 + t*y^4", "t*y^2 + 1/t*x + (4*t + 4)/t*y + (4*t^4 + 3*t^3 + 4*t^2)"),
    (_f3t_tower(), ("u*x^2 - t*y", "x*y^2 - u - 1"),
     ["x^2 + 2*u^2*y", "y^3 + (2/t*u^2 + 2/t*u)*x", "x*y^2 + (2*u + 2)"],
     "x^3*y + u*y^3", "(1/t*u^2 + 1)*x + (u^2 + t)"),
], ids=["QQ", "Fp(t)", "tower"])
def test_element_domain_bases_pinned(field, gens, basis, f, remainder):
    ring = PolyRing(field, ["x", "y"])
    I = ideal(ring, *gens)
    assert [str(g) for g in I.groebner_basis] == basis
    assert str(I.normal_form(ring.parse(f))) == remainder


@pytest.mark.parametrize("field", [
    QQ, GF(32003), RatFuncField(GF(3), "t"), _f3t_tower(),
], ids=["QQ", "GF(32003)", "F3(t)", "F3(t)[u]/(u^3 - t)"])
def test_contains_agrees_with_normal_form(field):
    # contains stops at the first remainder term it meets; f + c with f a
    # member leaves the constant c alone, the smallest monomial, so that
    # non-member is only found after every other term has been reduced.
    rng = random.Random(f"contains/{field}")
    ring = PolyRing(field, ["x", "y"])
    x, y = ring.gens()
    for _ in range(3):
        # every generator vanishes at the origin, so the ideal is proper
        gens = [rng.choice((x, y)) * random_nonzero_poly(ring, rng, max_degree=2, max_terms=2)
                for _ in range(2)]
        I = Ideal(ring, gens)
        for _ in range(4):
            member = sum((random_poly(ring, rng, max_degree=2, max_terms=3) * g for g in gens),
                         ring.zero())
            c = random_nonzero(field, rng)
            f = random_poly(ring, rng, max_degree=3)
            assert I.contains(member) and I.normal_form(member).is_zero()
            assert not I.contains(member + c) and I.normal_form(member + c) == ring.const(c)
            assert I.contains(f) == I.normal_form(f).is_zero()
    empty = Ideal(ring, [])
    assert empty.contains(ring.zero()) and empty.normal_form(ring.zero()).is_zero()
    assert not empty.contains(x + 1) and empty.normal_form(x + 1) == x + 1
    alien = PolyRing(field, ["x", "z"]).var(1)
    for J in (I, empty):
        with pytest.raises(IncompatibleFieldError):
            J.contains(alien)
        with pytest.raises(IncompatibleFieldError):
            J.normal_form(alien)


@pytest.mark.parametrize("field", [QQ, GF(32003), RatFuncField(GF(3), "t")],
                         ids=["QQ", "GF(32003)", "F3(t)"])
def test_a_batch_read_equals_one_item_reads(field):
    # one packing fitted to the batch answers as a call per item does
    rng = random.Random(f"batch/{field}")
    ring = PolyRing(field, ["x", "y", "z"])
    for _ in range(3):
        gens = [random_nonzero_poly(ring, rng, max_degree=3, max_terms=3) for _ in range(3)]
        I = Ideal(ring, gens)
        members = [sum((random_poly(ring, rng, max_degree=2) * g for g in gens), ring.zero())
                   for _ in range(3)]
        polys = members + [random_poly(ring, rng, max_degree=4) for _ in range(5)]
        for batch in (polys, monomials_up_to(3, 4), polys[:3] + [(1, 2, 0), (0, 0, 5)]):
            one_item = [ring.monomial(f) if isinstance(f, tuple) else f for f in batch]
            assert list(I.members(batch)) == [I.contains(f) for f in one_item]
            assert [Polynomial(ring, t) for t in I._fitted(batch, I._remainder)] == [
                I.normal_form(f) for f in one_item]
            # the walk multiplies by exponents, so it needs e * c nonzero:
            # characteristic 0, or one above every exponent, as 32003 is
            for n, orders in ((2, range(2)), (3, (0, 2))) if field.characteristic != 3 else ():
                assert list(I._derivatives_in(batch, n, orders)) == [
                    next(I._derivatives_in([f], n, orders)) for f in one_item]


@pytest.mark.parametrize("field", [QQ, GF(32003), RatFuncField(GF(3), "t")],
                         ids=["QQ", "GF(32003)", "F3(t)"])
def test_a_batch_item_that_overflows_widens_once(field, monkeypatch):
    # every input exponent fits 16-bit fields, but x^4 reduces to y^32768,
    # which sets a guard bit: that item is redone at 32 bits, and the items
    # after it keep the wider packing
    R = PolyRing(field, ["x", "y"])
    I = Ideal(R, [R.parse("x - y^8192")], MonomialOrder.lex(R))
    batch = [(2, 0), (4, 0), (1, 0), R.parse("x*y - y^8193"), R.parse("x^4 + y")]
    fresh = Ideal(R, I.generators, I.order)
    expected = [fresh.normal_form(R.monomial(f) if isinstance(f, tuple) else f) for f in batch]
    assert I._packed_basis()[0].width == 16
    packings, Packing = [], groebner._Packing
    monkeypatch.setattr(groebner, "_Packing", lambda *args: packings.append(args) or Packing(*args))
    widths = [(Polynomial(R, t), I._packed_basis()[0].width) for t in I._fitted(batch, I._remainder)]
    assert widths == [(f, 16 if i < 1 else 32) for i, f in enumerate(expected)]
    assert packings == [(I.order, 32)]
    assert list(I.members(batch)) == [False, False, False, True, False]
    assert packings == [(I.order, 32)]


def test_next_over_a_batch_computes_only_its_first_item(monkeypatch):
    I = twisted_cubic()
    I.groebner_basis
    reductions = []
    reduce = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", lambda *args: reductions.append(args) or reduce(*args))
    x, y, z, w = R4.gens()
    assert next(I.members([x * z - y**2, x, y])) and len(reductions) == 1
    reductions.clear()
    assert not all(I.members([x, y, z * w - y])) and len(reductions) == 1
    reductions.clear()
    walk = I._derivatives_in([(1, 0, 0, 0), (0, 1, 1, 0)], 2, range(2))
    assert not next(walk) and len(reductions) == 1


def test_ideal_with_basis_survives_pickle():
    I = twisted_cubic()
    basis = I.groebner_basis
    J = pickle.loads(pickle.dumps(I))
    assert J.groebner_basis == basis
    f = R4.parse("x^2*z - x*y^2 + w")
    assert J.normal_form(f) == I.normal_form(f)
    assert J.contains(R4.parse("x*z - y^2"))


def katsura(ring):
    """Katsura-n in the n + 1 variables u_0 ... u_n of ring:
    sum_l u_|l| u_|m - l| = u_m for m < n, and u_0 + 2 (u_1 + ... + u_n) = 1."""
    u, n = ring.gens(), ring.nvars - 1
    gens = [sum((u[abs(l)] * u[abs(m - l)] for l in range(-n, n + 1) if abs(m - l) <= n),
                -u[m]) for m in range(n)]
    return gens + [u[0] + 2 * sum(u[1:], ring.zero()) - 1]


def test_katsura5_basis_over_qq_pinned():
    # the sha256 of the printed basis, one element a line, from the kernel
    # that reduced over (num, den) pairs; the integer reducers of the
    # fraction-free one have lead coefficients other than 1
    ring = PolyRing(QQ, [f"u{i}" for i in range(6)])
    I = Ideal(ring, katsura(ring))
    text = "\n".join(str(g) for g in I.groebner_basis)
    assert len(I.groebner_basis) == 22
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b48dc113d8bf39b3ea38122921c5fd263b8a58418cb615ad0473dda507510a58")
    # the records behind it are primitive, lc positive (None when it is 1)
    records = I._packed_basis()[1]
    assert any(lc is not None for *_, lc in records)
    assert all((lc or 1) > 0 and math.gcd(lc or 1, *(c for _, c in tail)) == 1
               for *_, tail, lc in records)


def test_huge_exponents_pinned():
    # exponents past 2^40 pack into 64-bit fields, not into a neighbour's
    I = ideal(R2, "x^1099511627776 - y", "y^2")
    assert [str(g) for g in I.groebner_basis] == ["y^2", "x^1099511627776 - y"]
    assert str(I.normal_form(R2.parse("x^1099511627777 + x*y"))) == "2*x*y"


def test_exponents_outgrowing_the_packing_width():
    # inputs below 2^14 pack into 16-bit fields, but lex reduction makes
    # y^40000, past 2^15: the work is redone at 32 bits
    R = PolyRing(QQ, ["x", "y", "z"])
    lex = MonomialOrder.lex(R)
    I = ideal(R, "x - y^100", order=lex)
    assert I.normal_form(R.parse("x^400 + z")) == R.parse("y^40000 + z")
    assert I.contains(R.parse("x^400 - y^40000"))
    J = ideal(R, "x - y^200", "x^200 - z", order=lex)
    assert [str(g) for g in J.groebner_basis] == ["y^40000 - z", "-y^200 + x"]
    assert J.contains(R.parse("y^40000*x - z*x"))


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_widened_packing_answers_as_a_fresh_ideal(field, kind):
    # small inputs pack straight onto the cached 16-bit records; x^70000
    # outgrows them, and in lex y^400 against y - z^100 overflows during
    # reduction: both widen the cached packing, and no answer, before or
    # after, differs from that of an ideal that never packed anything
    R = PolyRing(field, ["x", "y", "z"])
    order = MonomialOrder.lex(R) if kind == "lex" else MonomialOrder.grevlex(R)
    gens = ["x^3", "y^2 - x*y", "z^2 + 2*y"] if kind == "grevlex" else ["x^3", "y - z^100"]
    I = ideal(R, *gens, order=order)
    small = [R.parse(t) for t in ("x^2*y + z", "x*y^2 - 1", "z^5 + x*z", "y^3 - x*y^2 + 3")]
    wide = [R.parse(t) for t in ("y^400 + x", "x^70000 + y^3", "x^70000*z - z^2")]

    def fresh(f):
        J = Ideal(R, I.generators, order)
        return J.contains(f), J.normal_form(f)

    before = [(I.contains(f), I.normal_form(f)) for f in small]
    assert before == [fresh(f) for f in small] and I._packed_basis()[0].width == 16
    assert I.normal_form(wide[0]) == R.parse("x + z^40000" if kind == "lex" else "x")
    for f in wide:
        assert (I.contains(f), I.normal_form(f)) == fresh(f)
    assert I._packed_basis()[0].width > 16
    assert [(I.contains(f), I.normal_form(f)) for f in small] == before


@pytest.mark.parametrize("kind, gens", [
    ("lex", ["7*x^3*y + 7", "8*x^2*y^3 + 4"]),  # its basis fits 16 bits: only signatures widen
    ("lex", ["7*x*y^3 + 6", "6*x^3 + 5*x^2"]),
    ("grevlex", ["8*x^3*y^3 + 9*x", "9*x^3*y^3 + y"]),
    ("grevlex", ["x^3*y^3 + 3*x^2*y", "3*x^3*y^2 + 2*y^3 + 1"]),
])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF(32003)"])
def test_a_signature_overflow_widens_the_packing(field, kind, gens):
    # x_i -> x_i^4096 keeps every input exponent below 2^14, in 16-bit
    # fields; then a signature outgrows them before any term does: a
    # signature multiple in _reduce in the first of each order, a pair's
    # signature in _GB.add in the second.  Under lex and grevlex the
    # substitution maps a reduced basis to the reduced basis of the image.
    R = PolyRing(field, ["x", "y"])
    order = getattr(MonomialOrder, kind)(R)

    def scaled(f):
        return R.poly({tuple(4096 * e for e in m): c for m, c in f.terms.items()})

    plain = ideal(R, *gens, order=order)
    I = Ideal(R, [scaled(g) for g in plain.generators], order)
    assert groebner._width(m for g in I.generators for m in g.terms) == 16
    assert I.groebner_basis == tuple(scaled(g) for g in plain.groebner_basis)
    assert I._packed_basis()[0].width > 16


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_reducing_a_polynomial_wider_than_the_basis_packing(field):
    # x^70000 needs 32-bit fields where the basis packs into 16: the basis
    # is repacked at 32 bits and kept for later, narrower reductions
    R = PolyRing(field, ["x", "y"])
    I = ideal(R, "x - 1", "y^2")
    assert I.contains(R.parse("x^70000*y - y"))
    assert I.normal_form(R.parse("x^70000 + y^3")) == R.one()
    assert I._packed_basis()[0].width == 32
    assert I.normal_form(R.parse("x^3 + y")) == R.parse("y + 1")


@pytest.mark.parametrize("field", [QQ, GF(32003), RatFuncField(GF(3), "t")],
                         ids=["QQ", "GF(32003)", "F3(t)"])
@pytest.mark.parametrize("kind", ["lex", "grevlex", "elimination"])
def test_normal_form_with_huge_exponents(field, kind):
    # Ideals scaled by x_i -> x_i^B with B just past 2^31 or 2^63.  Every
    # generator vanishes at the origin and has exponents divisible by B, so
    # each leading monomial has an exponent >= B and every monomial with
    # all exponents below B is standard.  r takes random monomials outside
    # the leading-term ideal, by tuple comparison, so nf(sum h_i g_i + r) = r.
    rng = random.Random(f"packing/{kind}/{field}")
    ring = PolyRing(field, ["x", "y", "z"])
    order = {"lex": MonomialOrder.lex, "grevlex": MonomialOrder.grevlex,
             "elimination": lambda r: MonomialOrder.elimination(r, 1)}[kind](ring)
    for trial in range(3):
        B = rng.choice((2**31, 2**63)) + rng.randrange(3)

        def scaled(p):
            return ring.poly({tuple(e * B for e in m): c for m, c in p.terms.items()})

        gens = [scaled(rng.choice(ring.gens()) * random_nonzero_poly(ring, rng, max_degree=2))
                for _ in range(2)]
        I = Ideal(ring, gens, order)
        lts = I.leading_monomials()
        r = {}
        for _ in range(8 if trial else 0):  # the first trial keeps r = 0
            m = tuple(rng.choice((0, rng.randrange(1, 4) * B)) + rng.randrange(3) for _ in range(3))
            if not any(all(a <= b for a, b in zip(lt, m)) for lt in lts):
                r[m] = random_nonzero(field, rng)
        r = ring.poly(r)
        f = sum((scaled(random_poly(ring, rng, max_degree=2)) * g for g in gens), r)
        assert I.normal_form(f) == r
        assert I.contains(f) == r.is_zero()


# The reduced basis of an ideal whose run adds singular top-reducible
# elements: a signature run that drops them returns 21 polynomials.
SINGULAR_SCRIPT = (
    "field Fp(32003); ring [x, y, z, w]; ideal I = 5*z^2*w^2 + 2*y*z - 3*y^2*w^2 + 4, "
    "z*w - 3*x^2*w - 3*y*w^2, 2*y^2*z^2 + 5*x*w, 2*x^2*y + 2*y^2 - 3*y^2*z^2*w^2 - 3*z^2; gb I;"
)
SINGULAR_BASIS = [
    "x^2 + y*w + 21335*z",
    "x*w^3 + 17068*y^2*w + 14935*y^2 + 15646*y*z + 25602*z^2",
    "y^2*w^2 + 10666*z^2*w^2 + 10667*y*z + 21334",
    "y^2*z^2 + 16004*x*w",
    "y*w^4 + 14935*x*y^2*w + 21335*z*w^3 + 17068*x*y^2 + 16357*x*y*z + 6401*x*z^2",
    "x*y*z^2*w + 23113*z^2*w^3 + 8297*x*y*z^2 + 10668*x*z^3 + 15999*w^3 + 27262*w",
    "y^3*z*w + 10666*y*z^3*w + 16009*z^4*w + 16009*x*y*z*w^2 + 3*y^4 + 32002*y^3*z + 10666*y*z^3 + 16009*z^4 + 16009*x*y*z*w + 8027*x*w^2 + 31999*y^2 + 24041*x*w",
    "y^4*w + 32002*y^4 + 21335*y^3*z + 17780*y*z^3 + 15999*z^4 + 15999*x*y*z*w + 5338*x*w^2 + 2654*x*w",
    "w^6 + 9985*y^5 + 23042*y*z^4 + 27599*x*y^3*w + 5737*x*y^2*z*w + 16041*x*z^3*w + 29685*y*z*w^3 + 3751*z^2*w^3 + 2*w^5 + 17063*x*y^3 + 1468*x*y^2*z + 12316*x*y*z^2 + 8300*x*z^3 + 25318*y^3*w + 30297*x*y*w^2 + 5347*y*z*w^2 + 20624*w^4 + 14707*y^3 + 12896*y^2*z + 5974*y*z^2 + 22995*x*y*w + 10810*x*z*w + 19061*w^3 + 12896*x*y + 11948*x*z + 16919*w^2 + 8167*w",
    "z^2*w^4 + 8961*x*y^3*w + 12801*y*z*w^3 + 23042*x*y^3 + 29016*x*y^2*z + 29443*x*y*z^2 + 6401*y*z*w^2 + 12802*w^2",
    "y*z^2*w^3 + 12800*x*y*z^3 + 21336*y*w^2 + 3*z*w^2 + 10667*y*w + 24891*z*w",
    "z^4*w^2 + 6401*y*z^3 + 6401*y^2*w + 25602*y^2 + 8534*y*z + 6402*z^2",
    "x*z^3*w^2 + 19203*y*z^4 + 8534*x*y^3*w + 10668*y*z*w^3 + 15994*w^5 + 7823*x*y^2*z + 32001*x*y*w^2 + 2*x*y*w + 21336*x*z*w + 23115*w^3 + 31292*x*y + 20150*w",
    "z^5*w + 15646*y^5 + 6401*y^4*z + 12511*y*z^4 + 23707*z^5 + 7981*x*y^3*w + 7112*x*y^2*z*w + 21335*x*z^3*w + 26274*y*z*w^3 + 22060*z^2*w^3 + 24894*w^5 + 7823*x*y^3 + 18675*x*y^2*z + 14891*x*y*z^2 + 5531*x*z^3 + 27263*x*y*w^2 + 16005*x*z*w^2 + 28447*y*z*w^2 + 16004*w^4 + 474*y^3 + 2133*y^2*z + 5137*x*y*w + 24304*x*z*w + 26408*w^3 + 10931*x*y + 30818*x*z + 29632*w^2 + 351*w",
    "y*z^4*w + 6401*y^5 + 8296*y*z^4 + 10668*z^5 + 7112*x*y^3*w + x*y^2*z*w + 14223*y*z*w^3 + 13631*z^2*w^3 + 16014*w^5 + 8297*x*y^2*z + 29238*x*y*z^2 + 28447*x*z^3 + 26676*x*y*w^2 + 2133*y^3 + 23115*x*y*w + 5335*x*z*w + 20148*w^3 + 1185*x*y + 10669*x*z",
    "z^6 + 27262*x*z^4*w + 23801*z^3*w^3 + 19556*z*w^5 + 23706*x*y^4 + 24101*x*y^3*z + 23784*x*y*z^3 + 20984*x*z^4 + 9482*x*y*z*w^2 + 19755*y*z^2*w^2 + 29237*z^3*w^2 + 8296*x*y^2*w + 11853*x*y*z*w + 12846*x*z^2*w + 12248*y*z^2*w + 592*y*w^3 + 5139*z*w^3 + 24101*x*y^2 + 7771*x*y*z + 13038*x*z^2 + 24496*y*z^2 + 23244*y*w^2 + 25879*z*w^2 + 13170*y*w + 10670*z*w + 10669*x + 16989*z",
    "y*z^5 + 26670*x*z^4*w + 19095*z^3*w^3 + 23996*z*w^5 + 10668*x*y^4 + 28447*x*y^3*z + 351*x*y*z^3 + 14422*x*z^4 + 10666*x*y*z*w^2 + 8890*y*z^2*w^2 + 19556*z^3*w^2 + 21335*x*y^2*w + 21337*x*y*z*w + 17780*x*z^2*w + 23113*y*z^2*w + 2664*y*w^3 + 31115*z*w^3 + 28447*x*y^2 + 18965*x*y*z + 26668*x*z^2 + 14223*y*z^2 + 8589*y*w^2 + 4445*z*w^2 + 27262*y*w + 10679*z*w + 28446*z",
    "x*y^4*z + 14223*x*y*z^4 + 16004*x*z^5 + 26670*y*z^3*w + 31998*y*z*w^3 + 21334*x*y^2*z + 6*x*y*z^2 + 2654*y*z*w^2 + 12447*z^2*w^2 + 23113*y*z*w + 9783*z^2*w + 10666*y^2 + 17780*y*z + 16004*z^2 + 31988*w^2 + 7114",
    "y^6 + 17760*x*z^4*w + 13750*z^3*w^3 + 22674*z*w^5 + 24884*x*y^4 + 29635*x*y^3*z + 21047*x*y*z^3 + 17299*x*z^4 + 12447*x*y*z*w^2 + 10676*x*z^2*w^2 + 5920*y*z^2*w^2 + 13661*z^3*w^2 + 13345*z*w^4 + 21334*y^4 + 29349*x*y^2*w + 9783*x*y*z*w + 23996*x*z^2*w + 21934*y*z^2*w + 8955*y*w^3 + 14085*z*w^3 + 602*x*y^2 + 16208*x*y*z + 31115*x*z^2 + 11865*y*z^2 + 9975*y*w^2 + 13805*z*w^2 + 25910*z*w + 21347*x + 23730*z",
    "x*y^5 + 15999*x*y*z^4 + 26665*y*z^3*w^2 + 21327*z^2*w^3 + 21334*x*y^3 + 31105*z^2*w^2 + 8890*y^2*w + 11549*y*z*w + 27854*z^2*w + 2669*x*w^2 + 1766*y*z + 5338*x*w + 10656*w + 24874",
]


def test_basis_that_needs_singular_elements_pinned():
    report = run(parse_script(SINGULAR_SCRIPT))
    assert report["commands"][0]["basis"] == SINGULAR_BASIS


SCRIPT_FIELDS = ("QQ", "Fp(7)", "Fp(32003)", "QQ(t)", "Fp(3)(t)", "ext(QQ, v, v^2 - 2)")
SCRIPT_VARS = ("x", "y", "z", "w")


def _random_poly_text(rng, field, names):
    extra = {"QQ(t)": "t", "Fp(3)(t)": "t", "ext(QQ, v, v^2 - 2)": "v"}.get(field)
    text = ""
    for _ in range(rng.randint(2, 4)):
        c = rng.randint(-3, 5) or 1
        mono = [n + "^2" * (e - 1) for n in names if (e := rng.randint(0, 2)) and rng.random() < 0.6]
        factors = [str(abs(c))] if abs(c) != 1 or not mono else []
        if extra and rng.random() < 0.3:
            factors = [f"({abs(c)} + {extra})"]
        text += (" - " if c < 0 else " + ") + "*".join(factors + mono)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _random_script(rng):
    """(order, script text) of one gb, sat or intersect job."""
    field = rng.choice(SCRIPT_FIELDS)
    names = SCRIPT_VARS[: rng.randint(2, 4)]
    order = rng.choice(["grevlex", "lex"])
    command = rng.choice(["gb", "sat", "intersect"])

    def ideal():
        return ", ".join(_random_poly_text(rng, field, names) for _ in range(rng.randint(2, 3)))

    text = f"field {field}; ring [{', '.join(names)}]; ideal I = {ideal()}; "
    if command == "gb":
        text += "gb I;"
    elif command == "sat":
        text += f"sat I, {_random_poly_text(rng, field, names)};"
    else:
        text += f"ideal J = {ideal()}; intersect I, J;"
    return order, text


# sha256 of the JSON reports of seeded scripts with a nontrivial result,
# computed with the Gebauer-Moller kernel that the signature-based one
# replaced.
RANDOM_SCRIPT_HASHES = {
    3: "c726e03b04f77200088eed8e9aceec853998c4401adbe4f4fa094e2c2976d386",
    4: "58cd5d9be21403ae388fd48aec16977fb0dfa8aa99b2bee8aa105f80e51cd368",
    5: "67361fa19efbf73521624be6a72f663602597edf60e94e7324d42a3af9ae3817",
    6: "f25af96a31cf1105669325639b0d0b597ee4459fd3109bba4b668488e438dbff",
    7: "ac96487f267205421a57c84910ee4dec9453fcf15b59e699ed6a98038d3c70d4",
    8: "eacc5aca1bd24ecba9de6d04b49ceca961e724f80ed9165f31ac5ddf2a2fb720",
    9: "b41fa72023895ba649d0fe20f8e08ea48fc6d3402c2d2628ee6df7f73a2e99a5",
    10: "31d999130919563f0259a6b97875b147f03fc7d96c0ba079aecb25fe48ff68e7",
    11: "4d2715e936d0a8147324ab21853a8da42b61c97aab7207008dcf410426f5159c",
    12: "76a15ff84a3ef01ee46708beb58d4894ef33bac6e4046e27125669c9a9d128e7",
    13: "d65a02c53ce20a9a4db5a356e9007d9034ce0f2f9274dd5f1e9c73d74c7bed81",
    14: "bcf1e1dc6d36b2ad89f2edabb1cefb076da454a8d19dc20ff3673c26752cb1ac",
    19: "bb38d113b94da2d2facfa6d7cc53f61a8a69d82a2cbb73f0c02cbf5a6834cf44",
    20: "d0d5e4a188841cde17a5956c5cdeb97981229b8175dc00622251b5f9223c62b8",
    21: "5bf1495e9dd3ebca83baa9030789671ea3f25a76cffe818319c27b59a33efc7d",
    23: "fd2fe882ed80def70f0826e9d99e300c2ccbf5cd6b5e694652b64881277363c7",
    24: "7399ce571c6cd120e0952d514504dbd320981083a0aca8b124cd68159e260bcf",
    25: "5280bbe9188866cb8c2bf2daeb410e28deda75ccd7a6d62f3db0a9aa883c8995",
    27: "63028efbfcffe3abf282efcc47bdced6f8639f78e64c4e76f68e7f2f5a8384f9",
    28: "6bca4aebf3d79fb08842bca0012c275b30689dca71ddb4fa791df95551a79020",
    30: "1c1953423906c1b69a49126f5e668cb1fa77fb6fee7e9bd2af8c3eb32638588d",
    31: "eb9168fe098e2096eb43609da38187a1d0bbf596a0238300d88873296ebb0148",
    32: "59da8ff3616b81cc0f01e0ece1f82c773023a2649750b5f47d87b990a950811a",
    33: "9e0d5e37732cc66f764fd8cfd903883754bdb73e3e70cb2758c6af91e72479d2",
    34: "d2772523a46754f91eecee8b707f49daa8c3555f960e9cb1dd3b7a4aa4912e2a",
    36: "40c4f5fdf3b9f89d1c87e03a8156893f256155b97bcbef34f0d12db8c3571676",
    37: "4b05fe225aed078fa4d76b65842efc13871f5c718598fb51331109831b6570a6",
    40: "ff33c0216661a4dcb803e6ff4ce771904fd8ca939da0ec5ac0a438b1eceaeece",
    41: "4d8e61e90ab7e72af9306dc3a00ccf9154e72088614d672e5a19a50522e220ba",
    42: "916af76ef1ee137fc6afede646cf19aaef2f7f8060c39a5c24de053925c4d7c8",
}


@pytest.mark.parametrize("seed", RANDOM_SCRIPT_HASHES)
def test_random_scripts_pinned(seed):
    order, text = _random_script(random.Random(f"gb-{seed}"))
    report = run(parse_script(text, order))
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == RANDOM_SCRIPT_HASHES[seed], text


def test_cyclic6_reductions_to_zero(monkeypatch):
    # the Gebauer-Moller kernel reduced 462 S-pairs of cyclic-6 to zero; this
    # counts the signature-bounded reductions, which only a Buchberger run makes
    zeros = []
    reduce = groebner._reduce

    def counted(*args):
        out = reduce(*args)
        if len(args) == 6:  # terms, reducers, guard, submul and the bound (s, i)
            out = list(out)
            zeros.append(not out)
        return out

    monkeypatch.setattr(groebner, "_reduce", counted)
    names = "abcdef"
    ring = PolyRing(GF(32003), list(names))
    gens = [
        " + ".join("*".join(names[(i + j) % 6] for j in range(k)) for i in range(6))
        for k in range(1, 6)
    ] + ["a*b*c*d*e*f - 1"]
    assert len(ideal(ring, *gens).groebner_basis) == 45
    assert len(zeros) <= 219
    assert sum(zeros) <= 28


# A grevlex intersection or saturation takes the w-free part of its
# elimination basis as its reduced basis, and `gb I as G` binds a reduced
# basis, so neither runs Buchberger a second time; lex converts the order.
ELIMINATION_SCRIPTS = {
    "sat grevlex": ("grevlex", "sat I, y;", 1),
    "intersect grevlex": ("grevlex", "ideal J = x^3, y; intersect I, J;", 1),
    "sat lex": ("lex", "sat I, y;", 2),
    "intersect lex": ("lex", "ideal J = x^3, y; intersect I, J;", 2),
    "gb then sat": ("grevlex", "gb I as G; sat G, y; gb G;", 2),
}


@pytest.mark.parametrize("name", ELIMINATION_SCRIPTS)
def test_buchberger_runs_per_elimination(monkeypatch, name):
    order, tail, want = ELIMINATION_SCRIPTS[name]
    runs = count_buchberger_runs(monkeypatch)
    run(parse_script("field QQ; ring [x, y]; ideal I = x^2*y, y^3; " + tail, order))
    assert len(runs) == want


def test_buchberger_runs_for_twisted_cubic_symbolic_square(monkeypatch):
    # one run for p's basis, which checks that the witness lies outside p,
    # and one for the elimination basis of (p^2 : x^inf)
    runs = count_buchberger_runs(monkeypatch)
    text = (
        "field QQ; ring [x, y, z, w]; "
        "prime c = x*z - y^2, y*w - z^2, x*w - y*z : witness x; sympow c 2;"
    )
    run(parse_script(text))
    assert len(runs) == 2


V2 = AlgExtField(QQ, "v", UniPoly(QQ, [QQ.from_int(-2), QQ.zero(), QQ.one()]))


@pytest.mark.parametrize(
    "field", [QQ, GF(7), RatFuncField(GF(3), "t"), V2], ids=["QQ", "GF(7)", "F3(t)", "QQ[v]"]
)
def test_elimination_basis_is_the_reduced_basis(field):
    """The basis a grevlex intersect or saturate trusts is the one a fresh
    Buchberger run over its generators computes."""
    rng = random.Random(f"trust-{field!r}")
    ring = PolyRing(field, ["x", "y", "z"])
    order = MonomialOrder.grevlex(ring)

    def draw():
        return random_nonzero_poly(ring, rng, max_degree=2, max_terms=3)

    for _ in range(6):
        I = Ideal(ring, [draw(), draw()], order)
        for result in (saturate(I, draw()), intersect(I, Ideal(ring, [draw(), draw()], order))):
            fresh = Ideal(ring, result.generators, order).groebner_basis
            assert [str(g) for g in result.groebner_basis] == [str(g) for g in fresh]
