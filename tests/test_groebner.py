import pickle
import random
from functools import cmp_to_key

import pytest

from noethops import groebner
from noethops.errors import ArityMismatchError, IncompatibleFieldError
from noethops.fields import GF, QQ, AlgExtField, RatFuncField, UniPoly
from noethops.groebner import (
    Ideal,
    MonomialOrder,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    saturate,
)
from noethops.poly import PolyRing, monomial_div, monomial_lcm, monomials_up_to

from _oracles import TruncatedMembershipOracle
from conftest import random_nonzero, random_nonzero_poly, random_poly

R2 = PolyRing(QQ, ["x", "y"])
R4 = PolyRing(QQ, ["x", "y", "z", "w"])


def twisted_cubic():
    return ideal(R4, "x*z - y^2", "y*w - z^2", "x*w - y*z")


def test_order_compare():
    lex = MonomialOrder.lex(R2)
    grevlex = MonomialOrder.grevlex(R2)
    x, y2 = (1, 0), (0, 2)
    assert lex.compare(x, y2) > 0  # lex ignores degree
    assert grevlex.compare(x, y2) < 0  # degree first
    assert grevlex.compare(x, x) == 0
    with pytest.raises(ArityMismatchError):
        grevlex.compare((1, 0, 0), (0, 1))


def test_elimination_order_blocks():
    order = MonomialOrder.elimination(R2, 1)
    # any power of the eliminated variable beats anything without it
    assert order.compare((1, 0), (0, 9)) > 0
    assert order.compare((0, 3), (0, 2)) > 0


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
        if f.total_degree() > 4:
            f = f.graded_component(min(f.total_degree(), 4))
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
    assert ideal_equal(ideal_product(ideal(R2, "x"), ideal(R2, "y")), ideal(R2, "x*y"))
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
            lti = order.leading_monomial(gb[i])
            ltj = order.leading_monomial(gb[j])
            lcm = monomial_lcm(lti, ltj)
            si = I.ring.monomial(monomial_div(lcm, lti))
            sj = I.ring.monomial(monomial_div(lcm, ltj))
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
    P = ideal_product(I, J)
    for g in P.generators:
        assert K.contains(g)


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
    """The flat key (smaller for bigger monomials) sorts as the textbook
    comparisons do: lex by the leftmost nonzero entry of a - b, grevlex by
    degree then the rightmost nonzero entry of a - b (negative means
    bigger), elimination(2) by grevlex on the first two variables, then
    grevlex on the rest."""

    def lex(a, b):
        d = [x - y for x, y in zip(a, b) if x != y]
        return (d[0] > 0) - (d[0] < 0) if d else 0

    def grevlex(a, b):
        if sum(a) != sum(b):
            return (sum(a) > sum(b)) - (sum(a) < sum(b))
        d = [x - y for x, y in zip(a, b) if x != y]
        return (d[-1] < 0) - (d[-1] > 0) if d else 0

    textbook = {
        "lex": lex,
        "grevlex": grevlex,
        "elimination(2)": lambda a, b: grevlex(a[:2], b[:2]) or grevlex(a[2:], b[2:]),
    }[repr(order)]
    rng = random.Random(20191)
    monos = list({tuple(rng.randint(0, 4) for _ in range(5)) for _ in range(300)})
    want = sorted(monos, key=cmp_to_key(textbook), reverse=True)
    assert sorted(monos, key=order.key) == want
    for width in (16, 32):  # the kernel's packed ints, up to the guard bits
        top = (1 << (width - 1)) - 1
        edge = list({tuple(rng.choice((0, 1, top - 1, top)) for _ in range(5)) for _ in range(300)})
        pack = groebner._Packing(order, width).pack
        assert sorted(monos, key=pack) == want
        assert sorted(edge, key=pack) == sorted(edge, key=cmp_to_key(textbook), reverse=True)
    assert all(order.compare(a, b) == textbook(a, b) for a, b in zip(monos, monos[1:]))


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


# Fields whose kernel values are the elements themselves: reduced bases
# and one normal form, captured before the kernel computed on raw values.
@pytest.mark.parametrize("field, gens, basis, f, remainder", [
    (RatFuncField(GF(5), "t"), ("t*x^2 + y^2 - 1", "x*y - t - 1"),
     ["x*y + (4*t + 4)", "x^2 + 1/t*y^2 + 4/t", "y^3 + (t^2 + t)*x + 4*y"],
     "x^3 + t*y^4", "t*y^2 + 1/t*x + (4*t + 4)/t*y + (4*t^4 + 3*t^3 + 4*t^2)"),
    (_f3t_tower(), ("u*x^2 - t*y", "x*y^2 - u - 1"),
     ["x^2 + 2*u^2*y", "y^3 + (2/t*u^2 + 2/t*u)*x", "x*y^2 + (2*u + 2)"],
     "x^3*y + u*y^3", "(1/t*u^2 + 1)*x + (u^2 + t)"),
], ids=["Fp(t)", "tower"])
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


def test_ideal_with_basis_survives_pickle():
    I = twisted_cubic()
    basis = I.groebner_basis
    J = pickle.loads(pickle.dumps(I))
    assert J.groebner_basis == basis
    f = R4.parse("x^2*z - x*y^2 + w")
    assert J.normal_form(f) == I.normal_form(f)
    assert J.contains(R4.parse("x*z - y^2"))


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
