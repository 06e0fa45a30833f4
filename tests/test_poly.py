import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from noethops.errors import (
    ArityMismatchError,
    IncompatibleFieldError,
    ParseError,
    UnknownVariableError,
)
from noethops.fields import GF, QQ, AlgExtField, RatFuncField, UniPoly
from noethops.poly import PolyRing, grevlex_key, monomials_of_degree, monomials_up_to, parse

from conftest import random_elem, random_poly

R = PolyRing(QQ, ["x", "y"])
x, y = R.gens()


def test_parse_basic():
    f = parse("x^2 + 2*x*y", R)
    assert f == x**2 + 2 * x * y
    assert f.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2)}


def test_parse_binomial_expansion():
    assert parse("(x+y)^2", R) == x**2 + 2 * x * y + y**2


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse("x + z", R)


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as err:
        parse("x + + y", R)
    assert err.value.pos is not None


def test_parse_rational_coefficients():
    assert parse("1/2*x - 3/4", R) == Fraction(1, 2) * x - R.const(Fraction(3, 4))
    with pytest.raises(ParseError, match="division by a non-constant"):
        parse("x/y", R)
    with pytest.raises(ParseError, match="division by zero"):
        parse("x/0", R)


def test_parse_division_by_a_zero_divisor_is_a_parse_error():
    # u^2 - 1 = (u - 1)(u + 1) is not irreducible, so u - 1 has no inverse
    L = AlgExtField(QQ, "u", UniPoly(QQ, [Fraction(-1), Fraction(0), Fraction(1)]))
    S = PolyRing(L, ["x"])
    with pytest.raises(ParseError, match=r"^zero divisor u - 1 in QQ\[u\]/\(u\^2 - 1\); ") as err:
        S.parse("x + 1/(u - 1)")
    assert err.value.pos == 5
    assert S.parse("x + 1/u") == S.parse("x + u")  # u^-1 = u: units still divide


def test_parse_t_rational_coefficients():
    F2T = RatFuncField(GF(2), "t")
    S = PolyRing(F2T, ["x"])
    t = F2T.generator()
    f = parse("t*x + (t+1)/t", S)
    assert f.coefficient((1,)) == t
    assert f.coefficient((0,)) == (t + 1) / t


def test_partial_derivatives():
    assert (x**2 * y).diff(0) == 2 * x * y
    assert R.const(7).diff(0).is_zero()
    S = PolyRing(GF(2), ["x"])
    assert (S.var(0) ** 2).diff(0).is_zero()
    with pytest.raises(IndexError):
        x.diff(5)


# Exponents are checked where they enter a ring: a negative one sent the
# Groebner kernel widening its packing until memory ran out, and a float
# died there in a bit operation.
@pytest.mark.parametrize("exps", [(-1, 0), (0, -3), (1.5, 0), (True, 0), ("1", 0)], ids=str)
def test_ring_refuses_a_malformed_exponent(exps):
    with pytest.raises(ValueError, match="^exponents must be nonnegative ints"):
        R.monomial(exps)
    with pytest.raises(ValueError, match="^exponents must be nonnegative ints"):
        R.poly({exps: 1})


BAD_BETAS = [
    pytest.param(beta, error, id=str(beta))
    for beta, error in [
        ((1,), ArityMismatchError),
        ((0, 0, 1), ArityMismatchError),
        ((), ArityMismatchError),
        ((1, -1), ValueError),
        ((-2, 0), ValueError),
    ]
]


@pytest.mark.parametrize("beta, error", BAD_BETAS)
@pytest.mark.parametrize("f", [x**3 * y**2 + x, R.zero()], ids=["f", "zero"])
def test_diff_multi_refuses_a_bad_multi_index(f, beta, error):
    with pytest.raises(error):
        f.diff_multi(beta)


def diff_multi_by_steps(f, beta):
    """d^beta term by term: multiply by e, e - 1, ... through from_int and
    drop the term as soon as its coefficient is zero."""
    from_int = f.ring.field.from_int
    out = {}
    for m, c in f.terms.items():
        m = list(m)
        for i, b in enumerate(beta):
            for _ in range(b):
                if not c:
                    break
                c = c * from_int(m[i])
                m[i] -= 1
        if c:
            out[tuple(m)] = c
    return f.ring.poly(out)


def _f3t():
    return RatFuncField(GF(3), "t")


def _f3t_u():
    F = _f3t()
    t = F.generator()
    return AlgExtField(F, "u", UniPoly(F, [-t, F.zero(), F.zero(), F.one()]))


CALCULUS_FIELDS = [
    pytest.param(lambda: QQ, 40, id="QQ"),
    pytest.param(lambda: GF(2), 40, id="GF(2)"),
    pytest.param(lambda: GF(3), 40, id="GF(3)"),
    pytest.param(lambda: GF(32003), 40, id="GF(32003)"),
    pytest.param(_f3t, 15, id="F_3(t)"),
    pytest.param(_f3t_u, 8, id="F_3(t)[u]/(u^3 - t)"),
]


@pytest.mark.parametrize("make_field, cases", CALCULUS_FIELDS)
def test_diff_multi_against_stepwise_oracle(make_field, cases):
    rng = random.Random(1212)
    ring = PolyRing(make_field(), ["x", "y"])
    u, v = ring.gens()
    # falling factorials divisible by small characteristics: 4*3 = 12, 3*2 = 6
    fixed = [(u**4 + v**3 + u * v, (2, 0)), (u**4 * v**3, (1, 2)), (u**5 * v, (3, 1))]
    for f, beta in fixed:
        assert f.diff_multi(beta) == diff_multi_by_steps(f, beta)
    if ring.field.characteristic == 3:
        assert (u**4).diff_multi((2, 0)).is_zero()
    for _ in range(cases):
        f = random_poly(ring, rng, max_degree=7, max_terms=5)
        g = random_poly(ring, rng, max_degree=4, max_terms=3)
        beta = (rng.randint(0, 5), rng.randint(0, 5))  # often above some exponent
        assert f.diff_multi(beta) == diff_multi_by_steps(f, beta)
        for i, e_i in enumerate([(1, 0), (0, 1)]):
            assert f.diff(i) == f.diff_multi(e_i)
        beta = (rng.randint(0, 3), rng.randint(0, 3))
        leibniz = ring.zero()
        for gamma in product(*(range(b + 1) for b in beta)):
            rest = tuple(b - c for b, c in zip(beta, gamma))
            coeff = ring.field.from_int(prod(map(comb, beta, gamma)))
            leibniz = leibniz + f.diff_multi(gamma) * g.diff_multi(rest) * ring.const(coeff)
        assert (f * g).diff_multi(beta) == leibniz


ONE_TERM_FIELDS = [
    pytest.param(lambda: QQ, id="QQ"),
    pytest.param(lambda: GF(7), id="GF(7)"),
    pytest.param(_f3t, id="F_3(t)"),
    pytest.param(_f3t_u, id="F_3(t)[u]/(u^3 - t)"),
]


@pytest.mark.parametrize("make_field", ONE_TERM_FIELDS)
def test_one_term_products_and_powers_match_the_general_rules(make_field):
    """A product with a one-term operand maps the other operand's monomials
    and a power of one term powers its coefficient once; both agree with
    the term-by-term product and repeated multiplication."""
    rng = random.Random(f"one-term-{make_field()!r}")
    ring = PolyRing(make_field(), ["x", "y", "z"])

    def product_by_terms(f, g):
        out = ring.zero()
        for (m1, c1), (m2, c2) in product(f.terms.items(), g.terms.items()):
            out = out + ring.poly({tuple(map(sum, zip(m1, m2))): c1 * c2})
        return out

    for _ in range(20):
        f = random_poly(ring, rng, max_degree=4, max_terms=5)
        term = random_poly(ring, rng, max_degree=4, max_terms=1)
        for a, b in ((term, f), (f, term), (term, term)):
            assert a * b == product_by_terms(a, b)
        power = ring.one()
        for n in range(6):
            assert term**n == power
            power = product_by_terms(power, term)
        c = random_elem(ring.field, rng)
        assert c * f == product_by_terms(ring.const(c), f) and f * c == c * f


def test_evaluate():
    f = x**2 + y
    assert f.evaluate([1, 2]) == 3
    assert (x - 1).evaluate([1, 0]) == 0
    with pytest.raises(ArityMismatchError):
        f.evaluate([1])


def test_evaluate_in_extension():
    F2T = RatFuncField(GF(2), "t")
    t = F2T.generator()
    m = UniPoly(F2T, [-t, F2T.zero(), F2T.one()])
    L = AlgExtField(F2T, "u", m)
    S = PolyRing(F2T, ["x"])
    f = S.var(0) ** 2
    assert f.evaluate([L.generator()]) == L.coerce(t)


def test_evaluate_at_coordinates_from_two_levels_of_a_tower():
    F3T = RatFuncField(GF(3), "t")
    F3TS = RatFuncField(F3T, "s")
    t, s = F3T.generator(), F3TS.generator()
    f = PolyRing(GF(3), ["x", "y"]).parse("x^2*y + 2*x + 1")
    for a, b in ((t, s), (s, t)):
        got = f.evaluate([a, b])
        assert got.field == F3TS and got == a**2 * b + 2 * a + 1
    Qv = AlgExtField(QQ, "v", UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)]))
    Qvw = AlgExtField(Qv, "w", UniPoly(Qv, [Qv.from_int(-3), Qv.zero(), Qv.one()]))
    v, w = Qv.generator(), Qvw.generator()
    got = PolyRing(QQ, ["x", "y"]).parse("x^2*y - x*y^2").evaluate([v, w])
    assert got.field == Qvw and got == 2 * w - 3 * v


def test_evaluate_follows_the_tower_rule():
    Qv = AlgExtField(QQ, "v", UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)]))
    Qw = AlgExtField(QQ, "w", UniPoly(QQ, [Fraction(-3), Fraction(0), Fraction(1)]))
    R = PolyRing(QQ, ["x", "y"])
    with pytest.raises(IncompatibleFieldError):  # y's coordinate is off x's tower
        R.var(0).evaluate([Qv.generator(), Qw.generator()])
    F3TS = RatFuncField(RatFuncField(GF(3), "t"), "s")
    s = F3TS.generator()
    got = PolyRing(GF(3), ["x", "y"]).parse("x + 1").evaluate([1, s])
    assert got.field == F3TS and got == F3TS.from_int(2)
    zero = R.zero().evaluate([1, Qv.generator()])
    assert zero.field == Qv and not zero


def test_translate():
    S = PolyRing(QQ, ["x"])
    u = S.var(0)
    assert ((u - 1) ** 2).translate([1]) == u**2
    assert u.translate([0]) == u
    assert (x * y).translate([1, 1]) == x * y + x + y + 1


def test_format_parse_roundtrip(rng):
    fields = [QQ, GF(5), RatFuncField(GF(2), "t"), RatFuncField(QQ, "t")]
    for field in fields:
        ring = PolyRing(field, ["x", "y", "z"])
        for _ in range(60):
            f = random_poly(ring, rng)
            assert parse(f.format(), ring) == f


def test_leibniz_rule(rng):
    for _ in range(50):
        f = random_poly(R, rng, max_degree=4)
        g = random_poly(R, rng, max_degree=4)
        for i in range(2):
            assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)


def test_partials_commute(rng):
    for _ in range(50):
        f = random_poly(R, rng, max_degree=5)
        assert f.diff(0).diff(1) == f.diff(1).diff(0)


def test_translate_inverse(rng):
    for _ in range(30):
        f = random_poly(R, rng, max_degree=4)
        a = [random_elem(QQ, rng), random_elem(QQ, rng)]
        assert f.translate(a).translate([-a[0], -a[1]]) == f


def test_evaluate_is_homomorphism(rng):
    for _ in range(30):
        f = random_poly(R, rng)
        g = random_poly(R, rng)
        pt = [random_elem(QQ, rng), random_elem(QQ, rng)]
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


def test_monomials_up_to():
    ms = monomials_up_to(2, 2)
    assert ms == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # against the definition: the exponent box cut at the degree, grevlex ascending
    for nvars in range(5):
        for degree in range(12):
            box = [m for m in product(range(degree + 1), repeat=nvars) if sum(m) <= degree]
            expected = sorted(box, key=grevlex_key, reverse=True)
            assert monomials_up_to(nvars, degree) == expected
            assert monomials_of_degree(nvars, degree) == [m for m in expected if sum(m) == degree]
