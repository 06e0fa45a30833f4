import random
from fractions import Fraction

import pytest

from noethops.errors import (
    ArityMismatchError,
    ParseError,
    UnknownVariableError,
)
from noethops.fields import GF, QQ, AlgExtField, RatFuncField, UniPoly
from noethops.poly import PolyRing, monomials_up_to, parse

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


def test_translate():
    S = PolyRing(QQ, ["x"])
    u = S.var(0)
    assert ((u - 1) ** 2).translate([1]) == u**2
    assert u.translate([0]) == u
    assert (x * y).translate([1, 1]) == x * y + x + y + 1


def test_graded_component():
    f = x**2 + x + 1
    assert f.graded_component(1) == x
    assert f.graded_component(3).is_zero()
    g = x**2 * y + y**3
    assert g.graded_component(3) == g


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
