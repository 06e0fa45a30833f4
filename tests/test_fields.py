import operator
import random
from fractions import Fraction

import pytest

from noethops.errors import (
    IncompatibleFieldError,
    InconsistentExtensionError,
    NotInvertibleError,
)
from noethops.fields import (
    GF,
    QQ,
    AlgExtField,
    RatFuncField,
    RationalField,
    UniPoly,
    field_of,
    invert,
    rational,
)
from noethops.poly import PolyRing, to_unipoly
from noethops.weyl import DiffOp

from conftest import in_generator, random_elem, random_nonzero

F5 = GF(5)
F2T = RatFuncField(GF(2), "t")
F5T = RatFuncField(GF(5), "t")
QT = RatFuncField(QQ, "t")


def _ext_f2t():
    # F_2(t)[u] / (u^2 - t)
    t = F2T.generator()
    m = UniPoly(F2T, [-t, F2T.zero(), F2T.one()])
    return AlgExtField(F2T, "u", m)


def _ext_sqrt2():
    # Q[u] / (u^2 - 2)
    m = UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    return AlgExtField(QQ, "u", m)


ALL_FIELDS = [QQ, F5, F2T, QT, _ext_f2t(), _ext_sqrt2()]


def test_rational_normalization():
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(0, 5) == Fraction(0, 1)
    assert rational(0, 5).denominator == 1
    assert rational(-3, -6) == Fraction(1, 2)
    r = rational(-3, -6)
    assert r.numerator == 1 and r.denominator == 2
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_rational_canonical_form_unique():
    assert rational(4, 6) == rational(-2, -3)
    assert hash(rational(4, 6)) == hash(rational(-2, -3))


def test_invert_examples():
    assert invert(F5.from_int(3)) == F5.from_int(2)
    assert invert(Fraction(2, 3)) == Fraction(3, 2)
    t = F2T.generator()
    a = t / (t + 1)
    b = invert(a)
    assert a * b == F2T.one()
    assert b == (t + 1) / t
    # re-normalized monic denominator
    assert b.raw[1][-1] == GF(2).raw_one


def _f3t_cube_root():
    # F_3(t)[u] / (u^3 - t)
    F3T = RatFuncField(GF(3), "t")
    t = F3T.generator()
    return AlgExtField(F3T, "u", UniPoly(F3T, [-t, F3T.zero(), F3T.zero(), F3T.one()]))


RAW_DOMAIN_FIELDS = [
    GF(32003), GF(2), QQ, F5T, QT, RatFuncField(F5T, "s"),
    AlgExtField(QQ, "v", UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)])),
    _f3t_cube_root(),
]


@pytest.mark.parametrize("field", RAW_DOMAIN_FIELDS, ids=repr)
def test_raw_domain_matches_wrapped_arithmetic(field):
    """The raw operations that the Groebner kernel and tower arithmetic
    compute with agree with element arithmetic, return canonical raw values
    that convert back to the same values, and give a falsy value exactly
    for zero; a base value lifted into a tower hashes as it did."""
    rng = random.Random(f"raw-domain-{field!r}")
    raw, back = field.to_raw, field.from_raw
    zero = field.zero()
    assert not raw(zero) and back(raw(zero)) == zero
    cancelled = 0
    for _ in range(300):
        c, t = random_nonzero(field, rng), random_nonzero(field, rng)
        assert raw(c) and back(raw(c)) == c
        acc = rng.choice([None, zero, c * t, random_elem(field, rng)])
        s = field.submul(None if acc is None else raw(acc), raw(c), raw(t))
        want = (zero if acc is None else acc) - c * t
        assert back(s) == want and bool(s) == bool(want)
        cancelled += not s
        for r, value in ((s, want), (field.mul(raw(c), raw(t)), c * t),
                         (field.inv(raw(c)), invert(c))):
            assert back(r) == value
            assert raw(back(r)) == r  # canonical: equal values, equal raw values
        if isinstance(field, (RatFuncField, AlgExtField)):
            b = random_elem(field.base, rng)
            lifted = field.coerce(b)
            assert lifted == b and hash(lifted) == hash(b) and bool(raw(lifted)) == bool(b)
    assert cancelled > 10


def test_invert_zero_fails():
    for field in ALL_FIELDS:
        with pytest.raises(NotInvertibleError):
            invert(field.zero())


def test_ext_mul_forced_relations():
    L = _ext_f2t()
    u = L.generator()
    t = L.coerce(F2T.generator())
    assert u * u == t
    assert (u + 1) * (u + 1) == t + L.one()  # char 2: u^2 + 2u + 1 = t + 1
    a = u + t
    assert L.one() * a == a


def test_ext_mismatched_fields():
    a = _ext_f2t().generator()
    b = _ext_sqrt2().generator()
    with pytest.raises(IncompatibleFieldError):
        a * b


def test_reducible_minpoly_detected_on_inversion():
    # u^2 - 1 = (u-1)(u+1) is not irreducible; inverting u - 1 must fail
    m = UniPoly(QQ, [Fraction(-1), Fraction(0), Fraction(1)])
    L = AlgExtField(QQ, "u", m)
    bad = L.generator() - L.one()
    with pytest.raises(InconsistentExtensionError):
        invert(bad)


def test_minpoly_must_be_monic():
    m = UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(3)])
    with pytest.raises(ValueError):
        AlgExtField(QQ, "u", m)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_random_inverses(field):
    rng = random.Random(12345)
    one = field.one()
    for _ in range(1000):
        a = random_nonzero(field, rng)
        assert a * invert(a) == one


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_axioms(field):
    rng = random.Random(777)
    for _ in range(60):
        a = random_elem(field, rng)
        b = random_elem(field, rng)
        c = random_elem(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + field.zero() == a
        assert a * field.one() == a
        assert a - a == field.zero()


def _from_list(field, p):
    """The value of a tower field that a raw list over its base is."""
    return in_generator(field, map(field.base.from_raw, p))


def test_ratfunc_normalization_idempotent(rng):
    K = F2T.base
    for _ in range(100):
        a = random_elem(F2T, rng)
        if not a:
            assert a.raw is None
            continue
        num, den = a.raw
        assert den[-1] == K.raw_one
        assert len(K.pgcd(num, den)) == 1
        again = _from_list(F2T, num) / _from_list(F2T, den)
        assert again.raw == a.raw


@pytest.mark.parametrize("field", [F2T, F5T, QT, RatFuncField(QT, "s")], ids=repr)
def test_ratfunc_unit_denominator_is_canonical(field, rng):
    # num/1 is held as (num, 1); (num*d)/d reaches the same pair through gcd
    # cancellation and rescaling, and must compare and hash the same.  +, -
    # and * of two num/1 values take the unit-denominator rule and must give
    # the pair (cross, 1) of the cross-multiplied numerator
    K = field.base
    one = (K.raw_one,)

    def same(got, want):
        assert got == want
        assert hash(got) == hash(want)
        assert got.raw == want.raw

    def pair(num):
        return (num, one) if num else None

    def poly():
        return UniPoly(K, [random_elem(K, rng) for _ in range(rng.randint(0, 4))]).raw

    for _ in range(20):
        num = poly()
        d = UniPoly(K, [random_nonzero(K, rng) for _ in range(rng.randint(1, 3))]).raw
        direct = _from_list(field, num)
        assert direct.raw == pair(num)
        same(direct, _from_list(field, K.pmul(num, d)) / _from_list(field, d))
        other_num = poly()
        other = _from_list(field, other_num)
        for op, cross in (
            (operator.add, K.padd(num, other_num)),
            (operator.sub, K.padd(num, K.pneg(other_num))),
            (operator.mul, K.pmul(num, other_num)),
        ):
            got = op(direct, other)
            assert got.raw == pair(cross)
            same(got, _from_list(field, cross))


def test_prime_field_validation():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF((1 << 64) + 13)  # beyond machine-word moduli
    assert GF(2).characteristic == 2


def test_field_of():
    assert field_of(Fraction(1, 2)) == QQ
    assert field_of(F5.from_int(2)) == F5
    assert field_of(F2T.generator()) == F2T


def _divisors(field, elem, rng):
    """Divisors of every shape the division rules tell apart: monic x^p - c
    with p - 1 zero inner coefficients, x - g for the field's generator,
    sparse ones with a random (mostly non-monic) lead, and dense ones."""
    one, zero = field.one(), field.zero()

    def nonzero():
        while not (c := elem()):
            pass
        return c

    g = field.generator() if isinstance(field, (RatFuncField, AlgExtField)) else field.from_int(3)
    yield UniPoly(field, [-g, one])
    for p in (2, 3, 5):
        yield UniPoly(field, [-elem()] + [zero] * (p - 1) + [one])
    for _ in range(3):
        inner = [elem() if rng.random() < 0.4 else zero for _ in range(rng.randint(0, 4))]
        yield UniPoly(field, [nonzero()] + inner + [nonzero()])
        dense = [nonzero() for _ in range(rng.randint(1, 4))]
        yield UniPoly(field, dense)
        yield UniPoly(field, dense + [one])


def test_pdivmod_roundtrip(rng):
    t = F2T.generator()
    ext = AlgExtField(F2T, "u", UniPoly(F2T, [t, F2T.zero(), F2T.one()]))
    # Random QQ(t)(s) values swell the nested Fraction gcds (one degree-3 by
    # degree-1 division took 3.8 s), so that tower divides polynomials in s, t
    qts = RatFuncField(QT, "s")
    qs, qt = qts.generator(), qts.coerce(QT.generator())

    def small_qts():
        return rng.randint(-2, 2) + rng.randint(-2, 2) * qt + rng.randint(-2, 2) * qs

    for field, rounds in ((QQ, 4), (F5, 4), (F2T, 3), (ext, 3), (qts, 1)):
        if field is qts:
            elem, a_degree = small_qts, 5
        else:
            elem, a_degree = (lambda: random_elem(field, rng)), 8
        for _ in range(rounds):
            for b in _divisors(field, elem, rng):
                a = UniPoly(field, [elem() for _ in range(rng.randint(0, a_degree))]).raw
                q, r = field.pdivmod(a, b.raw)
                assert field.padd(field.pmul(q, b.raw), r) == a
                assert len(r) < len(b.raw)


@pytest.mark.parametrize("field", [QQ, GF(7), F5T, _f3t_cube_root()], ids=repr)
def test_pgcd_and_pinverse(field, rng):
    """pgcd is monic and divides both inputs, and a common factor divides
    it; pinverse's g divides a and m, and s*a = g modulo m, deg s < deg m."""
    if isinstance(field, AlgExtField):
        # Euclid on random coefficients over F_3(t) swells its remainders
        # for seconds, so coefficients in the extension are small
        # combinations of 1, u and t
        u, t = field.generator(), field.coerce(field.base.generator())

        def elem():
            return rng.randint(-2, 2) + rng.randint(-1, 1) * u + rng.randint(-1, 1) * t
    else:
        def elem():
            return random_elem(field, rng)

    def poly(low, high):
        return UniPoly(field, [elem() for _ in range(rng.randint(low, high))]).raw

    def divides(d, p):
        return not field.pdivmod(p, d)[1]

    for _ in range(12):
        c = poly(1, 3)
        a, b = field.pmul(c, poly(0, 3)), field.pmul(c, poly(1, 3))
        g = field.pgcd(a, b)
        if not a and not b:
            assert g == ()
            continue
        assert g[-1] == field.raw_one and divides(g, a) and divides(g, b) and divides(c, g)
        m = poly(2, 4)
        if not m:
            continue
        g, s = field.pinverse(a, m)
        assert divides(g, a) and divides(g, m) and len(s) < len(m)
        assert not field.pdivmod(field.padd(field.pmul(s, a), field.pneg(g)), m)[1]


def test_characteristic_annihilates():
    assert F5.from_int(5) == F5.zero()
    L = _ext_f2t()
    assert L.from_int(2) == L.zero()
    assert QT.from_int(7) != QT.zero()


def _values():
    """(label, a, b) for each exact value type: four fields, then k[x, y]."""
    F5t = RatFuncField(F5, "t")
    t5, tq, t2 = F5t.generator(), QT.generator(), F2T.generator()
    L = AlgExtField(F2T, "u", UniPoly(F2T, [t2, F2T.zero(), F2T.one()]))
    u = L.generator()
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    return [
        ("GF(7)", GF(7).from_int(3), GF(7).from_int(5)),
        ("F_5(t)", (t5 + 1) / t5, t5 * t5 + 2),
        ("QQ(t)", (1 - tq * tq) / (2 * tq), tq + 3),
        ("ext", u + t2, u),
        ("Polynomial", x - 2 * y, x * y + 1),
    ]


def _operator_results(a, b):
    """Printed results of the operators each type derives from its own
    +, unary -, * and inverse."""
    out = [repr(a - b), repr(3 - a), repr(a - 3), repr(a**3), repr(a**0)]
    out += [a == 3, a != b, a == a, (a - a + 3) == 3]
    if hasattr(a, "inverse"):
        out += [repr(a / b), repr(3 / a), repr(a / 3), repr(a**-2)]
    return out


# Exact results, pinned: the derived operators must keep every one.
OPERATOR_RESULTS = {
    "GF(7)": ["5", "0", "0", "6", "1", True, True, True, True, "2", "1", "1", "4"],
    "F_5(t)": [
        "(4*t^3 + 4*t + 1)/t", "(2*t + 4)/t", "(3*t + 1)/t",
        "(t^3 + 3*t^2 + 3*t + 1)/t^3", "1", False, True, True, True,
        "(t + 1)/(t^3 + 2*t)", "3*t/(t + 1)", "(2*t + 2)/t", "t^2/(t^2 + 2*t + 1)",
    ],
    "QQ(t)": [
        "(-3/2*t^2 - 3*t + 1/2)/t", "(1/2*t^2 + 3*t - 1/2)/t",
        "(-1/2*t^2 - 3*t + 1/2)/t", "(-1/8*t^6 + 3/8*t^4 - 3/8*t^2 + 1/8)/t^3",
        "1", False, True, True, True,
        "(-1/2*t^2 + 1/2)/(t^2 + 3*t)", "-6*t/(t^2 - 1)", "(-1/6*t^2 + 1/6)/t",
        "4*t^2/(t^4 - 2*t^2 + 1)",
    ],
    "ext": [
        "t", "u + (t + 1)", "u + (t + 1)", "(t^2 + t)*u + (t^3 + t^2)",
        "1", False, True, True, True,
        "u + 1", "1/(t^2 + t)*u + 1/(t + 1)", "u + t", "1/(t^2 + t)",
    ],
    "Polynomial": [
        "-x*y + x - 2*y - 1", "-x + 2*y + 3", "x - 2*y - 3",
        "x^3 - 6*x^2*y + 12*x*y^2 - 8*y^3", "1", False, True, True, True,
    ],
}


@pytest.mark.parametrize("label, a, b", _values(), ids=[v[0] for v in _values()])
def test_derived_operators(label, a, b):
    assert _operator_results(a, b) == OPERATOR_RESULTS[label]
    assert not hasattr(a, "__dict__")


def test_ring_values_refuse_field_operators():
    R = PolyRing(QQ, ["x"])
    (x,) = R.gens()
    f = UniPoly(QQ, [QQ.one(), QQ.one()])
    dx = DiffOp.partial(R, 0)
    refused_ops = [lambda: x / 2, lambda: 2 / x, lambda: dx**2, lambda: dx / dx]
    # a UniPoly is a boundary type and computes nothing
    refused_ops += [lambda: f + f, lambda: -f, lambda: f * f, lambda: f / f, lambda: f**2,
                    lambda: divmod(f, f)]
    for refused in refused_ops:
        with pytest.raises(TypeError):
            refused()
    with pytest.raises(ValueError, match="negative power of a polynomial"):
        x**-1
    for unhashable in (x, dx):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_mixed_prime_fields():
    a, b = GF(7).from_int(3), GF(5).from_int(3)
    with pytest.raises(IncompatibleFieldError):
        a - b
    assert not a == b
    assert a != b


@pytest.mark.parametrize(
    "left, right", [(QQ, QT), (GF(5), GF(7))], ids=["QQ|QQ(t)", "GF(5)|GF(7)"]
)
def test_unipolys_over_different_fields_do_not_mix(left, right):
    a = UniPoly(left, [left.one()])
    b = UniPoly(right, [right.from_int(2), right.one()])
    assert not a == b and not b == a
    assert a != b
    assert UniPoly(right, [right.one()]) != a and a == UniPoly(left, [1])


def _f3t_ext(var="u", base_var="t", shift=0):
    # F_3(s)[var] / (var^3 - s - shift) with s the base variable
    base = RatFuncField(GF(3), base_var)
    s = base.generator()
    return AlgExtField(base, var, UniPoly(base, [-s - shift, base.zero(), base.zero(), base.one()]))


# (build, fields that differ in one of p, variable name, base or minimal
# polynomial); `build` makes a new field object on every call.
IDENTITY_CASES = {
    "GF(7)": (lambda: GF(7), [GF(5)]),
    "QQ": (RationalField, [GF(7), RatFuncField(QQ, "t")]),
    "F_5(t)": (
        lambda: RatFuncField(GF(5), "t"),
        [RatFuncField(GF(7), "t"), RatFuncField(GF(5), "s"), RatFuncField(QQ, "t")],
    ),
    "F_3(t)[u]/(u^3-t)": (
        _f3t_ext,
        [_f3t_ext(var="v"), _f3t_ext(base_var="s"), _f3t_ext(shift=1)],
    ),
}


@pytest.mark.parametrize("label", IDENTITY_CASES)
def test_field_identity(label):
    build, differing = IDENTITY_CASES[label]
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.from_int(2) == b.from_int(2)
    for other in differing:
        assert a != other and other != a
        c = other.from_int(2)
        with pytest.raises(IncompatibleFieldError):
            a.coerce(c)
        if type(c) is type(a.from_int(2)):
            for mixed in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(IncompatibleFieldError):
                    mixed(a.from_int(2), c)


def test_values_equal_ints_but_are_not_int_keys():
    a = GF(7).from_int(3)
    assert a == 3 and a == 10
    assert 3 not in {a}


def _tower(*steps, bottom=QQ):
    """Every level of a tower from `bottom`: a step "s" adjoins the rational
    function variable s, and (name, text) adjoins a root of the monic
    polynomial `text` in name, whose other names are generators below."""
    levels = [bottom]
    for step in steps:
        below = levels[-1]
        if isinstance(step, str):
            levels.append(RatFuncField(below, step))
        else:
            name, text = step
            m = to_unipoly(PolyRing(below, [name]).parse(text))
            levels.append(AlgExtField(below, name, m))
    return levels


TOWERS = {
    "F_3(t)(s)": _tower("t", "s", bottom=GF(3)),
    "QQ[v][w]": _tower(("v", "v^2 - 2"), ("w", "w^2 - 3")),
    "F_3(t)[u](s)": _tower("t", ("u", "u^3 - t"), "s", bottom=GF(3)),
}


def _sample(field):
    """A nonzero value of field that lies in no level below it."""
    if isinstance(field, (RatFuncField, AlgExtField)):
        return field.generator() + 2
    return field.from_int(2)


@pytest.mark.parametrize("label", TOWERS)
def test_values_lift_through_every_level(label):
    *below, top = TOWERS[label]
    b = top.generator() + 1
    for field in below:
        a = _sample(field)
        lifted = top.coerce(a)
        assert lifted.field == top and top.coerce(lifted) is lifted
        assert a == lifted and lifted == a and not a != lifted
        assert a != b and b != a
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert op(a, b) == op(lifted, b)
            assert op(b, a) == op(b, lifted)
            assert op(a, b).field == top and op(b, a).field == top


@pytest.mark.parametrize("label", TOWERS)
def test_lifted_values_hash_as_they_did(label):
    levels = TOWERS[label]
    for i, field in enumerate(levels[:-1]):
        for a in (_sample(field), field.zero(), field.one()):
            for above in levels[i + 1:]:
                lifted = above.coerce(a)
                assert hash(lifted) == hash(a)
                assert lifted in {a} and a in {lifted}
    top = levels[-1]
    assert len({top.coerce(_sample(f)) for f in levels} | {_sample(f) for f in levels}) == len(levels)


@pytest.mark.parametrize("label", TOWERS)
def test_named_generators_are_values_of_the_top_field(label):
    levels = TOWERS[label]
    top = levels[-1]
    gens = top.named_generators()
    own = {f.var: f.generator() for f in levels[1:]}
    assert list(gens) == list(own)
    for name, g in gens.items():
        assert g.field == top
        assert g == own[name] and own[name] == g


@pytest.mark.parametrize("label", IDENTITY_CASES)
def test_fields_off_the_tower_still_refuse(label):
    build, differing = IDENTITY_CASES[label]
    top = RatFuncField(build(), "s")
    a = top.generator() + 2
    for other in differing:
        c = other.from_int(2)
        with pytest.raises(IncompatibleFieldError):
            top.coerce(c)
        for mixed in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y in ((a, c), (c, a)):
                with pytest.raises(IncompatibleFieldError):
                    mixed(x, y)
        assert not a == c and not c == a
