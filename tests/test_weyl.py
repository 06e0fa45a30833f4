import random

import pytest

from noethops.errors import ParseError, UnknownVariableError
from noethops.fields import GF, QQ
from noethops.groebner import ideal
from noethops.poly import PolyRing, monomials_up_to
from noethops.weyl import DiffOp, SolTarget, parse_operator, sol_membership

from conftest import random_elem, random_poly

R = PolyRing(QQ, ["x", "y"])
x, y = R.gens()
dx = DiffOp.partial(R, 0)
dy = DiffOp.partial(R, 1)


def random_op(ring, rng, max_order=3):
    terms = {}
    n = ring.nvars
    for _ in range(rng.randint(1, 4)):
        alpha = [0] * n
        beta = [0] * n
        for _ in range(rng.randint(0, 2)):
            alpha[rng.randrange(n)] += 1
        for _ in range(rng.randint(0, max_order)):
            beta[rng.randrange(n)] += 1
        c = random_elem(ring.field, rng)
        if c:
            terms[(tuple(alpha), tuple(beta))] = c
    return DiffOp(ring, terms)


def test_apply_examples():
    d2 = DiffOp.partial(R, 0, 2)
    assert d2.apply(x**3) == 6 * x
    xdy = dy.premultiply(x)
    assert xdy.apply(y**2) == 2 * x * y
    one = DiffOp.identity(R)
    f = x**2 + 3 * y
    assert one.apply(f) == f


@pytest.mark.parametrize("power", [-1, -3])
def test_partial_refuses_a_negative_power(power):
    with pytest.raises(ValueError):
        DiffOp.partial(R, 0, power)


# A negative index must not wrap round to another variable, and nvars must
# not reach the tuple arithmetic: all refuse as Polynomial.diff does.
@pytest.mark.parametrize("i", [-1, -2, R.nvars])
def test_partial_refuses_a_variable_index_out_of_range(i):
    with pytest.raises(IndexError, match=f"^variable index {i} out of range$"):
        DiffOp.partial(R, i)
    with pytest.raises(IndexError, match=f"^variable index {i} out of range$"):
        R.var(i)
    with pytest.raises(IndexError, match=f"^variable index {i} out of range$"):
        x.diff(i)


def test_bracket_heisenberg():
    assert dx.bracket(x) == DiffOp.identity(R)


def test_bracket_second_order():
    d2 = DiffOp.partial(R, 0, 2)
    b = d2.bracket(x)
    # verify against the defining identity on all monomials of degree <= 4
    for m in monomials_up_to(2, 4):
        f = R.monomial(m)
        assert b.apply(f) == d2.apply(x * f) - x * d2.apply(f)
    assert b == dx.scale(2)


def test_bracket_euler():
    xdx = dx.premultiply(x)
    b = xdx.bracket(x)
    assert b.apply(y) == x * y  # [x*dx, x] acts as multiplication by x
    assert b == DiffOp.identity(R).premultiply(x)


def test_order():
    op = dx.bracket(x)  # identity
    assert (dx + dy).order == 1
    mixed = DiffOp(R, {((0, 0), (1, 1)): QQ.one(), ((2, 1), (0, 0)): QQ.one()})
    assert mixed.order == 2
    assert R.zero() is not None
    assert DiffOp(R, {((2, 1), (0, 0)): QQ.one()}).order == 0
    assert DiffOp.zero(R).order == -1


def test_sol_membership_at_point():
    target = SolTarget.at_point([QQ.zero(), QQ.zero()])
    ops = [DiffOp.identity(R), dx]
    # matches membership in (x^2, y): y is in, x is not
    assert sol_membership(ops, target, y)
    assert not sol_membership(ops, target, x)
    assert sol_membership([], target, x)  # empty intersection of kernels


def test_sol_membership_matches_dual_space_oracle():
    I = ideal(R, "x^2", "y")
    target = SolTarget.at_point([QQ.zero(), QQ.zero()])
    ops = [DiffOp.identity(R), dx]
    for m in monomials_up_to(2, 3):
        f = R.monomial(m)
        assert sol_membership(ops, target, f) == I.contains(f)


def test_sol_membership_other_targets():
    I = ideal(R, "x")
    assert sol_membership([DiffOp.identity(R)], SolTarget.modulo(I), x**2)
    assert not sol_membership([DiffOp.identity(R)], SolTarget.modulo(I), y)
    assert sol_membership([dx], SolTarget.into_ring(), y**3)
    assert not sol_membership([dx], SolTarget.into_ring(), x * y)


def test_bracket_identity_random(rng):
    for _ in range(120):
        d = random_op(R, rng)
        r = random_poly(R, rng, max_degree=3)
        f = random_poly(R, rng, max_degree=4)
        lhs = d.bracket(r).apply(f)
        rhs = d.apply(r * f) - r * d.apply(f)
        assert lhs == rhs


def test_bracket_drops_order(rng):
    for _ in range(100):
        d = random_op(R, rng)
        r = random_poly(R, rng, max_degree=3)
        b = d.bracket(r)
        assert b.order <= max(d.order - 1, -1)


def test_iterated_bracket_vanishes(rng):
    for _ in range(25):
        d = random_op(R, rng, max_order=2)
        n = d.order
        if n < 0:
            continue
        b = d
        for _ in range(n + 1):
            b = b.bracket(random_poly(R, rng, max_degree=2))
        assert b.is_zero()


def test_bracket_identity_char_p(rng):
    S = PolyRing(GF(3), ["x", "y"])
    for _ in range(60):
        d = random_op(S, rng)
        r = random_poly(S, rng, max_degree=3)
        f = random_poly(S, rng, max_degree=4)
        assert d.bracket(r).apply(f) == d.apply(r * f) - r * d.apply(f)


def test_sol_is_ideal_under_multiplication(rng):
    # if f passes then r*f passes: Sol is an ideal
    target = SolTarget.at_point([QQ.zero(), QQ.zero()])
    ops = [DiffOp.identity(R), dx, dy.premultiply(x) + dx]
    members = [f for f in (x**2, x * y, y**2, x**3) if sol_membership(ops, target, f)]
    for f in members:
        for _ in range(20):
            r = random_poly(R, rng, max_degree=3)
            assert sol_membership(ops, target, r * f)


def test_mpower_containment_at_point(rng):
    # operators of order <= n-1 with an at-point target annihilate m_alpha^n
    for _ in range(20):
        d = random_op(R, rng, max_order=2)
        n = d.order + 1
        if n <= 0:
            continue
        a = [random_elem(QQ, rng), random_elem(QQ, rng)]
        target = SolTarget.at_point(a)
        mx = R.var(0) - R.const(a[0])
        my = R.var(1) - R.const(a[1])
        gens = [mx**i * my ** (n - i) for i in range(n + 1)]
        for g in gens:
            assert sol_membership([d], target, g)


def test_sol_membership_incompatible_target_field():
    from noethops.errors import IncompatibleFieldError

    S = PolyRing(GF(5), ["x", "y"])
    target = SolTarget.at_point([GF(5).zero(), GF(5).zero()])
    with pytest.raises(IncompatibleFieldError):
        sol_membership([DiffOp.identity(R)], target, x)


def test_parse_operator():
    assert parse_operator("dx", R) == dx
    assert parse_operator("dy^2", R) == DiffOp.partial(R, 1, 2)
    assert parse_operator("x*dx - dy", R) == dx.premultiply(x) - dy
    assert parse_operator("1", R) == DiffOp.identity(R)
    assert parse_operator("dx*x", R) == dx.premultiply(x)  # normal form reading
    assert parse_operator("-dx + 1/2*dy", R) == dy.scale(QQ.from_int(1) / 2) - dx
    with pytest.raises(ParseError, match="division by zero"):
        parse_operator("dx/0", R)
    with pytest.raises(ParseError, match="division by a non-constant"):
        parse_operator("dx/x", R)
    with pytest.raises(UnknownVariableError):
        parse_operator("(dx)", R)  # parentheses hold polynomials only


def test_operator_format_roundtrip(rng):
    for _ in range(40):
        d = random_op(R, rng)
        if d.is_zero():
            continue
        assert parse_operator(d.format(), R) == d


def test_operator_json():
    op = dx.premultiply(x) - dy
    records = op.to_json()
    assert {tuple(r["dexp"]) for r in records} == {(1, 0), (0, 1)}
    for r in records:
        assert set(r) == {"xexp", "dexp", "coeff"}
