from itertools import product

import pytest

from noethops.fields import GF, QQ
from noethops.groebner import ideal
from noethops.poly import PolyRing, monomials_up_to
from noethops.weyl import DiffOp, SolTarget, sol_membership

from _oracles import bracket, order
from conftest import random_elem, random_poly

R = PolyRing(QQ, ["x", "y"])
x, y = R.gens()
Z = (0, 0)
ONE = DiffOp(R, {(Z, Z): QQ.one()})
dx = DiffOp(R, {(Z, (1, 0)): QQ.one()})
dy = DiffOp(R, {(Z, (0, 1)): QQ.one()})


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


def bracket_op(d, r):
    """[d, r] as an operator, from the oracle's Leibniz expansion."""
    return DiffOp(d.ring, bracket(d.terms, r.terms))


def test_apply_examples():
    d2 = DiffOp(R, {(Z, (2, 0)): QQ.one()})
    assert d2.apply(x**3) == 6 * x
    xdy = DiffOp(R, {((1, 0), (0, 1)): QQ.one()})
    assert xdy.apply(y**2) == 2 * x * y
    f = x**2 + 3 * y
    assert ONE.apply(f) == f


# A negative index must not wrap round to another variable, and nvars must
# not reach the tuple arithmetic: both refuse alike.
@pytest.mark.parametrize("i", [-1, -2, R.nvars])
def test_partial_refuses_a_variable_index_out_of_range(i):
    with pytest.raises(IndexError, match=f"^variable index {i} out of range$"):
        R.var(i)
    with pytest.raises(IndexError, match=f"^variable index {i} out of range$"):
        x.diff(i)


def test_bracket_heisenberg():
    assert bracket_op(dx, x) == ONE
    for m in monomials_up_to(2, 3):
        f = R.monomial(m)
        assert ONE.apply(f) == dx.apply(x * f) - x * dx.apply(f)


def test_bracket_second_order():
    d2 = DiffOp(R, {(Z, (2, 0)): QQ.one()})
    b = bracket_op(d2, x)
    # verify against the defining identity on all monomials of degree <= 4
    for m in monomials_up_to(2, 4):
        f = R.monomial(m)
        assert b.apply(f) == d2.apply(x * f) - x * d2.apply(f)
    assert b == DiffOp(R, {(Z, (1, 0)): QQ.from_int(2)})


def test_bracket_euler():
    xdx = DiffOp(R, {((1, 0), (1, 0)): QQ.one()})
    b = bracket_op(xdx, x)
    assert b.apply(y) == x * y  # [x*dx, x] acts as multiplication by x
    assert b == DiffOp(R, {((1, 0), Z): QQ.one()})


def test_order():
    """The order read off the terms, the largest |beta|, is Grothendieck's:
    every n + 1 brackets with variables vanish and some n do not."""
    one = QQ.one()
    cases = [
        (DiffOp(R, {(Z, (1, 0)): one, (Z, (0, 1)): one}), 1),
        (DiffOp(R, {(Z, (1, 1)): one, ((2, 1), Z): one}), 2),
        (DiffOp(R, {((2, 1), Z): one}), 0),
        (DiffOp(R, {(Z, (3, 0)): QQ.zero(), ((2, 1), Z): one}), 0),  # a zero term drops
        (DiffOp(R, {}), -1),
    ]

    def iterated(op, rs):
        terms = op.terms
        for r in rs:
            terms = bracket(terms, r.terms)
        return terms

    for op, n in cases:
        assert order(op.terms) == n
        assert not any(iterated(op, rs) for rs in product((x, y), repeat=n + 1))
        if n >= 0:
            assert any(iterated(op, rs) for rs in product((x, y), repeat=n))


def test_sol_membership_at_point():
    target = SolTarget.at_point([QQ.zero(), QQ.zero()])
    ops = [ONE, dx]
    # matches membership in (x^2, y): y is in, x is not
    assert sol_membership(ops, target, y)
    assert not sol_membership(ops, target, x)
    assert sol_membership([], target, x)  # empty intersection of kernels


def test_sol_membership_matches_dual_space_oracle():
    I = ideal(R, "x^2", "y")
    target = SolTarget.at_point([QQ.zero(), QQ.zero()])
    ops = [ONE, dx]
    for m in monomials_up_to(2, 3):
        f = R.monomial(m)
        assert sol_membership(ops, target, f) == I.contains(f)


def test_bracket_identity_random(rng):
    for _ in range(120):
        d = random_op(R, rng)
        r = random_poly(R, rng, max_degree=3)
        f = random_poly(R, rng, max_degree=4)
        lhs = bracket_op(d, r).apply(f)
        rhs = d.apply(r * f) - r * d.apply(f)
        assert lhs == rhs


def test_bracket_drops_order(rng):
    for _ in range(100):
        d = random_op(R, rng)
        r = random_poly(R, rng, max_degree=3)
        assert order(bracket(d.terms, r.terms)) <= max(order(d.terms) - 1, -1)


def test_iterated_bracket_vanishes(rng):
    for _ in range(25):
        d = random_op(R, rng, max_order=2)
        n = order(d.terms)
        if n < 0:
            continue
        b = d.terms
        for _ in range(n + 1):
            b = bracket(b, random_poly(R, rng, max_degree=2).terms)
        assert not b


def test_bracket_identity_char_p(rng):
    S = PolyRing(GF(3), ["x", "y"])
    for _ in range(60):
        d = random_op(S, rng)
        r = random_poly(S, rng, max_degree=3)
        f = random_poly(S, rng, max_degree=4)
        assert bracket_op(d, r).apply(f) == d.apply(r * f) - r * d.apply(f)


def test_sol_is_ideal_under_multiplication(rng):
    # if f passes then r*f passes: Sol is an ideal
    target = SolTarget.at_point([QQ.zero(), QQ.zero()])
    x_dy_plus_dx = DiffOp(R, {((1, 0), (0, 1)): QQ.one(), (Z, (1, 0)): QQ.one()})
    ops = [ONE, dx, x_dy_plus_dx]
    members = [f for f in (x**2, x * y, y**2, x**3) if sol_membership(ops, target, f)]
    for f in members:
        for _ in range(20):
            r = random_poly(R, rng, max_degree=3)
            assert sol_membership(ops, target, r * f)


def test_mpower_containment_at_point(rng):
    # operators of order <= n-1 with an at-point target annihilate m_alpha^n
    for _ in range(20):
        d = random_op(R, rng, max_order=2)
        n = order(d.terms) + 1
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

    target = SolTarget.at_point([GF(5).zero(), GF(5).zero()])
    with pytest.raises(IncompatibleFieldError):
        sol_membership([ONE], target, x)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_target_label_prints_each_coordinate(field):
    target = SolTarget.at_point([field.zero(), field.from_int(3)])
    assert repr(target) == "SolTarget(at (0, 3))"


def test_operator_json():
    op = DiffOp(R, {((1, 0), (1, 0)): QQ.one(), (Z, (0, 1)): -QQ.one()})
    records = op.to_json()
    assert {tuple(r["dexp"]) for r in records} == {(1, 0), (0, 1)}
    for r in records:
        assert set(r) == {"xexp", "dexp", "coeff"}
