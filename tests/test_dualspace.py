import random
from fractions import Fraction

import pytest

from noethops.dualspace import (
    DualFunctional,
    colength,
    functional_to_operator,
    noetherian_operators,
    stable_dual,
    truncated_dual,
)
from noethops.errors import (
    NotZeroDimensionalError,
    UnsupportedCharacteristicError,
)
from noethops.fields import GF, QQ
from noethops.groebner import ideal
from noethops.linalg import rref
from noethops.poly import PolyRing, monomials_up_to
from noethops.weyl import sol_membership

from _oracles import macaulay_kernel_dimension
from conftest import in_row_span, random_poly

R = PolyRing(QQ, ["x", "y"])
ORIGIN = (QQ.zero(), QQ.zero())

E0 = {(0, 0): QQ.one()}
EX = {(1, 0): QQ.one()}
EY = {(0, 1): QQ.one()}


def as_dicts(basis):
    return [lam.coord_dict() for lam in basis.functionals]


def test_truncated_dual_maximal_ideal():
    D = truncated_dual(ideal(R, "x", "y"), ORIGIN, 0)
    assert as_dicts(D) == [E0]


def test_truncated_dual_examples_match_brute_force_kernel():
    cases = [
        (ideal(R, "x^2", "y"), 2, [E0, EX]),
        # echelonized ascending in grevlex: 1 < y < x
        (ideal(R, "x^2", "x*y", "y^2"), 1, [E0, EY, EX]),
    ]
    for I, k, expected in cases:
        D = truncated_dual(I, ORIGIN, k)
        assert as_dicts(D) == expected
        assert D.dimension == macaulay_kernel_dimension(list(I.generators), ORIGIN, k)


def test_truncated_dual_dimension_matches_oracle(rng):
    ideals = [
        ideal(R, "x^2", "y + x"),
        ideal(R, "x^3", "y^2", "x*y"),
        ideal(R, "x^2 - y", "y^2"),
    ]
    for I in ideals:
        for k in range(4):
            D = truncated_dual(I, ORIGIN, k)
            assert D.dimension == macaulay_kernel_dimension(list(I.generators), ORIGIN, k)
            # every functional annihilates the truncated ideal, directly
            for lam in D:
                for g in I.generators:
                    for gamma in monomials_up_to(2, k):
                        assert not lam.pairing(R.monomial(gamma) * g.translate(ORIGIN))


def test_stable_dual_examples():
    D = stable_dual(ideal(R, "x^2", "y"), ORIGIN)
    assert D.dimension == 2
    pt = (Fraction(1), Fraction(2))
    D2 = stable_dual(ideal(R, "x - 1", "y - 2"), pt)
    assert D2.dimension == 1
    assert as_dicts(D2) == [E0]
    with pytest.raises(NotZeroDimensionalError):
        stable_dual(ideal(R, "x"), ORIGIN)


def test_noetherian_operators_examples():
    res = noetherian_operators(ideal(R, "x^2", "y"), ORIGIN)
    assert [str(op) for op in res.operators] == ["1", "dx"]
    assert res.colength == 2

    res2 = noetherian_operators(ideal(R, "x - 1", "y - 2"), (Fraction(1), Fraction(2)))
    assert [str(op) for op in res2.operators] == ["1"]

    res3 = noetherian_operators(ideal(R, "x^2", "y + x"), ORIGIN)
    assert [str(op) for op in res3.operators] == ["1", "dx - dy"]


def test_noetherian_operators_certify_generators_and_witness():
    for gens in [("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^3", "y"), ("x^2", "y + x")]:
        I = ideal(R, *gens)
        res = noetherian_operators(I, ORIGIN)
        for g in I.generators:
            assert sol_membership(res.operators, res.target, g)
        assert res.witness_outside_ideal is not None
        assert not I.contains(res.witness_outside_ideal)
        assert not sol_membership(res.operators, res.target, res.witness_outside_ideal)


def test_sol_equals_ideal_membership_exhaustive(rng):
    for gens in [("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^3", "y"), ("x^2", "y + x")]:
        I = ideal(R, *gens)
        res = noetherian_operators(I, ORIGIN)
        k = res.truncation_order
        for m in monomials_up_to(2, k + 1):
            f = R.monomial(m)
            assert sol_membership(res.operators, res.target, f) == I.contains(f)
        for _ in range(100):
            f = random_poly(R, rng, max_degree=k + 1, max_terms=5)
            assert sol_membership(res.operators, res.target, f) == I.contains(f)


def test_sol_at_translated_point():
    # same ideal moved to the point (1, 2)
    I = ideal(R, "(x-1)^2", "(y-2) + (x-1)")
    pt = (Fraction(1), Fraction(2))
    res = noetherian_operators(I, pt)
    assert [str(op) for op in res.operators] == ["1", "dx - dy"]
    for m in monomials_up_to(2, res.truncation_order + 1):
        f = R.monomial(m)
        assert sol_membership(res.operators, res.target, f) == I.contains(f)


def test_finite_list_has_same_sol_as_span(rng):
    I = ideal(R, "x^2", "x*y", "y^2")
    res = noetherian_operators(I, ORIGIN)
    lams = res.dual_basis.functionals
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in lams]
        combo = {}
        for c, lam in zip(coeffs, lams):
            for m, v in lam.coords:
                combo[m] = combo.get(m, QQ.zero()) + c * v
        span_elem = DualFunctional.from_dict(R, combo)
        if not span_elem.coords:
            continue
        op = functional_to_operator(span_elem)
        f = random_poly(R, rng, max_degree=2, max_terms=4)
        passes_basis = sol_membership(res.operators, res.target, f)
        if passes_basis:
            assert sol_membership([op], res.target, f)


def test_down_shift_closure():
    for gens in [("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^3", "y"), ("x^2", "y + x")]:
        I = ideal(R, *gens)
        basis = stable_dual(I, ORIGIN)
        columns = monomials_up_to(2, basis.truncation_order)
        idx = {m: i for i, m in enumerate(columns)}
        rows = []
        for lam in basis:
            row = [QQ.zero()] * len(columns)
            for m, c in lam.coords:
                row[idx[m]] = c
            rows.append(row)
        reduced, pivots = rref(rows, len(columns))
        for lam in basis:
            for i in range(2):
                shifted = lam.shift(i)
                vec = [QQ.zero()] * len(columns)
                for m, c in shifted.coords:
                    vec[idx[m]] = c
                assert in_row_span(vec, reduced, pivots)


def test_mpower_containment():
    for gens in [("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^3", "y")]:
        I = ideal(R, *gens)
        res = noetherian_operators(I, ORIGIN)
        k = res.truncation_order
        for m in monomials_up_to(2, k + 1):
            if sum(m) == k + 1:
                assert sol_membership(res.operators, res.target, R.monomial(m))


def test_colength():
    assert colength(ideal(R, "x^2", "y"), ORIGIN) == 2
    assert colength(ideal(R, "x^2", "x*y", "y^2"), ORIGIN) == 3
    assert colength(ideal(R, "x^3", "y"), ORIGIN) == 3


def test_colength_detects_wrong_point():
    # (x - 1) is not primary at the origin; the staircase disagrees
    with pytest.raises(NotZeroDimensionalError):
        colength(ideal(R, "x - 1", "y"), ORIGIN)


R1 = PolyRing(QQ, ["x"])


@pytest.mark.parametrize("gen", ["x - 1", "x*(x - 1)", "x^2*(x - 1)"])
def test_noetherian_operators_refuse_non_primary(gen):
    # the local dual at 0 misses the component at x = 1: the staircase
    # has one more monomial than the dual has functionals
    with pytest.raises(NotZeroDimensionalError, match="standard-monomial count"):
        noetherian_operators(ideal(R1, gen), (QQ.zero(),))


def test_duality_dimension_equals_staircase():
    for gens in [("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^3", "y"), ("x^2", "y + x"),
                 ("x^2 - y", "y^2",)]:
        I = ideal(R, *gens)
        D = stable_dual(I, ORIGIN)
        assert D.dimension == len(I.standard_monomials())


def test_char_p_refusal():
    S = PolyRing(GF(2), ["x", "y"])
    I = ideal(S, "x^2", "y")  # needs e_x, fine; but x^2 dual needs nothing >= p? e_x ok
    res_ok = noetherian_operators(ideal(S, "x", "y"), (GF(2).zero(), GF(2).zero()))
    assert [str(op) for op in res_ok.operators] == ["1"]
    # (x^2, y) at origin in char 2 needs e_{x} only -> still fine
    res2 = noetherian_operators(I, (GF(2).zero(), GF(2).zero()))
    assert [str(op) for op in res2.operators] == ["1", "dx"]
    # (x^3, y) needs e_{x^2}, and 2! = 0 in F_2 -> refused
    with pytest.raises(UnsupportedCharacteristicError):
        noetherian_operators(ideal(S, "x^3", "y"), (GF(2).zero(), GF(2).zero()))


def test_functional_str():
    lam = DualFunctional.from_dict(R, {(1, 0): QQ.one(), (0, 1): -QQ.one()})
    assert "e[" in str(lam)
