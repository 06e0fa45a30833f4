import random
from fractions import Fraction

import pytest

import noethops.dualspace as dualspace
from noethops.dualspace import (
    DualFunctional,
    colength,
    functional_to_operator,
    noetherian_operators,
    stable_dual,
    truncated_dual,
)
from noethops.errors import (
    ArityMismatchError,
    NotZeroDimensionalError,
    UnsupportedCharacteristicError,
)
from noethops.fields import GF, QQ
from noethops.groebner import Ideal, ideal
from noethops.poly import PolyRing, monomials_up_to
from noethops.weyl import sol_membership

from _oracles import Span, macaulay_kernel_dimension
from conftest import random_poly

R = PolyRing(QQ, ["x", "y"])
ORIGIN = (QQ.zero(), QQ.zero())

E0 = {(0, 0): QQ.one()}
EX = {(1, 0): QQ.one()}
EY = {(0, 1): QQ.one()}


def as_dicts(basis):
    return [dict(lam.coords) for lam in basis.functionals]


def test_truncated_dual_maximal_ideal():
    D = truncated_dual(ideal(R, "x", "y"), ORIGIN, 0)
    assert as_dicts(D) == [E0]


# Unchecked, a 1-coordinate point in [x, y] gives a 3-dimensional basis, and
# a negative order an empty one.
def test_truncated_dual_refuses_a_bad_point_or_order():
    with pytest.raises(ArityMismatchError, match="^point has 1 coordinates, ring has 2 variables$"):
        truncated_dual(Ideal(R, []), (0,), 1)
    with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
        truncated_dual(ideal(R, "x", "y"), ORIGIN, -1)


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


def _dual_until_equal(I, point):
    """D_k at the first k with dim D_k = dim D_{k+1}, by brute force."""
    prev = truncated_dual(I, point, 0)
    while True:
        cur = truncated_dual(I, point, prev.truncation_order + 1)
        if cur.dimension == prev.dimension:
            return prev
        prev = cur


def _seeded_primary_ideals():
    """m_alpha-primary ideals (u^a, v^b, h(u, v)) with u = x - alpha_1,
    v = y - alpha_2 and h random without a constant term, over QQ and
    GF(32003), at the origin and at a nonzero point."""
    rng = random.Random(20)
    out = []
    for field in (QQ, GF(32003)):
        S = PolyRing(field, ["x", "y"])
        for point in ((0, 0), (2, -3)):
            point = tuple(field.coerce(c) for c in point)
            back = [-c for c in point]
            for _ in range(5):
                h = {}
                for _ in range(rng.randint(2, 4)):
                    m = (rng.randint(0, 3), rng.randint(0, 3))
                    if m != (0, 0):
                        h[m] = field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                gens = [
                    S.monomial((rng.randint(1, 4), 0)),
                    S.monomial((0, rng.randint(1, 4))),
                    S.poly(h),
                ]
                out.append((ideal(S, *(g.translate(back) for g in gens)), point))
    return out


def test_stable_dual_stops_at_the_standard_count(monkeypatch):
    calls = []

    def counted(I, point, k):
        calls.append(k)
        return truncated_dual(I, point, k)

    monkeypatch.setattr(dualspace, "truncated_dual", counted)

    # dim D_1 = 2 = #{1, x}: D_2 is never built
    D = stable_dual(ideal(R, "x^2", "y"), ORIGIN)
    assert (D.truncation_order, calls) == (1, [0, 1])

    for I, point in _seeded_primary_ideals():
        calls.clear()
        D = stable_dual(I, point)
        expected = _dual_until_equal(I, point)
        assert D.truncation_order == expected.truncation_order
        assert [lam.coords for lam in D] == [lam.coords for lam in expected]
        assert calls == list(range(D.truncation_order + 1))

    # a stall short of the count keeps its message
    with pytest.raises(NotZeroDimensionalError) as err:
        noetherian_operators(ideal(R, "x*(x - 1)", "y"), ORIGIN)
    assert str(err.value) == (
        "stable dual dimension 1 disagrees with the standard-monomial count 2: "
        "the ideal is not primary to the maximal ideal of the point"
    )
    # an infinite count is refused before any dual is built
    for I in (ideal(R, "x"), Ideal(R, []), ideal(R, "x*(x - 1)", "y*(x - 1)")):
        calls.clear()
        with pytest.raises(NotZeroDimensionalError) as err:
            stable_dual(I, ORIGIN)
        assert str(err.value) == (
            "the standard-monomial count is infinite: "
            "the ideal is not primary to the maximal ideal of the point"
        )
        assert calls == []


def _curvilinear_ideals():
    """(v - u^2, v^N) for N = 4, 5 with u = x - alpha_1, v = y - alpha_2,
    over QQ and GF(32003), at the origin and at a nonzero point: colength
    2N, and the socle e[u^(2N-1)] + ... sits at order 2N - 1."""
    out = []
    for field in (QQ, GF(32003)):
        S = PolyRing(field, ["x", "y"])
        for point in ((0, 0), (2, -3)):
            point = tuple(field.coerce(c) for c in point)
            back = [-c for c in point]
            for n in (4, 5):
                gens = [S.parse("y - x^2"), S.parse(f"y^{n}")]
                out.append((ideal(S, *(g.translate(back) for g in gens)), point, n))
    return out


def test_certified_operators_decide_membership():
    rng = random.Random(1909)
    cases = [(I, point, None) for I, point in _seeded_primary_ideals()]
    for I, point, n in cases + _curvilinear_ideals():
        res = noetherian_operators(I, point)
        assert res.colength == colength(I, point) == len(I.standard_monomials())
        if n is not None:
            assert (res.colength, res.truncation_order) == (2 * n, 2 * n - 1)
        S, k = I.ring, res.truncation_order
        back = [-c for c in point]
        for _ in range(4):
            member = S.zero()
            for g in I.generators:
                member = member + random_poly(S, rng, max_degree=2, max_terms=3) * g
            assert I.contains(member)
            assert sol_membership(res.operators, res.target, member)
            # local coordinates of degree <= k + 1, then a member on top
            f = random_poly(S, rng, max_degree=k + 1, max_terms=4).translate(back)
            expected = I.contains(f)
            assert sol_membership(res.operators, res.target, f) == expected
            assert sol_membership(res.operators, res.target, f + member) == expected
        witness = res.witness_outside_ideal
        assert not I.contains(witness)
        assert not sol_membership(res.operators, res.target, witness)


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
        span = Span(len(columns), QQ)
        for lam in basis:
            row = [QQ.zero()] * len(columns)
            for m, c in lam.coords:
                row[idx[m]] = c
            span.insert(row)
        for lam in basis:
            for i in range(2):
                shifted = lam.shift(i)
                vec = [QQ.zero()] * len(columns)
                for m, c in shifted.coords:
                    vec[idx[m]] = c
                assert span.contains(vec)


# sigma_{-1} used to shift a made-up exponent onto the monomial, and
# sigma_nvars died with "tuple index out of range".
@pytest.mark.parametrize("i", [-1, R.nvars])
def test_down_shift_refuses_a_variable_index_out_of_range(i):
    lam = DualFunctional.from_dict(R, {(1, 1): QQ.one()})
    with pytest.raises(IndexError, match=f"^variable index {i} out of range$"):
        lam.shift(i)


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
