import random
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import isqrt

import pytest

from noethops.cli import parse_script, run
from noethops.errors import (
    ArityMismatchError,
    IncompatibleFieldError,
    PointNotOnVarietyError,
    UnsupportedCharacteristicError,
)
from noethops.fields import GF, QQ, AlgExtField, RatFuncField, UniPoly
from noethops.groebner import (
    Ideal,
    MonomialOrder,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_sum,
    saturate,
)
from noethops.poly import Polynomial, PolyRing, monomials_of_degree, monomials_up_to, to_unipoly
from noethops.powers import (
    PrimeData,
    chain_check,
    diff_power_classical_graded,
    diff_power_classical_member,
    diff_power_new,
    diff_power_new_point,
    diff_power_new_univariate,
    symbolic_power,
    _prime_power,
    _taylor_member,
)

from _oracles import TruncatedMembershipOracle
from conftest import count_buchberger_runs, random_poly, random_rational

R2 = PolyRing(QQ, ["x", "y"])
R3 = PolyRing(QQ, ["x", "y", "z"])
R4 = PolyRing(QQ, ["x", "y", "z", "w"])


def origin(ring):
    return tuple(ring.field.zero() for _ in ring.variables)


def twisted_cubic_prime():
    I = ideal(R4, "x*z - y^2", "y*w - z^2", "x*w - y*z")
    return PrimeData.with_witness(I, R4.var(0))


def univariate_insep(p):
    K = RatFuncField(GF(p), "t")
    S = PolyRing(K, ["x"])
    return PrimeData.univariate(S.parse(f"x^{p} - t"))


def univariate_sqrt2():
    S = PolyRing(QQ, ["x"])
    return PrimeData.univariate(S.parse("x^2 - 2"))


def test_symbolic_power_maximal():
    p = PrimeData.rational_point(R2, origin(R2))
    assert ideal_equal(symbolic_power(p, 2), ideal(R2, "x^2", "x*y", "y^2"))


def test_symbolic_power_principal():
    S = PolyRing(QQ, ["x"])
    p = PrimeData.univariate(S.parse("x"))
    assert ideal_equal(symbolic_power(p, 3), ideal(S, "x^3"))


def test_symbolic_power_twisted_cubic_saturation_stable():
    p = twisted_cubic_prime()
    s2 = symbolic_power(p, 2)
    # saturation stability: (result : s) = result
    assert ideal_equal(saturate(s2, p.witness), s2)
    # contains p^2
    for g in ideal_power(p.ideal, 2).generators:
        assert s2.contains(g)


def test_classical_member_examples():
    I = ideal(R2, "x", "y")
    assert diff_power_classical_member(I, 2, R2.parse("x^2"))
    assert not diff_power_classical_member(I, 2, R2.parse("x"))


def test_classical_member_twisted_cubic_generator_squares():
    p = twisted_cubic_prime()
    for g in p.ideal.generators:
        assert diff_power_classical_member(p.ideal, 2, g * g)


def test_classical_member_char_p_refused():
    S = PolyRing(GF(5), ["x", "y"])
    I = ideal(S, "x", "y")
    with pytest.raises(UnsupportedCharacteristicError):
        diff_power_classical_member(I, 2, S.parse("x^2"))


def classical_by_definition(I, n, f):
    """The classical predicate as defined, apart from the walk that decides
    it: d^beta f in I for every |beta| < n."""
    return all(I.contains(f.diff_multi(b)) for b in monomials_up_to(I.ring.nvars, n - 1))


def _small_form(ring, rng, degree):
    """Up to five terms of degree exactly degree with coefficients in [-5, 5]."""
    monos = monomials_of_degree(ring.nvars, degree)
    return ring.poly({rng.choice(monos): rng.randint(-5, 5) for _ in range(5)})


def _near_members(gens, ring, rng, n):
    """(k, f): a random polynomial of degree <= 1 or 3, or a random form of
    degree 0 or 2, times k generators, k = n twice (a member), n - 1 (a near
    miss) and 0."""
    for make, degree in ((_small_poly, 1), (_small_poly, 3), (_small_form, 0), (_small_form, 2)):
        for k in (n, n, n - 1, 0):
            f = make(ring, rng, degree)
            for _ in range(k):
                f = f * rng.choice(gens)
            yield k, f


def _classical_case(name):
    """(ideal, largest n) by name: the twisted cubic in an order, or a
    univariate prime over a field."""
    if name.startswith("cubic"):
        order = MonomialOrder.lex(R4) if name == "cubic-lex" else MonomialOrder.grevlex(R4)
        return ideal(R4, "x*z - y^2", "y*w - z^2", "x*w - y*z", order=order), 4
    field, m = {"QQ": (QQ, "x^3 - x - 1"), "QQ(t)": (QT, "x^2 - t"), "QQ[v]": (QV, "x^2 - v")}[name]
    return ideal(PolyRing(field, ["x"]), m), 5


@pytest.mark.parametrize("name", ["cubic-grevlex", "cubic-lex", "QQ", "QQ(t)", "QQ[v]"])
def test_classical_walk_matches_the_definition(name):
    # members are products of n generators with a random polynomial; one
    # factor fewer, or a random polynomial, is mostly not a member
    I, top = _classical_case(name)
    rng = random.Random(2124)
    seen = set()
    for n in range(1, top + 1):
        for k, f in _near_members(I.generators, I.ring, rng, n):
            expected = classical_by_definition(I, n, f)
            assert diff_power_classical_member(I, n, f) == expected
            assert expected or k < n or f.is_zero()
            seen.add((expected, f.is_homogeneous()))
        f = rng.choice(I.generators) ** n + 1  # every d^beta f with beta != 0 lies in I
        assert not classical_by_definition(I, n, f) and not diff_power_classical_member(I, n, f)
    assert {expected for expected, _ in seen} == {True, False}
    if name.startswith("cubic"):  # homogeneous f are decided by one order of derivatives
        assert {(True, True), (False, True)} <= seen
    # zero derivatives prune: past the degree of f the walk has nothing left
    g = I.generators[0]
    assert diff_power_classical_member(I, 10**9, g**2 * g.ring.var(0)**3) is False
    assert diff_power_classical_member(I, 10**9, g.ring.zero())


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_classical_walk_widens_as_a_fresh_ideal(kind):
    # x^70000 outgrows the cached 16-bit packing, and in lex y^400 against
    # y - z^100 overflows during reduction: the walk widens the packing and
    # answers as the definition does on an ideal that never packed anything
    R = PolyRing(QQ, ["x", "y", "z"])
    order = MonomialOrder.lex(R) if kind == "lex" else MonomialOrder.grevlex(R)
    gens = ["x^3", "y^2 - x*y", "z^2 + 2*y"] if kind == "grevlex" else ["x^3", "y - z^100"]
    small = [R.parse(t) for t in ("x^2*y + z", "x^5*y^2 - x^4", "z^5 + x*z")]
    before = [classical_by_definition(ideal(R, *gens, order=order), n, f) for n in (1, 2, 3) for f in small]
    seen = set()
    for text in ("x^6*y^400 + x^70000", "y^400 + x^4", "x^70000*z - z^2"):
        f, I = R.parse(text), ideal(R, *gens, order=order)
        answers = [diff_power_classical_member(I, n, f) for n in (1, 2, 3)]
        assert answers == [classical_by_definition(ideal(R, *gens, order=order), n, f) for n in (1, 2, 3)]
        assert (I._packed_basis()[0].width > 16) == (kind == "lex" or "x^70000" in text)
        assert [diff_power_classical_member(I, n, g) for n in (1, 2, 3) for g in small] == before
        seen.update(answers)
    assert seen == {True, False}


def test_classical_walk_takes_no_derivative_or_membership_shortcut(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk differentiates and reduces packed terms itself")

    p = twisted_cubic_prime()
    monkeypatch.setattr(Polynomial, "diff_multi", refuse)
    monkeypatch.setattr(Ideal, "contains", refuse)
    assert diff_power_classical_member(p.ideal, 3, p.ideal.generators[0] ** 3)
    assert not diff_power_classical_member(p.ideal, 3, p.ideal.generators[0] ** 2)


def test_classical_predicate_keeps_every_refusal():
    I = twisted_cubic_prime().ideal
    I7 = ideal(PolyRing(GF(7), R4.variables), "x")
    refused = [
        (I, 2, PolyRing(QQ, ["x", "y"]).parse("x^2"), ArityMismatchError, "expected 2 exponents, got 4"),
        (I, 2, PolyRing(GF(7), R4.variables).parse("x^2"), IncompatibleFieldError,
         "polynomial from a different ring"),
        (I, 0, R4.parse("x^2"), ValueError, "differential power requires n >= 1"),
        (I7, 2, I7.ring.parse("x^2"), UnsupportedCharacteristicError,
         "the classical differential power involves divided-power operators in positive "
         "characteristic; refusing to compute with derivations only"),
    ]
    for J, n, f, error, text in refused:
        with pytest.raises(error) as caught:
            diff_power_classical_member(J, n, f)
        assert type(caught.value) is error and str(caught.value) == text
    cubic = "ring [x, y, z, w]; prime c = x*z - y^2, y*w - z^2, x*w - y*z : witness x;"
    report = run(parse_script(f"field QQ; {cubic} check-zn c 0;"))
    assert report["commands"][0]["error"] == "chain check requires n >= 1"
    assert report["status"]["exit_code"] == 2
    report = run(parse_script(f"field Fp(7); {cubic} check-zn c 2 bound 2;"))
    entry = report["commands"][0]
    assert entry["status"] == "ok" and not entry["classical_available"]
    assert entry["classical_note"] == "classical differential power refused in positive characteristic"
    assert report["status"]["exit_code"] == 0


def test_classical_graded_examples():
    m = ideal(R2, "x", "y")
    D2 = diff_power_classical_graded(m, 2, 3)
    assert ideal_equal(D2, ideal_power(m, 2))
    D1 = diff_power_classical_graded(m, 1, 2)
    assert ideal_equal(D1, m)
    Dx = diff_power_classical_graded(ideal(R2, "x"), 2, 2)
    assert ideal_equal(Dx, ideal(R2, "x^2"))


def test_classical_graded_twisted_cubic_is_symbolic():
    # Zariski-Nagata in characteristic 0: the classical differential power
    # of a prime is its symbolic power, and the twisted cubic's square is
    # generated in degree 4.  Normal forms modulo it are not monomials, so
    # each d^beta x^m must keep its factor m! / (m - beta)!
    I = twisted_cubic_prime().ideal
    S = symbolic_power(twisted_cubic_prime(), 2)
    assert max(g.total_degree() for g in S.groebner_basis) == 4
    assert ideal_equal(diff_power_classical_graded(I, 2, 4), S)


def test_classical_graded_requires_homogeneous():
    with pytest.raises(ValueError):
        diff_power_classical_graded(ideal(R2, "x^2 - y"), 2, 3)


def test_new_point_cubic_example():
    J = ideal(R3, "x^3 + y^3 + z^3")
    m = ideal(R3, "x", "y", "z")
    got = diff_power_new_point(J, origin(R3), 2)
    assert ideal_equal(got, ideal_power(m, 2))  # J sits inside m^2
    got4 = diff_power_new_point(J, origin(R3), 4)
    want4 = ideal_sum(ideal_power(m, 4), J)
    assert ideal_equal(got4, want4)
    # cross-check against m * m^3 + J, the product taken on generators
    m_m3 = [f * g for f in m.generators for g in ideal_power(m, 3).generators]
    assert ideal_equal(got4, ideal_sum(Ideal(R3, m_m3), J))


def test_new_point_smooth_case():
    J = Ideal(R2, [])
    m = ideal(R2, "x", "y")
    assert ideal_equal(diff_power_new_point(J, origin(R2), 3), ideal_power(m, 3))


def test_new_point_requires_point_on_variety():
    J = ideal(R3, "x^3 + y^3 + z^3 - 1")
    with pytest.raises(PointNotOnVarietyError):
        diff_power_new_point(J, origin(R3), 2)


# Unchecked, (0,) gives (x^2) when no generator is evaluated, and (0, 0, 0)
# a bare IndexError.
@pytest.mark.parametrize("point", [(0,), (0, 0, 0)])
def test_points_of_the_wrong_arity_are_refused(point):
    text = f"point has {len(point)} coordinates, ring has 2 variables"
    with pytest.raises(ArityMismatchError, match=f"^{text}$"):
        diff_power_new_point(Ideal(R2, []), point, 2)
    with pytest.raises(ArityMismatchError, match=f"^{text}$"):
        PrimeData.rational_point(R2, point)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_new_univariate_inseparable(p):
    prime = univariate_insep(p)
    got = diff_power_new_univariate(prime, 2)
    assert ideal_equal(got, prime.ideal)  # collapses to p itself


def test_new_univariate_separable_control():
    prime = univariate_sqrt2()
    got = diff_power_new_univariate(prime, 2)
    assert ideal_equal(got, ideal_power(prime.ideal, 2))
    got3 = diff_power_new_univariate(prime, 3)
    assert ideal_equal(got3, ideal_power(prime.ideal, 3))


def _scanned_power_exponent(prime, n):
    """Least j with (x - u)^n dividing m^j in L[x], by trying m, m^2, ..."""
    m = to_unipoly(prime.minpoly)
    L = AlgExtField(prime.ring.field, "u", m)
    m = UniPoly(L, [L.coerce(c) for c in m.coeffs]).raw
    linear = UniPoly(L, [-L.generator(), L.one()]).raw
    power = (L.raw_one,)
    for j in range(1, n + 1):
        F = power = L.pmul(power, m)
        for _ in range(n):
            F, rem = L.pdivmod(F, linear)
            if rem:
                break
        else:
            return j
    raise AssertionError("(x - u)^n does not divide m^n")


def _random_irreducible_over_qq(rng, degree):
    """Monic x^2 + b x + c with non-square discriminant, or a monic cubic
    with no integer root: a rational root of a monic integer cubic is an
    integer dividing the constant term, so |root| <= 9 or root = 0."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(degree)]
        if degree == 2:
            disc = coeffs[1] ** 2 - 4 * coeffs[0]
            if disc < 0 or isqrt(disc) ** 2 != disc:
                break
        elif all(sum(c * r**i for i, c in enumerate(coeffs)) + r**3 for r in range(-9, 10)):
            break
    S = PolyRing(QQ, ["x"])
    terms = " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))
    return PrimeData.univariate(S.parse(f"x^{degree} + {terms}"))


def test_new_univariate_matches_power_scan():
    rng = random.Random(20261018)
    cases = []
    for p in (2, 3, 5, 7):
        S = PolyRing(RatFuncField(GF(p), "t"), ["x"])
        for _ in range(2):
            a, b = rng.randrange(1, p), rng.randrange(p)
            prime = PrimeData.univariate(S.parse(f"x^{p} - ({a}*t + {b})"))
            cases += [(prime, n) for n in range(1, 2 * p + 1)]
    for degree in (2, 3):
        for _ in range(3):
            prime = _random_irreducible_over_qq(rng, degree)
            cases += [(prime, n) for n in (1, 2, rng.randint(3, 4))]
    # over extension fields: e = 1 for x^2 - v, and e = 3 for x^3 - w in
    # characteristic 3 (the oracle names its own root u)
    F3T = RatFuncField(GF(3), "t")
    t, zero, one = F3T.generator(), F3T.zero(), F3T.one()
    for base, text in (
        (AlgExtField(QQ, "v", UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)])), "x^2 - v"),
        (AlgExtField(F3T, "w", UniPoly(F3T, [-t, zero, zero, one])), "x^3 - w"),
    ):
        prime = PrimeData.univariate(PolyRing(base, ["x"]).parse(text))
        cases += [(prime, n) for n in range(1, 7)]
    for prime, n in cases:
        j = _scanned_power_exponent(prime, n)
        assert ideal_equal(diff_power_new_univariate(prime, n), ideal_power(prime.ideal, j))


@pytest.mark.parametrize("field, text, e", [
    (RatFuncField(GF(2), "t"), "x^4 + t", 4),  # k = 2
    (RatFuncField(GF(3), "t"), "x^9 - t", 9),
    (RatFuncField(GF(2), "t"), "x^4 + t*x^2 + t", 2),  # mixed exponents
    (RatFuncField(GF(3), "t"), "x^6 + t*x^3 + t", 3),
    (RatFuncField(GF(3), "t"), "x^3 + x + t", 1),  # separable, 3 divides one exponent
    (GF(3), "x^2 + 1", 1),  # perfect fields
    (GF(2), "x^3 + x + 1", 1),
], ids=str)
def test_new_univariate_exponent_rule_matches_power_scan(field, text, e):
    prime = PrimeData.univariate(PolyRing(field, ["x"]).parse(text))
    scanned = [_scanned_power_exponent(prime, n) for n in range(1, e + 2)]
    assert scanned == [1] * e + [2]
    for n, j in enumerate(scanned, 1):
        assert ideal_equal(diff_power_new_univariate(prime, n), ideal_power(prime.ideal, j))


def test_diff_power_new_dispatches_on_kind():
    point = PrimeData.rational_point(R2, origin(R2))
    assert ideal_equal(diff_power_new(point, 3), ideal_power(point.ideal, 3))
    q = univariate_insep(3)
    assert ideal_equal(diff_power_new(q, 4), ideal_power(q.ideal, 2))
    cubic = twisted_cubic_prime()
    with pytest.raises(UnsupportedCharacteristicError):
        diff_power_new(cubic, 2)
    assert chain_check(cubic, 2).new_diff is None


def test_chain_check_rational_point_all_equal():
    p = PrimeData.rational_point(R2, origin(R2))
    for n in (1, 2, 3):
        report = chain_check(p, n, agreement_bound=n + 2)
        assert report.all_hold()
        v = report.find("symbolic", "new_diff")
        assert v.relation == "equal"
        mn = ideal_power(ideal(R2, "x", "y"), n)
        assert ideal_equal(report.symbolic, mn)
        assert ideal_equal(report.new_diff, mn)
        agree = [x for x in report.verdicts if x.relation == "agrees-on-monomials"]
        assert agree and agree[0].holds


def test_chain_check_builds_one_power(monkeypatch):
    # symbolic and solution-set powers of a point's maximal ideal are both
    # p^n itself, whose generators are its reduced basis, and the classical
    # predicate reads Taylor coefficients: no Buchberger run at all
    runs = count_buchberger_runs(monkeypatch)
    p = PrimeData.rational_point(R2, (1, -2))
    report = chain_check(p, 3, agreement_bound=4)
    assert report.all_hold() and report.symbolic is report.new_diff
    assert sorted(runs) == []


def test_chain_check_reuses_univariate_power(monkeypatch):
    # x^2 - 2 is separable, so e = 1 and ceil(n / e) = n: the symbolic and
    # solution-set powers are both p^n; p and p^n are monic principal
    # ideals given as their own reduced bases, so no Buchberger run
    runs = count_buchberger_runs(monkeypatch)
    report = chain_check(univariate_sqrt2(), 3)
    assert report.all_hold() and report.symbolic is report.new_diff
    assert report.find("symbolic", "new_diff").relation == "equal"
    assert report.to_json()["new_diff"] == ["x^6 - 6*x^4 + 12*x^2 - 8"]
    assert runs == []


@pytest.mark.parametrize("gens", [
    ("x + y", "x*y - 1", "y^2 + 3"),
    ("x^2", "x*y", "y^2"),  # x^2 * y^2 = (x*y)^2: products collide
])
def test_ideal_power_matches_combination_products(gens):
    I = ideal(R2, *gens)
    for n in range(5):
        expected = []
        for combo in combinations_with_replacement(I.generators, n):
            g = R2.one()
            for f in combo:
                g = g * f
            if g not in expected:
                expected.append(g)
        assert list(ideal_power(I, n).generators) == expected


def test_chain_check_inseparable_example():
    prime = univariate_insep(2)
    report = chain_check(prime, 2)
    assert ideal_equal(report.symbolic, ideal_power(prime.ideal, 2))
    assert ideal_equal(report.new_diff, prime.ideal)
    v = report.find("symbolic", "new_diff")
    assert v.relation == "strict-subset" and v.holds
    assert v.witness == prime.minpoly  # x^2 - t separates the two powers
    assert not report.classical_available


def test_chain_check_separable_univariate():
    prime = univariate_sqrt2()
    report = chain_check(prime, 2)
    v = report.find("symbolic", "new_diff")
    assert v.relation == "equal" and v.holds
    assert report.classical_available
    sub = report.find("new_diff", "classical")
    assert sub.holds


def test_unavailable_verdict_names_the_compared_power():
    # in positive characteristic the classical power is compared with the
    # solution-set power where the prime has one, else with the symbolic one
    R7 = PolyRing(GF(7), R4.variables)
    cubic = PrimeData.with_witness(ideal(R7, "x*z - y^2", "y*w - z^2", "x*w - y*z"), R7.var(0))
    for prime, name in [(cubic, "symbolic"), (univariate_insep(3), "new_diff")]:
        report = chain_check(prime, 2, agreement_bound=2)
        v = report.find(name, "classical")
        assert v.relation == "unavailable" and v.holds
        assert not report.classical_available
        assert (report.new_diff is None) == (name == "symbolic")


def test_chain_check_twisted_cubic_agreement():
    prime = twisted_cubic_prime()
    report = chain_check(prime, 2, agreement_bound=4)
    assert report.new_diff is None
    assert report.all_hold()
    agree = [v for v in report.verdicts if v.relation == "agrees-on-monomials"]
    assert agree and agree[0].holds


def test_n1_degeneracy():
    for prime in (
        PrimeData.rational_point(R2, origin(R2)),
        univariate_sqrt2(),
        twisted_cubic_prime(),
    ):
        assert ideal_equal(symbolic_power(prime, 1), prime.ideal)
        if prime.kind == "univariate-algebraic":
            assert ideal_equal(diff_power_new_univariate(prime, 1), prime.ideal)


def test_monotonicity_in_n():
    p = PrimeData.rational_point(R2, origin(R2))
    m = ideal(R2, "x", "y")
    prev = None
    prev_classical = None
    for n in (1, 2, 3, 4):
        cur = symbolic_power(p, n)
        if prev is not None:
            for g in cur.generators:
                assert prev.contains(g)
        prev = cur
        cur_classical = diff_power_classical_graded(m, n, n + 1)
        if prev_classical is not None:
            for g in cur_classical.generators:
                assert prev_classical.contains(g)
        prev_classical = cur_classical
    prime = univariate_sqrt2()
    prev = None
    for n in (1, 2, 3):
        cur = diff_power_new_univariate(prime, n)
        if prev is not None:
            for g in cur.generators:
                assert prev.contains(g)
        prev = cur


def test_containment_ladder_char0():
    # symbolic subset new-diff subset classical, on generators
    p = PrimeData.rational_point(R2, origin(R2))
    for n in (1, 2, 3, 4):
        sym = symbolic_power(p, n)
        nd = diff_power_new_point(Ideal(R2, []), p.point, n)
        for g in sym.generators:
            assert nd.contains(g)
        for g in nd.generators:
            assert diff_power_classical_member(p.ideal, n, g)


def test_prime_data_validation():
    with pytest.raises(ValueError):
        PrimeData.with_witness(ideal(R2, "x"), R2.parse("x^2"))  # witness inside
    S = PolyRing(QQ, ["x"])
    with pytest.raises(ValueError):
        PrimeData.univariate(S.parse("2*x^2 - 1"))  # not monic
    with pytest.raises(ValueError):
        symbolic_power(PrimeData.rational_point(R2, origin(R2)), 0)


def test_report_json_shape():
    report = chain_check(univariate_insep(3), 2)
    data = report.to_json()
    assert data["n"] == 2
    assert data["symbolic"] is not None
    assert any(v["relation"] == "strict-subset" for v in data["verdicts"])


QT = RatFuncField(QQ, "t")
QV = AlgExtField(QQ, "v", UniPoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)]))
QTS = RatFuncField(QT, "s")  # a depth-2 tower


def _coordinate(field, rng):
    """A nonzero coordinate of small height: tower values stay low so that
    Buchberger over QQ(t) and QQ[v] finishes quickly."""
    if field == QQ:
        return random_rational(rng, 5) or Fraction(1)
    if field in (QT, QV):
        g = field.generator()
        return rng.choice([g, g + 1, 1 / g, 2 * g - 3, field.from_int(3) / 2])
    if field == QTS:  # no quotients: with t / s the derivative oracle runs for minutes
        s, t = field.generator(), field.coerce(QT.generator())
        return rng.choice([s, s + t, 2 * s - 3, t * s, field.from_int(3) / 2])
    return field.from_int(rng.randrange(1, field.p))


def _small_poly(ring, rng, degree):
    """Up to five terms of degree <= degree with coefficients in [-5, 5]."""
    monos = monomials_up_to(ring.nvars, degree)
    return ring.poly({rng.choice(monos): rng.randint(-5, 5) for _ in range(5)})


def _seeded_points(field, rng):
    """Points in 1-3 variables, each with and without a zero coordinate."""
    for nvars in (1, 2, 3):
        ring = PolyRing(field, ["x", "y", "z"][:nvars])
        for with_zero in (False, True):
            point = [_coordinate(field, rng) for _ in range(nvars)]
            if with_zero:
                point[rng.randrange(nvars)] = field.zero()
            yield ring, point


def test_point_power_membership_with_denominators_matches_oracle():
    # the (x - 1/2)^a * (y + 1/3)^b enter the kernel with their denominators
    # cleared, as reducers whose lead coefficients are not 1, so reducing
    # by them scales the work; degree-truncated span membership is ideal
    # membership for m^n up to the truncation degree
    rng = random.Random("point-denominators")
    p = PrimeData.rational_point(R2, (Fraction(1, 2), Fraction(-1, 3)))
    for n in (1, 2, 3, 4):
        I, bound = _prime_power(p, n), n + 2
        oracle = TruncatedMembershipOracle(list(I.generators), bound)
        for k in range(16):
            f = random_poly(R2, rng, max_degree=bound, max_terms=4)
            if k % 2:  # a member, or one term away from one
                g = random_poly(R2, rng, max_degree=bound - n, max_terms=3) * rng.choice(I.generators)
                f = g + (R2.const(random_rational(rng)) if k % 4 == 1 else R2.zero())
            remainder = I.normal_form(f)
            assert I.contains(f) == oracle.contains(f) == remainder.is_zero()
            assert oracle.contains(f - remainder)


@pytest.mark.parametrize("field", [QQ, GF(7), QT, QV], ids=repr)
def test_point_powers_match_buchberger(field):
    # (x - a)^beta, |beta| = j, taken as the reduced basis of m_a^j against
    # Buchberger run on the same generators, in both orders
    rng = random.Random(2121)
    for ring, point in _seeded_points(field, rng):
        for order in (MonomialOrder.grevlex(ring), MonomialOrder.lex(ring)):
            gens = [ring.var(i) - ring.const(a) for i, a in enumerate(point)]
            p = PrimeData.rational_point(ring, point, Ideal(ring, gens, order))
            polys = [_small_poly(ring, rng, 7) for _ in range(2)]
            for j in range(1, 7):
                closed = _prime_power(p, j)
                fresh = Ideal(ring, closed.generators, order)
                assert closed.groebner_basis == fresh.groebner_basis
                assert [closed.normal_form(f) for f in polys] == [fresh.normal_form(f) for f in polys]


@pytest.mark.parametrize("field", [QQ, GF(7), QT, QV], ids=repr)
def test_point_power_generators_match_ideal_power(field):
    # the closed form lists the same (x - a)^beta, in the same order, as
    # the products ideal_power multiplies out; at j = 7 over GF(7) every
    # inner binomial coefficient vanishes and its term must go
    rng = random.Random(2124)
    for ring, point in _seeded_points(field, rng):
        for order in (MonomialOrder.grevlex(ring), MonomialOrder.lex(ring)):
            gens = [ring.var(i) - ring.const(a) for i, a in enumerate(point)]
            p = PrimeData.rational_point(ring, point, Ideal(ring, gens, order))
            for j in range(1, 8):
                closed = _prime_power(p, j)
                assert closed.order == order
                assert list(closed.generators) == list(ideal_power(p.ideal, j).generators)


def _seeded_minpolys(field, rng):
    """Monic m of degree 1-4 with seeded coefficients below the lead, some zero;
    the products compared need no irreducibility."""
    ring = PolyRing(field, ["x"])
    for d in (1, 2, 3, 4):
        tail = {(k,): _coordinate(field, rng) for k in range(d) if rng.random() < 0.7}
        yield PrimeData.univariate(ring.poly({(d,): 1, **tail}))


@pytest.mark.parametrize("make, pinned", [
    *((partial(_seeded_minpolys, field), {}) for field in (QQ, GF(7), QT, QV)),
    (lambda rng: [univariate_insep(7)], {7: ["x^49 + 6*t^7"]}),
], ids=["QQ", "GF(7)", "QQ(t)", "QQ[v]", "Fp(7)(t)-x^7-t"])
def test_univariate_power_generators_match_ideal_power(make, pinned):
    # the raw list product m^j is the one product ideal_power multiplies
    # out; (x^7 - t)^7 = x^49 - t^7 over Fp(7)(t) drops every inner
    # binomial term
    for p in make(random.Random(2125)):
        for j in (*range(1, 9), 25):
            closed, product = _prime_power(p, j), ideal_power(p.ideal, j)
            assert closed.order == p.ideal.order
            assert list(closed.generators) == list(product.generators)
            texts = [str(g) for g in closed.generators]
            assert texts == [str(g) for g in product.generators]
            assert pinned.get(j, texts) == texts


@pytest.mark.parametrize("make", [
    lambda: PrimeData.rational_point(R2, (1, -2)),
    univariate_sqrt2,
], ids=["point", "QQ-x^2-2"])
def test_prime_powers_are_built_once(make):
    # sympow, diffpow --new and check-zn on one prime share its p^n
    p = make()
    assert symbolic_power(p, 4) is diff_power_new(p, 4)
    assert chain_check(p, 4).new_diff is symbolic_power(p, 4)
    assert symbolic_power(p, 3) is not symbolic_power(p, 4)


@pytest.mark.parametrize("prime", [
    univariate_sqrt2(),
    PrimeData.univariate(PolyRing(QQ, ["x"]).parse("x^3 - x - 1")),
    univariate_insep(3),
    PrimeData.univariate(PolyRing(RatFuncField(GF(3), "t"), ["x"]).parse("x^2 - t")),
], ids=["QQ-x^2-2", "QQ-x^3-x-1", "Fp(3)(t)-x^3-t", "Fp(3)(t)-x^2-t"])
def test_univariate_powers_match_buchberger(prime):
    rng = random.Random(2122)
    ring = prime.ring
    polys = [_small_poly(ring, rng, 14) for _ in range(3)]
    for j in range(1, 7):
        closed = _prime_power(prime, j)
        fresh = Ideal(ring, closed.generators)
        assert closed.groebner_basis == fresh.groebner_basis
        assert [closed.normal_form(f) for f in polys] == [fresh.normal_form(f) for f in polys]


@pytest.mark.parametrize("field", [QQ, QT, QV, QTS], ids=repr)
def test_taylor_predicate_matches_derivatives(field):
    # members are products of n factors x_i - a_i with a random polynomial;
    # one factor fewer, or a random polynomial, is mostly not a member
    rng = random.Random(2123)
    seen = set()
    for ring, point in _seeded_points(field, rng):
        p = PrimeData.rational_point(ring, point)
        factors = p.ideal.generators
        for n in range(1, 8):
            member = _taylor_member(p, n)
            for k in (n, n, n - 1, 0):
                f = _small_poly(ring, rng, 3)
                for _ in range(k):
                    f = f * rng.choice(factors)
                expected = classical_by_definition(p.ideal, n, f)
                assert member(f) == expected
                assert expected or k < n or f.is_zero()
                seen.add(expected)
    assert seen == {True, False}
