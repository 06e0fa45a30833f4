"""Shared helpers: random element/polynomial generators for seeded
property tests."""

import random
from fractions import Fraction

import pytest

from noethops.fields import QQ, GF, AlgExtField, RatFuncField, UniPoly


def random_rational(rng, bound=20):
    den = rng.randint(1, bound)
    return Fraction(rng.randint(-bound, bound), den)


def random_elem(field, rng):
    """A random element of any supported field (small height)."""
    if field == QQ:
        return random_rational(rng)
    if hasattr(field, "p"):
        return field.from_int(rng.randrange(field.p))
    if isinstance(field, RatFuncField):
        num = UniPoly(field.base, [random_elem(field.base, rng) for _ in range(rng.randint(1, 3))])
        den = UniPoly(field.base, [random_elem(field.base, rng) for _ in range(rng.randint(1, 3))])
        while den.is_zero():
            den = UniPoly(field.base, [random_elem(field.base, rng) for _ in range(rng.randint(1, 3))])
        from noethops.fields import RatFunc

        return RatFunc(field, num, den)
    if isinstance(field, AlgExtField):
        d = field.minpoly.degree
        rep = UniPoly(field.base, [random_elem(field.base, rng) for _ in range(d)])
        from noethops.fields import AlgExtElem

        return AlgExtElem(field, rep)
    raise TypeError(f"no random generator for {field!r}")


def random_nonzero(field, rng):
    while True:
        x = random_elem(field, rng)
        if x:
            return x


def random_poly(ring, rng, max_degree=3, max_terms=4, field_bound=8):
    """Random sparse polynomial; may be zero."""
    n = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = random_elem(ring.field, rng)
        if c:
            terms[tuple(exps)] = c
    return ring.poly(terms)


def random_nonzero_poly(ring, rng, **kw):
    while True:
        f = random_poly(ring, rng, **kw)
        if not f.is_zero():
            return f


@pytest.fixture
def rng():
    return random.Random(20260810)
