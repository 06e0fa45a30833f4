"""Shared helpers: random element/polynomial generators for seeded
property tests."""

import random
from fractions import Fraction

import pytest

from noethops import groebner
from noethops.fields import QQ, GF, AlgExtField, RatFuncField


def random_rational(rng, bound=20):
    den = rng.randint(1, bound)
    return Fraction(rng.randint(-bound, bound), den)


def in_generator(field, coeffs):
    """sum(c_i * g^i) in a tower field with generator g, for values c_i
    of its base, low degree first."""
    g, value = field.generator(), field.zero()
    for c in reversed(list(coeffs)):
        value = value * g + c
    return value


def random_elem(field, rng):
    """A random element of any supported field (small height)."""
    if field == QQ:
        return random_rational(rng)
    if hasattr(field, "p"):
        return field.from_int(rng.randrange(field.p))

    def draw(count):
        return [random_elem(field.base, rng) for _ in range(count)]

    if isinstance(field, RatFuncField):
        num = in_generator(field, draw(rng.randint(1, 3)))
        den = in_generator(field, draw(rng.randint(1, 3)))
        while not den:
            den = in_generator(field, draw(rng.randint(1, 3)))
        return num / den
    if isinstance(field, AlgExtField):
        return in_generator(field, draw(field.minpoly.degree))
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


def count_buchberger_runs(monkeypatch):
    """The generator count of every Buchberger run from now on."""
    runs = []
    run = groebner._GB.run

    def counted(self, gen_terms):
        runs.append(len(gen_terms))
        return run(self, gen_terms)

    monkeypatch.setattr(groebner._GB, "run", counted)
    return runs


@pytest.fixture
def rng():
    return random.Random(20260810)
