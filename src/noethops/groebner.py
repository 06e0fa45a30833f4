"""Monomial orders, Buchberger's algorithm and ideal arithmetic.

The reduced Groebner basis of an ideal is computed once, cached, and is
unique for a fixed order (monic, auto-reduced, sorted ascending by
leading monomial).  Pair handling follows Gebauer-Moller: the three
lcm-divisibility criteria plus Buchberger's coprimality criterion, with
the normal selection strategy (smallest lcm degree, ties broken by the
monomial order, then by pair index) so runs are deterministic.

Reduction pops the next term from a heap on ``MonomialOrder.key``, a flat
int tuple computed once per term and never arity-checked (only ``compare``
checks); a cancelled term is skipped when popped.  Pending pairs sit in a
heap too.

The kernel computes on raw coefficients through its field's domain
operations (see ``fields``).  Only ``Ideal`` converts: it lifts generators
and ``f`` and wraps bases and ``normal_form`` remainders, while ``contains``
stops at the first raw remainder term and never wraps.  Cached records
keep raw tails.

Intersections and saturations go through an auxiliary variable and a
block elimination order, the standard single-variable constructions.
"""

import sys
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import product
from operator import add, le, neg, sub

from .errors import ArityMismatchError, IncompatibleFieldError
from .poly import (
    Polynomial,
    PolyRing,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

LEX, GREVLEX, ELIM = "lex", "grevlex", "elimination"


def _lex_key(mono):
    return tuple(map(neg, mono))


def _elim_key(block, mono):
    return grevlex_key(mono[:block]) + grevlex_key(mono[block:])


class MonomialOrder:
    """Total order on monomials refining divisibility.  ``key`` is a flat
    int tuple, smaller for bigger monomials, and does not check arity."""

    def __init__(self, kind, ring, block=0):
        if kind == GREVLEX:
            self.key = grevlex_key
        elif kind == LEX:
            self.key = _lex_key
        elif kind == ELIM:
            self.key = partial(_elim_key, block)
        else:
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.ring = ring
        self.block = block

    @classmethod
    def grevlex(cls, ring):
        return cls(GREVLEX, ring)

    @classmethod
    def lex(cls, ring):
        return cls(LEX, ring)

    @classmethod
    def elimination(cls, ring, k):
        """Block order eliminating the first k variables."""
        return cls(ELIM, ring, block=k)

    def compare(self, m1, m2):
        n = self.ring.nvars
        if len(m1) != n or len(m2) != n:
            raise ArityMismatchError(f"monomial arities {len(m1)}, {len(m2)} != ring arity {n}")
        k1, k2 = self.key(m1), self.key(m2)
        return (k1 < k2) - (k1 > k2)

    def leading_monomial(self, f):
        return min(f.terms, key=self.key)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.block == self.block
            and other.ring == self.ring
        )

    def __hash__(self):
        return hash((self.kind, self.block, self.ring))

    def __repr__(self):
        if self.kind == ELIM:
            return f"elimination({self.block})"
        return self.kind


def _mono_shift(pairs, shift):
    return {monomial_mul(m, shift): c for m, c in pairs}


def _tail(terms, lt):
    return tuple((m, c) for m, c in terms.items() if m != lt)


def _convert(terms, fn):
    return {m: fn(c) for m, c in terms.items()}


def _reduce_terms(terms, basis, hkey, submul):
    """Yield the remainder terms of a raw term dict against (leading monomial,
    tail) records sorted ascending by leading monomial, so the first divisor
    found has the smallest one.  Terms pop biggest first from a heap on hkey
    and a step adds only smaller terms, so each yielded term is final."""
    work = dict(terms)
    heap = [(hkey(m), m) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:  # cancelled after it entered the heap
            continue
        for lt, tail in basis:
            if all(map(le, lt, m)):
                break
        else:
            yield m, c
            continue
        shift = tuple(map(sub, m, lt))
        for tm, tc in tail:
            k2 = tuple(map(add, tm, shift))
            old = work.get(k2)
            s = submul(old, c, tc)
            if s:
                if old is None:
                    heappush(heap, (hkey(k2), k2))
                work[k2] = s
            elif old is not None:
                del work[k2]


class _GB:
    """Working state for Buchberger with Gebauer-Moller pair pruning."""

    def __init__(self, order):
        self.hkey = order.key
        self.dom = order.ring.field
        self.elems = []    # term dicts, monic, never removed
        self.lts = []
        self.hkeys = []    # heap key of each leading monomial
        self.tails = []    # each element's terms but its leading one
        self.active = []   # indices with currently minimal leading terms
        self.pairs = []    # heap of (degree, -heap key of lcm, i, j, lcm)
        self.records = None  # active (lt, tail) records, rebuilt after add

    def _sorted_active(self):
        """Active indices ascending by leading monomial."""
        return sorted(self.active, key=self.hkeys.__getitem__, reverse=True)

    def reduce(self, terms):
        if self.records is None:
            self.records = [(self.lts[i], self.tails[i]) for i in self._sorted_active()]
        return dict(_reduce_terms(terms, self.records, self.hkey, self.dom.submul))

    def add(self, terms):
        """Gebauer-Moller UPDATE with the new monic element."""
        hkey = self.hkey
        h = len(self.elems)
        lt_h = min(terms, key=hkey)
        mul, inv = self.dom.mul, self.dom.inv(terms[lt_h])
        terms = {m: mul(c, inv) for m, c in terms.items()}
        self.elems.append(terms)
        self.lts.append(lt_h)
        self.hkeys.append(hkey(lt_h))
        self.tails.append(_tail(terms, lt_h))
        self.records = None

        # candidate pairs (g, h), keeping one representative per minimal lcm
        cand = [(g, monomial_lcm(self.lts[g], lt_h)) for g in self.active]
        kept = []
        for idx, (g, l) in enumerate(cand):
            kept_lcms = [l2 for (_, l2, _) in kept]
            if monomial_mul(self.lts[g], lt_h) == l:  # coprime leading terms
                kept.append((g, l, True))
                continue
            others = [l2 for k2, (_, l2) in enumerate(cand) if k2 != idx]
            if any(monomial_divides(l2, l) and l2 != l for l2 in others + kept_lcms):
                continue
            if any(l2 == l for (_, l2) in cand[idx + 1 :]) or l in kept_lcms:
                continue
            kept.append((g, l, False))

        # prune old pairs whose lcm is strictly killed by lt_h
        survivors = [
            (deg, k, i, j, l) for (deg, k, i, j, l) in self.pairs
            if not monomial_divides(lt_h, l)
            or monomial_lcm(self.lts[i], lt_h) == l or monomial_lcm(self.lts[j], lt_h) == l
        ]
        for g, l, coprime in kept:
            if not coprime:
                survivors.append((sum(l), tuple(map(neg, hkey(l))), g, h, l))
        heapify(survivors)
        self.pairs = survivors

        self.active = [g for g in self.active if not monomial_divides(lt_h, self.lts[g])]
        self.active.append(h)

    def spoly(self, i, j):
        # the monic leading terms cancel, so only the tails are shifted
        l = monomial_lcm(self.lts[i], self.lts[j])
        a = _mono_shift(self.tails[i], monomial_div(l, self.lts[i]))
        shift = monomial_div(l, self.lts[j])
        submul, one = self.dom.submul, self.dom.to_raw(self.dom.one())
        for m, c in self.tails[j]:
            k = monomial_mul(m, shift)
            s = submul(a.pop(k, None), one, c)
            if s:
                a[k] = s
        return a

    def run(self, gen_terms):
        """Reduced basis as (leading monomial, terms, tail) records sorted
        ascending by leading monomial."""
        for terms in gen_terms:
            red = self.reduce(terms)
            if red:
                self.add(red)
        while self.pairs:
            _, _, i, j, _ = heappop(self.pairs)
            red = self.reduce(self.spoly(i, j))
            if red:
                self.add(red)
        # tail-reduce the minimal basis into the reduced one
        ascending = self._sorted_active()
        for g in self.active:
            others = [(self.lts[i], self.tails[i]) for i in ascending if i != g]
            self.elems[g] = dict(_reduce_terms(self.elems[g], others, self.hkey, self.dom.submul))
            self.tails[g] = _tail(self.elems[g], self.lts[g])
        return [(self.lts[g], self.elems[g], self.tails[g]) for g in ascending]


class Ideal:
    """Generators plus a monomial order and a lazily cached reduced
    Groebner basis.  Value-like: the basis is computed at most once, with
    the (leading monomial, tail) records that normal forms reduce against."""

    def __init__(self, ring, generators, order=None):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generator {g!r} is not a Polynomial")
            if g.ring != ring:
                raise IncompatibleFieldError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self.order = order if order is not None else MonomialOrder.grevlex(ring)
        self._gb = None
        self._records = None

    @property
    def groebner_basis(self):
        if self._gb is None:
            dom = self.ring.field
            recs = _GB(self.order).run([_convert(g.terms, dom.to_raw) for g in self.generators])
            self._records = [(lt, tail) for lt, _, tail in recs]
            self._gb = tuple(Polynomial(self.ring, _convert(t, dom.from_raw)) for _, t, _ in recs)
        return self._gb

    def _gb_records(self):
        """The basis as ascending (leading monomial, tail) records."""
        return self._records if self.groebner_basis else []

    def _remainder(self, f):
        """The raw remainder terms of f, lazily, biggest first."""
        if f.ring != self.ring:
            raise IncompatibleFieldError("polynomial from a different ring")
        dom = self.ring.field
        terms = _convert(f.terms, dom.to_raw)
        return _reduce_terms(terms, self._gb_records(), self.order.key, dom.submul)

    def normal_form(self, f):
        """Remainder of multivariate division by the reduced basis;
        zero exactly for ideal members."""
        from_raw = self.ring.field.from_raw
        return Polynomial(self.ring, {m: from_raw(c) for m, c in self._remainder(f)})

    def contains(self, f):
        """Membership, stopping at the first remainder term; nothing wraps."""
        return next(self._remainder(f), None) is None

    def is_unit_ideal(self):
        gb = self.groebner_basis
        return len(gb) == 1 and gb[0].total_degree() == 0

    def leading_monomials(self):
        return [lt for lt, _ in self._gb_records()]

    def standard_monomials(self):
        """Monomials outside the leading-term ideal, grevlex ascending;
        None when there are infinitely many."""
        gb = self.groebner_basis
        if not gb:
            return None
        lts = self.leading_monomials()
        if self.is_unit_ideal():
            return []
        n = self.ring.nvars
        caps = []
        for i in range(n):
            pure = [
                lt[i]
                for lt in lts
                if all(e == 0 for j, e in enumerate(lt) if j != i)
            ]
            if not pure:
                return None
            caps.append(min(pure))
        out = [
            m
            for m in product(*(range(c) for c in caps))
            if not any(monomial_divides(lt, m) for lt in lts)
        ]
        out.sort(key=grevlex_key, reverse=True)
        return out

    def __add__(self, other):
        return ideal_sum(self, other)

    def __mul__(self, other):
        return ideal_product(self, other)

    def __pow__(self, n):
        return ideal_power(self, n)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"


def ideal(ring, *gens, order=None):
    """Convenience constructor accepting polynomial text or Polynomials."""
    polys = [ring.parse(g) if isinstance(g, str) else g for g in gens]
    return Ideal(ring, polys, order=order)


def _check_compatible(I, J):
    if I.ring != J.ring:
        raise IncompatibleFieldError("ideals in different rings")


def _dedupe(polys):
    seen = set()
    out = []
    for p in polys:
        fs = frozenset(p.terms.items())
        if fs not in seen:
            seen.add(fs)
            out.append(p)
    return out


def ideal_sum(I, J):
    _check_compatible(I, J)
    return Ideal(I.ring, _dedupe(list(I.generators) + list(J.generators)), I.order)


def ideal_product(I, J):
    _check_compatible(I, J)
    gens = [f * g for f in I.generators for g in J.generators]
    return Ideal(I.ring, _dedupe(gens), I.order)


def ideal_power(I, n):
    if n < 0:
        raise ValueError("ideal power requires n >= 0")
    if n > sys.maxsize:
        raise ValueError(f"ideal power exponent exceeds {sys.maxsize}")
    gens = I.generators
    # (least index of the next factor, product), combinations_with_replacement order
    level = [(0, I.ring.one())]
    for _ in range(n):
        level = [(j, g * gens[j]) for i, g in level for j in range(i, len(gens))]
        if not level:  # no generators: every positive power is zero
            break
    return Ideal(I.ring, _dedupe([g for _, g in level]), I.order)


def _extended_ring(ring, aux_name="_w"):
    """Ring with one auxiliary variable in front, plus both transfer maps."""
    name = aux_name
    k = 0
    while name in ring.variables:
        name = f"{aux_name}{k}"
        k += 1
    ext = PolyRing(ring.field, (name,) + ring.variables)

    def up(f):
        return Polynomial(ext, {(0,) + m: c for m, c in f.terms.items()})

    def down(f):
        return Polynomial(ring, {m[1:]: c for m, c in f.terms.items()})

    return ext, up, down


def _eliminate_first(ext_ideal, down):
    kept = []
    for g in ext_ideal.groebner_basis:
        if all(m[0] == 0 for m in g.terms):
            kept.append(down(g))
    return kept


def intersect(I, J):
    """I cap J via the auxiliary variable: eliminate w from w*I + (1-w)*J."""
    _check_compatible(I, J)
    ext, up, down = _extended_ring(I.ring)
    w = ext.var(0)
    gens = [w * up(f) for f in I.generators]
    gens += [(ext.one() - w) * up(g) for g in J.generators]
    elim = Ideal(ext, gens, MonomialOrder.elimination(ext, 1))
    return Ideal(I.ring, _eliminate_first(elim, down), I.order)


def saturate(I, s):
    """(I : s^infinity) by the single-auxiliary-variable construction."""
    if not isinstance(s, Polynomial) or s.ring != I.ring:
        raise IncompatibleFieldError("saturation witness from a different ring")
    if s.is_zero():
        raise ValueError("cannot saturate by zero")
    ext, up, down = _extended_ring(I.ring)
    w = ext.var(0)
    gens = [up(f) for f in I.generators]
    gens.append(ext.one() - w * up(s))
    elim = Ideal(ext, gens, MonomialOrder.elimination(ext, 1))
    return Ideal(I.ring, _eliminate_first(elim, down), I.order)


def ideal_equal(I, J):
    """Structural identity of reduced bases under I's order."""
    _check_compatible(I, J)
    if J.order != I.order:
        J = Ideal(J.ring, J.generators, I.order)
    return I.groebner_basis == J.groebner_basis
