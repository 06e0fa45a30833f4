"""Monomial orders, Buchberger's algorithm and ideal arithmetic.

The reduced Groebner basis of an ideal is computed once, cached, and is
unique for a fixed order (monic, auto-reduced, sorted ascending by
leading monomial).  Buchberger's algorithm is signature-based, in the
rewrite style of Eder and Roune (ISSAC 2013; survey: Eder and Faugere,
JSC 2017).  An element h = sum a_j f_j carries the signature (m, i) of
its biggest module term in Schreyer's order: m * lt(f_i) in the ring
order, then i.  One heap hands out signatures smallest first: e_i per
generator and, for each new h and older g, the bigger of u * sig(h) and
v * sig(g) with u * lt(h) = v * lt(g) = lcm, unless the two are equal,
the leading terms are coprime (it is then the Koszul signature below) or
sig(h) divides it (see (ii)).  A popped signature is skipped when (i) a
recorded syzygy signature of its index divides it: one per reduction to
zero and the Koszul signature max(lt(g) * sig(h), lt(h) * sig(g)) of
each pair; (ii) an element newer than the pair's signature side has a
signature dividing it; (iii) it was computed already.  A pair's element
is u * h for its signature side h.  Every nonzero remainder joins the
basis, even a singular top-reducible one (an element has its leading
term and signature): (ii) counts on the newest element of each
signature, and dropping them skipped pairs nothing covered and missed
basis elements.  At the end the minimal leading terms are kept and
tail-reduced.  An ideal built with ``reduced=True`` runs none of this:
its monic generators are its reduced basis.

One loop, ``_reduce``, does every reduction.  A reducer (lt, d, j, tail,
lc) is an element with signature (lt + d, j) and lead coefficient lc; it
reduces a term t only when sig(g) * t / lt(g) = (t + d, j) is below a
bound (s, i), and the one that makes it smallest is tried.  The run bounds
by the signature reduced, so reduction is regular and the first step of
u * h cancels its lead as the pair's other side would; its reducers are
sorted by sig(g) / lt(g), which on seeded rational-function scripts beat
the smallest leading term.  The reduced basis is kept as records
(lt, 0, 0, tail, lc) ascending by leading monomial; tail reduction, normal
forms and membership use them under the default bound, an infinite
signature that admits every reducer.

Over QQ the kernel is fraction-free: it computes on primitive integer
polynomials, by pseudo-division (Geddes, Czapor and Labahn, *Algorithms
for Computer Algebra*, 1992).  A polynomial enters times the lcm of its
denominators, and a record is primitive with a positive integer lc.  A
step on a term c takes g = gcd(c, lc); when lc / g is not 1 it scales the
whole work by it, and it subtracts c / g times the shifted tail with plain
integer arithmetic.  A remainder term yielded before a later scaling is
brought to the last term's scale when the remainder is finished, and the
content is removed once per finished remainder.  A normal form divides its
remainder by the clearing factor times the scale of the work.  A basis is
made monic only when it is unpacked, so it prints as the monic reduced
basis.  Every other field computes on its own raw values with monic
records: their lc is None (as is a QQ record's whose lc is 1), and no step
scales.

Inside the kernel a monomial is one int.  Its low n*W bits are n exponent
fields of W bits, variable i at bit i*W, and the top bit of each field is
a guard, clear in every monomial the kernel keeps.  The bits above hold
the order's key, a linear form with one integer weight per variable
(``MonomialOrder.weights``), so a smaller int is a bigger monomial.
Multiplying two monomials is one addition, and so is shifting a term's
key; x^a divides x^b exactly when ``(b - a) & guard`` is zero, and an lcm
takes a few guard-bit operations.  Reduction pops the next term from a
heap of these ints, and a cancelled term is skipped when popped.  A
signature (m, i) is kept as the packed m * lt(f_i) and i, a sum of two
kept monomials, so it compares as one int and divides another of its
index by the same subtraction and mask.

The width W is the smallest of 16, 32, 64, ... bits whose fields hold
twice the input's largest exponent below the guard bit.  A sum of two kept
monomials is exact in W-bit fields, so a product that outgrows a field
sets that field's guard bit and disturbs nothing else, and the key still
puts it in its place among the others.  The kernel checks the guard bits
of every term before it reduces or keeps it and of every signature it
compares, and when one is set it redoes the whole computation at twice
the width; a Koszul signature that overflows is only left unrecorded.  So
no result depends on the width, and no input is refused for the size
of its exponents.

The kernel computes on raw coefficients through its domain, which ``Ideal``
picks once: ints over QQ, the field's own raw values (see ``fields``)
otherwise.  A domain packs by ``enter`` and ``record`` and unpacks by
``values``, and only ``Ideal`` converts: it packs generators and unpacks
bases, ``leading_monomials`` and ``normal_form`` remainders.  Its cached
records keep packed monomials and raw tails; ``normal_form``, ``contains``
and the derivative walk behind the classical differential power pack f
straight onto them while f's exponents fit their width, and ``contains``
stops at the first remainder term, whose scale does not matter, unpacking
none.

Intersections and saturations go through an auxiliary variable w and a
block order eliminating it, the standard single-variable constructions.
Both end in ``_eliminate``: by the elimination theorem (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3 sec. 1) the w-free
elements of the reduced block-order basis are the reduced basis of the
result in the order the block order restricts to, grevlex.  A grevlex
result takes them with ``reduced=True``; any other order runs Buchberger
on them again, which converts the order.
"""

import sys
from bisect import insort
from collections import defaultdict
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, product
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import IncompatibleFieldError
from .fields import RationalField
from .poly import Polynomial, PolyRing, grevlex_key, monomial_divides

LEX, GREVLEX, ELIM = "lex", "grevlex", "elimination"


class MonomialOrder:
    """Total order on monomials refining divisibility, defined once by
    ``weights``."""

    def __init__(self, kind, ring, block=0):
        if kind not in (LEX, GREVLEX, ELIM):
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

    def weights(self, width):
        """One int weight per variable for the kernel's packed monomials.
        For exponents below 2^width, sorting by sum(w_i * e_i), then by the
        exponents read from the last variable to the first, puts bigger
        monomials first."""
        n, s = self.ring.nvars, 1 << width
        if self.kind == LEX:
            return tuple(-(s ** (n - 1 - i)) for i in range(n))
        # a grevlex block sorts by minus its degree, then by its exponents
        # read backwards; grevlex is the case with an empty first block
        k = self.block
        return tuple((s**i - s**k) * s * s for i in range(k)) + (-1,) * (n - k)

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


class _Overflow(Exception):
    """A packed monomial outgrew its exponent field."""


def _width(monomials):
    """Bits per exponent field: the smallest of 16, 32, 64, ... whose fields
    hold twice the largest exponent below the guard bit."""
    top, width = max(chain.from_iterable(monomials), default=0), 16
    while top >> (width - 2):
        width *= 2
    return width


class _Packing:
    """The monomials of one order as ints with fields of one width."""

    def __init__(self, order, width):
        n = order.ring.nvars
        self.order = order
        self.width = width
        self.shifts = range(0, n * width, width)
        self.units = tuple(
            (w << n * width) + (1 << s) for w, s in zip(order.weights(width), self.shifts)
        )
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.fields = (1 << n * width) - 1
        self.mask = (1 << width) - 1

    def pack(self, exps):
        return sum(map(mul, exps, self.units))

    def unpack(self, m):
        mask = self.mask
        return tuple([(m >> s) & mask for s in self.shifts])

    def derive(self, terms, j, times):
        """d/dx_j of packed raw terms: x_j^e goes down by one and its
        coefficient c becomes times(c, e), unless e is 1."""
        unit, shift, mask = self.units[j], self.shifts[j], self.mask
        return {m - unit: c if e == 1 else times(c, e)
                for m, c in terms.items() if (e := m >> shift & mask)}

    def record(self, terms, kernel):
        """The (lt, 0, 0, tail, lc) reducer of a polynomial's terms, the tail
        biggest first."""
        packed = sorted(kernel.enter(self.pack, terms)[0].items())
        lt, tail, lc = kernel.record([(m, c, 1) for m, c in packed])
        return lt, 0, 0, tail, lc

    def lcm(self, a, b):
        """lcm(a, b), packed."""
        guard, fields = self.guard, self.fields
        a, b = a & fields, b & fields
        ge = ((a | guard) - b) & guard  # guard bits of the fields where a_i >= b_i
        keep = ge - (ge >> (self.width - 1))  # value bits of those fields
        return self.pack(self.unpack((a & keep) | (b & ~keep)))


def _widening(pk, work):
    """(packing, work(packing)) for pk, or for the first packing of twice,
    four times, ... its width at which no monomial overflows."""
    while True:
        try:
            return pk, work(pk)
        except _Overflow:
            pk = _Packing(pk.order, 2 * pk.width)


class _Monic:
    """A field inside the kernel as its own raw values (see ``fields``):
    records are monic, so their lc is None and no step scales."""

    def __init__(self, field):
        self.field, self.submul, self.one = field, field.submul, field.raw_one

    def times(self, c, e):
        """c times the int e."""
        field = self.field
        return field.mul(c, field.to_raw(field.from_int(e)))

    def enter(self, pack, terms):
        """A polynomial's packed raw terms and the factor that cleared them."""
        to_raw = self.field.to_raw
        return {pack(m): to_raw(c) for m, c in terms.items()}, 1

    def record(self, rem):
        """(lt, tail, lc) of a nonzero remainder's monic multiple."""
        (lt, lc, _), rest = rem[0], rem[1:]
        if lc == self.one:  # monic already, as every tail-reduced basis element is
            return lt, tuple([(m, c) for m, c, _ in rest]), None
        mul, inv = self.field.mul, self.field.inv(lc)
        return lt, tuple([(m, mul(c, inv)) for m, c, _ in rest]), None

    def values(self, rem, clear, unpack):
        """A remainder's terms as a term map of field values."""
        from_raw = self.field.from_raw
        return {unpack(m): from_raw(c) for m, c, _ in rem}


class _Integers:
    """QQ inside the kernel: a polynomial enters as ints, times the lcm of
    its denominators, and a record is primitive with a positive lead
    coefficient lc (None when it is 1)."""

    one = 1
    times = staticmethod(mul)

    @staticmethod
    def submul(acc, c, t):
        return (acc or 0) - c * t

    def enter(self, pack, terms):
        clear = lcm(*map(attrgetter("denominator"), terms.values()))
        if clear == 1:
            return {pack(m): c.numerator for m, c in terms.items()}, 1
        return {pack(m): c.numerator * (clear // c.denominator) for m, c in terms.items()}, clear

    def record(self, rem):
        last = rem[-1][2]  # every term is brought to the last term's scale
        pairs = [(m, c if k == last else c * (last // k)) for m, c, k in rem]
        content = gcd(*[c for _, c in pairs])
        if pairs[0][1] < 0:
            content = -content
        if content != 1:
            pairs = [(m, c // content) for m, c in pairs]
        (lt, lc), tail = pairs[0], tuple(pairs[1:])
        return lt, tail, None if lc == 1 else lc

    def values(self, rem, clear, unpack):
        return {unpack(m): Fraction(c, clear * k) for m, c, k in rem}


_INTEGERS, _monic = _Integers(), cache(_Monic)


def _reduce(terms, reducers, guard, submul, s=float("-inf"), i=0):
    """Yield the remainder terms of (packed monomial, raw coefficient) pairs
    against (lt, d, j, tail, lc) reducers under the signature bound (s, i)
    (see the module docstring), sorted so that the first divisor of a term
    t makes (t + d, j) smallest.  The smallest int, the biggest monomial,
    pops first and a step adds only smaller terms, so each yielded term is
    final.  A term comes as (m, c, k): the work had been scaled by k when
    it was yielded, so the remainder's coefficient at m is c / k.  A
    reducer with an integer lc cancels a term c by scaling the work by
    lc / gcd(c, lc), when that is not 1, and subtracting c / gcd(c, lc)
    times its tail; with lc None it subtracts c times its tail and k stays
    1.  Raises _Overflow when a popped term or a signature multiple has a
    guard bit set."""
    work = dict(terms)
    heap = list(work)
    heapify(heap)
    scale = 1
    while heap:
        m = heappop(heap)
        c = work.pop(m, None)
        if c is None:  # cancelled after it entered the heap
            continue
        if m & guard:
            raise _Overflow
        for r in reducers:
            if not (m - r[0]) & guard:
                break
        else:
            yield m, c, scale
            continue
        lt, d, j, tail, lc = r
        v = m + d
        if v & guard:
            raise _Overflow
        if v < s or v == s and j >= i:  # not regular
            yield m, c, scale
            continue
        if lc:
            g = gcd(c, lc)
            if g != lc:
                a = lc // g
                scale *= a
                work = {k: a * t for k, t in work.items()}
            c //= g
        shift = m - lt
        for tm, tc in tail:
            k = tm + shift
            old = work.get(k)
            t = submul(old, c, tc)
            if t:
                if old is None:
                    heappush(heap, k)
                work[k] = t
            elif old is not None:
                del work[k]


class _GB:
    """Working state for a signature-based Buchberger run (see the module
    docstring).  A signature (s, i) is kept as its Schreyer lead: s is the
    packed m * lt(f_i) and i the generator index."""

    def __init__(self, packing, kernel):
        self.pk = packing
        self.kernel = kernel
        self.elements = []  # (lt, s - lt, i, tail, lc) of each element, signature (s, i)
        self.reducers = []  # the same records, smallest sig / lt first
        self.queue = []     # heap of (-s, i) for e_i, (-s, i, -h) for h's side of a pair
        self.syz = defaultdict(list)       # i: recorded syzygy signatures s
        self.by_index = defaultdict(list)  # i: (element, s) in the order added

    def add(self, red, s, i):
        """Append a regular remainder with signature (s, i), queue its pairs
        with every older element and record their Koszul signatures."""
        pk, guard = self.pk, self.pk.guard
        h = len(self.elements)
        lt_h, tail, lc = self.kernel.record(red)
        for g, (lt_g, d_g, i_g, *_) in enumerate(self.elements):
            s_g = lt_g + d_g
            ka, kb = s + lt_g, s_g + lt_h  # lt(g) * sig(h), lt(h) * sig(g)
            if not (ka | kb) & guard and (ka, i) != (kb, i_g):
                if (-ka, i) > (-kb, i_g):
                    self.syzygy(ka, i)
                else:
                    self.syzygy(kb, i_g)
            l = pk.lcm(lt_h, lt_g)
            if l == lt_h + lt_g:  # coprime: the pair's signature is the Koszul one
                continue
            a, b = s + l - lt_h, s_g + l - lt_g
            if (a | b) & guard:
                raise _Overflow
            if (-a, i) > (-b, i_g):
                heappush(self.queue, (-a, i, -h))
            elif (a, i) != (b, i_g) and (i != i_g or (b - s) & guard):  # else h rewrites it
                heappush(self.queue, (-b, i_g, -g))
        record = lt_h, s - lt_h, i, tail, lc
        self.elements.append(record)
        self.by_index[i].append((h, s))
        insort(self.reducers, record, key=lambda r: (-r[1], r[2]))

    def syzygy(self, s, i):
        """Record the syzygy signature (s, i) unless a recorded one divides it."""
        zs, guard = self.syz[i], self.pk.guard
        if all((s - z) & guard for z in zs):
            zs.append(s)

    def run(self, gen_terms):
        """Reduced basis as packed (lt, 0, 0, tail, lc) records sorted
        ascending by leading monomial."""
        guard, queue = self.pk.guard, self.queue
        one, submul = self.kernel.one, self.kernel.submul
        queue.extend((-min(t), i) for i, t in enumerate(gen_terms))
        heapify(queue)
        last = None
        while queue:
            neg_s, i, *side = heappop(queue)
            if (neg_s, i) == last:  # (iii): one entry per signature
                continue
            last = neg_s, i
            s = -neg_s
            if any(not (s - z) & guard for z in self.syz[i]):  # (i)
                continue
            if side:
                h = -side[0]
                if any(e > h and not (s - t) & guard for e, t in self.by_index[i]):  # (ii)
                    continue
                lt, d, _, tail, lc = self.elements[h]
                u = s - lt - d  # u * sig(h) = (s, i)
                terms = [(lt + u, lc or one)] + [(m + u, c) for m, c in tail]
            else:
                terms = gen_terms[i]
            red = list(_reduce(terms, self.reducers, guard, submul, s, i))
            if red:
                self.add(red, s, i)
            else:
                self.syzygy(s, i)
        # keep the minimal leading terms, then tail-reduce them
        kept = []
        for lt, _, _, tail, lc in sorted(self.reducers, key=lambda r: -r[0]):
            if all((lt - k[0]) & guard for k in kept):
                kept.append((lt, 0, 0, tail, lc))
        record = self.kernel.record
        out = []
        for g, (lt, _, _, tail, lc) in enumerate(kept):
            # no other lt divides lt, so only the tail reduces; the lead, at
            # scale 1, is brought to the tail's scale by record
            rem = _reduce(tail, kept[:g] + kept[g + 1:], guard, submul)
            lt, tail, lc = record([(lt, lc or one, 1), *rem])
            out.append((lt, 0, 0, tail, lc))
        return out


class Ideal:
    """Generators plus a monomial order and a lazily cached reduced
    Groebner basis.  Value-like: the basis is computed at most once, with
    the packed (leading monomial, tail) records that normal forms reduce
    against.  With ``reduced=True`` the monic generators are that basis,
    their records sorted as ``_GB.run`` sorts its result."""

    def __init__(self, ring, generators, order=None, reduced=False):
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
        self._records = None  # (packing, records)
        # the kernel's domain: ints for QQ, the field's raw values otherwise
        self._domain = _INTEGERS if isinstance(ring.field, RationalField) else _monic(ring.field)
        self._reduced = reduced

    @property
    def groebner_basis(self):
        if self._gb is None:
            kernel, gens = self._domain, self.generators

            def build(pk):
                if self._reduced:  # in generator order
                    return [pk.record(g.terms, kernel) for g in gens]
                return _GB(pk, kernel).run([kernel.enter(pk.pack, g.terms)[0] for g in gens])

            pk = _Packing(self.order, _width(chain.from_iterable(g.terms for g in gens)))
            pk, recs = _widening(pk, build)
            if self._reduced:  # the generators themselves, sorted with their records
                ranked = sorted(zip(recs, gens), key=lambda rg: -rg[0][0])
                recs, self._gb = [r for r, _ in ranked], tuple(g for _, g in ranked)
            else:  # a record is its monic element cleared by lc
                one = kernel.one
                self._gb = tuple(
                    Polynomial(self.ring, kernel.values(
                        [(lt, lc or one, 1), *[(m, c, 1) for m, c in tail]], lc or 1, pk.unpack))
                    for lt, _, _, tail, lc in recs
                )
            self._records = pk, recs
        return self._gb

    def _packed_basis(self):
        """(packing, ascending packed (lt, 0, 0, tail, lc) records)."""
        self.groebner_basis  # builds both on first use
        return self._records

    def _fitted(self, f, work):
        """work(packing, records, f's packed raw terms, the factor that
        cleared them) by _widening from the cached packing when f's exponents
        fit it, else from the first packing they fit; a basis repacked at a
        wider one is kept."""
        if f.ring != self.ring:
            raise IncompatibleFieldError("polynomial from a different ring")
        pk, width = self._packed_basis()[0], _width(f.terms)
        kernel = self._domain

        def rework(pk):
            if pk is not self._records[0]:
                self._records = pk, [pk.record(g.terms, kernel) for g in self._gb]
            return work(*self._records, *kernel.enter(pk.pack, f.terms))

        return _widening(pk if width <= pk.width else _Packing(self.order, width), rework)[1]

    def normal_form(self, f):
        """Remainder of multivariate division by the reduced basis;
        zero exactly for ideal members."""
        def work(pk, records, t, clear):
            kernel = self._domain
            return kernel.values(_reduce(t, records, pk.guard, kernel.submul), clear, pk.unpack)

        return Polynomial(self.ring, self._fitted(f, work))

    def contains(self, f):
        """Membership, stopping at the first remainder term; nothing unpacks."""
        return not self._fitted(f, lambda pk, records, t, _: next(
            _reduce(t, records, pk.guard, self._domain.submul), None))

    def _derivatives_in(self, f, n, orders):
        """Whether every d^beta f with |beta| < n and |beta| in orders lies
        in the ideal, over characteristic 0 (where e * c is nonzero for a
        nonzero c): the walk behind the classical differential power.  The
        d^beta f come by |beta|, each d_j of its parent on the packed raw
        terms the basis reduces against; a child of d_i g is d_j g for
        j >= i, so each beta comes once.  Zero derivatives prune, and the
        first that has a remainder term (as ``contains`` reads it) ends the
        walk."""
        nvars = self.ring.nvars

        def work(pk, records, terms, _):
            times, submul = self._domain.times, self._domain.submul
            level = [(0, terms)]  # (j of the last d_j, derivative)
            for k in range(n):
                if k:
                    level = [(j, d) for i, g in level for j in range(i, nvars)
                             if (d := pk.derive(g, j, times))]
                if not level:
                    break
                if k in orders and any(next(_reduce(g, records, pk.guard, submul), None) for _, g in level):
                    return False
            return True

        return self._fitted(f, work)

    def is_unit_ideal(self):
        gb = self.groebner_basis
        return len(gb) == 1 and gb[0].total_degree() == 0

    def leading_monomials(self):
        pk, records = self._packed_basis()
        return [pk.unpack(r[0]) for r in records]

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


def _extended_ring(ring):
    """Ring with one auxiliary variable w in front, and the map into it."""
    name = ring.field.fresh_name("_w", ring.variables)
    ext = PolyRing(ring.field, (name,) + ring.variables)

    def up(f):
        return Polynomial(ext, {(0,) + m: c for m, c in f.terms.items()})

    return ext, up


def _eliminate(I, ext, gens):
    """The ideal of I's ring cut out of (gens) in ext: the w-free elements
    of its basis under the block order eliminating w.  That order
    restricts to grevlex, so under grevlex they are the reduced basis
    (elimination theorem); other orders run Buchberger again to convert."""
    basis = Ideal(ext, gens, MonomialOrder.elimination(ext, 1)).groebner_basis
    kept = [
        Polynomial(I.ring, {m[1:]: c for m, c in g.terms.items()})
        for g in basis
        if all(m[0] == 0 for m in g.terms)
    ]
    return Ideal(I.ring, kept, I.order, reduced=I.order.kind == GREVLEX)


def intersect(I, J):
    """I cap J via the auxiliary variable: eliminate w from w*I + (1-w)*J."""
    _check_compatible(I, J)
    ext, up = _extended_ring(I.ring)
    w = ext.var(0)
    gens = [w * up(f) for f in I.generators]
    gens += [(ext.one() - w) * up(g) for g in J.generators]
    return _eliminate(I, ext, gens)


def saturate(I, s):
    """(I : s^infinity) by the single-auxiliary-variable construction."""
    if not isinstance(s, Polynomial) or s.ring != I.ring:
        raise IncompatibleFieldError("saturation witness from a different ring")
    if s.is_zero():
        raise ValueError("cannot saturate by zero")
    ext, up = _extended_ring(I.ring)
    w = ext.var(0)
    gens = [up(f) for f in I.generators]
    gens.append(ext.one() - w * up(s))
    return _eliminate(I, ext, gens)


def ideal_equal(I, J):
    """Structural identity of reduced bases under I's order."""
    _check_compatible(I, J)
    if J.order != I.order:
        J = Ideal(J.ring, J.generators, I.order)
    return I.groebner_basis == J.groebner_basis
