"""Independent brute-force oracles used to derive expected test values.

Deliberately does not reuse noethops.linalg: membership is decided by a
plain forward-elimination span check written from scratch, so Groebner
normal forms and Macaulay kernels are cross-checked against a second,
unrelated computation path.  Monomials, shifts and the textbook monomial
orders are written out here too, so nothing below calls the polynomial
or Groebner code it checks.
"""

from functools import cmp_to_key
from itertools import product
from math import comb
from operator import add

from noethops.fields import invert


def monomials(nvars, bound):
    """Every exponent tuple of total degree <= bound."""
    return [m for m in product(range(bound + 1), repeat=nvars) if sum(m) <= bound]


def monomial_product(a, b):
    return tuple(map(add, a, b))


def lcm(a, b):
    return tuple(map(max, a, b))


def lex(a, b):
    """Textbook lex: the leftmost nonzero entry of a - b decides."""
    d = [x - y for x, y in zip(a, b) if x != y]
    return (d[0] > 0) - (d[0] < 0) if d else 0


def grevlex(a, b):
    """Textbook grevlex: total degree, then the rightmost nonzero entry of
    a - b, negative meaning bigger."""
    if sum(a) != sum(b):
        return (sum(a) > sum(b)) - (sum(a) < sum(b))
    d = [x - y for x, y in zip(a, b) if x != y]
    return (d[-1] < 0) - (d[-1] > 0) if d else 0


def textbook_compare(order):
    """The comparison an order's kind and block name: lex, grevlex, or
    grevlex on the first `block` variables, then grevlex on the rest."""
    if order.kind == "lex":
        return lex
    if order.kind == "grevlex":
        return grevlex
    k = order.block
    return lambda a, b: grevlex(a[:k], b[:k]) or grevlex(a[k:], b[k:])


def leading_monomial(f, order):
    return max(f.terms, key=cmp_to_key(textbook_compare(order)))


def shifted_terms(f, point):
    """The terms of f(x + a), each (x_i + a_i)^e expanded by the binomial
    theorem."""
    out = {}
    for m, c in f.terms.items():
        for k in product(*(range(e + 1) for e in m)):
            v = c
            for e, j, a in zip(m, k, point):
                v = v * comb(e, j) * a ** (e - j)
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


class Span:
    """Row span with incremental forward elimination."""

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        self.rows = []  # (pivot_col, normalized row), sorted by pivot_col

    def _residue(self, vec):
        vec = list(vec)
        for pc, row in self.rows:
            if vec[pc]:
                f = vec[pc]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def insert(self, vec):
        res = self._residue(vec)
        pc = next((i for i, c in enumerate(res) if c), None)
        if pc is None:
            return False
        inv = invert(res[pc])
        self.rows.append((pc, [c * inv for c in res]))
        self.rows.sort(key=lambda r: r[0])
        return True

    def contains(self, vec):
        return not any(self._residue(vec))

    @property
    def dim(self):
        return len(self.rows)


class TruncatedMembershipOracle:
    """Membership in span_k { x^gamma * g_i : total degree <= bound }.

    For the ideals used in the tests this coincides with ideal
    membership for polynomials of degree <= bound.
    """

    def __init__(self, generators, bound):
        ring = generators[0].ring
        self.ring = ring
        self.bound = bound
        self.columns = {m: i for i, m in enumerate(monomials(ring.nvars, bound))}
        self.span = Span(len(self.columns), ring.field)
        zero = ring.field.zero()
        for g in generators:
            dg = g.total_degree()
            if dg > bound:
                continue
            for gamma in monomials(ring.nvars, bound - dg):
                row = [zero] * len(self.columns)
                for m, c in g.terms.items():
                    row[self.columns[monomial_product(m, gamma)]] = c
                self.span.insert(row)

    def vector(self, f):
        zero = self.ring.field.zero()
        row = [zero] * len(self.columns)
        for m, c in f.terms.items():
            if sum(m) > self.bound:
                raise ValueError("polynomial exceeds the oracle truncation degree")
            row[self.columns[m]] = c
        return row

    def contains(self, f):
        return self.span.contains(self.vector(f))


def macaulay_matrix(generators, point, k):
    """Explicit Macaulay constraint matrix at the point, columns indexed
    by the monomials of degree <= k."""
    ring = generators[0].ring
    columns = monomials(ring.nvars, k)
    index = {m: i for i, m in enumerate(columns)}
    zero = ring.field.zero()
    rows = []
    for g in generators:
        shifted = shifted_terms(g, point)
        for gamma in columns:
            row = [zero] * len(columns)
            nonzero = False
            for m, c in shifted.items():
                beta = monomial_product(m, gamma)
                if sum(beta) <= k:
                    row[index[beta]] = c
                    nonzero = True
            if nonzero:
                rows.append(row)
    return rows, columns


def macaulay_kernel_dimension(generators, point, k):
    """Kernel dimension of the Macaulay matrix by rank-nullity, using the
    independent Span elimination."""
    rows, columns = macaulay_matrix(generators, point, k)
    ring = generators[0].ring
    span = Span(len(columns), ring.field)
    for row in rows:
        span.insert(row)
    return len(columns) - span.dim
