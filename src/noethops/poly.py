"""Sparse multivariate polynomials over an exact coefficient field.

A monomial is a tuple of nonnegative exponents, one per ring variable;
a polynomial is a map monomial -> nonzero coefficient.  Everything is
immutable; arithmetic never mutates operands.

The text grammar (whitespace insignificant, implicit ``*`` forbidden)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' natural]
    atom   := natural | name | '(' expr ')'

``/`` is only allowed by a constant, which is how rational coefficients
``a/b`` and t-rational coefficients such as ``(t+1)/t`` are written.  A
name resolves to a ring variable, or to a generator of the coefficient
field (``t``, ``u``), otherwise it is an unknown-variable error.
"""

import re
from math import perm, prod
from operator import sub

from .errors import (
    ArityMismatchError,
    IncompatibleFieldError,
    InconsistentExtensionError,
    ParseError,
    UnknownVariableError,
)
from .fields import RingValue, field_of, format_terms, invert, monomial_text


def grevlex_key(mono):
    """Sort key: smaller key = bigger monomial in graded reverse lex."""
    return (-sum(mono),) + mono[::-1]


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))

def monomial_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))

def monomial_div(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def add_into(out, pairs):
    """Add (key, coefficient) pairs into the term map `out` in place,
    deleting a key whose coefficient cancels; returns `out`."""
    for k, c in pairs:
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def monomials_up_to(nvars, degree):
    """All exponent tuples with total degree <= degree, grevlex ascending."""
    return [m for d in range(degree + 1) for m in monomials_of_degree(nvars, d)]


def monomials_of_degree(nvars, degree):
    """The exponent tuples of total degree `degree`, grevlex ascending: the
    largest last exponent first, the rest ordered by the same rule."""
    if nvars < 2:  # (degree,) in one variable; in none, () alone, of degree 0
        return [(degree,) * nvars] if nvars or not degree else []
    return [head + (e,) for e in range(degree, -1, -1)
            for head in monomials_of_degree(nvars - 1, degree - e)]


class PolyRing:
    """k[x_1, ..., x_n] with a fixed variable order."""

    def __init__(self, field, variables):
        variables = list(variables)
        if len(set(variables)) != len(variables) or any(not v for v in variables):
            raise ValueError("variable names must be distinct and nonempty")
        field.refuse_shadowing(variables)
        self.field = field
        self.variables = tuple(variables)

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(self.field.one())

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i):
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one()})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps):
        return self.poly({tuple(exps): self.field.one()})

    def point(self, coords):
        """The coordinates coerced into the field, one per variable."""
        point = tuple(map(self.field.coerce, coords))
        if len(point) != self.nvars:
            raise ArityMismatchError(
                f"point has {len(point)} coordinates, ring has {self.nvars} variables"
            )
        return point

    def poly(self, terms):
        """Polynomial from a {exponent tuple: coefficient} map."""
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ArityMismatchError(f"expected {self.nvars} exponents, got {len(exps)}")
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            c = self.field.coerce(c)
            if c:
                clean[exps] = c
        return Polynomial(self, clean)

    def parse(self, text):
        return parse(text, self)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"


class Polynomial(RingValue):
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # private by convention; never mutated

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.ring.field.zero())

    def _lift(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise IncompatibleFieldError("polynomials from different rings")
            return other
        try:
            return self.ring.const(other)
        except IncompatibleFieldError:
            return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Polynomial(self.ring, add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        left, right = self.terms.items(), other.terms.items()
        if len(left) == 1 or len(right) == 1:
            # x^m is injective on monomials: no two products merge
            ((m2, c2),), many = (left, right) if len(left) == 1 else (right, left)
            return Polynomial(self.ring, {monomial_mul(m1, m2): c for m1, c1 in many if (c := c1 * c2)})
        out = add_into({}, ((monomial_mul(m1, m2), c1 * c2) for m1, c1 in left for m2, c2 in right))
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if len(self.terms) != 1 or n < 0:
            return super().__pow__(n)
        ((m, c),) = self.terms.items()
        c = c**n
        return Polynomial(self.ring, {tuple(e * n for e in m): c} if c else {})

    def _one(self):
        return self.ring.one()

    def _key(self):
        return self.terms

    def __bool__(self):
        return bool(self.terms)

    def diff(self, i):
        """Formal partial derivative in the i-th variable."""
        if not 0 <= i < self.ring.nvars:
            raise IndexError(f"variable index {i} out of range")
        return self.diff_multi((0,) * i + (1,) + (0,) * (self.ring.nvars - i - 1))

    def diff_multi(self, beta):
        """d^beta in one pass: c*x^m goes to c * prod(m_i!/(m_i - beta_i)!) *
        x^(m - beta), the integer product mapped into the field once, and
        drops when some m_i < beta_i or the product vanishes in the field.
        Exact in every characteristic, as iterated partials multiply by the
        same integers.  Raises ArityMismatchError for a beta of the wrong
        length and ValueError for a negative entry."""
        beta = tuple(beta)
        if len(beta) != self.ring.nvars:
            raise ArityMismatchError(f"expected {self.ring.nvars} exponents, got {len(beta)}")
        if min(beta, default=0) < 0:
            raise ValueError(f"negative derivative order in {beta}")
        if not any(beta):
            return self
        from_int = self.ring.field.from_int
        out = {}
        for m, c in self.terms.items():
            n = prod(map(perm, m, beta))  # perm(e, b) is 0 when b > e
            if n == 1:  # no field product: most terms under a first-order beta
                out[monomial_div(m, beta)] = c
            elif n and (k := from_int(n)):
                out[monomial_div(m, beta)] = c * k
        return Polynomial(self.ring, out)

    def evaluate(self, coords):
        """Value at a point, in the field that the coordinates' sum with the
        ring field's zero lands in by the tower rule of the field
        arithmetic: coordinates may lie higher up the ring field's tower,
        and one off it raises IncompatibleFieldError, used by f or not."""
        coords = list(coords)
        if len(coords) != self.ring.nvars:
            raise ArityMismatchError(
                f"point has {len(coords)} coordinates, ring has {self.ring.nvars} variables"
            )
        total = field_of(sum(coords, self.ring.field.zero())).zero()
        for m, c in self.terms.items():
            for x, e in zip(coords, m):
                if e:
                    c = c * x**e
            total = total + c
        return total

    def translate(self, coords):
        """f(x + alpha): shift the point alpha to the origin."""
        ring = self.ring
        coords = ring.point(coords)
        shifted = [ring.var(i) + ring.const(a) for i, a in enumerate(coords)]
        out = ring.zero()
        for m, c in self.terms.items():
            term = ring.const(c)
            for i, e in enumerate(m):
                if e:
                    term = term * shifted[i] ** e
            out = out + term
        return out

    def is_homogeneous(self):
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def format(self):
        ordered = sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))
        return format_terms((c, monomial_text(self.ring.variables, m)) for m, c in ordered)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return self.format()


def to_unipoly(f):
    """One-variable Polynomial -> UniPoly over the ring's field."""
    from .fields import UniPoly

    if f.ring.nvars != 1:
        raise ArityMismatchError("to_unipoly needs a one-variable ring")
    d = f.total_degree()
    field = f.ring.field
    coeffs = [field.zero()] * (d + 1)
    for (e,), c in f.terms.items():
        coeffs[e] = field.coerce(c)
    return UniPoly(field, coeffs)


# --- tokenizer, shared with the script parser ------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")

INT, NAME, SYM, END = "int", "name", "sym", "end"


def tokenize(text, symbols="+-*/^(),"):
    """Token list of (kind, value, position)."""
    text = text.rstrip()  # trailing whitespace would backtrack into (.)
    tokens = []
    # every match ends where the next begins: one pass reads the whole text
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        value, pos = m[kind], m.start(kind)
        if kind == 1:
            tokens.append((INT, int(value), pos))
        elif kind == 2:
            tokens.append((NAME, value, pos))
        elif value in symbols:
            tokens.append((SYM, value, pos))
        else:
            raise ParseError(f"unexpected character {value!r}", pos)
    tokens.append((END, None, len(text)))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != END:
            self.i += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            return self.next()
        return None

    def expect(self, kind, value=None):
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {got[1]!r}", got[2])
        return tok


class _PolyParser:
    """Recursive descent over a token stream producing Polynomial values."""

    def __init__(self, stream, ring):
        self.ts = stream
        self.ring = ring
        self.generators = ring.field.named_generators()

    def parse_expr(self):
        """A signed sum of terms."""
        negate = self.ts.accept(SYM, "-") is not None
        if not negate:
            self.ts.accept(SYM, "+")
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            if self.ts.accept(SYM, "+"):
                value = value + self.parse_term()
            elif self.ts.accept(SYM, "-"):
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            if self.ts.accept(SYM, "*"):
                value = value * self.parse_factor()
            elif self.ts.peek()[:2] == (SYM, "/"):
                value = self.parse_division(value)
            else:
                return value

    def parse_division(self, value):
        """value / the factor after the '/', which must be a nonzero constant
        and, over an extension whose minimal polynomial is reducible, not a
        zero divisor."""
        pos = self.ts.next()[2]
        divisor = self.parse_factor()
        if divisor.total_degree() > 0:
            raise ParseError("division by a non-constant", pos)
        if divisor.is_zero():
            raise ParseError("division by zero", pos)
        c = divisor.coefficient((0,) * self.ring.nvars)
        try:
            inverse = invert(c)
        except InconsistentExtensionError as e:
            raise ParseError(str(e), pos) from None
        return value * self.ring.const(inverse)

    def parse_factor(self):
        value = self.parse_atom()
        if self.ts.accept(SYM, "^"):
            tok = self.ts.expect(INT)
            value = value**tok[1]
        return value

    def parse_atom(self):
        tok = self.ts.peek()
        if tok[0] == INT:
            self.ts.next()
            return self.ring.const(self.ring.field.from_int(tok[1]))
        if tok[0] == NAME:
            self.ts.next()
            name = tok[1]
            if name in self.ring.variables:
                return self.ring.var(self.ring.variables.index(name))
            if name in self.generators:
                return self.ring.const(self.generators[name])
            raise UnknownVariableError(f"unknown variable {name!r}", tok[2])
        if tok[:2] == (SYM, "("):
            self.ts.next()
            value = self.parse_expr()
            self.ts.expect(SYM, ")")
            return value
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text, ring):
    """Parse polynomial text; raises ParseError with position on bad input."""
    ts = TokenStream(tokenize(text))
    value = _PolyParser(ts, ring).parse_expr()
    ts.expect(END)
    return value
