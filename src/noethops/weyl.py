"""Differential operators with polynomial coefficients.

An operator is a finite sum of normal-form terms c * x^alpha * d^beta
(all multiplications to the left of all derivatives).  Operators act on
polynomials; composition of arbitrary operators is out of scope, the
only product ever needed is the commutator with a polynomial, which the
Leibniz rule keeps inside normal form:

    d^beta . r = sum over gamma <= beta of C(beta, gamma) d^gamma(r) d^(beta-gamma)

A solution-set target is the vanishing test it stands for: into the
ring, a value vanishes when it is the zero polynomial; modulo an ideal,
when the ideal contains it; at a point, when it evaluates to zero there.
"""

from itertools import product as _cartesian
from math import comb, prod

from .errors import IncompatibleFieldError
from .fields import format_elem, format_terms, monomial_text
from .poly import (
    END,
    INT,
    NAME,
    SYM,
    Polynomial,
    TokenStream,
    _PolyParser,
    add_into,
    grevlex_key,
    monomial_mul,
    tokenize,
)


class DiffOp:
    """Finite sum of terms c * x^alpha * d^beta."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {
            (tuple(a), tuple(b)): c for (a, b), c in terms.items() if c
        }

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def identity(cls, ring):
        z = (0,) * ring.nvars
        return cls(ring, {(z, z): ring.field.one()})

    @classmethod
    def partial(cls, ring, i, power=1):
        if power < 0:
            raise ValueError(f"negative derivative order {power}")
        if not 0 <= i < ring.nvars:
            raise IndexError(f"variable index {i} out of range")
        z = (0,) * ring.nvars
        return cls(ring, {(z, z[:i] + (power,) + z[i + 1:]): ring.field.one()})

    @classmethod
    def from_functional(cls, ring, coords):
        """Operator with constant coefficients sum c_beta * d^beta."""
        z = (0,) * ring.nvars
        return cls(ring, {(z, tuple(b)): c for b, c in coords.items()})

    def is_zero(self):
        return not self.terms

    @property
    def order(self):
        """Filtration order: max derivative degree; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(sum(b) for _, b in self.terms)

    def _lift(self, other):
        if isinstance(other, DiffOp):
            if other.ring != self.ring:
                raise IncompatibleFieldError("operators from different rings")
            return other
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return DiffOp(self.ring, add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return DiffOp(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = self.ring.field.coerce(c)
        return DiffOp(self.ring, {k: c * v for k, v in self.terms.items()})

    def premultiply(self, r):
        """r * delta for a polynomial r (the natural left R-action)."""
        right = r.terms.items()
        out = add_into({}, (
            ((monomial_mul(a, m), b), c * rc)
            for (a, b), c in self.terms.items()
            for m, rc in right
        ))
        return DiffOp(self.ring, out)

    def apply(self, f):
        """The exact action sum c * x^alpha * d^beta (f)."""
        if f.ring != self.ring:
            raise IncompatibleFieldError("operator and polynomial from different rings")
        out = add_into({}, (
            (monomial_mul(m, alpha), c * gc)
            for (alpha, beta), c in self.terms.items()
            for m, gc in f.diff_multi(beta).terms.items()
        ))
        return Polynomial(self.ring, out)

    def bracket(self, r):
        """[delta, r] = delta . r - r . delta, expanded by Leibniz.

        Satisfies apply(bracket(delta, r), f) = delta(r f) - r delta(f)
        and drops the filtration order by at least one.
        """
        if r.ring != self.ring:
            raise IncompatibleFieldError("operator and polynomial from different rings")
        ring = self.ring
        field = ring.field
        out = {}
        for (alpha, beta), c in self.terms.items():
            ranges = [range(e + 1) for e in beta]
            for gamma in _cartesian(*ranges):
                if not any(gamma):
                    continue  # the gamma = 0 term cancels against r*delta
                bc = field.from_int(prod(map(comb, beta, gamma)))
                if not bc:
                    continue
                dr = r.diff_multi(gamma)
                if dr.is_zero():
                    continue
                rest = tuple(b - g for b, g in zip(beta, gamma))
                add_into(out, (
                    ((monomial_mul(alpha, m), rest), c * bc * rc)
                    for m, rc in dr.terms.items()
                ))
        return DiffOp(self.ring, out)

    def __eq__(self, other):
        if isinstance(other, DiffOp):
            return other.ring == self.ring and other.terms == self.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (grevlex_key(kv[0][1]), grevlex_key(kv[0][0])),
        )

    def format(self):
        names = self.ring.variables
        dnames = tuple("d" + n for n in names)
        return format_terms(
            (c, "*".join(filter(None, (monomial_text(names, a), monomial_text(dnames, b)))))
            for (a, b), c in self.sorted_terms()
        )

    def to_json(self):
        return [
            {"xexp": list(a), "dexp": list(b), "coeff": format_elem(c)}
            for (a, b), c in self.sorted_terms()
        ]

    def __str__(self):
        return self.format()

    def __repr__(self):
        return self.format()


class SolTarget:
    """A vanishing test for operator values, with the label its repr
    shows: built by into_ring, modulo(ideal) or at_point(point)."""

    def __init__(self, vanishes, label):
        self.vanishes = vanishes
        self.label = label

    @classmethod
    def into_ring(cls):
        return cls(Polynomial.is_zero, "into ring")

    @classmethod
    def modulo(cls, ideal):
        return cls(ideal.contains, f"modulo {ideal!r}")

    @classmethod
    def at_point(cls, point):
        point = tuple(point)
        return cls(lambda g: not g.evaluate(point), f"at {point}")

    def __repr__(self):
        return f"SolTarget({self.label})"


def sol_membership(ops, target, f):
    """True when every operator sends f to zero in the target."""
    return all(target.vanishes(delta.apply(f)) for delta in ops)


class _OpParser(_PolyParser):
    """Extends the polynomial grammar with d<var> atoms.  A term denotes
    the normal-form monomial c * x^alpha * d^beta regardless of the
    factor order it was written in; parenthesized subexpressions must be
    pure polynomials."""

    def parse_op_term(self):
        poly_part = self.ring.one()
        beta = [0] * self.ring.nvars
        while True:
            tok = self.ts.peek()
            if tok[0] == NAME and self._d_index(tok[1]) is not None:
                self.ts.next()
                power = 1
                if self.ts.accept(SYM, "^"):
                    power = self.ts.expect(INT)[1]
                beta[self._d_index(tok[1])] += power
            else:
                poly_part = poly_part * self.parse_factor()
            while self.ts.peek()[:2] == (SYM, "/"):
                poly_part = self.parse_division(poly_part)
            if self.ts.accept(SYM, "*"):
                continue
            break
        op = DiffOp(
            self.ring,
            {((0,) * self.ring.nvars, tuple(beta)): self.ring.field.one()},
        )
        return op.premultiply(poly_part)

    def _d_index(self, name):
        # an exact variable match wins over a d-prefixed reading
        if name in self.ring.variables:
            return None
        if len(name) > 1 and name[0] == "d" and name[1:] in self.ring.variables:
            return self.ring.variables.index(name[1:])
        return None


def parse_operator(text, ring):
    """Parse operator text such as 'dx', 'dy^2' or 'x*dx - dy'."""
    ts = TokenStream(tokenize(text))
    parser = _OpParser(ts, ring)
    value = parser.parse_expr(parser.parse_op_term)
    ts.expect(END)
    return value
