"""Differential operators with polynomial coefficients.

An operator is a finite sum of normal-form terms c * x^alpha * d^beta
(all multiplications to the left of all derivatives), and its order is
the largest |beta|.  Operators are built from their terms, act on
polynomials and print; no product of operators is formed.

A solution-set target is the vanishing test it stands for: a value
vanishes at a point when it evaluates to zero there.
"""

from .errors import IncompatibleFieldError
from .fields import format_elem, format_terms, monomial_text
from .poly import Polynomial, add_into, grevlex_key, monomial_mul


class DiffOp:
    """Finite sum of terms c * x^alpha * d^beta."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {
            (tuple(a), tuple(b)): c for (a, b), c in terms.items() if c
        }

    @classmethod
    def from_functional(cls, ring, coords):
        """Operator with constant coefficients sum c_beta * d^beta."""
        z = (0,) * ring.nvars
        return cls(ring, {(z, tuple(b)): c for b, c in coords.items()})

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

    def __eq__(self, other):
        if isinstance(other, DiffOp):
            return other.ring == self.ring and other.terms == self.terms
        return NotImplemented

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
    shows: built by at_point(point)."""

    def __init__(self, vanishes, label):
        self.vanishes = vanishes
        self.label = label

    @classmethod
    def at_point(cls, point):
        point = tuple(point)
        return cls(lambda g: not g.evaluate(point), f"at {point}")

    def __repr__(self):
        return f"SolTarget({self.label})"


def sol_membership(ops, target, f):
    """True when every operator sends f to zero in the target."""
    return all(target.vanishes(delta.apply(f)) for delta in ops)
