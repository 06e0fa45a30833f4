"""Truncated Macaulay dual spaces at a rational point and the extraction
of Noetherian operators from them.

The degree-k dual of an ideal I at a point alpha is computed as the
kernel of the Macaulay matrix: shift the generators so alpha sits at the
origin, impose Lambda(x^gamma * g_i(x + alpha)) = 0 for all |gamma| <= k,
and solve exactly.  The driver raises k until the dual stops growing,
and stops at the standard-monomial count as soon as it is reached.
Functionals live in the divided-power basis e_beta (pairing
<x^gamma, e_beta> = 1 iff gamma = beta), which keeps the whole
construction valid in any characteristic; conversion to honest d^beta
operators multiplies by 1/beta! and is refused when beta! vanishes in
the coefficient field.
"""

from dataclasses import dataclass
from math import factorial

from .errors import NotZeroDimensionalError, UnsupportedCharacteristicError
from .fields import format_elem, format_terms, invert, monomial_text
from .linalg import kernel_basis
from .poly import grevlex_key, monomial_mul, monomials_up_to
from .weyl import DiffOp, SolTarget


@dataclass(frozen=True)
class DualFunctional:
    """Element of the truncated dual in divided-power coordinates."""

    ring: object
    coords: tuple  # ((monomial, coefficient), ...) sorted grevlex ascending

    @classmethod
    def from_dict(cls, ring, coords):
        items = tuple(sorted(
            ((m, c) for m, c in coords.items() if c),
            key=lambda mc: grevlex_key(mc[0]),
            reverse=True,
        ))
        return cls(ring, items)

    def coord_dict(self):
        return dict(self.coords)

    def pairing(self, f):
        """Action on a polynomial already written at the origin."""
        total = self.ring.field.zero()
        for m, c in self.coords:
            fc = f.terms.get(m)
            if fc is not None:
                total = total + c * fc
        return total

    def shift(self, i):
        """Down-shift sigma_i: (sigma_i L)(f) = L(x_i * f)."""
        out = {}
        for m, c in self.coords:
            if m[i] > 0:
                out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c
        return DualFunctional.from_dict(self.ring, out)

    def __str__(self):
        return format_terms(
            (c, f"e[{monomial_text(self.ring.variables, m) or '1'}]") for m, c in self.coords
        )


@dataclass
class DualBasis:
    ring: object
    point: tuple
    truncation_order: int
    functionals: list

    @property
    def dimension(self):
        return len(self.functionals)

    def __iter__(self):
        return iter(self.functionals)


def truncated_dual(I, point, k):
    """Echelonized basis of the degree-k dual of I at the point.

    Columns are monomials of degree <= k in grevlex-ascending order, so
    elimination pivots on the smallest monomial first and the kernel
    basis is unique and deterministic.
    """
    ring = I.ring
    point = tuple(ring.field.coerce(c) for c in point)
    columns = monomials_up_to(ring.nvars, k)
    index = {m: i for i, m in enumerate(columns)}
    zero = ring.field.zero()
    rows = []
    for g in I.generators:
        shifted = g.translate(point)
        for gamma in columns:
            row = [zero] * len(columns)
            nonzero = False
            for m, c in shifted.terms.items():
                beta = monomial_mul(m, gamma)
                if sum(beta) <= k:
                    row[index[beta]] = c
                    nonzero = True
            if nonzero:
                rows.append(row)
    vectors = kernel_basis(rows, len(columns), ring.field)
    functionals = [
        DualFunctional.from_dict(ring, {columns[i]: c for i, c in v.items()}) for v in vectors
    ]
    return DualBasis(ring, point, k, functionals)


def _default_safety_bound(I):
    return 1 + sum(max(g.total_degree(), 1) for g in I.generators)


def stable_dual(I, point, safety_bound=None):
    """Iterate k = 0, 1, ... until dim D_k = dim D_{k+1}; return D_k.

    Stops early, without building D_{k+1}, once dim D_k reaches the
    standard-monomial count: dim D_k <= the local multiplicity <= that
    count, so equality means D_k is already the whole local dual and k is
    the first order at which it stabilizes.  For an ideal primary to the
    maximal ideal of the point the dimension stabilizes at the colength;
    if it is still growing at the safety bound the ideal is not
    zero-dimensional at the point.
    """
    if safety_bound is None:
        safety_bound = _default_safety_bound(I)
    if safety_bound < 1:
        raise ValueError("safety bound must be >= 1")
    standard = I.standard_monomials()
    count = None if standard is None else len(standard)
    prev = truncated_dual(I, point, 0)
    for k in range(1, safety_bound + 1):
        if prev.dimension == count:
            return prev
        cur = truncated_dual(I, point, k)
        if cur.dimension == prev.dimension:
            return prev
        prev = cur
    raise NotZeroDimensionalError(
        f"dual-space dimension still growing at truncation {safety_bound}: "
        "the ideal is not primary to the maximal ideal of the point"
    )


def _factorial_in_field(field, beta):
    n = 1
    for e in beta:
        n *= factorial(e)
    return field.from_int(n)


def functional_to_operator(lam):
    """Divided-power functional to the Weyl operator with the same
    apply-then-evaluate action: e_beta becomes d^beta / beta!."""
    ring = lam.ring
    field = ring.field
    coords = {}
    for beta, c in lam.coords:
        fb = _factorial_in_field(field, beta)
        if not fb:
            raise UnsupportedCharacteristicError(
                f"beta! vanishes in characteristic {field.characteristic} "
                f"for beta = {beta}; divided-power functional has no Weyl form"
            )
        coords[beta] = c * invert(fb)
    return DiffOp.from_functional(ring, coords)


@dataclass
class NoethResult:
    """Noetherian operators for an m_alpha-primary ideal, with the
    self-certifying data the run produces along the way."""

    ring: object
    point: tuple
    colength: int
    truncation_order: int
    operators: list
    target: object
    witness_outside_ideal: object
    dual_basis: DualBasis

    def to_json(self):
        witness = self.witness_outside_ideal
        return {
            "point": [format_elem(c) for c in self.point],
            "colength": self.colength,
            "truncation_order": self.truncation_order,
            "operators": [op.to_json() for op in self.operators],
            "witness_outside_ideal": None if witness is None else str(witness),
        }


def _certified_dual(I, point, safety_bound):
    """The stable dual, refused unless its dimension equals the number of
    standard monomials: only then is I primary to the maximal ideal of
    the point, so that the functionals describe all of I."""
    basis = stable_dual(I, point, safety_bound)
    standard = I.standard_monomials()
    if standard is None or len(standard) != basis.dimension:
        count = "infinite" if standard is None else len(standard)
        raise NotZeroDimensionalError(
            f"stable dual dimension {basis.dimension} disagrees with the "
            f"standard-monomial count {count}: the ideal is not primary "
            "to the maximal ideal of the point"
        )
    return basis


def noetherian_operators(I, point, safety_bound=None):
    """Differential operators describing an m_alpha-primary ideal:
    f lies in I exactly when every operator kills f at the point.

    Requires characteristic zero, or positive characteristic small
    enough that no needed beta! vanishes.  Raises NotZeroDimensionalError
    when I is not primary to the maximal ideal of the point.
    """
    basis = _certified_dual(I, point, safety_bound)
    ops = [functional_to_operator(lam) for lam in basis.functionals]
    target = SolTarget.at_point(basis.point)
    # 1 is the smallest standard monomial of every ideal but (1)
    witness = None if I.is_unit_ideal() else I.ring.one()
    return NoethResult(
        ring=I.ring,
        point=basis.point,
        colength=basis.dimension,
        truncation_order=basis.truncation_order,
        operators=ops,
        target=target,
        witness_outside_ideal=witness,
        dual_basis=basis,
    )


def colength(I, point, safety_bound=None):
    """dim of R/I as a vector space, computed from the stable dual and
    cross-checked against the Groebner staircase."""
    return _certified_dual(I, point, safety_bound).dimension
