"""Truncated Macaulay dual spaces at a rational point and the extraction
of Noetherian operators from them.

The degree-k dual of an ideal I at a point alpha is computed as the
kernel of the Macaulay matrix: shift the generators so alpha sits at the
origin, impose Lambda(x^gamma * g_i(x + alpha)) = 0 for all |gamma| <= k,
and solve exactly.  The driver raises k until the dimension reaches the
standard-monomial count, which is its only stop and its certificate: a
dual that stops growing short of the count, or an infinite count, means
the ideal is not primary to the maximal ideal of the point.
Functionals live in the divided-power basis e_beta (pairing
<x^gamma, e_beta> = 1 iff gamma = beta), which keeps the whole
construction valid in any characteristic; conversion to honest d^beta
operators multiplies by 1/beta! and is refused when beta! vanishes in
the coefficient field.
"""

from dataclasses import dataclass
from math import factorial, prod

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
    if k < 0:
        raise ValueError("truncation order must be >= 0")
    ring = I.ring
    point = ring.point(point)
    columns = monomials_up_to(ring.nvars, k)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in I.generators:
        shifted = g.translate(point)
        for gamma in columns:
            row = {}
            for m, c in shifted.terms.items():
                beta = monomial_mul(m, gamma)
                if sum(beta) <= k:
                    row[index[beta]] = c
            if row:
                rows.append(row)
    vectors = kernel_basis(rows, len(columns), ring.field)
    functionals = [
        DualFunctional.from_dict(ring, {columns[i]: c for i, c in v.items()}) for v in vectors
    ]
    return DualBasis(ring, point, k, functionals)


def stable_dual(I, point):
    """The whole local dual of I at the point, certified by the
    standard-monomial count c of I.

    dim D_k = dim R_m/(I + m^{k+1}) grows strictly with k until it stalls
    and then never grows again (Nakayama); it is at most the local
    multiplicity, which is at most c.  So D_k is returned at the first k
    where dim D_k = c, within c + 1 orders, and that equality certifies
    that I is primary to the maximal ideal of the point.  An ideal whose
    count is infinite is refused before any dual is built, and one whose
    dual stops growing short of c is refused when it stalls.
    """
    standard = I.standard_monomials()
    if standard is None:
        raise NotZeroDimensionalError(
            "the standard-monomial count is infinite: the ideal is not primary "
            "to the maximal ideal of the point"
        )
    count = len(standard)
    prev = truncated_dual(I, point, 0)
    while prev.dimension != count:
        cur = truncated_dual(I, point, prev.truncation_order + 1)
        if cur.dimension == prev.dimension:
            raise NotZeroDimensionalError(
                f"stable dual dimension {prev.dimension} disagrees with the "
                f"standard-monomial count {count}: the ideal is not primary "
                "to the maximal ideal of the point"
            )
        prev = cur
    return prev


def functional_to_operator(lam):
    """Divided-power functional to the Weyl operator with the same
    apply-then-evaluate action: e_beta becomes d^beta / beta!."""
    ring = lam.ring
    field = ring.field
    coords = {}
    for beta, c in lam.coords:
        fb = field.from_int(prod(map(factorial, beta)))
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


def noetherian_operators(I, point):
    """Differential operators describing an m_alpha-primary ideal:
    f lies in I exactly when every operator kills f at the point.

    Requires characteristic zero, or positive characteristic small
    enough that no needed beta! vanishes.  Raises NotZeroDimensionalError
    when I is not primary to the maximal ideal of the point.
    """
    basis = stable_dual(I, point)
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
