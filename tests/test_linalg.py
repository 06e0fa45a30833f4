"""The sparse elimination kernel against the independent span oracle.

A kernel basis is pinned uniquely by four facts: every vector kills every
row, there are ncols - rank of them, vector i is 1 at the i-th free column
and 0 at the other free columns, where the free columns are those that do
not raise the rank of the columns left of them.  The rank comes from
``_oracles.Span``, not from the engine.
"""

import random
from fractions import Fraction

import pytest

from noethops.fields import GF, QQ, RatFuncField
from noethops.linalg import kernel_basis

from _oracles import Span
from conftest import random_nonzero

FIELDS = [QQ, GF(32003), RatFuncField(GF(5), "t")]


def _rank(rows, ncols, field):
    span = Span(ncols, field)
    zero = field.zero()
    for row in rows:
        span.insert([row.get(c, zero) for c in range(ncols)])
    return span.dim


def _free_columns(rows, ncols, field):
    """Columns that do not raise the rank of the columns left of them."""
    free = []
    rank = 0
    for j in range(ncols):
        prefix = [{c: v for c, v in row.items() if c <= j} for row in rows]
        r = _rank(prefix, j + 1, field)
        if r == rank:
            free.append(j)
        rank = r
    return free


def _matrices(field, rng):
    """Seeded sparse matrices, with the edge cases every field must pass."""
    zero = field.zero()
    out = [([], 3), ([{}], 2), ([{0: zero, 2: zero}], 3)]
    for _ in range(12):
        ncols = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(1, 6)):
            rows.append({c: random_nonzero(field, rng)
                         for c in range(ncols) if rng.random() < 0.4})
        # a duplicate, a scalar multiple, an explicit zero entry
        rows.append(dict(rows[0]))
        f = random_nonzero(field, rng)
        rows.append({c: f * v for c, v in rows[-1].items()})
        rows.append({ncols - 1: zero, **rows[rng.randrange(len(rows))]})
        rng.shuffle(rows)
        # trailing columns with no entries
        out.append((rows, ncols + rng.randint(0, 2)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_basis_against_the_span_oracle(field):
    rng = random.Random(f"kernel/{field!r}")
    for rows, ncols in _matrices(field, rng):
        basis = kernel_basis(rows, ncols, field)
        assert len(basis) == ncols - _rank(rows, ncols, field)
        free = _free_columns(rows, ncols, field)
        assert len(free) == len(basis)
        for fc, v in zip(free, basis):
            assert list(v) == sorted(v)
            assert all(v.values())
            assert v[fc] == field.one()
            assert not set(v) & (set(free) - {fc})
            for row in rows:
                assert not sum((c * v[k] for k, c in row.items() if k in v), field.zero())
        assert kernel_basis(rows[::-1], ncols, field) == basis


def test_kernel_basis_pinned_example():
    rows = [{1: Fraction(1, 2), 2: Fraction(1)}, {0: Fraction(3), 1: Fraction(1), 3: Fraction(-1)}]
    basis = kernel_basis(rows, 4, QQ)
    assert [list(v.items()) for v in basis] == [
        [(0, Fraction(2, 3)), (1, Fraction(-2)), (2, Fraction(1))],
        [(0, Fraction(1, 3)), (3, Fraction(1))],
    ]
