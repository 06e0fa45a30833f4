"""Exact dense linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Gaussian elimination
uses the first nonzero entry in column order as the pivot so results are
deterministic; columns are processed left to right, which callers exploit
by ordering columns ascending in their monomial order.
"""

from .fields import invert


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_cols); zero rows
    are dropped and pivots are scaled to 1."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = invert(rows[r][col])
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(rows, ncols, field):
    """Echelonized basis of the right kernel as sparse {column: value}
    vectors, columns ascending.

    One basis vector per free column, carrying 1 there and 0 at every
    other free column; ordered by free column index ascending.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    one = field.one()
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        # only rows pivoting left of fc can be nonzero there: keys ascend
        v = {pc: -row[fc] for row, pc in zip(reduced, pivots) if row[fc]}
        v[fc] = one
        basis.append(v)
    return basis

