"""Exact sparse elimination over a coefficient field.

Rows are sparse ``{column: value}`` dicts of field elements (zeros may be
left out).  Elimination runs on the field's domain of raw values through
``to_raw``/``submul``/``mul``/``inv``/``from_raw``: ints for GF(p) and
reduced ``(num, den)`` int pairs for QQ.  Each row pivots on
its smallest column and pivot rows are kept fully reduced: the result is
the reduced row echelon form, which is unique, so the kernel basis does
not depend on the order of the rows.  Callers number columns ascending
in their monomial order.
"""


def kernel_basis(rows, ncols, field):
    """Echelonized basis of the right kernel as sparse {column: value}
    vectors, columns ascending.

    One basis vector per free column, carrying 1 there and 0 at every
    other free column; ordered by free column index ascending.
    """
    to_raw, submul, mul, inv = field.to_raw, field.submul, field.mul, field.inv
    # pivot column -> the rest of its row, the pivot entry 1 left implicit;
    # no rest has an entry at a pivot column
    reduced = {}
    for row in rows:
        r = {c: to_raw(v) for c, v in row.items() if v}
        for pc in [c for c in r if c in reduced]:
            _subtract(r, r.pop(pc), reduced[pc], submul)
        if r:
            pc = min(r)
            s = inv(r.pop(pc))
            rest = {c: mul(x, s) for c, x in r.items()}
            for other in reduced.values():
                if pc in other:
                    _subtract(other, other.pop(pc), rest, submul)
            reduced[pc] = rest
    one = to_raw(field.one())
    basis = {fc: {} for fc in range(ncols) if fc not in reduced}
    # only rows pivoting left of a free column reach it: keys ascend
    for pc in sorted(reduced):
        for c, x in reduced[pc].items():
            basis[c][pc] = field.from_raw(submul(None, x, one))
    for fc, v in basis.items():
        v[fc] = field.one()
    return list(basis.values())


def _subtract(acc, f, rest, submul):
    """acc - f * rest, in place on raw values."""
    for c, x in rest.items():
        s = submul(acc.get(c), f, x)
        if s:
            acc[c] = s
        else:
            del acc[c]
