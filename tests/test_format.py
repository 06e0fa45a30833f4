"""Exact printed forms of polynomials, operators, functionals and
univariate polynomials over every field kind.  The round-trip tests
only check that printed text parses back; these pin the bytes."""

import pytest

from noethops.dualspace import DualFunctional
from noethops.fields import GF, QQ, AlgExtField, RatFuncField, UniPoly, rational
from noethops.poly import PolyRing
from noethops.weyl import DiffOp


def _tower():
    """F_3(t)[u]/(u^3 - t) and its element u + t."""
    K = RatFuncField(GF(3), "t")
    t = K.generator()
    L = AlgExtField(K, "u", UniPoly(K, [-t, K.zero(), K.zero(), K.one()]))
    return L, L.generator() + L.coerce(t)


def _fields():
    """(label, field, a coefficient whose printed form is not a bare
    positive integer) for each field kind."""
    F3t = RatFuncField(GF(3), "t")
    Qt = RatFuncField(QQ, "t")
    t3, tq = F3t.generator(), Qt.generator()
    Qu = AlgExtField(QQ, "u", UniPoly(QQ, [QQ.from_int(-2), QQ.zero(), QQ.one()]))
    return [
        ("QQ", QQ, rational(-3, 2)),
        ("GF(7)", GF(7), GF(7).from_int(5)),
        ("Fp(t)", F3t, (t3 + 1) / t3),
        ("QQ(t)", Qt, (1 - tq * tq) / (2 * tq)),
        ("tower", *_tower()),
        ("QQ[u]", Qu, Qu.generator() - 1),
    ]


def _printed(K, c):
    R = PolyRing(K, ["x", "y"])
    x, y = R.gens()
    one = K.one()
    z = (0, 0)
    x_dx = DiffOp(R, {((1, 0), (1, 0)): one})
    op = x_dx + DiffOp(R, {(z, (0, 2)): c, (z, z): -one})
    lam = DualFunctional.from_dict(R, {z: one, (1, 0): c, (0, 2): -one})
    return [
        str(R.zero()),
        str(R.const(c)),
        str(R.const(-c)),
        str(x - y),
        str(-(x**2) * y + R.const(c) * x * y - R.const(c)),
        str(-x + R.const(c) * y**2),
        str(x_dx),
        str(op),
        str(DiffOp.zero(R)),
        str(lam),
        repr(UniPoly(K, [c, K.zero(), -one, one])),
        repr(UniPoly(K, [-c])),
        repr(UniPoly(K, [])),
    ]


# Exact bytes: every report and demo prints these forms.
EXPECTED = {
    "QQ": [
        "0",
        "-3/2",
        "3/2",
        "x - y",
        "-x^2*y - 3/2*x*y + 3/2",
        "-3/2*y^2 - x",
        "x*dx",
        "-3/2*dy^2 + x*dx - 1",
        "0",
        "e[1] - 3/2*e[x] - e[y^2]",
        "T^3 - T^2 - 3/2",
        "3/2",
        "0",
    ],
    "GF(7)": [
        "0",
        "5",
        "2",
        "x + 6*y",
        "6*x^2*y + 5*x*y + 2",
        "5*y^2 + 6*x",
        "x*dx",
        "5*dy^2 + x*dx + 6",
        "0",
        "e[1] + 5*e[x] + 6*e[y^2]",
        "T^3 + 6*T^2 + 5",
        "2",
        "0",
    ],
    "Fp(t)": [
        "0",
        "(t + 1)/t",
        "(2*t + 2)/t",
        "x + 2*y",
        "2*x^2*y + (t + 1)/t*x*y + (2*t + 2)/t",
        "(t + 1)/t*y^2 + 2*x",
        "x*dx",
        "(t + 1)/t*dy^2 + x*dx + 2",
        "0",
        "e[1] + (t + 1)/t*e[x] + 2*e[y^2]",
        "T^3 + 2*T^2 + (t + 1)/t",
        "(2*t + 2)/t",
        "0",
    ],
    "QQ(t)": [
        "0",
        "(-1/2*t^2 + 1/2)/t",
        "(1/2*t^2 - 1/2)/t",
        "x - y",
        "-x^2*y + (-1/2*t^2 + 1/2)/t*x*y + (1/2*t^2 - 1/2)/t",
        "(-1/2*t^2 + 1/2)/t*y^2 - x",
        "x*dx",
        "(-1/2*t^2 + 1/2)/t*dy^2 + x*dx - 1",
        "0",
        "e[1] + (-1/2*t^2 + 1/2)/t*e[x] - e[y^2]",
        "T^3 - T^2 + (-1/2*t^2 + 1/2)/t",
        "(1/2*t^2 - 1/2)/t",
        "0",
    ],
    "tower": [
        "0",
        "(u + t)",
        "(2*u + 2*t)",
        "x + 2*y",
        "2*x^2*y + (u + t)*x*y + (2*u + 2*t)",
        "(u + t)*y^2 + 2*x",
        "x*dx",
        "(u + t)*dy^2 + x*dx + 2",
        "0",
        "e[1] + (u + t)*e[x] + 2*e[y^2]",
        "T^3 + 2*T^2 + (u + t)",
        "(2*u + 2*t)",
        "0",
    ],
    "QQ[u]": [
        "0",
        "(u - 1)",
        "(-u + 1)",
        "x - y",
        "-x^2*y + (u - 1)*x*y + (-u + 1)",
        "(u - 1)*y^2 - x",
        "x*dx",
        "(u - 1)*dy^2 + x*dx - 1",
        "0",
        "e[1] + (u - 1)*e[x] - e[y^2]",
        "T^3 - T^2 + (u - 1)",
        "(-u + 1)",
        "0",
    ],
}


@pytest.mark.parametrize("label, field, c", _fields(), ids=[f[0] for f in _fields()])
def test_printed_forms(label, field, c):
    assert _printed(field, c) == EXPECTED[label]

