"""Differential powers on a singular hypersurface.

On the cone x^3 + y^3 + z^3 = 0 the classical differential power of the
irrelevant maximal ideal degenerates (operators from the coordinate ring
to itself never lower degree, so they see only m itself), while the
solution-set version, taken with values in the residue field, recovers
m^n on the nose.  Computed here through its contraction to the ambient
polynomial ring: J + m^n.
"""

from noethops import (
    QQ,
    Ideal,
    PolyRing,
    diff_power_new_point,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_sum,
)

R = PolyRing(QQ, ["x", "y", "z"])
ORIGIN = tuple(QQ.zero() for _ in range(3))
J = ideal(R, "x^3 + y^3 + z^3")
m = ideal(R, "x", "y", "z")

print("J = (x^3 + y^3 + z^3), m = (x, y, z)")
for n in (2, 3, 4):
    got = diff_power_new_point(J, ORIGIN, n)
    expected = ideal_sum(ideal_power(m, n), J)
    print(f"n = {n}: solution-set power contracts to J + m^{n}:",
          ideal_equal(got, expected))
    collapses = ideal_equal(got, ideal_power(m, n))
    print(f"          equals m^{n} in the ambient ring: {collapses}"
          + ("  (J sits inside m^n)" if collapses else "  (J adds its cubic)"))

print()
print("smooth comparison: with J = (0) the same construction gives m^n")
for n in (2, 3):
    got = diff_power_new_point(Ideal(R, []), ORIGIN, n)
    print(f"n = {n}:", ideal_equal(got, ideal_power(m, n)))
