"""Exact coefficient fields.

Four kinds of field are supported, enough for every computation in this
package:

* ``QQ`` -- arbitrary-precision rationals (elements are
  :class:`fractions.Fraction`),
* ``GF(p)`` -- prime fields for machine-word-size primes,
* ``RatFuncField(base, "t")`` -- rational function fields like F_p(t)
  or Q(t),
* ``AlgExtField(base, "u", minpoly)`` -- simple algebraic extensions
  K[u]/(m(u)) with a caller-certified irreducible minimal polynomial.

Field objects mint and describe elements; the elements themselves carry
the usual arithmetic dunders, so code over a generic field just writes
``a * b + c``.  Everything is immutable and hashable.

Fields stack into towers of any depth, such as F_p(t)(s): the last two
kinds are :class:`TowerField` s over a ``base``, and one rule takes values
in.  ``L.coerce(x)`` returns a value of L as it is and otherwise embeds
``L.base.coerce(x)``, so a value lifts through every level below L.  An
operator on values of two levels of a tower computes in the higher one;
fields off each other's towers do not mix (``IncompatibleFieldError``).

The four fields derive from :class:`Field`, which defines once what they
share: identity (``==`` and ``hash`` compare a per-field ``_ident()``
tuple), no named generators, and raw values, canonical and falsy exactly
at zero: an int in [0, p) for ``GF(p)``; a reduced ``(num, den)`` pair,
den > 0, for ``QQ`` (None for 0); for a tower, lists of the base's raw
values (tuples, low degree first, no trailing zeros): a coprime ``(num,
den)`` pair with den monic for ``RatFuncField`` (None for 0), the residue
for ``AlgExtField`` (``()`` for 0).  ``to_raw``/``from_raw`` convert;
``add``, ``neg``, ``submul(acc, c, t)`` (acc - c*t, a falsy acc is 0),
``mul`` and ``inv`` (of nonzero values) compute, and the list methods
``padd`` ... ``pinverse`` are written once on them, so towers compose level
by level.  ``linalg.kernel_basis`` computes on raw values, and so does the
Groebner kernel over every field but QQ, which it takes as ints of its
own.

A value of ``GF(p)`` or of a tower is one class, :class:`FieldValue`: its
``field`` and its raw value ``raw``, each operator one raw operation of the
field.  :class:`RingValue` is the base it shares with ``Polynomial``:
``-``, reflected ``-``, ``==`` and ``**`` by square-and-multiply from a
type's ``_lift``, ``+``, unary ``-``, ``*``, ``_key()`` and ``_one()``.
:class:`UniPoly` is a boundary type, not a value: a list of raw values
over a field, which names a minimal polynomial and is what ``to_unipoly``
returns; it compares and prints but does not compute.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    IncompatibleFieldError,
    InconsistentExtensionError,
    NotInvertibleError,
)

_WORD_LIMIT = 1 << 64


def invert(a):
    """Multiplicative inverse of a nonzero field element."""
    if isinstance(a, Fraction):
        if a == 0:
            raise NotInvertibleError("0 has no inverse")
        return 1 / a
    return a.inverse()


@lru_cache(maxsize=None)
def _is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond 2**64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


class Field:
    """What the four coefficient fields share: identity from ``_ident()``,
    no named generators, values that hold their raw value (QQ's are
    Fractions instead), ``format`` through the raw value, and arithmetic on
    lists of raw values.  The list methods call only the field's own raw
    operations, so they serve every level of a tower."""

    def _ident(self):
        return ()

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and other._ident() == self._ident())

    def __hash__(self):
        return hash(self._ident())

    def named_generators(self):
        return {}

    def refuse_shadowing(self, names):
        """Raise ValueError for a name that is one of this field's generators."""
        gens = self.named_generators()
        for name in names:
            if name in gens:
                raise ValueError(f"name {name!r} shadows a generator of {self!r}")

    def fresh_name(self, stem, taken=()):
        """stem, stem0, stem1, ...: the first that is neither a generator of
        this field nor in taken."""
        taken = {*taken, *self.named_generators()}
        name, k = stem, 0
        while name in taken:
            name, k = f"{stem}{k}", k + 1
        return name

    def zero(self):
        return self.from_raw(self.raw_zero)

    def one(self):
        return self._one

    def to_raw(self, a):
        return a.raw

    def from_raw(self, r):
        v = object.__new__(FieldValue)
        v.field, v.raw = self, r
        return v

    def format(self, a):
        return self.format_raw(self.to_raw(a))

    def padd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = [*map(self.add, a, b), *a[len(b):]]
        return _trim(out) if len(a) == len(b) else tuple(out)

    def pneg(self, a):
        return tuple(map(self.neg, a))

    def pscale(self, a, c):
        mul = self.mul
        return tuple([mul(x, c) if x else x for x in a])

    def pmul(self, a, b):
        if len(a) > len(b):
            a, b = b, a
        if len(a) < 2:
            return b if a == (self.raw_one,) else a and self.pscale(b, a[0])
        submul, neg = self.submul, self.neg
        out = [self.raw_zero] * (len(a) + len(b) - 1)
        right = [(j, c) for j, c in enumerate(b) if c]
        for i, c in enumerate(a):
            if c:
                c = neg(c)  # submul subtracts: out += c * d
                for j, d in right:
                    out[i + j] = submul(out[i + j], c, d)
        return _trim(out)

    def pdivmod(self, a, b):
        """(q, r) with a = q*b + r and deg r < deg b.  By a monic b a
        quotient term is the remainder's lead itself; a step touches only
        b's nonzero coefficients below its lead."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        d = len(b) - 1
        if len(a) <= d:
            return (), a
        inv = None if b[-1] == self.raw_one else self.inv(b[-1])
        below = [(i, c) for i, c in enumerate(b[:-1]) if c]
        submul, mul = self.submul, self.mul
        rem, quo = list(a), [self.raw_zero] * (len(a) - d)
        for k in reversed(range(len(quo))):
            q = rem.pop()
            if q:
                quo[k] = q = q if inv is None else mul(q, inv)
                for i, c in below:
                    rem[k + i] = submul(rem[k + i], q, c)
        return _trim(quo), _trim(rem)

    def pmonic(self, a):
        return a if not a or a[-1] == self.raw_one else self.pscale(a, self.inv(a[-1]))

    def pgcd(self, a, b):
        """The monic gcd, by Euclid on monic remainders."""
        while b:
            b = self.pmonic(b)
            a, b = b, self.pdivmod(a, b)[1]
        return self.pmonic(a)

    def pinverse(self, a, m):
        """(g, s): g the last nonzero remainder of Euclid on (a, m) and
        s*a = g modulo m, deg s < deg m."""
        r0, r1, s0, s1 = a, m, (self.raw_one,), ()
        while r1:
            q, r = self.pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.padd(s0, self.pneg(self.pmul(q, s1)))
        return r0, s0

    def ptext(self, p, var):
        """A list as text in var, highest degree first."""
        monos = ["", var, *(f"{var}^{i}" for i in range(2, len(p)))]
        terms = [(c, monos[i]) for i, c in reversed(tuple(enumerate(p))) if c]
        return format_terms(terms, self.format_raw)


def _trim(out):
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class RingValue:
    """Operators of a commutative ring value derived from its type's
    ``_lift``, ``+``, unary ``-``, ``*``, ``_key`` and ``_one``.

    A value compares equal to the ints it lifts to, but cannot stand in for
    them as a dict or set key: ``GF(7).from_int(3)`` equals both 3 and 10,
    so no hash of it can agree with the hashes of ints.  A value lifted up
    a field tower does hash like the value it was."""

    __slots__ = ()

    def __sub__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return self._above(other, "__sub__")
        return self + (-lifted)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except IncompatibleFieldError:
            return NotImplemented
        if other is None:
            return NotImplemented
        return self._key() == other._key()

    def _above(self, other, op):
        """The result of op(self, other) for an other that ``_lift``
        refused without raising: Python's reflected operator decides."""
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class FieldValue(RingValue):
    """A value of GF(p) or of a tower, held as its field's raw value
    ``raw``: each operator is one raw operation of the field, and nonzero
    values invert, which gives ``/``, reflected ``/`` and negative powers."""

    __slots__ = ("field", "raw")

    def _lift(self, other):
        """other as a value of this field: itself if it is one, lifted if
        its field lies below; None for a value of a field above (``_above``
        or the reflected operator lifts self) or for no field value at all."""
        if type(other) is FieldValue and other.field is self.field:
            return other
        try:
            return self.field.coerce(other)
        except IncompatibleFieldError:
            if isinstance(other, (FieldValue, Fraction)) and not extends(field_of(other), self.field):
                raise
            return None

    def _above(self, other, op):
        # Python does not reflect an operator between two values of one
        # class, so a value of a field above lifts self here.
        if not isinstance(other, FieldValue):
            return NotImplemented
        return getattr(other.field.coerce(self), op)(other)

    # The same field's values skip _lift: one raw operation, one object.
    def __add__(self, other):
        field = self.field
        if type(other) is not FieldValue or other.field is not field:
            if (lifted := self._lift(other)) is None:
                return self._above(other, "__add__")
            other = lifted
        return field.from_raw(field.add(self.raw, other.raw))

    __radd__ = __add__

    def __neg__(self):
        return self.field.from_raw(self.field.neg(self.raw))

    def __mul__(self, other):
        field = self.field
        if type(other) is not FieldValue or other.field is not field:
            if (lifted := self._lift(other)) is None:
                return self._above(other, "__mul__")
            other = lifted
        if not self.raw or not other.raw:
            return field.zero()
        return field.from_raw(field.mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return self._above(other, "__truediv__")
        return self * lifted.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return super().__pow__(n)

    def _one(self):
        return self.field.one()

    def inverse(self):
        if not self.raw:
            raise NotInvertibleError("0 has no inverse")
        return self.field.from_raw(self.field.inv(self.raw))

    def _key(self):
        return self.raw

    def __bool__(self):
        return bool(self.raw)

    def __hash__(self):
        return self.field._hash(self.raw)

    def __repr__(self):
        return self.field.format(self)


class RationalField(Field):
    """The field Q.  Elements are plain ``fractions.Fraction`` values."""

    characteristic = 0
    _one = Fraction(1)
    raw_zero, raw_one = None, (1, 1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise IncompatibleFieldError(f"cannot coerce {x!r} into QQ")

    def format(self, a):
        return str(a)

    def format_raw(self, r):
        return "0" if not r else str(r[0]) if r[1] == 1 else f"{r[0]}/{r[1]}"

    def to_raw(self, a):
        return (a.numerator, a.denominator) if a else None

    def from_raw(self, r):
        return Fraction(*r) if r else Fraction(0)

    # Cross-reduced product and gcd-pruned sum, as in fractions.
    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)

    def add(self, a, b):
        return self.submul(a, b, (-1, 1)) if b else a

    def submul(self, acc, c, t):
        n, d = self.mul(c, t)
        if acc is None:
            return -n, d
        g = gcd(acc[1], d)
        s = acc[1] // g
        n = acc[0] * (d // g) - n * s
        g = gcd(n, g)
        return (n // g, s * (d // g)) if n else None

    def neg(self, a):
        return a and (-a[0], a[1])

    def inv(self, a):
        return a[::-1] if a[0] > 0 else (-a[1], -a[0])

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField(Field):
    """F_p for a prime p below 2**64."""

    raw_zero, raw_one = 0, 1

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= _WORD_LIMIT:
            raise ValueError("prime-field moduli are limited to machine-word size")
        self.p = p
        self.characteristic = p
        self._one = self.from_raw(1)

    def from_int(self, n):
        return self.from_raw(n % self.p)

    def coerce(self, x):
        if isinstance(x, FieldValue) and isinstance(x.field, PrimeField):
            if x.field != self:
                raise IncompatibleFieldError(f"element of {x.field!r} used in {self!r}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise IncompatibleFieldError(f"cannot coerce {x!r} into {self!r}")

    def format_raw(self, r):
        return str(r)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def submul(self, acc, c, t):
        return ((acc or 0) - c * t) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def _hash(self, r):
        return hash((r, self.p))

    def _ident(self):
        return (self.p,)

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


class UniPoly:
    """A dense univariate polynomial over a field, at the boundary: a
    minimal polynomial, or what ``to_unipoly`` returns.  ``raw`` is the list
    of the field's raw values, ``coeffs`` reads it as field values; it
    compares and prints, and the field's list methods compute."""

    __slots__ = ("field", "raw")

    def __init__(self, field, coeffs):
        self.field = field
        self.raw = _trim([field.to_raw(field.coerce(c)) for c in coeffs])

    @property
    def coeffs(self):
        return tuple(map(self.field.from_raw, self.raw))

    @property
    def degree(self):
        return len(self.raw) - 1

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.raw == other.raw and self.field == other.field

    def __hash__(self):
        return hash(self.raw)

    def to_str(self, var):
        return self.field.ptext(self.raw, var)

    def __repr__(self):
        return self.to_str("T")


class TowerField(Field):
    """A field built on ``base`` by one generator ``var``: what
    RatFuncField and AlgExtField share.  A type makes its raw values from a
    list over the base with ``_from_list`` and names the base value a raw
    value is (None if none) with ``_base_value``; the rest, the tower rule
    of ``coerce`` included, is defined here once."""

    def __init__(self, base, var="t"):
        base.refuse_shadowing([var])
        self.base = base
        self.var = var
        self.characteristic = base.characteristic
        self.raw_one = self._from_list((base.raw_one,))
        self._one = self.from_raw(self.raw_one)

    def from_int(self, n):
        return self._embed(self.base.from_int(n))

    def generator(self):
        return self.from_raw(self._from_list((self.base.raw_zero, self.base.raw_one)))

    def _embed(self, b):
        """The value of this field that the base value b is."""
        b = self.base.to_raw(b)
        return self.from_raw(self._from_list((b,) if b else ()))

    def _hash(self, r):
        b = self._base_value(r)
        return hash(r) if b is None else hash(b)

    def submul(self, acc, c, t):
        return self.add(acc or self.raw_zero, self.neg(self.mul(c, t)))

    def coerce(self, x):
        """x itself if it is a value of this field, else the embedding of
        base.coerce(x): a value lifts through every level below."""
        if isinstance(x, FieldValue) and (x.field is self or x.field == self):
            return x
        return self._embed(self.base.coerce(x))

    def named_generators(self):
        gens = {name: self.coerce(g) for name, g in self.base.named_generators().items()}
        gens[self.var] = self.generator()
        return gens


class RatFuncField(TowerField):
    """Rational function field base(var), e.g. F_p(t) or Q(t).  Sums and
    products reduce as Henrici's do: by gcds of the denominators, or of
    each numerator with the other denominator, not of the whole result."""

    raw_zero = None

    def _from_list(self, p):
        return (p, (self.base.raw_one,)) if p else None

    def _base_value(self, r):
        if not r:
            return self.base.zero()
        n, d = r
        return self.base.from_raw(n[0]) if len(n) == 1 == len(d) else None

    def _over(self, n, d):
        """(n, d) scaled so that d is monic."""
        K = self.base
        if d[-1] == K.raw_one:
            return n, d
        c = K.inv(d[-1])
        return K.pscale(n, c), K.pscale(d, c)

    def _reduced(self, n, d):
        """The raw value n/d: over gcd(n, d), d monic."""
        K = self.base
        if not n:
            return None
        if len(d) > 1 and len(g := K.pgcd(n, d)) > 1:
            n, d = K.pdivmod(n, g)[0], K.pdivmod(d, g)[0]
        return self._over(n, d)

    def add(self, a, b):
        if not a or not b:
            return a or b
        K, (n1, d1), (n2, d2) = self.base, a, b
        if d1 == d2:
            return self._reduced(K.padd(n1, n2), d1)
        g = K.pgcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else ()
        if len(g) < 2:  # coprime denominators: the cross sum is reduced
            n = K.padd(K.pmul(n1, d2), K.pmul(n2, d1))
            return (n, K.pmul(d1, d2)) if n else None
        e1, e2 = K.pdivmod(d1, g)[0], K.pdivmod(d2, g)[0]
        r = self._reduced(K.padd(K.pmul(n1, e2), K.pmul(n2, e1)), g)
        return r and (r[0], K.pmul(K.pmul(e1, e2), r[1]))

    def neg(self, a):
        return a and (self.base.pneg(a[0]), a[1])

    def mul(self, a, b):
        K, (n1, d1), (n2, d2) = self.base, a, b
        if len(d2) > 1 and len(g := K.pgcd(n1, d2)) > 1:
            n1, d2 = K.pdivmod(n1, g)[0], K.pdivmod(d2, g)[0]
        if len(d1) > 1 and len(g := K.pgcd(n2, d1)) > 1:
            n2, d1 = K.pdivmod(n2, g)[0], K.pdivmod(d1, g)[0]
        return K.pmul(n1, n2), K.pmul(d1, d2)

    def inv(self, a):
        return self._over(a[1], a[0])

    def format_raw(self, r):
        K = self.base
        num, den = r or ((), (K.raw_one,))
        ns, sign = K.ptext(num, self.var), ""
        if ns.startswith("-") and not _needs_parens(ns[1:]):
            sign, ns = "-", ns[1:]
        if len(den) == 1:
            return sign + ns
        return sign + "/".join(f"({s})" if _needs_parens(s) else s for s in (ns, K.ptext(den, self.var)))

    def _ident(self):
        return self.base, self.var

    def __repr__(self):
        return f"{self.base!r}({self.var})"


class AlgExtField(TowerField):
    """Simple extension base[u]/(m(u)); m monic, caller-certified
    irreducible.  Values add and negate as lists over the base."""

    raw_zero = ()

    def __init__(self, base, var, minpoly):
        if minpoly.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if minpoly.raw[-1] != base.raw_one:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = minpoly
        self.add, self.neg = base.padd, base.pneg
        super().__init__(base, var)

    def _from_list(self, p):
        return self.base.pdivmod(p, self.minpoly.raw)[1]

    def _base_value(self, r):
        return self.base.from_raw(r[0] if r else self.base.raw_zero) if len(r) < 2 else None

    def mul(self, a, b):
        return self._from_list(self.base.pmul(a, b))

    def inv(self, a):
        g, s = self.base.pinverse(a, self.minpoly.raw)
        if len(g) != 1:
            # gcd(rep, m) nontrivial: m was not irreducible after all
            raise InconsistentExtensionError(
                f"zero divisor {self.format_raw(a)} in "
                f"{self!r}; minimal polynomial is reducible"
            )
        return self.base.pscale(s, self.base.inv(g[0]))

    def format_raw(self, r):
        return self.base.ptext(r, self.var)

    def _ident(self):
        return self.base, self.var, self.minpoly

    def __repr__(self):
        return f"{self.base!r}[{self.var}]/({self.minpoly.to_str(self.var)})"


def field_of(x):
    """The field an element belongs to (Fraction means QQ)."""
    if isinstance(x, Fraction):
        return QQ
    if isinstance(x, FieldValue):
        return x.field
    raise IncompatibleFieldError(f"{x!r} is not a field element")


def format_elem(x):
    return field_of(x).format(x)


def extends(big, small):
    """True when `big` equals `small` or sits above it in a field tower."""
    while big != small:
        if not isinstance(big, TowerField):
            return False
        big = big.base
    return True


def _needs_parens(s):
    """A formatted coefficient needs parentheses inside a product when it
    contains a top-level + or - (a leading minus counts).  With no sign
    after the first character, which covers every QQ and GF(p) coefficient,
    only a leading minus can count."""
    if "+" not in s and "-" not in s[1:]:
        return s[:1] == "-"
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and (ch == "-" or ch == "+" and i > 0):
            return True
    return False


def monomial_text(names, exps):
    """'x^2*y' for names (x, y) and exponents (2, 1); '' when all are 0."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def format_terms(terms, fmt=format_elem):
    """Signed sum of (coefficient, monomial text) pairs in display order,
    'c*m + ... - c*m', each coefficient printed by fmt; an empty monomial
    text marks the constant term, and no pairs format as '0'.  Coefficients
    with a top-level sign go in parentheses."""
    out = ""
    for c, mono in terms:
        cs = fmt(c)
        sign = "+"
        if cs.startswith("-") and not _needs_parens(cs[1:]):
            sign, cs = "-", cs[1:]
        elif _needs_parens(cs):
            cs = f"({cs})"
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = f"{cs}*{mono}"
        if out:
            out += f" {sign} {body}"
        else:
            out = body if sign == "+" else "-" + body
    return out or "0"
