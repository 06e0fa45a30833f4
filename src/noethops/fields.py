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
tuple), no named generators, and the domain of raw values that the
Groebner kernel and ``linalg.kernel_basis`` compute on, for a field whose
raw value is the element itself.  ``QQ`` and
``GF(p)`` override the domain with ints in [0, p) for ``GF(p)`` and reduced
``(num, den)`` pairs with den > 0 (None for 0) for ``QQ``.
``to_raw``/``from_raw`` convert; ``submul(acc, c, t)`` is acc - c*t (acc
None is 0), falsy exactly when zero; ``mul`` and ``inv`` take nonzero values.

Every exact value type other than ``Fraction`` derives its operators from
one of two bases.  :class:`RingValue` gives ``-``, reflected ``-``, ``==``
and ``**`` by square-and-multiply; :class:`FieldValue` adds ``/``,
reflected ``/``, negative powers, ``_lift`` through the value's ``field``
and ``repr`` through its ``format``.  A type defines ``+``, unary ``-``,
``*`` (each hands an operand that ``_lift`` refuses with None to
``_above``), ``_key()`` (what ``==`` compares), ``_one()`` (where ``**`` starts)
unless it overrides ``**``, ``_lift`` (the other operand as a value of its
own type, or None) unless it is a field value, ``inverse()`` if it is one,
and its own ``__hash__`` if it is hashable.
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


def rational(num, den=1):
    """Canonical reduced rational with positive denominator."""
    return Fraction(num, den)


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
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """What the four coefficient fields share: identity from ``_ident()``,
    no named generators, and the kernel domain of raw values that are the
    elements themselves."""

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

    def to_raw(self, a):
        return a

    from_raw = to_raw

    def submul(self, acc, c, t):
        return -(c * t) if acc is None else acc - c * t

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()


class RationalField(Field):
    """The field Q.  Elements are plain ``fractions.Fraction`` values."""

    characteristic = 0
    _one = Fraction(1)

    def zero(self):
        return Fraction(0)

    def one(self):
        return self._one

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

    def to_raw(self, a):
        return (a.numerator, a.denominator) if a else None

    def from_raw(self, r):
        return Fraction(*r) if r else Fraction(0)

    # Cross-reduced product and gcd-pruned difference, as in fractions.
    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)

    def submul(self, acc, c, t):
        n, d = self.mul(c, t)
        if acc is None:
            return -n, d
        g = gcd(acc[1], d)
        s = acc[1] // g
        n = acc[0] * (d // g) - n * s
        g = gcd(n, g)
        return (n // g, s * (d // g)) if n else None

    def inv(self, a):
        return a[::-1] if a[0] > 0 else (-a[1], -a[0])

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField(Field):
    """F_p for a prime p below 2**64."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= _WORD_LIMIT:
            raise ValueError("prime-field moduli are limited to machine-word size")
        self.p = p
        self.characteristic = p
        self._one = PrimeFieldElem(1, self)

    def zero(self):
        return PrimeFieldElem(0, self)

    def one(self):
        return self._one

    def from_int(self, n):
        return PrimeFieldElem(n, self)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElem):
            if x.field != self:
                raise IncompatibleFieldError(f"element of {x.field!r} used in {self!r}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise IncompatibleFieldError(f"cannot coerce {x!r} into {self!r}")

    def format(self, a):
        return str(a.value)

    def to_raw(self, a):
        return a.value

    def from_raw(self, r):
        return PrimeFieldElem(r, self)

    def submul(self, acc, c, t):
        return ((acc or 0) - c * t) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def _ident(self):
        return (self.p,)

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


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
    """A ring value whose nonzero values invert: adds ``/``, reflected
    ``/`` and negative powers through the type's ``inverse``."""

    __slots__ = ()

    def _lift(self, other):
        """other as a value of this field: itself if it is one, lifted if
        its field lies below; None for a value of a field above (``_above``
        or the reflected operator lifts self) or for no field value at all."""
        if type(other) is type(self) and other.field is self.field:
            return other
        try:
            return self.field.coerce(other)
        except IncompatibleFieldError:
            if isinstance(other, (FieldValue, Fraction)) and not extends(field_of(other), self.field):
                raise
            return None

    def _above(self, other, op):
        # Python does not reflect an operator between two values of one
        # type, so a value of a field above lifts self here.
        if type(other) is not type(self):
            return NotImplemented
        return getattr(other.field.coerce(self), op)(other)

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

    def __repr__(self):
        return self.field.format(self)


class PrimeFieldElem(FieldValue):
    __slots__ = ("value", "field")

    def __init__(self, value, field):
        self.value = value % field.p
        self.field = field

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElem(self.value + other.value, self.field)

    __radd__ = __add__

    # Direct, not self + (-other): UniPoly.__divmod__ subtracts in its
    # inner loop (rem[k + i] - q * c) under tower arithmetic, and this
    # makes one object instead of two.
    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElem(self.value - other.value, self.field)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElem(self.value * other.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElem(-self.value, self.field)

    # Modular pow is one builtin call in place of the square-and-multiply loop.
    def __pow__(self, n):
        if n < 0:
            return super().__pow__(n)
        return PrimeFieldElem(pow(self.value, n, self.field.p), self.field)

    def inverse(self):
        if self.value == 0:
            raise NotInvertibleError(f"0 has no inverse in F_{self.field.p}")
        return PrimeFieldElem(pow(self.value, -1, self.field.p), self.field)

    def _key(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.value, self.field.p))


class UniPoly(RingValue):
    """Dense univariate polynomial over a coefficient field.

    Used for the internals of rational function fields and algebraic
    extensions.  The coefficient tuple is stored low degree first with no
    trailing zeros.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, field, c):
        return cls(field, [field.coerce(c)])

    @classmethod
    def gen(cls, field):
        return cls(field, [field.zero(), field.one()])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        raw = self.field.to_raw
        return len(self.coeffs) == 1 and raw(self.coeffs[0]) == raw(self.field.one())

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _lift(self, other):
        if isinstance(other, UniPoly):
            if other.field is not self.field and other.field != self.field:
                raise IncompatibleFieldError(
                    f"polynomials over {other.field!r} and {self.field!r} mixed"
                )
            return other
        try:
            return UniPoly.const(self.field, other)
        except IncompatibleFieldError:
            return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, [])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in right:
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def _one(self):
        return UniPoly.const(self.field, self.field.one())

    def __divmod__(self, other):
        """(q, r), self = q*other + r, deg r < deg other.  By a monic divisor a
        quotient term is the remainder's lead itself; a step touches only the
        divisor's nonzero coefficients below its lead.  No value changes."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = None if other.lead == self.field.one() else invert(other.lead)
        below = [(i, c) for i, c in enumerate(other.coeffs[:-1]) if c]
        rem = list(self.coeffs)
        quo = [self.field.zero()] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        while len(rem) - 1 >= d and rem:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem.pop() if lead_inv is None else rem.pop() * lead_inv
            quo[k] = q
            for i, c in below:
                rem[k + i] = rem[k + i] - q * c
        return UniPoly(self.field, quo), UniPoly(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        if self.is_zero():
            return self
        li = invert(self.lead)
        return UniPoly(self.field, [c * li for c in self.coeffs])

    def _key(self):
        return self.coeffs, self.field

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def to_str(self, var):
        return format_terms(
            (c, monomial_text((var,), (i,)))
            for i, c in reversed(tuple(enumerate(self.coeffs)))
            if c
        )

    def __repr__(self):
        return self.to_str("T")


def uni_gcd(a, b):
    """Monic gcd in K[x]."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def uni_ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g and g monic."""
    field = a.field
    zero = UniPoly(field, [])
    one = UniPoly.const(field, field.one())
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    li = invert(r0.lead)
    scale = UniPoly.const(field, li)
    return r0.monic(), s0 * scale, t0 * scale


class TowerField(Field):
    """A field built on ``base`` by one generator ``var``: what
    RatFuncField and AlgExtField share.  A type makes its values from a
    ``UniPoly`` over the base with ``_from_poly``; the rest, the tower rule
    of ``coerce`` included, is defined here once."""

    def __init__(self, base, var):
        base.refuse_shadowing([var])
        self.base = base
        self.var = var
        self.characteristic = base.characteristic

    def zero(self):
        return self._from_poly(UniPoly(self.base, []))

    def one(self):
        return self._embed(self.base.one())

    def from_int(self, n):
        return self._embed(self.base.from_int(n))

    def generator(self):
        return self._from_poly(UniPoly.gen(self.base))

    def _embed(self, b):
        """The value of this field that the base value b is."""
        return self._from_poly(UniPoly(self.base, [b]))

    def _base_hash(self, p):
        """The hash of the base value that a UniPoly p of degree < 1 is."""
        return hash(p.coeffs[0] if p.coeffs else self.base.zero())

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
    """Rational function field base(var), e.g. F_p(t) or Q(t)."""

    def __init__(self, base, var="t"):
        super().__init__(base, var)

    def _from_poly(self, num):
        return RatFunc(self, num, UniPoly(self.base, [self.base.one()]))

    def format(self, a):
        num, den = a.num, a.den
        ns = num.to_str(self.var)
        sign = ""
        if ns.startswith("-") and not _needs_parens(ns[1:]):
            sign, ns = "-", ns[1:]
        if den.is_one():
            return sign + ns
        ds = den.to_str(self.var)
        if _needs_parens(ns):
            ns = f"({ns})"
        if _needs_parens(ds):
            ds = f"({ds})"
        return f"{sign}{ns}/{ds}"

    def _ident(self):
        return self.base, self.var

    def __repr__(self):
        return f"{self.base!r}({self.var})"


class RatFunc(FieldValue):
    """num/den with monic, gcd-reduced denominator.  ``+`` and ``*`` of two
    values with denominator 1 keep it, as cross-multiplying would."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not den.is_one():
            g = uni_gcd(num, den)
            if not g.is_zero() and not g.is_one():
                num = num // g
                den = den // g
            if den.lead != den.field.one():
                scale = UniPoly.const(den.field, invert(den.lead))
                num = num * scale
                den = den * scale
        self.field = field
        self.num = num
        self.den = den

    def __add__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return self._above(other, "__add__")
        if self.den.is_one() and lifted.den.is_one():
            return RatFunc(self.field, self.num + lifted.num, self.den)
        return RatFunc(
            self.field,
            self.num * lifted.den + lifted.num * self.den,
            self.den * lifted.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den)

    def __mul__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return self._above(other, "__mul__")
        if self.den.is_one() and lifted.den.is_one():
            return RatFunc(self.field, self.num * lifted.num, self.den)
        return RatFunc(self.field, self.num * lifted.num, self.den * lifted.den)

    __rmul__ = __mul__

    # num^n/den^n is already reduced: one gcd, not one per multiplication.
    def __pow__(self, n):
        if n < 0:
            return super().__pow__(n)
        return RatFunc(self.field, self.num**n, self.den**n)

    def inverse(self):
        if self.num.is_zero():
            raise NotInvertibleError("0 has no inverse")
        return RatFunc(self.field, self.den, self.num)

    def _key(self):
        return self.num, self.den

    def __bool__(self):
        return not self.num.is_zero()

    def __hash__(self):
        if self.den.degree == 0 and self.num.degree < 1:  # den is monic: a base value
            return self.field._base_hash(self.num)
        return hash((self.num, self.den))


class AlgExtField(TowerField):
    """Simple extension base[u]/(m(u)); m monic, caller-certified irreducible."""

    def __init__(self, base, var, minpoly):
        if minpoly.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if minpoly.lead != base.one():
            raise ValueError("minimal polynomial must be monic")
        super().__init__(base, var)
        self.minpoly = minpoly

    def _from_poly(self, rep):
        return AlgExtElem(self, rep)

    def format(self, a):
        return a.rep.to_str(self.var)

    def _ident(self):
        return self.base, self.var, self.minpoly

    def __repr__(self):
        return f"{self.base!r}[{self.var}]/({self.minpoly.to_str(self.var)})"


class AlgExtElem(FieldValue):
    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        if rep.degree >= field.minpoly.degree:
            rep = rep % field.minpoly
        self.field = field
        self.rep = rep

    def __add__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return self._above(other, "__add__")
        return AlgExtElem(self.field, self.rep + lifted.rep)

    __radd__ = __add__

    def __neg__(self):
        return AlgExtElem(self.field, -self.rep)

    def __mul__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return self._above(other, "__mul__")
        return AlgExtElem(self.field, (self.rep * lifted.rep) % self.field.minpoly)

    __rmul__ = __mul__

    def _one(self):
        return self.field.one()

    def inverse(self):
        if self.rep.is_zero():
            raise NotInvertibleError("0 has no inverse")
        g, s, _ = uni_ext_gcd(self.rep, self.field.minpoly)
        if g.degree != 0:
            # gcd(rep, m) nontrivial: m was not irreducible after all
            raise InconsistentExtensionError(
                f"zero divisor {self.field.format(self)} in "
                f"{self.field!r}; minimal polynomial is reducible"
            )
        return AlgExtElem(self.field, s % self.field.minpoly)

    def _key(self):
        return self.rep

    def __bool__(self):
        return not self.rep.is_zero()

    def __hash__(self):
        if self.rep.degree < 1:
            return self.field._base_hash(self.rep)
        return hash(("ext", self.rep))


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
    contains a top-level + or - (a leading minus counts)."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
        elif ch == "-" and i == 0 and depth == 0:
            return True
    return False


def monomial_text(names, exps):
    """'x^2*y' for names (x, y) and exponents (2, 1); '' when all are 0."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def format_terms(terms):
    """Signed sum of (coefficient, monomial text) pairs in display order,
    'c*m + ... - c*m'; an empty monomial text marks the constant term, and
    no pairs format as '0'.  Coefficients with a top-level sign go in
    parentheses."""
    out = ""
    for c, mono in terms:
        cs = format_elem(c)
        sign = "+"
        if cs.startswith("-") and not _needs_parens(cs[1:]):
            sign, cs = "-", cs[1:]
        if _needs_parens(cs):
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
