"""Exception hierarchy shared by all noethops modules."""


class NoethopsError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertibleError(NoethopsError, ZeroDivisionError):
    """Attempt to invert zero (or a non-unit) in a field."""


class IncompatibleFieldError(NoethopsError, TypeError):
    """Mixing elements of different coefficient fields."""


class InconsistentExtensionError(NoethopsError):
    """A zero divisor turned up in K[u]/(m): the caller-certified
    irreducibility of m was violated."""


class ParseError(NoethopsError, ValueError):
    """Syntax error in a polynomial or a script.  Carries the character
    position of the offending token in the text as given."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class UnknownVariableError(ParseError):
    """Identifier that is neither a ring variable nor a field generator."""


class UndeclaredNameError(ParseError):
    """Script command referencing an object that was never declared, or
    a name whose binding command failed or did not run."""


class ArityMismatchError(NoethopsError, ValueError):
    """Point or exponent vector whose length differs from the ring arity."""


class UnsupportedCharacteristicError(NoethopsError):
    """Computation refused in positive characteristic (vanishing
    factorials, or a differential-power notion not defined by
    compositions of derivations)."""


class NotZeroDimensionalError(NoethopsError):
    """The ideal is not primary to the maximal ideal of the given point:
    its standard-monomial count is infinite, or its dual stops growing
    short of that count."""


class PointNotOnVarietyError(NoethopsError, ValueError):
    """A generator of the ideal does not vanish at the given point."""
