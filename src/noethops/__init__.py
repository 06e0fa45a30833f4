"""Exact computer algebra for Noetherian operators, truncated dual
spaces, and symbolic / differential powers of ideals."""

from .errors import (
    ArityMismatchError,
    IncompatibleFieldError,
    InconsistentExtensionError,
    NoethopsError,
    NotInvertibleError,
    NotZeroDimensionalError,
    ParseError,
    PointNotOnVarietyError,
    UndeclaredNameError,
    UnknownVariableError,
    UnsupportedCharacteristicError,
)
from .fields import GF, QQ, AlgExtField, RatFuncField, UniPoly, invert
from .poly import Polynomial, PolyRing, parse
from .groebner import (
    Ideal,
    MonomialOrder,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_sum,
    intersect,
    saturate,
)
from .weyl import DiffOp, SolTarget, sol_membership
from .dualspace import (
    DualBasis,
    DualFunctional,
    noetherian_operators,
    stable_dual,
    truncated_dual,
)
from .powers import (
    ChainReport,
    PrimeData,
    chain_check,
    diff_power_classical_graded,
    diff_power_classical_member,
    diff_power_new,
    diff_power_new_point,
    diff_power_new_univariate,
    symbolic_power,
)

__version__ = "0.1.0"
