"""The package's public surface: the names ``noethops`` exports, and the
library quick start that README documents on them."""

import contextlib
import io
import re
import types
from pathlib import Path

import noethops

# Adding or removing an exported name is a decision: change this list with it.
PUBLIC_NAMES = [
    "AlgExtField",
    "ArityMismatchError",
    "ChainReport",
    "DiffOp",
    "DualBasis",
    "DualFunctional",
    "GF",
    "Ideal",
    "IncompatibleFieldError",
    "InconsistentExtensionError",
    "MonomialOrder",
    "NoethopsError",
    "NotInvertibleError",
    "NotZeroDimensionalError",
    "ParseError",
    "PointNotOnVarietyError",
    "PolyRing",
    "Polynomial",
    "PrimeData",
    "QQ",
    "RatFuncField",
    "SolTarget",
    "UndeclaredNameError",
    "UniPoly",
    "UnknownVariableError",
    "UnsupportedCharacteristicError",
    "chain_check",
    "diff_power_classical_graded",
    "diff_power_classical_member",
    "diff_power_new",
    "diff_power_new_point",
    "diff_power_new_univariate",
    "ideal",
    "ideal_equal",
    "ideal_power",
    "ideal_sum",
    "intersect",
    "invert",
    "noetherian_operators",
    "parse",
    "saturate",
    "sol_membership",
    "stable_dual",
    "symbolic_power",
    "truncated_dual",
]


def test_public_names_are_pinned():
    # submodules are attributes too, once imported; they are not names
    exported = sorted(
        name for name, value in vars(noethops).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_readme_quick_start_prints_its_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    comments = [line.split("  # ", 1)[1].strip() for line in block.splitlines() if "  # " in line]
    assert comments == ["['1', 'dx - dy']", "True True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == comments
