"""One permutation scan for both tropical determinants.

tropical._perm_argmin is the one scan over the permutations of a
determinant, read off a scan table per size n up to 5 (the permutations
of range(n) with their flat cell indices, tropical._scan_table; larger
determinants expand along row 0): trop_det, the rank scans' larger
minors (principal ones included) and membership's minor signs all call
it, sym_trop_det groups trop_det's minimizers into their symmetric
classes, and a minimizer's sign is its monomial class's
(SignedMonomialClass.from_permutation).
Each symmetric class is built from its exponent (monomials.sym_class), so
only tropical (the scan) and monomials (the enumeration commands' list
of every class) may enumerate permutations; a second module that does
would hold a second scan or a second parity rule.
"""

import ast
from pathlib import Path

from troplift import verify

PACKAGE = Path(verify.__file__).parent
ALLOWED = {"tropical.py", "monomials.py"}


def _permutation_imports(source: str) -> set:
    """Line numbers that take itertools.permutations: a from-import of it
    (or of *), or an attribute read of it on a name bound to itertools."""
    tree = ast.parse(source)
    modules = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "itertools"
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(a.name in ("permutations", "*") for a in node.names):
                found.add(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "permutations"
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add(node.lineno)
    return found


def test_only_the_scan_and_the_class_tables_enumerate_permutations():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ALLOWED
        for line in _permutation_imports(path.read_text())
    }
    assert found == set()


def test_the_allowed_modules_are_the_ones_that_enumerate():
    """The allowance names modules that really use it, so a scan moved
    elsewhere has to change this list on purpose."""
    for name in ALLOWED:
        assert _permutation_imports((PACKAGE / name).read_text()), name


def test_scanner_sees_every_import_form():
    source = (
        "from itertools import combinations, permutations\n"
        "from itertools import permutations as perms\n"
        "from itertools import *\n"
        "import itertools\n"
        "import itertools as it\n"
        "from itertools import combinations\n"
        "def f(n, other):\n"
        "    a = itertools.permutations(range(n))\n"
        "    b = it.permutations(range(n))\n"
        "    return other.permutations, itertools.combinations(range(n), 2)\n"
    )
    assert _permutation_imports(source) == {1, 2, 3, 8, 9}
