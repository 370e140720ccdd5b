"""The package's import graph is read off module tops: no function imports
a troplift module, except where a cycle forces it.  The package holds only
what the command line loads, and each name it defines is reached by
another module, pinned by the benchmark's tracer or advertised in the
README.  And the verifier is a trusted base that other modules use only
through its public names.  No module of the package or of the tests
imports a name it never reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from test_trace_names import load_tracing
from troplift import verify

PACKAGE = Path(verify.__file__).parent
TESTS = Path(__file__).parent
# public readers the README advertises that no module of the package calls:
# the inverse of the tree correspondence, initial forms, and the decoders
ADVERTISED = {"tree_to_matrix", "initial_form", "decode_tree", "decode_series"}
# trees imports tropical, so tropical's plain Barvinok test, the
# symmetric one's tree reader and the rank scan's 3 x 3 step, which asks
# for the rank-2 tree, read trees at call time; they stay in tropical
# because the benchmark spans the Barvinok tests and the ranks there
ALLOWED = {
    ("tropical.py", "barvinok_rank2", "trees"),
    ("tropical.py", "sym_tree_barvinok", "trees"),
    ("tropical.py", "_some_plain_nonsingular", "trees"),
}


def _imported(node) -> list:
    """The troplift modules an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        names = [node.module] if node.module else [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module.startswith("troplift"):
        names = node.module.split(".")[1:2] or [a.name for a in node.names]
    elif isinstance(node, ast.Import):
        names = [a.name.split(".")[1] for a in node.names if a.name.startswith("troplift.")]
    else:
        names = []
    return [name.split(".")[0] for name in names]


def _private_from_verify(source: str) -> set:
    """The `_`-prefixed names an import statement takes from verify."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "verify":
            found.update(a.name for a in node.names if a.name.startswith("_"))
    return found


def _unused_imports(source: str) -> set:
    """The names an import statement binds, at any depth, that the module
    never reads as a name (an attribute's base is such a read)."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported - read


def _local_imports(source: str) -> set:
    """(function, troplift module) for every import inside a function."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            found.update((fn.name, name) for name in _imported(node))
    return found


def _names(sources: dict) -> tuple:
    """The (module, name) of each function, class and method, dunders
    aside, that the modules in `sources` define, and the names they read:
    as a name, an attribute or an imported name."""
    defined, read = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return defined, read


def test_the_package_is_what_the_cli_loads():
    """A fresh interpreter's `import troplift.cli` loads every module under
    src/troplift, so code that only tests use (the brute-force references,
    samplers, symbolic polynomials) lives under tests/.  The package's
    __init__ only re-exports, so a bare package stands in for it: a module
    that only __init__ imports is not one a command needs."""
    code = (
        "import sys, types\n"
        "package = types.ModuleType('troplift')\n"
        f"package.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['troplift'] = package\n"
        "import troplift.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('troplift.')))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("TROPLIFT_")}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    shipped = sorted(f"troplift.{path.stem}" for path in PACKAGE.glob("*.py"))
    assert loaded == [name for name in shipped if name != "troplift.__init__"]


def test_every_name_is_reached_pinned_or_advertised():
    """A name that only tests or __init__ read is test code: it moves under
    tests/.  The tracer's names stay until the tracer stops patching by
    name, and the README's readers are public API."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    defined, read = _names(sources)
    tracing = load_tracing()
    pinned = {attr for names in tracing.SPANNED.values() for attr in names}
    pinned |= set(tracing.QUADEXT_OPS)
    assert {(m, n) for m, n in defined if n not in read | pinned | ADVERTISED} == set()
    assert ADVERTISED <= {n for _, n in defined}


def test_name_scan_sees_every_form():
    sources = {
        "a": (
            "from .b import imported\n"
            "class Kept:\n"
            "    def __eq__(self, other): ...\n"
            "    def method(self): ...\n"
            "    def orphan_method(self): ...\n"
            "def called(): ...\n"
            "def orphan(): ...\n"
            "Kept().method(called())\n"
        ),
        "b": "def imported(): ...\nasync def orphan_async(): ...\n",
    }
    defined, read = _names(sources)
    assert {(m, n) for m, n in defined if n not in read} == {
        ("a", "orphan_method"),
        ("a", "orphan"),
        ("b", "orphan_async"),
    }


def test_no_module_imports_a_name_it_never_reads():
    """Over src/troplift and tests/, the package's __init__ aside: its
    imports are the public re-exports.  perfbench/ is the benchmark's."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    paths += sorted(TESTS.rglob("*.py"))
    root = TESTS.parent
    found = {(str(p.relative_to(root)), n) for p in paths for n in _unused_imports(p.read_text())}
    assert found == set()


def test_unused_import_scan_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import xml.dom\n"
        "from . import lifts as kept, trees\n"
        "from .verify import series_det, minor_ints\n"
        "def f():\n"
        "    import json\n"
        "    from math import lcm\n"
        "    lcm = 1\n"
        "    return kept.x, series_det, xml\n"
    )
    assert _unused_imports(source) == {"os", "osp", "trees", "minor_ints", "json", "lcm"}


def test_no_function_imports_a_troplift_module():
    found = {
        (path.name, fn, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, module in _local_imports(path.read_text())
    }
    assert found == ALLOWED


def test_scanner_sees_every_import_form():
    source = (
        "import random\n"
        "from . import lifts\n"
        "def f():\n"
        "    import random\n"
        "    from . import trees\n"
        "    from .membership import adjacent_pair\n"
        "    def g():\n"
        "        import troplift.puiseux\n"
        "        from troplift import rng\n"
        "        from troplift.verify import verify_lift\n"
    )
    assert _local_imports(source) == {
        ("f", "trees"),
        ("f", "membership"),
        ("f", "puiseux"),
        ("f", "rng"),
        ("f", "verify"),
        ("g", "puiseux"),
        ("g", "rng"),
        ("g", "verify"),
    }


def test_no_module_imports_a_private_name_of_verify():
    """Constructions reach the verifier through verify_lift, series_det,
    minor_ints, series_grid and LiftCertificate only, so a check cannot be
    done beside it with its private kernels."""
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_from_verify(path.read_text())
    }
    assert found == set()


def test_private_name_scan_sees_every_form():
    source = (
        "from .verify import LiftCertificate, _row_step\n"
        "from troplift.verify import _det_vanishes as dv\n"
        "from .puiseux import _fold\n"
        "from . import verify\n"
        "def f():\n"
        "    from .verify import _minor\n"
    )
    assert _private_from_verify(source) == {"_row_step", "_det_vanishes", "_minor"}
