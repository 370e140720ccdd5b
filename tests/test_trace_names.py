"""Every function the benchmark's tracer wraps is still bound in its module,
and the tracer installs on the package.

perfbench/tracing.py names each traced function as an attribute of a
troplift module and replaces it under that name; a rename or removal would
make `perfbench/run.py --trace 1` fail on its first lookup.  Installing
also patches QuadExt's operators (QUADEXT_OPS), rng.stream and
PuiseuxSeries' products, sums and make, which the smoke test reaches.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, without perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "layer, attr",
    [(layer, attr) for layer, names in load_tracing().SPANNED.items() for attr in names],
)
def test_traced_name_is_bound(layer, attr):
    mod = importlib.import_module(f"troplift.{layer}")
    assert callable(getattr(mod, attr, None)), f"troplift.{layer}.{attr} is not bound"


def test_tracer_installs_on_the_command_line_modules():
    """A fresh interpreter that imports troplift.cli from src/, as the
    benchmark's worker does, installs the tracer and exits 0."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(TRACING.parent)!r}]\n"
        "import troplift.cli\n"
        "from tracing import Tracer\n"
        "Tracer().install()\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("TROPLIFT_")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
