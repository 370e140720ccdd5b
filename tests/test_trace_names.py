"""Every function the benchmark's tracer wraps is still bound in its module.

perfbench/tracing.py names each traced function as an attribute of a
troplift module and replaces it under that name; a rename or removal would
make `perfbench/run.py --trace 1` fail on its first lookup.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spanned():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANNED


@pytest.mark.parametrize(
    "layer, attr",
    [(layer, attr) for layer, names in _spanned().items() for attr in names],
)
def test_traced_name_is_bound(layer, attr):
    mod = importlib.import_module(f"troplift.{layer}")
    assert callable(getattr(mod, attr, None)), f"troplift.{layer}.{attr} is not bound"
