"""Shared test setup: every test starts with empty analysis memos."""

import pytest

from troplift import trees, tropical

MEMOISED = (
    tropical.trop_det,
    tropical.sym_trop_det,
    tropical.trop_rank,
    tropical.sym_trop_rank,
    trees.tree_from_rank2,
)


@pytest.fixture(autouse=True)
def _empty_analysis_memos():
    """No test can pass on a result another test computed.  The monomial
    class tables are inputs, not results, and stay warm."""
    for fn in MEMOISED:
        fn.cache_clear()
