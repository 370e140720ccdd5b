"""Shared test setup: every test starts with empty analysis memos and
without TROPLIFT_* configuration from the environment."""

import pytest

from troplift import membership, trees, tropical

MEMOISED = (
    tropical.trop_det,
    tropical.sym_trop_det,
    tropical.trop_rank,
    tropical.sym_trop_rank,
    trees.tree_from_rank2,
    tropical._barvinok,
    tropical._sym_barvinok,
    membership._edge_table,
)
# memos keyed on the matrix alone, without a bound
MEMOISED_UNBOUNDED = (trees._rank2_tree,)


@pytest.fixture(autouse=True)
def _empty_analysis_memos():
    """No test can pass on a result another test computed.  The monomial
    class tables are inputs, not results, and stay warm."""
    for fn in MEMOISED + MEMOISED_UNBOUNDED:
        fn.cache_clear()


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    """Seed, truncation, bound and format come from flags or defaults, so
    golden bytes do not depend on the shell a test runs in."""
    for key in ("TROPLIFT_SEED", "TROPLIFT_TRUNC", "TROPLIFT_MAX_N", "TROPLIFT_FORMAT"):
        monkeypatch.delenv(key, raising=False)
