"""Payload dicts live at the edge: membership builds them, and cli and
jsonio read and write them.  Past that edge, analyses are records read by
field, so a string key or a Barvinok kind string in a lift would be a
second copy of a decision that tropical makes."""

import ast
from pathlib import Path

from troplift import verify

PACKAGE = Path(verify.__file__).parent
# modules that build, print or (de)serialize payload dicts
EDGE = {"membership.py", "cli.py", "jsonio.py"}
# the deciding steps a BarvinokRecord's kind can name (symbic report kinds
# other than "symbic" included)
BARVINOK_KINDS = {
    "rank_too_high",
    "tree_not_caterpillar",
    "caterpillar",
    "fixed_path_not_point",
    "one_fixed_point_caterpillar",
    "not_symmetric_swap",
    "swap_not_automorphism",
    "fixed_set_not_path",
}


def _string_keys(source: str) -> set:
    """(line, key) for every subscript by a str constant."""
    return {
        (node.lineno, node.slice.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def _string_constants(source: str) -> set:
    """(line, value) for every str constant."""
    return {
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_only_the_edge_indexes_by_string_key():
    """verify reads its own transcript steps' "ok"; no other module past
    the edge indexes anything by a string key."""
    found = {
        (path.name, line, key)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in EDGE
        for line, key in _string_keys(path.read_text())
        if (path.name, key) != ("verify.py", "ok")
    }
    assert found == set()


def test_lifts_name_no_barvinok_kind():
    source = (PACKAGE / "lifts.py").read_text()
    found = {(line, value) for line, value in _string_constants(source) if value in BARVINOK_KINDS}
    assert found == set()


def test_scanner_sees_keys_and_kinds_in_every_form():
    source = (
        "def f(reason, ok):\n"
        "    if reason['kind'] == 'rank_too_high':\n"
        "        raise ValueError(f\"no factorization: {reason['kind']}\")\n"
        "    reason['detail'] = ok\n"
        "    return reason[0], reason[ok], reason.kind\n"
    )
    assert _string_keys(source) == {(2, "kind"), (3, "kind"), (4, "detail")}
    kinds = {v for _, v in _string_constants(source) if v in BARVINOK_KINDS}
    assert kinds == {"rank_too_high"}
