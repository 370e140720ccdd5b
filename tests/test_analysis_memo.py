"""The memoised analyses: one computation per matrix, and nothing shared
that a caller could change or that an error should have stopped."""

import copy
import json
import random

import pytest

from troplift import jsonio, trees, tropical
from troplift.cli import main
from troplift.errors import SizeLimit, TropliftError
from troplift.fixtures import fixture
from troplift.lifts import lift_sym_caterpillar, lift_sym_rank2_real
from troplift.membership import (
    member_corank1,
    member_rank2,
    member_sym_corank1,
    member_sym_rank2,
)
from troplift.samples import random_sym_matrix, random_sym_rank2_matrix
from troplift.tropmat import TropMatrix

from conftest import MEMOISED

MODES = ("C", "R", "C+", "R+")
MEMBERS = (member_rank2, member_sym_rank2, member_corank1, member_sym_corank1)


def _decide(a):
    """The sixteen membership questions one benchmark operation asks."""
    return [fn(a, mode) for fn in MEMBERS for mode in MODES]


class TestOneComputationPerMatrix:
    def test_decide_on_a_symmetric_rank2_matrix(self):
        a = random_sym_rank2_matrix(random.Random(3), 5)
        _decide(a)
        for fn in (
            tropical.trop_rank,
            tropical.sym_trop_rank,
            tropical.sym_trop_det,
            trees.tree_from_rank2,
        ):
            info = fn.cache_info()
            assert (info.misses, info.currsize) == (1, 1), fn.__name__
            assert info.hits >= 1, fn.__name__
        # the matrix and the deleted minors of the R+ test, each once
        info = tropical.trop_det.cache_info()
        assert info.misses == info.currsize > 1
        assert info.hits >= 1

    def test_decide_on_a_generic_symmetric_matrix(self):
        a = random_sym_matrix(random.Random(4), 5)
        assert tropical.trop_rank(a, 8) > 2
        tropical.trop_rank.cache_clear()
        _decide(a)
        for fn in (tropical.trop_rank, tropical.sym_trop_rank, tropical.sym_trop_det):
            assert fn.cache_info().misses == 1, fn.__name__
        # rank above 2: no tree is built, and the refusal is not remembered
        assert trees.tree_from_rank2.cache_info().currsize == 0
        info = tropical.trop_det.cache_info()
        assert info.misses == info.currsize


class TestMemoSafety:
    @pytest.mark.parametrize("fn", MEMOISED, ids=lambda fn: fn.__name__)
    def test_size_limit_is_not_remembered(self, fn):
        a = fixture("fig2a")  # 3 x 3: every analysis needs a bound of at least 2
        with pytest.raises(SizeLimit):
            fn(a, 1)
        fn(a, 8)
        assert fn.cache_info().currsize == 1
        for memo in MEMOISED:
            memo.cache_clear()
        fn(a, 8)
        with pytest.raises(SizeLimit):
            fn(a, 1)
        with pytest.raises(SizeLimit):
            fn(a, 1)
        assert fn.cache_info().currsize == 1

    @pytest.mark.parametrize("name", ["fig2a", "fig3b", "fig4a"])
    def test_shared_tree_is_not_changed_by_its_readers(self, name, tmp_path, capsys):
        a = fixture(name)
        tree = trees.tree_from_rank2(a, 8)
        before = jsonio.encode_tree(tree)
        state = copy.deepcopy(vars(tree))
        tropical.barvinok_rank2(a)
        tropical.sym_barvinok_rank2(a)
        for lift in (lift_sym_caterpillar, lift_sym_rank2_real):
            try:
                lift(a)
            except TropliftError:
                pass  # a refusal still reads the tree
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(jsonio.encode_matrix(a)))
        capsys.readouterr()
        assert main(["tree", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == before
        assert trees.tree_from_rank2(a, 8) is tree
        assert trees.tree_from_rank2.cache_info().misses == 1
        assert jsonio.encode_tree(tree) == before
        assert vars(tree) == state

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_twin_gives_equal_verdicts(self, seed):
        rng = random.Random(seed)
        make = random_sym_rank2_matrix if seed % 2 else random_sym_matrix
        twin = make(rng, 4)
        plain = TropMatrix.make(twin.entries)
        assert plain != twin and not plain.symmetric
        first = _decide(plain)
        second = _decide(twin)
        for p, t in zip(first, second):
            assert (p.verdict, jsonio.dumps(p.reason)) == (t.verdict, jsonio.dumps(t.reason))
