"""The memoised analyses: one computation per matrix, and nothing shared
that a caller could change or that an error should have stopped."""

import copy
import json
import random
from math import factorial

import pytest

from samples import random_sym_matrix, random_sym_rank2_matrix
from troplift import jsonio, membership, monomials, newton, trees, tropical
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
from troplift.tropmat import TropMatrix

from conftest import MEMOISED, MEMOISED_UNBOUNDED

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
            tropical.barvinok_rank2,
            membership._edge_table,
        ):
            info = fn.cache_info()
            assert (info.misses, info.currsize) == (1, 1), fn.__name__
            assert info.hits >= 1, fn.__name__
        # the plain rank builds the tree, as its rank <= 2 test, and the
        # Barvinok test reads it back, past its own rank check rather than
        # through tree_from_rank2's: one tree, one miss and one hit.  The
        # rank is read once per member_rank2 mode, once by the Barvinok
        # test and once by sym_trop_rank, which starts from it
        info = trees._rank2_tree.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert tropical.trop_rank.cache_info().hits == 5
        # the matrix alone: the R+ test reads its deleted minors' signs
        # off the matrix's grid, not through the determinant memo
        info = tropical.trop_det.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 1

    def test_decide_on_a_generic_symmetric_matrix(self, monkeypatch):
        a = random_sym_matrix(random.Random(4), 5)
        assert tropical.trop_rank(a, 8) == tropical.sym_trop_rank(a, 8) == 5
        for fn in MEMOISED:
            fn.cache_clear()
        sizes = []

        def sized(test):
            def counted(grid, rows, *cols):
                sizes.append(len(rows))
                return test(grid, rows, *cols)

            return counted

        for name in ("_grid_nonsingular", "_grid_sym_nonsingular"):
            monkeypatch.setattr(tropical, name, sized(getattr(tropical, name)))
        _decide(a)
        # the rank scans read their full-size minor from the determinant
        # memos that the singular questions share, so each determinant is
        # computed once and no scan tests the whole matrix itself
        assert sizes and max(sizes) == 4
        for fn in (
            tropical.trop_rank,
            tropical.sym_trop_rank,
            tropical.trop_det,
            tropical.sym_trop_det,
        ):
            info = fn.cache_info()
            assert (info.misses, info.currsize) == (1, 1), fn.__name__
        assert tropical.trop_det.cache_info().hits >= 1
        assert tropical.sym_trop_det.cache_info().hits >= 1
        # rank above 2: no tree is built, but the Barvinok test's
        # rank_too_high answer is remembered
        assert trees._rank2_tree.cache_info().currsize == 0
        info = tropical.barvinok_rank2.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1

    def test_symmetric_determinant_reads_the_plain_one(self):
        """sym_trop_det groups trop_det's minimisers, under the memo key
        the singular and rank questions use: one hit and no miss."""
        a = random_sym_matrix(random.Random(5), 5, 0, 3)
        tropical.trop_det(a, 8)
        before = tropical.trop_det.cache_info()
        tropical.sym_trop_det(a, 8)
        after = tropical.trop_det.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_barvinok_tests_read_the_rank_once(self, monkeypatch):
        """A rank above 2 answers the Barvinok test from one trop_rank
        call; no tree guard asks for it a second time.  The four
        member_rank2 calls ask once each, the symmetric C+ and R+
        questions reach the same memoised barvinok_rank2 record, whose
        rank_too_high payload reads the rank off the record, and the
        symmetric rank starts from the plain one under the same memo key,
        so the sixteen questions make six calls and compute the rank once."""
        a = random_sym_matrix(random.Random(1), 5, 0, 3)
        calls = []
        rank = tropical.trop_rank

        def counted(*args):
            calls.append(args)
            return rank(*args)

        monkeypatch.setattr(tropical, "trop_rank", counted)
        monkeypatch.setattr(trees, "trop_rank", counted)
        monkeypatch.setattr(membership, "trop_rank", counted)
        _decide(a)
        assert rank(a, 8) > 2
        assert len(calls) == 6 and set(calls) == {(a, 8)}
        assert rank.cache_info().misses == 1

    @pytest.mark.parametrize(
        "fn",
        [
            tropical.trop_det,
            tropical.sym_trop_det,
            tropical.trop_rank,
            tropical.sym_trop_rank,
            tropical.barvinok_rank2,
            tropical.sym_barvinok_rank2,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_the_bound_is_one_key_however_it_is_passed(self, fn):
        """f(a), f(a, 8) and f(a, bound=8) are one memo key: one miss and
        two hits, each answer the first one's."""
        a = random_sym_rank2_matrix(random.Random(3), 5)
        first = fn(a)
        assert fn(a, 8) is first and fn(a, bound=8) is first
        info = fn.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_default_bound_ranks_compute_the_plain_rank_once(self):
        """sym_trop_rank starts from the plain rank under the key a caller
        that passed no bound left in the memo."""
        a = random_sym_matrix(random.Random(4), 5)
        tropical.trop_rank(a)
        tropical.sym_trop_rank(a)
        info = tropical.trop_rank.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("name", ["ex52", "sym_rank2_seed3"])
    def test_positive_parts_decide_once(self, name, monkeypatch):
        a = fixture(name) if name == "ex52" else random_sym_rank2_matrix(random.Random(3), 5)
        computed = []
        edge = newton._edge

        def counted(u, v):
            computed.append((u.exponent, v.exponent))
            return edge(u, v)

        monkeypatch.setattr(newton, "_EDGES", {})
        monkeypatch.setattr(newton, "_edge", counted)
        _decide(a)
        # the memo returns its record itself, not a copy
        assert tropical.sym_barvinok_rank2(a, 8) is tropical.sym_barvinok_rank2(a, 8)
        for fn in (tropical.barvinok_rank2, tropical.sym_barvinok_rank2, membership._edge_table):
            info = fn.cache_info()
            assert info.misses == 1 and info.hits >= 1, fn.__name__
        # C+ and R+ together computed each exponent pair's edge once
        entries = sum(len(row) for row in newton._EDGES.values())
        assert computed and len(computed) == len(set(computed)) == entries


def _mutate(v):
    """Change every mutable part of a payload tree in place."""
    if isinstance(v, dict):
        for k in list(v):
            _mutate(v[k])
            v[k] = "changed"
        v["added"] = True
    elif isinstance(v, list):
        for x in v:
            _mutate(x)
        v[:] = ["changed"]
    elif isinstance(v, tuple):
        for x in v:
            _mutate(x)


class TestFreshAnswers:
    """A caller may change what it gets back without changing what the
    next caller gets: nothing returned aliases memo state."""

    @pytest.mark.parametrize("name", ["fig2a", "fig3b", "fig4a", "eq1", "ex52"])
    @pytest.mark.parametrize("member", [member_rank2, member_sym_rank2, member_sym_corank1])
    @pytest.mark.parametrize("mode", ["C+", "R+"])
    def test_changed_payload_leaves_the_next_answer(self, name, member, mode):
        """C+ and R+ share the memos, so every mode's next answer must
        keep its bytes.  On ex52 the symmetric payload carries a lattice
        length 2 edge, with minor reports and their sign lists."""
        a = fixture(name)
        answers = {m: jsonio.dumps(member(a, m).reason) for m in MODES}
        _mutate(member(a, mode).reason)
        for m in MODES:
            assert jsonio.dumps(member(a, m).reason) == answers[m]

    @pytest.mark.parametrize("name", ["fig2a", "fig3b", "fig4a", "eq1", "ex52"])
    @pytest.mark.parametrize(
        "test", [tropical.barvinok_rank2, tropical.sym_barvinok_rank2], ids=lambda f: f.__name__
    )
    def test_barvinok_record_is_immutable(self, name, test):
        """A Barvinok test returns its memoised record itself: a NamedTuple
        whose fields are immutable or never written, so no caller can
        change the next answer.  The payload dicts are membership's."""
        a = fixture(name)
        rec = test(a, 8)
        assert test(a, 8) is rec
        with pytest.raises(AttributeError):
            rec.kind = "changed"
        assert not any(isinstance(v, (dict, list, set)) for v in rec)


class TestMemoSafety:
    def test_every_analysis_memo_is_emptied_between_tests(self):
        """A functools memo defined in tropical, trees or membership and
        missing from conftest's lists would carry results from one test to
        the next.  The monomial classes, newton's edge cache and the CLI
        parser stay warm by design."""
        listed = set(MEMOISED + MEMOISED_UNBOUNDED)
        defined = {
            f"{mod.__name__}.{name}": fn
            for mod in (tropical, trees, membership)
            for name, fn in vars(mod).items()
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__
        }
        assert listed <= set(defined.values())
        missing = [name for name, fn in defined.items() if fn not in listed]
        assert missing == []

    def test_plain_class_memo_is_bounded(self):
        """A tie of all 5040 permutations of a 7 x 7 leaves no more plain
        classes in the process-wide memo than its cap, which holds every
        permutation up to 6 x 6."""
        tropical.trop_det(TropMatrix.make([[0] * 7] * 7), 8)
        info = monomials.plain_class.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.maxsize >= sum(factorial(k) for k in range(1, 7))

    def test_no_class_table_on_the_decision_path(self):
        """The sixteen questions and the symmetric determinant build each
        class they reach from its exponent: the all-class enumeration is
        never filled, even for a 7 x 7 whose every permutation ties."""
        monomials._classes.cache_clear()
        rng = random.Random(31)
        for a in (random_sym_rank2_matrix(rng, 5), random_sym_rank2_matrix(rng, 6)):
            _decide(a)
        tropical.sym_trop_det(TropMatrix.make([[0] * 7] * 7, symmetric=True))
        assert monomials._classes.cache_info().misses == 0

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
        assert trees._rank2_tree.cache_info().misses == 1
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
