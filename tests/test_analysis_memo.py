"""The analysis store: one computation per matrix, one bounded store of
per-matrix records, and nothing shared that a caller could change or that
an error should have stopped."""

import copy
import fractions
import json
import random
from collections import Counter
from math import factorial

import pytest

from samples import random_sym_matrix, random_sym_rank2_matrix
from troplift import jsonio, membership, monomials, newton, trees, tropical
from troplift.cli import main
from troplift.errors import SizeLimit, TropliftError
from troplift.fixtures import fixture
from troplift.lifts import lift_sym_caterpillar, lift_sym_corank1, lift_sym_rank2_real
from troplift.membership import (
    member_corank1,
    member_rank2,
    member_sym_corank1,
    member_sym_rank2,
)
from troplift.tropmat import TropMatrix

from conftest import entries

MODES = ("C", "R", "C+", "R+")
MEMBERS = (member_rank2, member_sym_rank2, member_corank1, member_sym_corank1)
# the bounded analyses in the store, as (module, name)
BOUNDED = (
    (tropical, "trop_det"),
    (tropical, "sym_trop_det"),
    (tropical, "trop_rank"),
    (tropical, "sym_trop_rank"),
    (tropical, "barvinok_rank2"),
    (tropical, "sym_barvinok_rank2"),
    (membership, "_edge_table"),
)
TROPICAL = [getattr(mod, name) for mod, name in BOUNDED[:6]]


def _decide(a):
    """The sixteen membership questions one benchmark operation asks."""
    return [fn(a, mode) for fn in MEMBERS for mode in MODES]


class TestOneComputationPerMatrix:
    def test_decide_on_a_symmetric_rank2_matrix(self, calls):
        a = random_sym_rank2_matrix(random.Random(3), 5)
        counted = {name: calls(mod, name) for mod, name in BOUNDED + ((trees, "_rank2_tree"),)}
        _decide(a)
        for name in ("trop_rank", "sym_trop_rank", "sym_trop_det", "barvinok_rank2", "_edge_table"):
            assert (tropical.FILLS[name], entries(name)) == (1, 1), name
            assert len(counted[name]) >= 2, name  # at least one hit
        # the plain rank builds the tree, as its rank <= 2 test, and the
        # Barvinok test reads it back, past its own rank check rather than
        # through tree_from_rank2's: one tree, one fill and one hit.  The
        # rank is read once per member_rank2 mode, once by the Barvinok
        # test and once by sym_trop_rank, which starts from it
        assert (len(counted["_rank2_tree"]), tropical.FILLS["_rank2_tree"]) == (2, 1)
        assert len(counted["trop_rank"]) == 6
        # the matrix alone: the R+ test reads its deleted minors' signs
        # off the matrix's grid, not through the determinant's entry
        assert (tropical.FILLS["trop_det"], entries("trop_det")) == (1, 1)
        assert len(counted["trop_det"]) >= 2
        assert list(tropical._RECORDS) == [a]

    def test_decide_on_a_generic_symmetric_matrix(self, monkeypatch, calls):
        a = random_sym_matrix(random.Random(4), 5)
        assert tropical.trop_rank(a, 8) == tropical.sym_trop_rank(a, 8) == 5
        tropical.clear()
        sizes = []

        def sized(test):
            def counted(grid, rows, *cols):
                sizes.append(len(rows))
                return test(grid, rows, *cols)

            return counted

        for name in ("_grid_nonsingular", "_grid_sym_nonsingular"):
            monkeypatch.setattr(tropical, name, sized(getattr(tropical, name)))
        counted = {name: calls(tropical, name) for name in ("trop_det", "sym_trop_det", "barvinok_rank2")}
        _decide(a)
        # the rank scans read their full-size minor from the determinants'
        # entries that the singular questions share, so each determinant
        # is computed once and no scan tests the whole matrix itself
        assert sizes and max(sizes) == 4
        for name in ("trop_rank", "sym_trop_rank", "trop_det", "sym_trop_det"):
            assert (tropical.FILLS[name], entries(name)) == (1, 1), name
        assert len(counted["trop_det"]) >= 2
        assert len(counted["sym_trop_det"]) >= 2
        # rank above 2: no tree is built, but the Barvinok test's
        # rank_too_high answer is kept
        assert (tropical.FILLS["_rank2_tree"], entries("_rank2_tree")) == (0, 0)
        assert (tropical.FILLS["barvinok_rank2"], entries("barvinok_rank2")) == (1, 1)
        assert len(counted["barvinok_rank2"]) >= 2

    def test_symmetric_determinant_reads_the_plain_one(self, calls):
        """sym_trop_det groups trop_det's minimisers, under the entry the
        singular and rank questions use: one hit and no fill."""
        a = random_sym_matrix(random.Random(5), 5, 0, 3)
        tropical.trop_det(a, 8)
        counted = calls(tropical, "trop_det")
        tropical.sym_trop_det(a, 8)
        assert (len(counted), tropical.FILLS["trop_det"]) == (1, 1)

    def test_barvinok_tests_read_the_rank_once(self, calls):
        """A rank above 2 answers the Barvinok test from one trop_rank
        call; no tree guard asks for it a second time.  The four
        member_rank2 calls ask once each, the symmetric C+ and R+
        questions reach the same recorded barvinok_rank2 record, whose
        rank_too_high payload reads the rank off the record, and the
        symmetric rank starts from the plain one under the same entry,
        so the sixteen questions make six calls and compute the rank once."""
        a = random_sym_matrix(random.Random(1), 5, 0, 3)
        counted = calls(tropical, "trop_rank")
        _decide(a)
        assert len(counted) == 6 and set(counted) == {(a, 8)}
        assert tropical.FILLS["trop_rank"] == 1
        assert tropical.trop_rank(a, 8) > 2

    @pytest.mark.parametrize("fn", TROPICAL, ids=lambda fn: fn.__name__)
    def test_the_bound_is_one_key_however_it_is_passed(self, fn):
        """f(a), f(a, 8) and f(a, bound=8) read one entry: one fill and
        two hits, each answer the first one's."""
        a = random_sym_rank2_matrix(random.Random(3), 5)
        first = fn(a)
        assert fn(a, 8) is first and fn(a, bound=8) is first
        assert (tropical.FILLS[fn.__name__], entries(fn.__name__)) == (1, 1)
        assert (fn.__name__, 8) in tropical._RECORDS[a]

    def test_default_bound_ranks_compute_the_plain_rank_once(self, calls):
        """sym_trop_rank starts from the plain rank under the entry a
        caller that passed no bound left in the store."""
        a = random_sym_matrix(random.Random(4), 5)
        counted = calls(tropical, "trop_rank")
        tropical.trop_rank(a)
        tropical.sym_trop_rank(a)
        assert (len(counted), tropical.FILLS["trop_rank"]) == (2, 1)

    def test_the_rank_builds_the_tree_that_known_rank2_tree_reads(self, calls):
        """trop_rank builds the tree as its rank <= 2 test, and
        known_rank2_tree reads that entry back: one fill, two calls."""
        a = random_sym_rank2_matrix(random.Random(3), 5)
        counted = calls(trees, "_rank2_tree")
        assert tropical.trop_rank(a) == 2
        tree = trees.known_rank2_tree(a)
        assert (len(counted), tropical.FILLS["_rank2_tree"]) == (2, 1)
        assert tropical._RECORDS[a]["_rank2_tree", None] is tree

    @pytest.mark.parametrize("name", ["ex52", "sym_rank2_seed3"])
    def test_positive_parts_decide_once(self, name, monkeypatch, calls):
        a = fixture(name) if name == "ex52" else random_sym_rank2_matrix(random.Random(3), 5)
        computed = []
        edge = newton._edge

        def counted(u, v):
            computed.append((u.exponent, v.exponent))
            return edge(u, v)

        monkeypatch.setattr(newton, "_EDGES", {})
        monkeypatch.setattr(newton, "_edge", counted)
        names = ("barvinok_rank2", "sym_barvinok_rank2", "_edge_table")
        asked = {name: calls(mod, name) for mod, name in BOUNDED if name in names}
        _decide(a)
        # the store returns its record itself, not a copy
        assert tropical.sym_barvinok_rank2(a, 8) is tropical.sym_barvinok_rank2(a, 8)
        for name in names:
            assert tropical.FILLS[name] == 1 and len(asked[name]) >= 2, name
        # C+ and R+ together computed each exponent pair's edge once
        entries = sum(len(row) for row in newton._EDGES.values())
        assert computed and len(computed) == len(set(computed)) == entries


class TestEdgeTable:
    """The symmetric edge table holds the memoised NewtonEdges themselves,
    the tie's size and one minor report per midpoint cycle; the payloads
    built from it are fresh."""

    def test_the_table_shares_its_edges_and_reports(self, calls):
        # 0 on the 4-cycle 0-1-2-3 and on the block {4, 5}, 9 elsewhere: two
        # lattice length 2 edges around the one 4-cycle, one for each of the
        # block's two tied classes
        rows = [[9] * 6 for _ in range(6)]
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3), (4, 4), (5, 5), (4, 5)):
            rows[i][j] = rows[j][i] = 0
        a = TropMatrix.make(rows, symmetric=True)
        signs = calls(membership, "_minor_signs")
        table = membership._edge_table(a, 8)
        assert table.edges and all(newton._EDGES[e.u][e.v] is e for e in table.edges)
        assert table.size == len(tropical.sym_trop_det(a, 8).argmin)
        lat2 = [e for e in table.edges if e.lattice_length == 2]
        (cycle,) = {e.midpoint_cycle for e in lat2}
        assert len(lat2) == 2 and lat2[0].midpoint != lat2[1].midpoint
        assert list(table.reports) == [cycle] and len(table.reports[cycle]) == 4
        # one minor per deleted cycle vertex
        assert sorted(k for _, k in signs) == list(cycle)
        # the payloads carry equal reports, each one its own
        first, second = [e["minor_reports"] for e in membership.sym_corank1_edges(a) if e["minor_reports"]]
        assert first == second and first is not second
        assert all(x is not y and x["signs"][0] is not y["signs"][0] for x, y in zip(first, second))

    def test_positive_parts_and_the_lift_fill_one_table(self):
        a = fixture("ex52")
        assert member_sym_corank1(a, "C+").verdict and not member_sym_corank1(a, "R+").verdict
        lift_sym_corank1(a, "R", 1)
        assert tropical.FILLS["_edge_table"] == 1 and entries("_edge_table") == 1


class TestStore:
    """The store keeps the records of the last STORE_SIZE matrices asked
    about, each one whole, and drops the oldest first."""

    def test_an_evicted_record_is_computed_again_once(self):
        rng = random.Random(37)
        a = random_sym_rank2_matrix(rng, 5)
        _decide(a)
        first = Counter(tropical.FILLS)
        assert first and set(first.values()) == {1}
        kept = dict(tropical._RECORDS[a])
        others = []
        while len(others) < tropical.STORE_SIZE:
            b = random_sym_matrix(rng, 5) if len(others) % 2 else random_sym_rank2_matrix(rng, 5)
            if b != a and b not in others:
                others.append(b)
        for b in others[:-1]:
            _decide(b)
        # 31 other matrices: the record is still whole and answers alone
        assert tropical._RECORDS[a] == kept
        before = Counter(tropical.FILLS)
        _decide(a)
        assert tropical.FILLS == before
        # the 32nd drops it whole, and every analysis is computed again once
        _decide(others[-1])
        assert a not in tropical._RECORDS
        before = Counter(tropical.FILLS)
        _decide(a)
        assert Counter(tropical.FILLS) - before == first
        assert tropical._RECORDS[a].keys() == kept.keys()

    def test_the_store_holds_at_most_store_size_records(self):
        """Plain matrices make two records each, their own and their
        symmetric twin's."""
        rng = random.Random(38)
        for k in range(2 * tropical.STORE_SIZE):
            b = random_sym_matrix(rng, 4)
            _decide(b if k % 2 else TropMatrix.make(b.entries))
            assert len(tropical._RECORDS) <= tropical.STORE_SIZE
        assert len(tropical._RECORDS) == tropical.STORE_SIZE

    def test_hashing_a_fresh_matrix_reads_no_fraction(self, monkeypatch):
        """The hash is taken of the int grid, which the analyses build
        anyway, so no entry is hashed."""
        hashed = []
        fraction_hash = fractions.Fraction.__hash__

        def counted(x):
            hashed.append(x)
            return fraction_hash(x)

        monkeypatch.setattr(fractions.Fraction, "__hash__", counted)
        a = TropMatrix.make([[fractions.Fraction(k, 3) - j for k in range(5)] for j in range(5)])
        hash(a)
        tropical.trop_det(a)
        assert hashed == []

    def test_equal_matrices_share_one_record_and_twins_get_two(self):
        """Equal matrices hash equal however their entries were given; a
        matrix and its as_symmetric() twin are unequal, so two records."""
        rows = [[0, 2, 1], [2, 4, 3], [1, 3, 0]]
        ints = TropMatrix.make(rows)
        fracs = TropMatrix.make([[fractions.Fraction(2 * x, 2) for x in row] for row in rows])
        assert ints == fracs and hash(ints) == hash(fracs)
        tropical.trop_det(ints)
        assert tropical.trop_det(fracs) is tropical.trop_det(ints)
        assert tropical.FILLS["trop_det"] == 1
        twin = ints.as_symmetric()
        assert twin != ints
        tropical.trop_det(twin)
        assert tropical.FILLS["trop_det"] == 2
        assert len(tropical._RECORDS) == 2


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
    next caller gets: nothing returned aliases the store's records."""

    @pytest.mark.parametrize("name", ["fig2a", "fig3b", "fig4a", "eq1", "ex52"])
    @pytest.mark.parametrize("member", [member_rank2, member_sym_rank2, member_sym_corank1])
    @pytest.mark.parametrize("mode", ["C+", "R+"])
    def test_changed_payload_leaves_the_next_answer(self, name, member, mode):
        """C+ and R+ share the records, so every mode's next answer must
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
        """A Barvinok test returns its stored record itself: a NamedTuple
        whose fields are immutable or never written, so no caller can
        change the next answer.  The payload dicts are membership's."""
        a = fixture(name)
        rec = test(a, 8)
        assert test(a, 8) is rec
        with pytest.raises(AttributeError):
            rec.kind = "changed"
        assert not any(isinstance(v, (dict, list, set)) for v in rec)


@pytest.fixture(scope="module")
def _left_behind():
    """A record written before a test starts, as an earlier test would
    leave it."""
    a = fixture("fig2a")
    tropical.trop_rank(a)
    return a


class TestMemoSafety:
    def test_every_analysis_memo_is_emptied_between_tests(self, _left_behind):
        """tropical, trees and membership define no functools memo, which
        would carry results from one test to the next, and the store's
        records are gone when the next test starts.  The monomial classes,
        newton's edge cache and the CLI parser stay warm by design."""
        memos = [
            f"{mod.__name__}.{name}"
            for mod in (tropical, trees, membership)
            for name, fn in vars(mod).items()
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__
        ]
        assert memos == []
        assert _left_behind not in tropical._RECORDS
        assert tropical._RECORDS == {} and not tropical.FILLS

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

    @pytest.mark.parametrize("fn", [getattr(mod, name) for mod, name in BOUNDED], ids=lambda fn: fn.__name__)
    def test_size_limit_is_not_remembered(self, fn):
        a = fixture("fig2a")  # 3 x 3: every analysis needs a bound of at least 2
        name = fn.__name__
        with pytest.raises(SizeLimit):
            fn(a, 1)
        assert (tropical.FILLS[name], entries(name)) == (0, 0)
        fn(a, 8)
        assert (tropical.FILLS[name], entries(name)) == (1, 1)
        tropical.clear()
        fn(a, 8)
        with pytest.raises(SizeLimit):
            fn(a, 1)
        with pytest.raises(SizeLimit):
            fn(a, 1)
        assert (tropical.FILLS[name], entries(name)) == (1, 1)
        assert not any(key == (name, 1) for record in tropical._RECORDS.values() for key in record)

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
        assert tropical.FILLS["_rank2_tree"] == 1
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
