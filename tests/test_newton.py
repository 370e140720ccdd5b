"""Newton polytope of the symmetric determinant, small n."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from conftest import SYM7_A, SYM7_B
from oracle import brute_hull
from samples import random_sym_matrix
from troplift import jsonio, newton
from troplift.membership import sym_corank1_edges
from troplift.monomials import SignedMonomialClass, sym_class, sym_det_monomials
from troplift.newton import (
    birkhoff_edge,
    edge_lattice_data,
    edge_positive_ok,
    edges_among,
    initial_form,
    is_polytope_edge,
    polytope_edges,
    polytope_vertices,
    table2_rows,
)
from troplift.tropmat import TropMatrix


def exponent_point(cls):
    n = cls.n
    return tuple(cls.exponent[i][j] for i in range(n) for j in range(i, n))


class TestClasses:
    def test_counts(self):
        assert len(sym_det_monomials(3)) == 5
        assert len(sym_det_monomials(4)) == 17

    def test_representative_counting(self):
        # each class with c cycles of length >= 3 covers 2^c permutations
        for n in (2, 3, 4, 5):
            total = sum(
                2 ** sum(1 for l in cls.cycle_type if l >= 3)
                for cls in sym_det_monomials(n)
            )
            assert total == math.factorial(n)

    def test_coefficient_matches_cycle_count(self):
        for cls in sym_det_monomials(5):
            assert cls.coefficient == 2 ** sum(1 for l in cls.cycle_type if l >= 3)


class TestTable2:
    def test_rows_bit_for_bit(self):
        rows = table2_rows()
        want = [
            ("2*x12*x13*x23*x44", 1, 2, [("cycle", 3), ("loop", 1)]),
            ("-x11*x22*x34^2", -1, 1, [("edge", 2), ("loop", 1), ("loop", 1)]),
            ("x12^2*x34^2", 1, 1, [("edge", 2), ("edge", 2)]),
            ("x14^2*x23^2", 1, 1, [("edge", 2), ("edge", 2)]),
            ("-2*x12*x14*x23*x34", -1, 2, [("cycle", 4)]),
        ]
        exps = [
            ((0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0)),
            ((0, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0)),
            ((0, 0, 0, 2), (0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
            ((0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
        ]
        for row, (mono, sign, coeff, comps), exp in zip(rows, want, exps):
            assert row.monomial_str() == mono
            assert row.sign == sign
            assert row.coefficient == coeff
            got = sorted((k, len(v)) for k, v in row.graph_components())
            assert got == sorted(comps)
            assert row.exponent == exp

    def test_edge_and_nonedge_claims(self):
        tri_loop, loops_edge, tp1, tp2, cyc4 = table2_rows()
        # the 4-cycle is the midpoint of the two transposition pairs
        assert cyc4 not in polytope_vertices(4)
        e = edge_lattice_data(tp1, tp2)
        assert is_polytope_edge(tp1, tp2)
        assert e.lattice_length == 2 and e.midpoint == cyc4 and e.union_cycle_length == 4
        assert edge_positive_ok(e)
        # every other vertex pair is an edge except the seven-edge union
        assert not is_polytope_edge(tri_loop, loops_edge)
        for u, v in ((tri_loop, tp1), (tri_loop, tp2), (loops_edge, tp1), (loops_edge, tp2)):
            assert is_polytope_edge(u, v)
        # loop pair against transposition pairs: lattice length 1, in the positive part
        for tp in (tp1, tp2):
            e1 = edge_lattice_data(loops_edge, tp)
            assert e1.lattice_length == 1 and edge_positive_ok(e1)
        # triangle-with-loop against transposition pairs: same sign, not positive
        for tp in (tp1, tp2):
            e2 = edge_lattice_data(tri_loop, tp)
            assert e2.lattice_length == 1 and not edge_positive_ok(e2)

    def test_edge_names_the_classes_it_was_asked_about(self, monkeypatch):
        """The row memo holds one edge per exponent pair, between the
        classes sym_class builds; a class with the same exponents
        but another representative (the triangle walked the other way)
        gets an edge naming it, without a second computation."""
        computed = []
        edge = newton._edge

        def counted(u, v):
            computed.append((u.exponent, v.exponent))
            return edge(u, v)

        monkeypatch.setattr(newton, "_EDGES", {})
        monkeypatch.setattr(newton, "_edge", counted)
        tri_loop, _, tp1, _, _ = table2_rows()
        reversed_tri = SignedMonomialClass.from_permutation((2, 0, 1, 3), True)
        assert reversed_tri.exponent == tri_loop.exponent and reversed_tri != tri_loop
        assert sym_class(tri_loop.exponent) == tri_loop
        first = edge_lattice_data(tri_loop, tp1)
        second = edge_lattice_data(reversed_tri, tp1)
        assert (first.u, first.v) == (tri_loop, tp1) and (second.u, second.v) == (reversed_tri, tp1)
        assert second.lattice_length == first.lattice_length == 1
        (among,) = edges_among([reversed_tri, tp1])
        assert (among.u, among.v) == (reversed_tri, tp1) and among == second
        # the built classes get the remembered edge itself
        built_tri, built_tp1 = (sym_class(c.exponent) for c in (tri_loop, tp1))
        remembered = edge_lattice_data(built_tri, built_tp1)
        assert edges_among([built_tri, built_tp1]) == [remembered]
        assert edges_among([built_tri, built_tp1])[0] is remembered
        assert computed == [(tri_loop.exponent, tp1.exponent)]
        assert sum(len(row) for row in newton._EDGES.values()) == 1
        # equal exponents are one point of the polytope, not an edge
        assert not is_polytope_edge(tri_loop, reversed_tri)

    def test_edges_among_matches_the_uncached_criterion(self):
        """In combinations order, naming the classes it was given: the
        enumeration's vertices, and the showcase vertices, which are copies."""
        for verts in (polytope_vertices(4), table2_rows()[:4]):
            want = [e for e in (newton._edge(u, v) for u, v in combinations(verts, 2)) if e]
            got = edges_among(verts)
            assert got == want
            assert [(id(e.u), id(e.v)) for e in got] == [(id(e.u), id(e.v)) for e in want]


class TestEdgePositivity:
    """A NewtonEdge reads edge_positive_ok once, when it is made, and keeps
    it as `positive`, a field derived from the others and never compared,
    hashed, shown or written."""

    def test_positive_is_the_rule_on_every_edge(self):
        seen = set()
        for n in range(1, 6):
            for e in polytope_edges(n):
                assert isinstance(e.positive, bool) and e.positive == edge_positive_ok(e)
                seen.add((e.lattice_length, e.positive))
        assert seen == {(1, True), (1, False), (2, True)}

    def test_copies_keep_positive_without_reading_the_rule_again(self, monkeypatch):
        """Copies naming other representatives get the remembered edge's
        field, which is right for them: the rule reads signs and the
        midpoint cycle, which the representative does not change."""
        read = []
        rule = newton.edge_positive_ok

        def counted(edge):
            read.append(edge)
            return rule(edge)

        monkeypatch.setattr(newton, "_EDGES", {})
        monkeypatch.setattr(newton, "edge_positive_ok", counted)
        tri_loop, _, tp1, tp2, _ = table2_rows()
        reversed_tri = SignedMonomialClass.from_permutation((2, 0, 1, 3), True)
        pairs = ((tri_loop, tp1), (reversed_tri, tp1), (tp1, tp2))
        copies = [edge_lattice_data(u, v) for u, v in pairs]
        built = [edge_lattice_data(sym_class(u.exponent), sym_class(v.exponent)) for u, v in pairs]
        assert read == [built[0], built[2]] and read[0] is built[0] is built[1]
        for copy, edge in zip(copies, built):
            assert copy is not edge and copy.positive is edge.positive is rule(copy)
        assert [e.positive for e in copies] == [False, False, True]

    def test_positive_is_not_compared_hashed_shown_or_written(self):
        tri_loop, _, tp1, tp2, _ = table2_rows()
        for edge in (edge_lattice_data(tri_loop, tp1), edge_lattice_data(tp1, tp2)):
            flipped = replace(edge, positive=not edge.positive)
            assert flipped.positive is not edge.positive
            assert flipped == edge and hash(flipped) == hash(edge)
            assert repr(flipped) == repr(edge) and "positive" not in repr(edge)
            assert jsonio.dumps(flipped) == jsonio.dumps(edge)
        # the encoding of an edge is the one it had before the field
        assert jsonio.dumps(edge_lattice_data(tp1, tp2)) == (
            '{\n  "lattice_length": 2,\n  "midpoint": "-2*x12*x14*x23*x34",\n  "u": "x12^2*x34^2",'
            '\n  "union_cycle_length": 4,\n  "v": "x14^2*x23^2"\n}'
        )
        assert jsonio.dumps(edge_lattice_data(tri_loop, tp1)) == (
            '{\n  "lattice_length": 1,\n  "midpoint": null,\n  "u": "2*x12*x13*x23*x44",'
            '\n  "union_cycle_length": null,\n  "v": "x12^2*x34^2"\n}'
        )


class TestPolytope:
    def test_vertex_count_n4(self):
        assert len(polytope_vertices(4)) == 14

    def test_single_vertex_n1(self):
        assert len(polytope_vertices(1)) == 1

    def test_hull_agrees_n4(self, hull4):
        classes = sym_det_monomials(4)
        hull_v, hull_e = hull4
        fast_v = sorted(classes.index(c) for c in polytope_vertices(4))
        assert fast_v == sorted(hull_v)
        fast_e = sorted(
            tuple(sorted((classes.index(e.u), classes.index(e.v))))
            for e in polytope_edges(4)
        )
        assert fast_e == sorted(tuple(sorted(p)) for p in hull_e)

    def test_hull_agrees_n3(self):
        classes = sym_det_monomials(3)
        pts = [exponent_point(c) for c in classes]
        hull_v, hull_e = brute_hull(pts)
        fast_v = sorted(classes.index(c) for c in polytope_vertices(3))
        assert fast_v == sorted(hull_v)
        fast_e = sorted(
            tuple(sorted((classes.index(e.u), classes.index(e.v))))
            for e in polytope_edges(3)
        )
        assert fast_e == sorted(tuple(sorted(p)) for p in hull_e)

    def test_all_lattice2_midpoints_are_classes(self):
        edges = [e for n in (3, 4, 5, 6) for e in polytope_edges(n)]
        for rows, cycle in ((SYM7_A, (3, 4, 5, 6)), (SYM7_B, (2, 3, 6, 5))):
            (rec,) = sym_corank1_edges(TropMatrix.make(rows, symmetric=True))
            edge = rec["edge"]
            # from n = 7 on, a triangle can come ahead of the even cycle
            cycles = [vs for kind, vs in edge.midpoint.graph_components() if kind == "cycle"]
            assert [len(vs) for vs in cycles] == [3, 4]
            assert edge.midpoint_cycle == cycle
            edges.append(edge)
        assert sum(e.lattice_length == 2 for e in edges) == 3 + 15 + 150 + 2
        for e in edges:
            assert e.lattice_length in (1, 2)
            if e.lattice_length == 1:
                assert e.midpoint is None and e.midpoint_cycle is None
                continue
            assert e.midpoint is not None
            even = [
                vs
                for kind, vs in e.midpoint.graph_components()
                if kind == "cycle" and len(vs) % 2 == 0
            ]
            assert even == [e.midpoint_cycle]
            assert e.union_cycle_length == len(e.midpoint_cycle) >= 4


class TestBirkhoff:
    def test_examples(self):
        assert birkhoff_edge((0, 1, 2), (1, 0, 2))
        assert not birkhoff_edge((0, 1, 2, 3), (1, 0, 3, 2))
        assert not birkhoff_edge((1, 0, 2), (1, 0, 2))

    def test_agrees_with_hull_n3(self):
        from itertools import permutations

        perms = list(permutations(range(3)))
        pts = []
        for s in perms:
            m = [[0] * 3 for _ in range(3)]
            for i, img in enumerate(s):
                m[i][img] = 1
            pts.append(tuple(x for row in m for x in row))
        hull_v, hull_e = brute_hull(pts)
        assert sorted(hull_v) == list(range(6))
        got = {tuple(sorted(p)) for p in hull_e}
        want = {
            tuple(sorted((i, j)))
            for i in range(6)
            for j in range(i + 1, 6)
            if birkhoff_edge(perms[i], perms[j])
        }
        assert got == want

    @staticmethod
    def _edge_by_lp(perms, pts, i, j):
        from linprog import OPTIMAL, lp_maximize

        m = len(pts)
        dim = len(pts[0])
        mid = tuple(Fraction(a + b, 2) for a, b in zip(pts[i], pts[j]))
        rows = [[pts[k][c] for k in range(m)] for c in range(dim)]
        rows.append([1] * m)
        rhs = list(mid) + [1]
        objective = [0 if k in (i, j) else 1 for k in range(m)]
        status, value = lp_maximize(objective, rows, rhs)
        assert status == OPTIMAL
        return value == 0

    @staticmethod
    def _perm_points(n):
        from itertools import permutations

        perms = list(permutations(range(n)))
        pts = []
        for s in perms:
            m = [[0] * n for _ in range(n)]
            for i, img in enumerate(s):
                m[i][img] = 1
            pts.append(tuple(x for row in m for x in row))
        return perms, pts

    def test_agrees_with_hull_n4_sampled(self):
        rng = random.Random(17)
        perms, pts = self._perm_points(4)
        pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
        for i, j in rng.sample(pairs, 40):
            assert self._edge_by_lp(perms, pts, i, j) == birkhoff_edge(perms[i], perms[j])

    def test_agrees_with_hull_n5_sampled(self):
        rng = random.Random(18)
        perms, pts = self._perm_points(5)
        pairs = [(i, j) for i in range(120) for j in range(i + 1, 120)]
        hits = {True: 0, False: 0}
        for i, j in rng.sample(pairs, 12):
            want = birkhoff_edge(perms[i], perms[j])
            hits[want] += 1
            assert self._edge_by_lp(perms, pts, i, j) == want
        # quotient-cycle pairs are sparse at this size; force one of each
        forced = [(0, 1)]  # identity against a transposition: an edge
        forced.append(next((i, j) for i, j in pairs if not birkhoff_edge(perms[i], perms[j])))
        for i, j in forced:
            assert self._edge_by_lp(perms, pts, i, j) == birkhoff_edge(perms[i], perms[j])


class TestInitialForm:
    def test_ex52_weights(self):
        m = TropMatrix.make(
            [[2, 0, 1, 0], [0, 2, 0, 2], [1, 0, 2, 0], [0, 2, 0, 1]], symmetric=True
        )
        init = initial_form(sym_det_monomials(4), m)
        assert {c.monomial_str() for c in init} == {
            "x12^2*x34^2",
            "x14^2*x23^2",
            "-2*x12*x14*x23*x34",
        }

    def test_zero_weights_keep_everything(self):
        z = TropMatrix.make([[0] * 4 for _ in range(4)], symmetric=True)
        assert len(initial_form(sym_det_monomials(4), z)) == 17

    def test_generic_weight_gives_single_vertex(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(40):
            w = random_sym_matrix(rng, 4, -20, 20)
            init = initial_form(sym_det_monomials(4), w)
            if len(init) == 1:
                hits += 1
                assert init[0] in polytope_vertices(4)
        assert hits >= 30
