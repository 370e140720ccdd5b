"""Membership oracles for the four matrix sets in the four field modes.

Modes: C and R (complex and real Puiseux coefficients) and their positive
parts C+ and R+ (positive leading coefficients).  Verdicts come with a
structured reason payload; positive-part verdicts on boundary points are
decided by closure, accepting whenever some edge of the minimizing set
satisfies the relevant cone criterion.

The analyses behind the verdicts are kept in each matrix's record (see
tropical), and so is the symmetric edge table that C+ and R+ share: the
memoised NewtonEdges that newton.edges_among finds among the tie's
vertex classes, each carrying its C+ test, with the tie's size and one
minor report per midpoint cycle.  An edge's span (its endpoints, and at
lattice length 2 its midpoint) is made of distinct tied classes, so it is
exactly the tie when the counts agree.  A report's pairs run around the
even cycle, and its deleted minors' signs are read off the matrix's int
grid: tropical's permutation scan finds the minimizers (looked up on the
tropical module at each call, so every determinant scan goes through
that one name), and each one's sign is that of its plain monomial
class.  `_positive_part` decides C+ and R+ from the table, for the
verdicts here and for lifts.lift_sym_corank1 alike; the rank-2 positive
parts read tropical's Barvinok records, as the rank-2 lifts do.  Every
payload, Barvinok detail, edge dict and minor report a caller gets is
built fresh here from those records, so changing it changes no later
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import NamedTuple

from . import tropical
from .config import MAX_ENUMERATION_BOUND
from .monomials import plain_class
from .newton import birkhoff_edge, edges_among
from .tropical import (
    _cells,
    barvinok_rank2,
    recorded,
    sym_trop_det,
    sym_trop_rank,
    trop_det,
    trop_rank,
)
from .tropmat import TropMatrix

MODES = ("C", "R", "C+", "R+")


@dataclass(frozen=True)
class MembershipVerdict:
    variety: str
    mode: str
    verdict: bool
    reason: dict


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def member_rank2(a: TropMatrix, mode: str, bound: int = MAX_ENUMERATION_BOUND) -> MembershipVerdict:
    """Rank <= 2 matrices: tropical rank decides C and R; the positive
    parts coincide with Barvinok rank <= 2 (caterpillar trees)."""
    _check_mode(mode)
    rank = trop_rank(a, bound)
    payload = {"tropical_rank": rank}
    if mode in ("C", "R"):
        return MembershipVerdict("rank2", mode, rank <= 2, payload)
    return _barvinok_verdict("rank2", mode, payload, barvinok_rank2(a, bound))


def member_sym_rank2(a: TropMatrix, mode: str, bound: int = MAX_ENUMERATION_BOUND) -> MembershipVerdict:
    """Symmetric rank <= 2: symmetric tropical rank decides C and R; the
    positive parts need ordinary Barvinok rank <= 2 of the symmetric
    matrix (caterpillar symbic tree)."""
    _check_mode(mode)
    asym = a.as_symmetric()
    rank = sym_trop_rank(asym, bound)
    payload = {"symmetric_tropical_rank": rank}
    if mode in ("C", "R"):
        return MembershipVerdict("sym_rank2", mode, rank <= 2, payload)
    return _barvinok_verdict("sym_rank2", mode, payload, barvinok_rank2(asym, bound))


def _barvinok_verdict(variety: str, mode: str, payload: dict, rec) -> MembershipVerdict:
    """A positive part's verdict from a Barvinok record: its answer, its
    kind (with the tropical rank that refused it) and its witness."""
    detail = {"kind": rec.kind}
    if rec.kind == "rank_too_high":
        detail["tropical_rank"] = rec.tropical_rank
    payload.update(barvinok2=rec.ok, detail=detail)
    if rec.ok:
        payload["witness"] = rec.witness
    return MembershipVerdict(variety, mode, rec.ok, payload)


def member_corank1(a: TropMatrix, mode: str, bound: int = MAX_ENUMERATION_BOUND) -> MembershipVerdict:
    """Singular matrices: a tropical determinant tie decides C and R; the
    positive parts need an adjacent (one-cycle quotient) pair of opposite
    signs among the minimizing permutations."""
    _check_mode(mode)
    res = trop_det(a, bound)
    payload = {
        "tie": res.tie,
        "min_value": res.min_value,
        "argmin": [(cls.representative, cls.sign) for cls in res.argmin],
    }
    if mode in ("C", "R"):
        return MembershipVerdict("corank1", mode, res.tie, payload)
    pair = adjacent_pair(res.argmin, opposite_signs=True)
    payload["opposite_sign_edge_pair"] = pair
    return MembershipVerdict("corank1", mode, pair is not None, payload)


def adjacent_pair(classes, opposite_signs: bool):
    """Representatives of the first pair of plain classes, in combinations
    order, that spans a Birkhoff-polytope edge (a one-cycle quotient), or
    None.  With opposite_signs only pairs of opposite signs count, as in
    the positive parts."""
    for c1, c2 in combinations(classes, 2):
        if opposite_signs and c1.sign == c2.sign:
            continue
        if birkhoff_edge(c1.representative, c2.representative):
            return c1.representative, c2.representative
    return None


def sym_corank1_edges(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> list[dict]:
    """Edges of the Newton polytope spanned by the minimizing classes,
    with the positive-part and really-positive-part qualifications.

    For a lattice length 2 edge the really-positive test deletes the two
    rows/columns of one adjacent pair on the midpoint's even cycle and asks the
    two minors to admit minimizing permutations of a common sign; a single
    adjacent pair decides, and all pairs are reported.  The dicts are
    fresh; the table they are read from is memoised.
    """
    table = _edge_table(a.as_symmetric(), bound)
    exact = table.size - 1  # the lattice length of an edge that is the tie
    out = []
    for edge in table.edges:
        reports, r_plus = None, edge.positive
        if edge.midpoint_cycle is not None:
            reports = [
                {"pair": pair, "signs": (list(si), list(sj)), "same_sign_choice": same}
                for pair, (si, sj), same in table.reports[edge.midpoint_cycle]
            ]
            r_plus = r_plus and reports[0]["same_sign_choice"]
        out.append({
            "edge": edge,
            "exact_span": edge.lattice_length == exact,
            "qualifies_c_plus": edge.positive,
            "qualifies_r": True,
            "minor_pair": None if reports is None else reports[0]["pair"],
            "minor_reports": reports,
            "qualifies_r_plus": r_plus,
        })
    return out


class _EdgeTable(NamedTuple):
    """A tie's edge table, shared by C+, R+ and lifts.lift_sym_corank1: the
    memoised NewtonEdges among the tie's vertex classes whose span lies in
    the tie; the tie's size, which is lattice_length + 1 when an edge spans
    it exactly (the regime of the constructive statements); and per midpoint
    cycle, ((i, j), (signs of minor i, of minor j), same sign) per adjacent pair."""

    edges: tuple
    size: int
    reports: dict

    def qualifying(self, mode: str) -> list:
        """The edges that pass C+ (`positive`), or R+: C+, and at lattice
        length 2 the first pair's minors share a sign."""
        edges = [e for e in self.edges if e.positive]
        if mode == "R+":
            edges = [e for e in edges if e.midpoint_cycle is None or self.reports[e.midpoint_cycle][0][2]]
        return edges


@recorded
def _edge_table(asym: TropMatrix, bound: int) -> _EdgeTable:
    """The edge table of a symmetric matrix's tie."""
    res = sym_trop_det(asym, bound)
    argmin = set(res.argmin)
    # the midpoint of a tied edge is forced into the tie
    edges = edges_among(cls for cls in res.argmin if cls.is_vertex)
    edges = tuple(edge for edge in edges if edge.midpoint is None or edge.midpoint in argmin)
    # each deleted index's minor signs, read once off the parent's grid
    signs = cache(lambda k: _minor_signs(asym, k))
    reports = {}
    for cycle in dict.fromkeys(edge.midpoint_cycle for edge in edges if edge.midpoint_cycle):
        pairs = zip(cycle, cycle[1:] + cycle[:1])
        reports[cycle] = tuple(
            ((i, j), (signs(i), signs(j)), any(s in signs(j) for s in signs(i))) for i, j in pairs
        )
    return _EdgeTable(edges, len(argmin), reports)


def _minor_signs(asym: TropMatrix, k: int) -> tuple:
    """Sorted signs of the minimizing permutations with row and column k deleted."""
    idx = [r for r in range(asym.rows) if r != k]
    return _argmin_signs(asym.as_int_grid()[1], idx, idx)


def _argmin_signs(grid, rows, cols) -> tuple:
    """Sorted signs of the permutations that minimize the plain tropical
    determinant of the subgrid on rows x cols, its cells read straight
    off the int grid."""
    _, _, arg = tropical._perm_argmin(_cells(grid, rows, cols), len(rows))
    return tuple(sorted({plain_class(sigma).sign for sigma in arg}))


def member_sym_corank1(a: TropMatrix, mode: str, bound: int = MAX_ENUMERATION_BOUND) -> MembershipVerdict:
    """Symmetric singular matrices.

    C and R coincide and need a class tie in the symmetric determinant.
    C+ needs a tied edge with opposite signs at lattice length 1 or a
    midpoint even cycle of length divisible by 4 at lattice length 2; R+
    additionally requires the deleted-minor signs to agree for an adjacent
    pair on that cycle.
    """
    _check_mode(mode)
    asym = a.as_symmetric()
    res = sym_trop_det(asym, bound)
    payload = {
        "tie": res.tie,
        "min_value": res.min_value,
        "argmin": [cls.monomial_str() for cls in res.argmin],
    }
    if not res.tie:
        payload["failure"] = "no_tie"
        return MembershipVerdict("sym_corank1", mode, False, payload)
    if mode in ("C", "R"):
        return MembershipVerdict("sym_corank1", mode, True, payload)
    payload["edges"] = sym_corank1_edges(asym, bound)
    ok, boundary, failure = _positive_part(_edge_table(asym, bound), mode)
    if ok:
        payload["boundary"] = boundary
    else:
        payload["failure"] = failure
    return MembershipVerdict("sym_corank1", mode, ok, payload)


def _positive_part(table: _EdgeTable, mode: str) -> tuple:
    """(verdict, boundary, failure) of C+ or R+ on a tie's edge table.

    A true verdict is a boundary one when no qualifying edge spans the tie
    exactly, and has failure None; a false one has boundary None and says
    why: "minor_signs" when an R+ edge fails only on its minors,
    "no_edge" when the tie spans no edge, else "same_signs"."""
    qualifying = table.qualifying(mode)
    if qualifying:
        return True, table.size - 1 not in {e.lattice_length for e in qualifying}, None
    if mode == "R+" and any(edge.positive and edge.lattice_length == 2 for edge in table.edges):
        return False, None, "minor_signs"
    return False, None, "same_signs" if table.edges else "no_edge"
