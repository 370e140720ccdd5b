"""Monomial classes of the determinant and the symmetric determinant.

A monomial of the n x n determinant is a permutation.  In the symmetric
determinant, permutations that differ only by reorienting cycles give the
same monomial, so a class stores an upper-triangular exponent matrix with
entries 0, 1, 2 (diagonal 0 or 1), the common sign, and the coefficient
2^(number of cycles of length >= 3).  Classes double as vertices of the
Newton polytope via their semisimple graphs: components are loops (fixed
points), isolated edges (transpositions), and cycles.

A symmetric class is built from its exponent alone (sym_class, memoised)
for the tropical minima and Newton's edges and midpoints; only the
enumeration commands list every class of a size.  Plain classes are
memoised per permutation (up to a fixed number), so a determinant's
argmin costs a dict lookup per minimiser.  A plain class reads its
symmetric class once, so the symmetric argmin is the plain argmin
grouped into classes.  A class computes its hash once, when it is made,
and its monomial string, symmetric class, Newton-polytope vertex test and
graph edge set once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations

from .config import MAX_ENUMERATION_BOUND
from .errors import SizeLimit
from .tropmat import TropMatrix

PUBLIC_CLASS_LIMIT = 7
PLAIN_CLASS_MEMO = 1024  # holds every permutation up to 6 x 6 (873 in all)


def cycles_of(sigma) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle from its minimum."""
    seen = [False] * len(sigma)
    out = []
    for i in range(len(sigma)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = sigma[j]
        out.append(tuple(cyc))
    return out


def sym_exponent(sigma) -> tuple:
    """Upper-triangular exponent of a permutation's symmetric-determinant
    monomial: the edge {i, sigma(i)} counted once per i."""
    n = len(sigma)
    exp = [[0] * n for _ in range(n)]
    for i, img in enumerate(sigma):
        if i <= img:
            exp[i][img] += 1
        else:
            exp[img][i] += 1
    return tuple(map(tuple, exp))


@dataclass(frozen=True)
class SignedMonomialClass:
    exponent: tuple  # n x n integer matrix; upper-triangular when symmetric
    sign: int
    coefficient: int
    representative: tuple
    cycle_type: tuple
    symmetric: bool

    def __post_init__(self):
        # the value the generated hash gave, stored once: the classes live
        # for the whole process and every argmin set and edge span hashes them
        fields = (
            self.exponent, self.sign, self.coefficient, self.representative,
            self.cycle_type, self.symmetric,
        )
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_permutation(sigma, symmetric: bool) -> "SignedMonomialClass":
        sigma = tuple(sigma)
        n = len(sigma)
        cycles = cycles_of(sigma)
        if symmetric:
            exponent = sym_exponent(sigma)
            coeff = 2 ** sum(1 for c in cycles if len(c) >= 3)
        else:
            exponent = tuple((0,) * img + (1,) + (0,) * (n - 1 - img) for img in sigma)
            coeff = 1
        return SignedMonomialClass(
            exponent=exponent,
            sign=-1 if (n - len(cycles)) & 1 else 1,
            coefficient=coeff,
            representative=sigma,
            cycle_type=tuple(sorted(len(c) for c in cycles)),
            symmetric=symmetric,
        )

    @property
    def n(self) -> int:
        return len(self.exponent)

    def value(self, weights: TropMatrix) -> Fraction:
        """Tropical value <exponent, weights> of the class on a weight matrix."""
        total = Fraction(0)
        for i in range(self.n):
            row = self.exponent[i]
            for j in range(self.n):
                if row[j]:
                    total += row[j] * weights[i, j]
        return total

    def graph_components(self) -> list[tuple]:
        """Semisimple-graph components: ('loop', (i,)), ('edge', (i, j)) or ('cycle', verts)."""
        out = []
        for cyc in cycles_of(self.representative):
            if len(cyc) == 1:
                out.append(("loop", cyc))
            elif len(cyc) == 2:
                out.append(("edge", tuple(sorted(cyc))))
            else:
                out.append(("cycle", cyc))
        return out

    @cached_property
    def symmetric_class(self) -> "SignedMonomialClass":
        """The symmetric-determinant class of the representative.  Read once
        per class: every symmetric argmin groups the plain minimisers by it."""
        return sym_class(sym_exponent(self.representative))

    @cached_property
    def is_vertex(self) -> bool:
        """Whether the class is a vertex of the Newton polytope: its graph
        consists of loops, isolated edges and odd cycles.  Read once per
        class, like the monomial string."""
        return all(kind != "cycle" or len(verts) % 2 == 1 for kind, verts in self.graph_components())

    @cached_property
    def edge_items(self) -> frozenset:
        """Edges of the semisimple graph; loops tagged, multi-edges collapsed.
        Read once per class: every Newton edge test unions two of them."""
        items = set()
        for i in range(self.n):
            for j in range(i, self.n):
                e = self.exponent[i][j] + (self.exponent[j][i] if j > i else 0)
                if e:
                    items.add(("loop", i) if i == j else (i, j))
        return frozenset(items)

    def monomial_str(self) -> str:
        return self._monomial

    @cached_property
    def _monomial(self) -> str:
        # once per class: the symmetric classes, and with them every
        # symmetric argmin, live for the whole process
        bits = []
        if self.coefficient != 1:
            bits.append(str(self.coefficient))
        for i in range(self.n):
            for j in range(i, self.n):
                e = self.exponent[i][j]
                if e:
                    var = f"x{i + 1}{j + 1}"
                    bits.append(var if e == 1 else f"{var}^{e}")
        lead = "-" if self.sign < 0 else ""
        return lead + "*".join(bits)


_SYM_CLASSES: dict = {}  # exponent -> class; lru_cache would wrap each key


def sym_class(exponent: tuple) -> SignedMonomialClass:
    """The symmetric class of an upper-triangular exponent, memoised, with
    its least representative, in O(n^2): loops fixed, doubled edges swapped,
    each cycle walked from its least vertex to its smaller neighbour.
    ValueError when the walk gives no permutation of that exponent."""
    cls = _SYM_CLASSES.get(exponent)
    if cls is not None:
        return cls
    n = len(exponent)
    sigma = list(range(n))
    nbrs: list = [[] for _ in range(n)]  # across the entries 1 off the diagonal
    for i, row in enumerate(exponent):
        for j in range(i + 1, n):
            if row[j] == 2:
                sigma[i], sigma[j] = j, i
            elif row[j]:
                nbrs[i].append(j)
                nbrs[j].append(i)
    for start in range(n):
        cur = start
        while nbrs[cur]:  # each step uses up an edge
            nxt = min(nbrs[cur])
            nbrs[cur].remove(nxt)
            nbrs[nxt].remove(cur)
            sigma[cur], cur = nxt, nxt
    cls = SignedMonomialClass.from_permutation(sigma, True)
    if len(set(sigma)) != n or cls.exponent != exponent:
        raise ValueError(f"not a symmetric determinant exponent: {exponent!r}")
    return _SYM_CLASSES.setdefault(cls.exponent, cls)


@lru_cache(maxsize=None)
def _classes(n: int, symmetric: bool) -> tuple:
    """Every symmetric n x n class (`symmetric` must be True), by exponent."""
    assert symmetric, "only the symmetric determinant's classes are listed"
    if n > MAX_ENUMERATION_BOUND:
        raise SizeLimit(f"monomial enumeration capped at n = {MAX_ENUMERATION_BOUND}")
    return tuple(map(sym_class, sorted({sym_exponent(s) for s in permutations(range(n))})))


@lru_cache(maxsize=PLAIN_CLASS_MEMO)
def plain_class(sigma: tuple) -> SignedMonomialClass:
    """The class of the plain determinant monomial of one permutation."""
    return SignedMonomialClass.from_permutation(sigma, False)


def sym_det_monomials(n: int) -> tuple:
    """All monomial classes of the n x n symmetric determinant."""
    if n > PUBLIC_CLASS_LIMIT:
        raise SizeLimit(f"symmetric monomial enumeration supports n <= {PUBLIC_CLASS_LIMIT}")
    return _classes(n, True)
