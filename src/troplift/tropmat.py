"""Min-plus matrices with exact rational entries.

A TropMatrix is frozen, and the analysis store keys its records on it
(see tropical), so it computes two derived values once, on first use,
and then only reads them: its integer grid (the entries rescaled by
their denominator lcm) and its hash, of that grid and the symmetric
flag.  Equality, repr and the wire format see the entries and the flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch


@dataclass(frozen=True, slots=True)
class TropMatrix:
    entries: tuple  # tuple of row tuples of Fractions
    symmetric: bool = False
    # derived values, filled on first use
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _grid: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def make(rows, symmetric: bool = False) -> "TropMatrix":
        ent = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not ent or not ent[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        if symmetric:
            n = len(ent)
            if len(ent[0]) != n:
                raise ValueError("symmetric matrix must be square")
            for i in range(n):
                for j in range(n):
                    if ent[i][j] != ent[j][i]:
                        raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        return TropMatrix(ent, symmetric)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, rc):
        i, j = rc
        return self.entries[i][j]

    def as_symmetric(self) -> "TropMatrix":
        """This matrix flagged symmetric; ValueError when it is not."""
        return self if self.symmetric else TropMatrix.make(self.entries, symmetric=True)

    def transpose(self) -> "TropMatrix":
        return TropMatrix(tuple(zip(*self.entries)), self.symmetric)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.as_int_grid(), self.symmetric)))
        return self._hash

    def as_int_grid(self) -> tuple[int, tuple]:
        """Entries scaled by their denominator lcm: (scale, int row tuples)."""
        if self._grid is None:
            scale = lcm(*(x.denominator for row in self.entries for x in row))
            grid = tuple(
                tuple(x.numerator * (scale // x.denominator) for x in row) for row in self.entries
            )
            object.__setattr__(self, "_grid", (scale, grid))
        return self._grid

    def max_abs(self) -> Fraction:
        return max(abs(x) for row in self.entries for x in row)


def trop_mat_mul(b: TropMatrix, c: TropMatrix) -> TropMatrix:
    """(b ⊙ c)_{ij} = min_k (b_{ik} + c_{kj})."""
    if b.cols != c.rows:
        raise DimensionMismatch(f"inner dimensions {b.cols} and {c.rows} differ")
    ent = tuple(
        tuple(min(b[i, k] + c[k, j] for k in range(b.cols)) for j in range(c.cols))
        for i in range(b.rows)
    )
    return TropMatrix(ent, False)
