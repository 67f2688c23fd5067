"""Graded dimensions of the relation ring and its block-monomial ideal.

Degree-d classes of the quotient ring form a space of dimension equal to the
number of degree-d monomials in the n-1 base variables x[b,j], b = min ground:
the quotient is the polynomial ring in those variables.  So the degree-d slice
of the ideal generated by the block monomials prod_{(i,j) in B} x[i,j]^(2g) is
spanned by the normal form of each block monomial times every base monomial
of the remaining degree.  A block and its transpose have the same normal form,
since the exponents are even, so the 2^(n-1) - 1 blocks with b on the right
give every generator.  The dimension is computed as an exact integer matrix
rank, with no floating point anywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

from .combinatorics import _require_g, enumerate_blocks
from .errors import PreconditionError, SizeLimitError
from .ring import IndexSet, Polynomial, _common_denominator, _keys_for, _require_ground, normal_form

SIZE_LIMIT = 1_000_000  # rows x columns of one slice's matrix

# Most degrees one ``graded_report`` covers.  At n = 2 every slice is 1 x 1,
# so SIZE_LIMIT never fires there and a slice takes about 55 us: this bounds
# such a report at about 55 ms.  The scope's largest vanishing bound is 34
# (n = 4, g = 3), so every degree of interest fits with room to spare.
RANGE_LIMIT = 1_000


def dim_ring_graded(n: int, d: int) -> int:
    """Dimension of the degree-d slice of the quotient ring over n labels."""
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"need at least 2 labels, got n={n!r}")
    if type(d) is not int or d < 0:  # exactly int: bool is refused
        raise PreconditionError(f"degree must be a nonnegative integer, got {d!r}")
    return math.comb(d + n - 2, n - 2)


class IntRowSpace:
    """Row space over the integers with exact, fraction-free reduction.

    Stored rows form an echelon basis: each has a distinct pivot column, its
    first nonzero entry, is zero before it, has gcd one and positive pivot.
    Rows are kept in ascending pivot order so that ``_reduce`` finds the
    basis row of a column by bisection; rank and membership need no
    back-reduction.  The only divisions are by scalar gcds, which are exact.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: Sequence[int]) -> tuple[list[int], int | None]:
        """Clear the pivot columns ``row`` reaches, left to right.

        Each step finds the row's leading column.  If a basis row has its
        pivot there, both rows are zero before it, so the suffix is
        cross-multiplied by the pivot pair over its gcd and the scan goes on
        after it; pivots where the row is already zero are skipped.
        Otherwise every entry before that column is zero, so the row is
        independent of the basis and the column is its pivot.  Returns the
        reduced row and that column, or None when ``row`` lies in the span.
        """
        out = list(row)
        start = 0
        while (col := next(filter(out.__getitem__, range(start, len(out))), None)) is not None:
            at = bisect.bisect_left(self.pivot_cols, col)
            if at == len(self.pivot_cols) or self.pivot_cols[at] != col:
                break
            basis_row = self.rows[at]
            a, b = basis_row[col], out[col]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            out[col:] = [x * a - y * b for x, y in zip(out[col:], basis_row[col:])]
            start = col + 1
        return out, col

    @staticmethod
    def _normalize(row: list[int], pivot_col: int) -> list[int]:
        """Divide by the entries' gcd, with the sign that makes the pivot positive."""
        scale = math.gcd(*row)
        if row[pivot_col] < 0:
            scale = -scale
        return [x // scale for x in row]

    def add(self, row: Sequence[int]) -> bool:
        """Insert a row; returns True when it enlarges the span."""
        reduced, pivot_col = self._reduce(row)
        if pivot_col is None:
            return False
        at = bisect.bisect_right(self.pivot_cols, pivot_col)
        self.rows.insert(at, self._normalize(reduced, pivot_col))
        self.pivot_cols.insert(at, pivot_col)
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return self._reduce(row)[1] is None


def _require_scope(ground: IndexSet, g: int, degrees: Iterable[int]) -> None:
    """The one check of a slice's scope: the ground set, g and every degree."""
    _require_g(g)
    _require_ground(ground)
    if len(ground) > 4:
        raise PreconditionError(f"graded-dimension scope covers 2 to 4 labels, got {len(ground)}")
    if g not in (2, 3):
        raise PreconditionError(f"graded-dimension scope covers g in {{2, 3}}, got {g}")
    for d in degrees:
        if type(d) is not int or d < 0:  # exactly int: bool is refused
            raise PreconditionError(f"degree must be a nonnegative integer, got {d!r}")


@dataclass(frozen=True)
class BlockIdealSlice:
    """Degree-d slice of the block-monomial ideal, as an integer row space."""

    ground: IndexSet
    g: int
    degree: int

    def __post_init__(self):
        _require_scope(self.ground, self.g, (self.degree,))

    @cached_property
    def _layout(self):
        keys = _keys_for(self.ground, self.ground.min(), self.degree)
        return keys, {key: k for k, key in enumerate(keys.of_degree(self.degree))}

    @cached_property
    def _space(self) -> IntRowSpace:
        ncols = dim_ring_graded(len(self.ground), self.degree)
        m = 2 * self.g
        blocks = [
            (block, self.degree - m * block.pair_count)
            for block in enumerate_blocks(self.ground)
            if self.ground.min() in block.right and self.degree >= m * block.pair_count
        ]
        nrows = sum(dim_ring_graded(len(self.ground), remaining) for _, remaining in blocks)
        if nrows * ncols > SIZE_LIMIT:  # checked before any row or column is built
            raise SizeLimitError(f"{nrows} rows x {ncols} columns exceeds the limit {SIZE_LIMIT}")
        keys, columns = self._layout
        space = IntRowSpace(ncols)
        for block, remaining in blocks:
            generator = keys.block(block.pairs, m)
            for offset in keys.of_degree(remaining):
                if space.rank == ncols:
                    return space  # already full
                row = [0] * ncols
                for key, c in generator.items():
                    row[columns[key + offset]] = c
                space.add(row)
        return space

    @property
    def dim(self) -> int:
        return self._space.rank

    def contains(self, p: Polynomial) -> bool:
        """Membership of a homogeneous degree-d polynomial in the ideal slice."""
        if not isinstance(p, Polynomial):
            raise PreconditionError(f"contains expects a polynomial, got {type(p).__name__}")
        if p.ground != self.ground:
            raise PreconditionError("polynomial ground set differs from the slice ground set")
        if p.is_zero:
            return True
        if not p.is_homogeneous() or p.degree != self.degree:
            raise PreconditionError(f"expected a homogeneous polynomial of degree {self.degree}")
        space = self._space  # first: it checks the size before the columns are built
        keys, columns = self._layout
        terms = normal_form(p).terms
        row = [0] * space.ncols
        for key, c in keys.expand(terms, _common_denominator(terms), self.degree).items():
            row[columns[key]] = c
        return space.contains(row)


def block_ideal_slice(ground: IndexSet, g: int, d: int) -> BlockIdealSlice:
    return BlockIdealSlice(ground, g, d)


def dim_quotient_graded(ground: IndexSet, g: int, d: int) -> int:
    """Dimension of degree d in the quotient by the block-monomial ideal."""
    slice_ = block_ideal_slice(ground, g, d)
    return dim_ring_graded(len(ground), d) - slice_.dim


@dataclass(frozen=True)
class GradedReport:
    """Rows (degree, dimR, dimJ, dimQuotient) for a range of degrees."""

    ground: IndexSet
    g: int
    rows: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        for d, dim_ring, dim_ideal, dim_quotient in self.rows:
            if dim_quotient != dim_ring - dim_ideal or dim_quotient < 0:
                raise PreconditionError(f"inconsistent report row {(d, dim_ring, dim_ideal, dim_quotient)}")


def graded_report(ground: IndexSet, g: int, degrees: Iterable[int]) -> GradedReport:
    """One row per degree; SizeLimitError above RANGE_LIMIT degrees, then the scope
    is checked, both before any slice is built."""
    degrees = list(islice(degrees, RANGE_LIMIT + 1))
    if len(degrees) > RANGE_LIMIT:
        raise SizeLimitError(f"more than {RANGE_LIMIT} degrees, above the limit for one report")
    _require_scope(ground, g, degrees)
    rows = []
    for d in degrees:
        slice_ = block_ideal_slice(ground, g, d)
        dim_ring = dim_ring_graded(len(ground), d)
        rows.append((d, dim_ring, slice_.dim, dim_ring - slice_.dim))
    return GradedReport(ground, g, tuple(rows))
