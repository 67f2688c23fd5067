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

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .combinatorics import _require_g, enumerate_blocks, iter_compositions
from .errors import PreconditionError, SizeLimitError
from .ring import IndexSet, Monomial, Polynomial, _base_positions, normal_form

SIZE_LIMIT = 1_000_000  # rows x columns of one slice's matrix


def dim_ring_graded(n: int, d: int) -> int:
    """Dimension of the degree-d slice of the quotient ring over n labels."""
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"need at least 2 labels, got n={n!r}")
    if not isinstance(d, int) or d < 0:
        raise PreconditionError(f"degree must be a nonnegative integer, got {d!r}")
    return math.comb(d + n - 2, n - 2)


class IntRowSpace:
    """Row space over the integers with exact, division-free reduction.

    Stored rows form an echelon basis: each has a distinct pivot column, its
    first nonzero entry, is zero before it, has gcd one and positive pivot.
    Rows are kept in ascending pivot order so that ``reduce`` clears one pivot
    at a time; rank and membership need no back-reduction.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Sequence[int]) -> list[int]:
        """Clear pivot columns of ``row`` by cross-multiplication, left to right.

        Stops at the first nonzero entry in a non-pivot column: every entry
        before it is zero, so the row is independent of the basis and that
        entry is its pivot.  The result is zero exactly when ``row`` lies in
        the span.
        """
        out = list(row)
        if len(out) != self.ncols:
            raise PreconditionError(f"row has {len(out)} columns, expected {self.ncols}")
        start = 0
        for basis_row, col in zip(self.rows, self.pivot_cols):
            if any(out[start:col]):
                return out
            if out[col]:
                # both rows are zero before col, so only the suffix changes
                a, b = basis_row[col], out[col]
                out[col:] = [x * a - y * b for x, y in zip(out[col:], basis_row[col:])]
            start = col + 1
        return out

    @staticmethod
    def _normalize(row: list[int], pivot_col: int) -> list[int]:
        scale = 0
        for x in row:
            scale = math.gcd(scale, x)
        if row[pivot_col] < 0:
            scale = -scale
        return [x // scale for x in row]

    def add(self, row: Sequence[int]) -> bool:
        """Insert a row; returns True when it enlarges the span."""
        reduced = self.reduce(row)
        pivot_col = next((c for c, x in enumerate(reduced) if x), None)
        if pivot_col is None:
            return False
        at = next((k for k, c in enumerate(self.pivot_cols) if c > pivot_col), len(self.rows))
        self.rows.insert(at, self._normalize(reduced, pivot_col))
        self.pivot_cols.insert(at, pivot_col)
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return not any(self.reduce(row))


def _integer_row(values: Iterable[Fraction]) -> list[int]:
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _require_scope(ground: IndexSet, g: int, d: int) -> None:
    _require_g(g)
    if len(ground) not in (2, 3, 4):
        raise PreconditionError(f"graded-dimension scope covers 2 to 4 labels, got {len(ground)}")
    if g not in (2, 3):
        raise PreconditionError(f"graded-dimension scope covers g in {{2, 3}}, got {g}")
    if not isinstance(d, int) or d < 0:
        raise PreconditionError(f"degree must be a nonnegative integer, got {d!r}")


@dataclass(frozen=True)
class BlockIdealSlice:
    """Degree-d slice of the block-monomial ideal, as an integer row space."""

    ground: IndexSet
    g: int
    degree: int

    @cached_property
    def _layout(self):
        _, pos = _base_positions(self.ground, self.ground.min())
        columns = {comp: k for k, comp in enumerate(iter_compositions(self.degree, len(pos)))}
        return pos, columns

    def _base_terms(self, p: Polynomial) -> list[tuple[tuple[int, ...], Fraction]]:
        """(exponent vector, coefficient) of every term of p's normal form."""
        pos, _ = self._layout
        out = []
        for t in normal_form(p).terms:
            vec = [0] * len(pos)
            for (_, j), e in t.exps:
                vec[pos[j]] = e
            out.append((tuple(vec), t.coeff))
        return out

    @cached_property
    def _space(self) -> IntRowSpace:
        pos, columns = self._layout
        width = len(pos)
        blocks = [
            (block, self.degree - 2 * self.g * block.pair_count)
            for block in enumerate_blocks(self.ground)
            if self.ground.min() in block.right and self.degree >= 2 * self.g * block.pair_count
        ]
        nrows = sum(math.comb(remaining + width - 1, width - 1) for _, remaining in blocks)
        if nrows * len(columns) > SIZE_LIMIT:
            raise SizeLimitError(
                f"{nrows} rows x {len(columns)} columns exceeds the limit {SIZE_LIMIT}"
            )
        space = IntRowSpace(len(columns))
        for block, remaining in blocks:
            block_mono = Monomial.make(self.ground, 1, dict.fromkeys(block.pairs, 2 * self.g))
            # binomial expansion of a unit monomial: the coefficients are integers
            generator = [(vec, int(c)) for vec, c in self._base_terms(block_mono.as_poly())]
            for shift in iter_compositions(remaining, width):
                if space.rank == len(columns):
                    return space  # already full
                row = [0] * len(columns)
                for vec, c in generator:
                    row[columns[tuple(map(operator.add, vec, shift))]] = c
                space.add(row)
        return space

    @property
    def dim(self) -> int:
        return self._space.rank

    def contains(self, p: Polynomial) -> bool:
        """Membership of a homogeneous degree-d polynomial in the ideal slice."""
        if p.ground != self.ground:
            raise PreconditionError("polynomial ground set differs from the slice ground set")
        if p.is_zero:
            return True
        if not p.is_homogeneous() or p.degree != self.degree:
            raise PreconditionError(f"expected a homogeneous polynomial of degree {self.degree}")
        _, columns = self._layout
        row = [Fraction(0)] * len(columns)
        for vec, c in self._base_terms(p):
            row[columns[vec]] = c
        return self._space.contains(_integer_row(row))


def block_ideal_slice(ground: IndexSet, g: int, d: int) -> BlockIdealSlice:
    _require_scope(ground, g, d)
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
    rows = []
    for d in degrees:
        slice_ = block_ideal_slice(ground, g, d)
        dim_ring = dim_ring_graded(len(ground), d)
        rows.append((d, dim_ring, slice_.dim, dim_ring - slice_.dim))
    return GradedReport(ground, g, tuple(rows))
