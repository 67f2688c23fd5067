"""Graded dimensions of the relation ring and its block-monomial ideal.

Degree-d classes of the quotient ring form a space of dimension equal to the
number of degree-d monomials in the n-1 base variables.  The ideal generated
by the block monomials prod_{(i,j) in B} x[i,j]^(2g) is spanned in degree d
by normal forms of monomial multiples of those generators; its dimension is
computed as an exact integer matrix rank, with no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .combinatorics import _require_g, enumerate_blocks, iter_compositions
from .errors import PreconditionError, SizeLimitError
from .ring import (
    IndexSet,
    Polynomial,
    _base_positions,
    _expand_monomial,
    normal_form,
)

SIZE_LIMIT = 100_000


def dim_ring_graded(n: int, d: int) -> int:
    """Dimension of the degree-d slice of the quotient ring over n labels."""
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"need at least 2 labels, got n={n!r}")
    if not isinstance(d, int) or d < 0:
        raise PreconditionError(f"degree must be a nonnegative integer, got {d!r}")
    return math.comb(d + n - 2, n - 2)


class IntRowSpace:
    """Row space over the integers with exact, division-free reduction.

    Stored rows form a reduced echelon basis: each has a unique pivot column,
    is zero at every other pivot column, has gcd one and positive pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Sequence[int]) -> list[int]:
        """Eliminate every pivot column from ``row`` by cross-multiplication."""
        out = list(row)
        if len(out) != self.ncols:
            raise PreconditionError(f"row has {len(out)} columns, expected {self.ncols}")
        for basis_row, col in zip(self.rows, self.pivot_cols):
            if out[col]:
                a, b = basis_row[col], out[col]
                out = [x * a - y * b for x, y in zip(out, basis_row)]
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
        reduced = self._normalize(reduced, pivot_col)
        for k, basis_row in enumerate(self.rows):
            if basis_row[pivot_col]:
                a, b = reduced[pivot_col], basis_row[pivot_col]
                updated = [x * a - y * b for x, y in zip(basis_row, reduced)]
                self.rows[k] = self._normalize(updated, self.pivot_cols[k])
        at = next((k for k, c in enumerate(self.pivot_cols) if c > pivot_col), len(self.rows))
        self.rows.insert(at, reduced)
        self.pivot_cols.insert(at, pivot_col)
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return not any(self.reduce(row))


def _integer_row(values: Iterable[Fraction]) -> list[int]:
    values = list(values)
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    return [int(v * scale) for v in values]


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
        base, *_ = self.ground.elements
        others, pos = _base_positions(self.ground, base)
        columns = {comp: k for k, comp in enumerate(iter_compositions(self.degree, len(others)))}
        return base, others, pos, columns

    @cached_property
    def _space(self) -> IntRowSpace:
        base, others, pos, columns = self._layout
        labels = self.ground.elements
        all_pairs = [(i, j) for i in labels for j in labels if i != j]
        blocks = enumerate_blocks(self.ground)
        planned = 0
        for block in blocks:
            remaining = self.degree - 2 * self.g * block.pair_count
            if remaining >= 0:
                planned += math.comb(remaining + len(all_pairs) - 1, len(all_pairs) - 1)
        if planned > SIZE_LIMIT or len(columns) > SIZE_LIMIT:
            raise SizeLimitError(
                f"spanning set of size {planned} exceeds the limit {SIZE_LIMIT}"
            )
        space = IntRowSpace(len(columns))
        width = len(others)
        for block in blocks:
            remaining = self.degree - 2 * self.g * block.pair_count
            if remaining < 0:
                continue
            block_exps = {pair: 2 * self.g for pair in block.pairs}
            for comp in iter_compositions(remaining, len(all_pairs)):
                if space.rank == len(columns):
                    return space  # already full
                exps: dict = dict(block_exps)
                for pair, e in zip(all_pairs, comp):
                    if e:
                        exps[pair] = exps.get(pair, 0) + e
                dense: dict[tuple[int, ...], Fraction] = {}
                _expand_monomial(Fraction(1), tuple(sorted(exps.items())), base, pos, width, dense)
                space.add(self._vector_from_dense(dense))
        return space

    def _vector_from_dense(self, dense) -> list[int]:
        _, _, _, columns = self._layout
        row = [Fraction(0)] * len(columns)
        for vec, c in dense.items():
            row[columns[vec]] = c
        return _integer_row(row)

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
        base, others, pos, columns = self._layout
        dense: dict[tuple[int, ...], Fraction] = {}
        for t in normal_form(p).terms:
            vec = [0] * len(others)
            for (_, j), e in t.exps:
                vec[pos[j]] = e
            dense[tuple(vec)] = t.coeff
        return self._space.contains(self._vector_from_dense(dense))


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
