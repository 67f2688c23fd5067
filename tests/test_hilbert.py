"""Exact graded dimensions and the integer row-space engine."""

from fractions import Fraction
import random

import pytest

from blockcert import (
    BlockIdealSlice,
    IndexSet,
    Monomial,
    Polynomial,
    PreconditionError,
    SizeLimitError,
    block_ideal_slice,
    decompose,
    dim_quotient_graded,
    dim_ring_graded,
    graded_report,
    normal_form,
    vanishing_bound,
    verify_certificate,
)
from blockcert import hilbert
from blockcert.combinatorics import sample_composition
from blockcert.hilbert import IntRowSpace
from helpers import ordered_pairs, standard_ground

X2 = IndexSet((1, 2))
X3 = IndexSet((1, 2, 3))
X4 = IndexSet((1, 2, 3, 4))


# -- row space engine ---------------------------------------------------------

def test_int_row_space_basics():
    space = IntRowSpace(3)
    assert space.add([2, 4, 6])
    assert not space.add([1, 2, 3])
    assert space.add([0, 0, 5])
    assert space.rank == 2
    assert space.contains([3, 6, 14])
    assert not space.contains([0, 1, 0])


def _rational_rank(matrix, ncols):
    """Plain rational Gaussian elimination, as an oracle independent of IntRowSpace."""
    work = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] / work[rank][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_int_row_space_matches_rational_rank():
    rng = random.Random(31)

    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        space = IntRowSpace(ncols)
        for row in matrix:
            space.add(row)
        assert space.rank == _rational_rank(matrix, ncols)
        combination = [0] * ncols
        for row in matrix:
            weight = rng.randint(-3, 3)
            combination = [c + weight * x for c, x in zip(combination, row)]
        assert space.contains(combination)

    # rows whose leading entry falls strictly between two stored pivots are
    # outside the span, and adding them keeps the rank exact
    checked = 0
    for _ in range(60):
        ncols = rng.randint(4, 8)
        matrix = []
        space = IntRowSpace(ncols)
        for _ in range(rng.randint(2, 4)):
            zeros = rng.randrange(ncols)
            row = [0] * zeros + [rng.randint(-4, 4) for _ in range(ncols - zeros)]
            matrix.append(row)
            space.add(row)
        gaps = [
            c
            for lo, hi in zip(space.pivot_cols, space.pivot_cols[1:])
            for c in range(lo + 1, hi)
        ]
        if not gaps:
            continue
        lead = rng.choice(gaps)
        row = [0] * lead + [rng.choice([-3, -2, -1, 1, 2, 3])]
        row += [rng.randint(-4, 4) for _ in range(ncols - lead - 1)]
        assert not space.contains(row)
        rank = space.rank
        assert space.add(row)
        matrix.append(row)
        assert space.rank == rank + 1 == _rational_rank(matrix, ncols)
        assert space.contains(row)
        checked += 1
    assert checked >= 10


# -- dimensions ----------------------------------------------------------------

def test_dim_ring_graded_values():
    assert dim_ring_graded(2, 5) == 1
    assert dim_ring_graded(3, 11) == 12
    assert dim_ring_graded(4, 0) == 1
    with pytest.raises(PreconditionError):
        dim_ring_graded(1, 3)
    with pytest.raises(PreconditionError):
        dim_ring_graded(3, -1)


def test_dim_quotient_examples():
    assert dim_quotient_graded(X2, 2, 4) == 0
    assert dim_quotient_graded(X2, 2, 3) == 1
    assert dim_quotient_graded(X3, 2, 11) == 0


def test_quotient_vanishes_at_and_above_bound():
    for ground, g in ((X2, 2), (X2, 3), (X3, 2)):
        bound = vanishing_bound(len(ground), g)
        for d in range(bound, bound + 3):
            assert dim_quotient_graded(ground, g, d) == 0
    assert vanishing_bound(4, 2) == 22
    for d in (22, 23):
        assert dim_quotient_graded(X4, 2, d) == 0


def test_quotient_positive_below_bound():
    assert dim_quotient_graded(X2, 3, 5) == 1
    assert dim_quotient_graded(X3, 2, 7) > 0
    # at degree 16 the packed exponent fields are 5 bits wide and one holds exactly 16
    assert dim_quotient_graded(X3, 3, 16) == 2
    # the bound is sharp at four labels: the quotient survives one degree below it
    assert dim_quotient_graded(X4, 2, 20) == 18
    assert dim_quotient_graded(X4, 2, 21) == 6


def test_scope_preconditions():
    with pytest.raises(PreconditionError):
        dim_quotient_graded(standard_ground(5), 2, 10)
    with pytest.raises(PreconditionError):
        dim_quotient_graded(X3, 4, 10)
    # the public constructor refuses what block_ideal_slice refuses, and a bool is no degree
    for ground, g, d in ((X3, 1, 5), (X3, 0, 5), (X3, True, 5), (X3, 4, 5),
                         (standard_ground(5), 2, 5), (X3, 2, -1), (X3, 2, True), (X3, 2, False)):
        with pytest.raises(PreconditionError):
            BlockIdealSlice(ground, g, d)
        with pytest.raises(PreconditionError):
            block_ideal_slice(ground, g, d)
        with pytest.raises(PreconditionError):
            graded_report(ground, g, [d])
        # the ground and g are checked before any degree, so even with none
        if d == 5:
            with pytest.raises(PreconditionError):
                graded_report(ground, g, [])
    with pytest.raises(PreconditionError, match="True"):
        graded_report(X3, 2, [True, 2])
    with pytest.raises(PreconditionError):
        dim_ring_graded(3, True)


def test_size_limit_enforced():
    with pytest.raises(SizeLimitError):
        dim_quotient_graded(standard_ground(4), 2, 40)


def test_size_limit_checked_before_columns_are_built():
    # n = 4, d = 1000 has 501,501 columns; the cap needs only their count
    query = Monomial.make(X4, 1, {(1, 2): 1000}).as_poly()
    for ask in (lambda slice_: slice_.dim, lambda slice_: slice_.contains(query)):
        slice_ = block_ideal_slice(X4, 2, 1000)
        with pytest.raises(SizeLimitError, match="rows x"):
            ask(slice_)
        assert "_layout" not in slice_.__dict__


def test_graded_report_degree_range_limit(monkeypatch):
    # counted before any slice is built: the first degree is outside the scope
    with pytest.raises(SizeLimitError, match="more than 1000 degrees"):
        graded_report(X2, 2, range(-1, 10**8))
    with pytest.raises(SizeLimitError, match="more than 1000 degrees"):
        graded_report(X2, 2, (d for d in range(-1, 10**12)))
    assert len(graded_report(X2, 2, range(1000)).rows) == 1000
    monkeypatch.setattr(hilbert, "RANGE_LIMIT", 4)
    assert len(graded_report(X3, 2, [8, 9, 10, 11]).rows) == 4
    with pytest.raises(SizeLimitError, match="more than 4 degrees"):
        graded_report(X3, 2, range(8, 13))


def test_graded_report_shape():
    # expected ranks confirmed by expanding the three distinct reduced
    # generators y2^4*y3^4, y2^4*(y3-y2)^4, y3^4*(y2-y3)^4 and row-reducing
    # their monomial multiples over the rationals with separate code
    report = graded_report(X3, 2, range(8, 13))
    assert report.rows == (
        (8, 9, 3, 6),
        (9, 10, 6, 4),
        (10, 11, 9, 2),
        (11, 12, 12, 0),
        (12, 13, 13, 0),
    )
    for _, dim_ring, dim_ideal, dim_quotient in report.rows:
        assert 0 <= dim_ideal <= dim_ring
        assert dim_quotient == dim_ring - dim_ideal


# -- cross-validation against certificates ---------------------------------------

def test_certificates_agree_with_row_space_membership():
    rng = random.Random(32)
    for ground, d in ((X3, 11), (X3, 12), (X3, 16), (X4, 22)):
        pairs = ordered_pairs(ground)
        slice_ = block_ideal_slice(ground, 2, d)
        for _ in range(10):
            comp = sample_composition(d, len(pairs), rng)
            mono = Monomial.make(ground, 1, dict(zip(pairs, comp)))
            assert verify_certificate(decompose(mono, 2))
            assert slice_.contains(mono.as_poly())


def test_slice_rejects_wrong_degree_and_ground():
    slice_ = block_ideal_slice(X3, 2, 11)
    with pytest.raises(PreconditionError):
        slice_.contains(Monomial.make(X3, 1, {(1, 2): 3}).as_poly())
    with pytest.raises(PreconditionError):
        slice_.contains(Monomial.make(X2, 1, {(1, 2): 11}).as_poly())
    # zero has no degree, and lies in every slice
    assert slice_.contains(Polynomial(X3, ()))


def test_slice_membership_below_bound_detects_nonmembers():
    # degree 7 at n=3 leaves a positive quotient, so some monomial must sit outside
    slice_ = block_ideal_slice(X3, 2, 7)
    outside = [
        mono for comp in [(7, 0, 0, 0, 0, 0), (3, 2, 1, 1, 0, 0), (1, 1, 2, 1, 1, 1)]
        for mono in [Monomial.make(X3, 1, dict(zip(ordered_pairs(X3), comp)))]
        if not slice_.contains(mono.as_poly())
    ]
    assert outside  # the quotient is nonzero in degree 7
    for mono in outside:
        assert not normal_form(mono.as_poly()).is_zero
