"""Blocks, pivot selection, splits, and the lemma suites."""

import random

import pytest

from blockcert import (
    Block,
    IndexSet,
    Monomial,
    PreconditionError,
    SizeLimitError,
    enumerate_blocks,
    pivot_lemma_check,
    split_lemma_check,
    vanishing_bound,
)
from blockcert import combinatorics
from blockcert.combinatorics import (
    _degree_avoiding,
    branch_of_split,
    iter_compositions,
    sample_composition,
    select_pivot,
    split_at,
)
from helpers import random_monomial, standard_ground

X3 = IndexSet((1, 2, 3))
X4 = IndexSet((1, 2, 3, 4))


# -- blocks -------------------------------------------------------------------

def test_block_validation():
    b = Block(X3, (1, 3))
    assert b.right == (2,)
    assert b.pairs == ((1, 2), (3, 2))
    assert b.pair_count == 2
    assert b.transpose() == Block(X3, (2,))
    with pytest.raises(PreconditionError):
        Block(X3, ())
    with pytest.raises(PreconditionError):
        Block(X3, (1, 2, 3))
    with pytest.raises(PreconditionError):
        Block(X3, (3, 1))
    with pytest.raises(PreconditionError):
        Block(X3, (4,))
    # labels follow IndexSet's rule: ints only, so True is not read as label 1
    for left in ((True,), (1.0,), (1, 2.0)):
        with pytest.raises(PreconditionError):
            Block(X3, left)


def test_enumerate_blocks_order_and_counts():
    two = enumerate_blocks(IndexSet((1, 2)))
    assert [b.left for b in two] == [(1,), (2,)]
    assert len(enumerate_blocks(X3)) == 6
    assert len(enumerate_blocks(X4)) == 14
    # each block partitions the ground set
    for b in enumerate_blocks(X4):
        assert sorted(b.left + b.right) == list(X4)
    # deterministic
    assert enumerate_blocks(X4) == enumerate_blocks(X4)


# -- pivot selection -----------------------------------------------------------

# select_pivot compares against the bound of one label fewer: 4 for three labels at g = 2
REST_BOUND = vanishing_bound(2, 2)


def test_select_pivot_examples():
    assert select_pivot(Monomial.make(X3, 1, {(1, 2): 11}), REST_BOUND) == 3
    assert select_pivot(Monomial.make(X3, 1, {(1, 2): 4, (1, 3): 4, (2, 3): 3}), REST_BOUND) == 2


def test_select_pivot_counts_both_orientations():
    # avoiding 3 leaves x[1,2]^4 * x[2,1]^3, degree 7; avoiding 1 or 2 leaves degree 2
    m = Monomial.make(X3, 1, {(1, 2): 4, (2, 1): 3, (2, 3): 2, (3, 1): 2})
    assert [_degree_avoiding(m, z) for z in X3] == [2, 2, 7]
    assert select_pivot(m, REST_BOUND) == 3
    # 3 + 2 on the pair {1,2} reaches the bound 4 only with both orientations counted
    m = Monomial.make(X3, 1, {(1, 2): 3, (1, 3): 3, (2, 1): 2, (2, 3): 3})
    assert select_pivot(m, REST_BOUND) == 3


def test_pivot_lemma_exhaustive_small():
    # every table with total exactly n(n-1)g - n + 2 admits a qualifying pivot
    for g in (2, 3):
        checked, failures = pivot_lemma_check(X3, g)
        assert failures == []
        total = 3 * 2 * g - 3 + 2
        assert checked == (total + 2) * (total + 1) // 2
    checked, failures = pivot_lemma_check(X4, 2)
    assert failures == [] and checked == 80730


def test_pivot_lemma_sampled_n4_g3():
    checked, failures = pivot_lemma_check(X4, 3, samples=2000, seed=9)
    assert failures == [] and checked == 2000


# -- splitting at a pivot --------------------------------------------------------

def test_split_at_examples():
    m = Monomial.make(X3, 1, {(1, 2): 4, (2, 1): 3, (2, 3): 2, (3, 1): 2})
    touching, rest = split_at(m, 3)
    assert touching == Monomial.make(X3, 1, {(2, 3): 2, (3, 1): 2}).exps
    assert rest == Monomial.make(X3, 1, {(1, 2): 4, (2, 1): 3}).exps
    # the coefficient is dropped; nothing touches a pivot the monomial avoids
    m = Monomial.make(X3, -5, {(1, 2): 1})
    touching, rest = split_at(m, 3)
    assert touching == ()
    assert rest == Monomial.make(X3, 1, {(1, 2): 1}).exps


def test_split_at_reconstructs():
    rng = random.Random(3)
    for _ in range(100):
        ground = standard_ground(rng.randint(2, 5))
        m = random_monomial(rng, ground, rng.randint(0, 8))
        pivot = rng.choice(list(ground))
        touching, rest = split_at(m, pivot)
        assert Monomial(ground, m.coeff, touching) * Monomial(ground, 1, rest) == m
        assert all(pivot in pair for pair, _ in touching)
        assert all(pivot not in pair for pair, _ in rest)


# -- branch choice ----------------------------------------------------------------

def test_branch_of_split_examples():
    # degree 7 = threshold for n=3, g=2, h=w=1; left side misses its bound of 4
    outer = Block(IndexSet((2, 3)), (2,))
    bounds = vanishing_bound(2, 2), vanishing_bound(2, 2)
    m = Monomial.make(X3, 1, {(1, 2): 3, (1, 3): 4})
    assert branch_of_split(m, outer, *bounds) == ("W", (((1, 3), 4),), (((1, 2), 3),))
    # everything on the left side
    m = Monomial.make(X3, 1, {(1, 2): 7})
    assert branch_of_split(m, outer, *bounds) == ("H", (((1, 2), 7),), ())
    # ties prefer H: 4 on the left meets the bound even with 3 on the right
    m = Monomial.make(X3, 1, {(1, 2): 4, (1, 3): 3})
    assert branch_of_split(m, outer, *bounds)[0] == "H"


def test_branch_of_split_partitions_the_factors():
    # the chosen and spare factors split exps, and the chosen ones reach the bound of side + pivot
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 5)
        ground = standard_ground(n)
        g = rng.choice((2, 3))
        pivot = rng.choice(list(ground))
        others = [lab for lab in ground if lab != pivot]
        rng.shuffle(others)
        h = rng.randint(1, n - 2)
        outer = Block(ground.without(pivot), tuple(sorted(others[:h])))
        required = vanishing_bound(n, g) - 2 * g * h * (n - 1 - h)
        degree = required + rng.randint(0, 3)
        spread = sample_composition(degree, n - 1, rng)
        m = Monomial.make(ground, 1, {(pivot, j): e for j, e in zip(sorted(others), spread)})
        side, chosen, spare = branch_of_split(m, outer, vanishing_bound(h + 1, g),
                                              vanishing_bound(n - h, g))
        assert tuple(sorted(chosen + spare)) == m.exps
        part = outer.left if side == "H" else outer.right
        assert all(j in part for (_, j), _ in chosen)
        assert all(j not in part for (_, j), _ in spare)
        assert sum(e for _, e in chosen) >= vanishing_bound(len(part) + 1, g)


def test_split_lemma_exhaustive():
    # the dichotomy holds at the exact threshold for 3 to 6 labels
    for n in range(3, 7):
        for g in (2, 3):
            checked, failures = split_lemma_check(standard_ground(n), g)
            assert failures == []
            assert checked > 0


@pytest.mark.parametrize("n", range(3, 13))
def test_split_dichotomy_is_an_identity_in_g(n):
    # The threshold is the two side bounds minus one, so a + b at the threshold puts
    # a at the left bound or b at the right bound: pigeonhole, with zero slack.  Both
    # sides are linear in g, so agreeing at two values of g they agree at every g.
    for g in (2, 3):
        for h in range(1, n - 1):
            w = n - 1 - h
            threshold = n * (n - 1) * g - n + 2 - 2 * g * h * w
            assert threshold == vanishing_bound(n, g) - 2 * g * h * w
            assert vanishing_bound(h + 1, g) == g * h * (h + 1) - h + 1
            assert threshold == vanishing_bound(h + 1, g) + vanishing_bound(w + 1, g) - 1


@pytest.mark.parametrize("n", range(3, 13))
def test_pivot_lemma_is_an_identity_in_g(n):
    # Each pair avoids n - 2 labels, so the degrees avoiding each label sum to
    # (n - 2) * deg, and some label keeps at least ceil((n - 2) * deg / n) on the
    # other pairs.  At deg = bound(n, g) the g terms of that ceiling are integers,
    # so its excess over bound(n - 1, g) is the same at every g: checked at two.
    mono = random_monomial(random.Random(n), standard_ground(n), vanishing_bound(n, 2))
    assert sum(_degree_avoiding(mono, z) for z in mono.ground) == (n - 2) * mono.degree
    for g in (2, 3):
        kept = -(-(n - 2) * vanishing_bound(n, g) // n)
        assert kept - vanishing_bound(n - 1, g) == (0 if n <= 4 else 1)


def test_lemma_checks_count_cases_before_running(monkeypatch):
    # n = 3, g = 2: 78 compositions of 11 into 3 slots, 8 splits of 7, or the sample count
    monkeypatch.setattr(combinatorics, "LEMMA_CASE_LIMIT", 78)
    assert pivot_lemma_check(X3, 2) == (78, [])
    monkeypatch.setattr(combinatorics, "LEMMA_CASE_LIMIT", 77)
    with pytest.raises(SizeLimitError, match="78 cases, above the limit 77"):
        pivot_lemma_check(X3, 2)
    monkeypatch.setattr(combinatorics, "LEMMA_CASE_LIMIT", 8)
    assert split_lemma_check(X3, 2) == (8, [])
    assert pivot_lemma_check(X3, 2, samples=8, seed=1) == (8, [])
    monkeypatch.setattr(combinatorics, "LEMMA_CASE_LIMIT", 7)
    with pytest.raises(SizeLimitError, match="8 cases, above the limit 7"):
        split_lemma_check(X3, 2)
    with pytest.raises(SizeLimitError, match="8 cases, above the limit 7"):
        pivot_lemma_check(X3, 2, samples=8, seed=1)


def test_pivot_lemma_check_refuses_non_int_samples_and_seed():
    # exactly int: a float would fail in range() and True would run one sample
    for kwargs in ({"samples": 1.5}, {"samples": True}, {"samples": "8"},
                   {"samples": 8, "seed": 1.0}, {"samples": 8, "seed": False}, {"seed": None}):
        with pytest.raises(PreconditionError, match="must be an integer"):
            pivot_lemma_check(X3, 2, **kwargs)
    with pytest.raises(PreconditionError, match="nonnegative"):
        pivot_lemma_check(X3, 2, samples=-1)


def test_split_lemma_reports_each_failing_case(monkeypatch):
    # the check runs branch_of_split itself, so a RuntimeError there is a failing case
    real = combinatorics.branch_of_split

    def fails_once(mono, outer, left_bound, right_bound):
        if mono.exps == (((1, 2), 3), ((1, 3), 4)):
            raise RuntimeError("neither side reaches its bound")
        return real(mono, outer, left_bound, right_bound)

    monkeypatch.setattr(combinatorics, "branch_of_split", fails_once)
    # n = 3, g = 2: h = w = 1 and a + b = 7, so 8 cases
    assert split_lemma_check(X3, 2) == (8, [(1, 1, 3, 4)])


# -- composition helpers -----------------------------------------------------------

def test_iter_compositions():
    comps = list(iter_compositions(3, 2))
    assert comps == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(list(iter_compositions(5, 3))) == 21
    assert all(sum(c) == 5 for c in iter_compositions(5, 3))


def test_sample_composition_uniform_support():
    rng = random.Random(17)
    seen = set()
    for _ in range(2000):
        c = sample_composition(3, 2, rng)
        assert sum(c) == 3 and len(c) == 2 and min(c) >= 0
        seen.add(c)
    assert seen == {(3, 0), (2, 1), (1, 2), (0, 3)}
