"""Blocks of a ground set, pivot selection, monomial splits, and the lemma checks.

A block is an ordered bipartition (left, right) of the ground set; its pairs
are left x right.  The decomposition driver picks a pivot label whose removal
keeps enough degree among the remaining labels, splits monomials accordingly,
and routes base-variable monomials to one side of a block by a two-sided
degree dichotomy.  Everything here is deterministic and exact.

``Block``, ``enumerate_blocks``, ``vanishing_bound`` and the lemma checks are
exported and check their arguments.  The steps ``select_pivot``, ``split_at``
and ``branch_of_split`` and the composition helpers trust theirs: only the
recursion and the lemma checks call them, with values built from checked
parts.  A step still raises RuntimeError on an internal consistency failure,
which the lemma checks count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import PreconditionError, SizeLimitError
from .ring import Exponents, IndexSet, Label, Monomial, Pair, _Q1, _trusted


def _require_g(g: int) -> None:
    if not isinstance(g, int) or g < 2:
        raise PreconditionError(f"parameter g must be an integer >= 2, got {g!r}")


def vanishing_bound(n: int, g: int) -> int:
    """Degree threshold n(n-1)g - n + 2 above which every class decomposes."""
    _require_g(g)
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"need at least 2 labels, got n={n!r}")
    return n * (n - 1) * g - n + 2


@dataclass(frozen=True)
class Block:
    """Ordered bipartition of a ground set; ``left`` is a proper nonempty subset."""

    ground: IndexSet
    left: tuple[Label, ...]

    def __post_init__(self):
        left = IndexSet(tuple(self.left)).elements  # integer labels, strictly ascending
        object.__setattr__(self, "left", left)
        if not left or len(left) >= len(self.ground):
            raise PreconditionError(f"left part must be a proper nonempty subset, got {left}")
        for lab in left:
            if lab not in self.ground:
                raise PreconditionError(f"label {lab} not in ground set {self.ground.elements}")

    @property
    def right(self) -> tuple[Label, ...]:
        return tuple(lab for lab in self.ground if lab not in self.left)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        right = self.right
        return tuple((i, j) for i in self.left for j in right)

    @property
    def pair_count(self) -> int:
        return len(self.left) * (len(self.ground) - len(self.left))

    def transpose(self) -> "Block":
        return _trusted(Block, ground=self.ground, left=self.right)


def enumerate_blocks(ground: IndexSet) -> list[Block]:
    """All 2^n - 2 blocks, left parts listed in binary subset order."""
    labels = ground.elements
    n = len(labels)
    if n < 2:
        raise PreconditionError(f"block enumeration needs at least 2 labels, got {labels}")
    out = []
    for mask in range(1, (1 << n) - 1):
        left = tuple(labels[k] for k in range(n) if mask >> k & 1)
        out.append(Block(ground, left))
    return out


def _degree_avoiding(mono: Monomial, label: Label) -> int:
    """Degree of ``mono`` on the variables x[i,j] and x[j,i] with i, j != ``label``."""
    return sum(e for pair, e in mono.exps if label not in pair)


def select_pivot(mono: Monomial, required_rest: int) -> Label:
    """Smallest label whose removal keeps enough degree on the other pairs.

    ``required_rest`` is ``vanishing_bound(n - 1, g)`` for the n labels of
    ``mono``.  With deg(mono) >= n(n-1)g - n + 2, some label z leaves degree
    >= (n-1)(n-2)g - n + 3 on the variables that avoid it, both orientations
    of a pair counted; the smallest such z is returned.
    """
    for z in mono.ground:
        if _degree_avoiding(mono, z) >= required_rest:
            return z
    raise RuntimeError("internal consistency failure: no qualifying pivot exists")


def split_at(mono: Monomial, pivot: Label) -> tuple[Monomial, Monomial]:
    """Factor a monomial as (touching, rest) across a pivot label.

    ``touching`` collects every factor x[i,pivot] or x[pivot,j] and carries the
    coefficient; ``rest`` has coefficient one.  Their product is ``mono``.
    """
    touching = tuple(item for item in mono.exps if pivot in item[0])
    rest = tuple(item for item in mono.exps if pivot not in item[0])
    return (
        _trusted(Monomial, ground=mono.ground, coeff=mono.coeff, exps=touching),
        _trusted(Monomial, ground=mono.ground, coeff=_Q1, exps=rest),
    )


class BranchChoice(NamedTuple):
    side: str  # "H" routes to the left part, "W" to the right part
    chosen: Exponents  # the factors x[pivot,j] with j on that side
    spare: Exponents  # the other factors


def branch_of_split(mono: Monomial, outer: Block, left_bound: int, right_bound: int) -> BranchChoice:
    """Route a base-variable monomial to one side of the outer block.

    ``outer`` must be a block of the ground set of ``mono`` minus one label,
    the pivot, and ``mono`` must use variables x[pivot,j] only.  With h and w
    the sizes of the outer left and right parts, ``left_bound`` is
    ``vanishing_bound(h + 1, g)`` = g*h*(h+1) - h + 1 and ``right_bound`` is
    ``vanishing_bound(w + 1, g)``.  Whenever deg >= n(n-1)g - n + 2 - 2g*h*w,
    the left total reaches ``left_bound`` ("H") or the right total reaches
    ``right_bound`` ("W").  Ties prefer H.  Returns the side with the factors
    of ``mono`` on it, whose degree reaches that side's bound, and the spare
    factors.
    """
    left = outer.left
    on_left, on_right = [], []
    left_degree = right_degree = 0
    for item in mono.exps:
        (_, j), e = item
        if j in left:
            on_left.append(item)
            left_degree += e
        else:
            on_right.append(item)
            right_degree += e
    if left_degree >= left_bound:
        return BranchChoice("H", tuple(on_left), tuple(on_right))
    if right_degree < right_bound:
        raise RuntimeError("internal consistency failure: neither side reaches its bound")
    return BranchChoice("W", tuple(on_right), tuple(on_left))


def iter_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``.

    Deterministic order: first coordinate descending, then recursively.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in iter_compositions(total - head, parts - 1):
            yield (head,) + tail


def sample_composition(total: int, parts: int, rng: random.Random) -> tuple[int, ...]:
    """One composition drawn uniformly from all of them (stars and bars)."""
    if parts == 1:
        return (total,)
    slots = total + parts - 1
    bars = sorted(rng.sample(range(slots), parts - 1))
    out = []
    prev = -1
    for b in bars:
        out.append(b - prev - 1)
        prev = b
    out.append(slots - prev - 1)
    return tuple(out)


# Most cases one lemma check runs; either check counts its cases before it
# runs any and raises SizeLimitError above this.  A pivot case takes about
# 10 us and a split case about 7 us, so the limit is about 10 s of work; it
# keeps n = 4, g = 3 exhaustive (575,757 pivot cases).
LEMMA_CASE_LIMIT = 1_000_000


def _require_case_count(cases: int) -> None:
    if cases > LEMMA_CASE_LIMIT:
        raise SizeLimitError(f"{cases} cases, above the limit {LEMMA_CASE_LIMIT} for a lemma check")


def pivot_lemma_check(ground: IndexSet, g: int, samples: int = 0,
                      seed: int = 0) -> tuple[int, list[tuple[int, ...]]]:
    """Run ``select_pivot`` on monomials of degree exactly n(n-1)g - n + 2.

    Each composition of that degree into the 2-subset slots {i,j}, i < j, is
    the monomial with exponent c on x[i,j]; the check runs over all of them,
    or over ``samples`` uniform draws when ``samples`` > 0.  It raises
    PreconditionError for ``samples`` < 0 and SizeLimitError above
    LEMMA_CASE_LIMIT cases.  A composition fails when ``select_pivot`` raises
    RuntimeError.  Returns (checked, failing compositions); the second entry
    should always be empty.
    """
    _require_g(g)
    n = len(ground)
    if n < 3:
        raise PreconditionError(f"pivot check needs at least 3 labels, got {n}")
    labels = ground.elements
    keys = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)]
    total = vanishing_bound(n, g)
    if samples < 0:
        raise PreconditionError(f"sample count must be nonnegative, got {samples}")
    if samples > 0:
        _require_case_count(samples)
        rng = random.Random(seed)
        source: Iterable[tuple[int, ...]] = (
            sample_composition(total, len(keys), rng) for _ in range(samples)
        )
    else:
        _require_case_count(math.comb(total + len(keys) - 1, len(keys) - 1))
        source = iter_compositions(total, len(keys))
    required_rest = vanishing_bound(n - 1, g)
    checked = 0
    failures = []
    for comp in source:
        checked += 1
        # the keys ascend and zero counts are dropped, so the exponents are valid
        exps = tuple((key, c) for key, c in zip(keys, comp) if c)
        try:
            select_pivot(_trusted(Monomial, ground=ground, coeff=_Q1, exps=exps), required_rest)
        except RuntimeError:
            failures.append(comp)
    return checked, failures


def split_lemma_check(ground: IndexSet, g: int) -> tuple[int, list[tuple[int, ...]]]:
    """Run ``branch_of_split`` on the two-sided degree dichotomy at the exact threshold.

    For every bipartition size (h, w) of the n-1 labels other than the first
    and every split (a, b) with a + b = n(n-1)g - n + 2 - 2g*w*h, the monomial
    with a on one left label and b on one right label must reach
    g*h*(h+1) - h + 1 on the left or g*w*(w+1) - w + 1 on the right; a case
    fails when ``branch_of_split`` raises RuntimeError.  Raises SizeLimitError
    above LEMMA_CASE_LIMIT cases.  Returns (checked, failing (h, w, a, b)
    tuples).
    """
    _require_g(g)
    n = len(ground)
    if n < 3:
        raise PreconditionError(f"split check needs at least 3 labels, got {n}")
    pivot = ground.min()
    rest = ground.without(pivot)
    thresholds = {h: vanishing_bound(n, g) - 2 * g * (n - 1 - h) * h for h in range(1, n - 1)}
    _require_case_count(sum(threshold + 1 for threshold in thresholds.values()))
    checked = 0
    failures = []
    for h, threshold in thresholds.items():
        w = n - 1 - h
        bounds = vanishing_bound(h + 1, g), vanishing_bound(w + 1, g)
        outer = _trusted(Block, ground=rest, left=rest.elements[:h])
        on_left, on_right = (pivot, rest.elements[0]), (pivot, rest.elements[h])
        for a in range(threshold + 1):
            b = threshold - a
            checked += 1
            # the keys ascend and zero counts are dropped, so the exponents are valid
            exps = tuple((key, c) for key, c in ((on_left, a), (on_right, b)) if c)
            try:
                branch_of_split(_trusted(Monomial, ground=ground, coeff=_Q1, exps=exps), outer, *bounds)
            except RuntimeError:
                failures.append((h, w, a, b))
    return checked, failures
