"""Constructive block-monomial membership certificates and their verifier.

For a ground set of n labels and g >= 2, every monomial of degree at least
n(n-1)g - n + 2 is congruent, modulo the pair relations, to a sum
sum_B psi_B * prod_{(i,j) in B} x[i,j]^(2g) over blocks B.  ``decompose``
builds such a certificate recursively; ``verify_certificate`` checks it using
nothing but normal forms, so the two sides act as independent witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

from . import ring  # normal_form is looked up on the module, where perfbench/tracing.py wraps it
from .combinatorics import (
    Block,
    branch_of_split,
    select_pivot,
    split_at,
    vanishing_bound,
)
from .errors import MalformedCertificateError, PreconditionError, SizeLimitError
from .ring import (
    EXPANSION_LIMIT,
    Exponents,
    IndexSet,
    Label,
    Monomial,
    Pair,
    Polynomial,
    _Q1,
    _common_denominator,
    _keys_for,
    _merge_exps,
    _sorted_poly,
    _trusted,
    rewrite_to_base,
)


@dataclass(frozen=True)
class CertificateEntry:
    block: Block
    cofactor: Polynomial


@dataclass(frozen=True)
class Certificate:
    """Claim that ``input`` equals sum of cofactor * block-monomial terms mod relations."""

    ground: IndexSet
    g: int
    input: Monomial
    entries: tuple[CertificateEntry, ...]

    def __post_init__(self):
        if not isinstance(self.g, int) or self.g < 2:
            raise MalformedCertificateError(f"parameter g must be an integer >= 2, got {self.g!r}")
        if not isinstance(self.input, Monomial) or self.input.ground != self.ground:
            raise MalformedCertificateError("input must be a monomial over the certificate ground set")
        seen = set()
        for entry in self.entries:
            if not isinstance(entry, CertificateEntry):
                raise MalformedCertificateError("entries must be CertificateEntry values")
            if entry.block.ground != self.ground or entry.cofactor.ground != self.ground:
                raise MalformedCertificateError("entry ground set differs from certificate ground set")
            if entry.block.left in seen:
                raise MalformedCertificateError(f"duplicate entry for block with left part {entry.block.left}")
            seen.add(entry.block.left)


# Most labels ``decompose`` accepts.  It bounds the label count, not the time;
# CALL_LIMIT bounds the work.  The recursion runs on the entries of the
# unit-coefficient monomial, with integer coefficients, so the time depends on
# how the degree is spread over the pairs and not on the input coefficient.
LABEL_LIMIT = 5

# Most sub-problems one ``decompose`` solves, memo hits and two-label closed
# forms (in place or by a ``_solve`` call) included.  At n = 5, g = 2 and the
# bound, with the memo, x[1,2]^8*x[2,3]^8*x[3,4]^7*x[4,5]^7*x[5,1]^7 takes
# 23,660 items; 48 seeded random monomials there take 928 to 389,094, with a
# median near 31,600; and x[1,2]^37, the most measured, takes 1,197,599.
CALL_LIMIT = 5_000_000

Entries = dict[tuple[Label, ...], dict[Exponents, int]]  # left part -> cofactor terms
Memo = dict[tuple[tuple[Label, ...], Exponents], Entries]  # (labels, exponents) -> entries
# (labels, pivot, outer left) -> (branch, inner left) -> (merged left, leftover pairs^m)
Joins = dict[tuple, dict[tuple[str, tuple[Label, ...]], tuple[tuple[Label, ...], Exponents]]]


class _Recursion(NamedTuple):
    """What one ``decompose`` call shares across its recursion; it dies with the call."""

    m: int  # the block exponent 2g
    bounds: dict[int, int]  # label count k -> vanishing_bound(k, g), for 2 <= k < n
    budget: Iterator[int]  # the work budget: CALL_LIMIT items, one per sub-problem
    memo: Memo
    joins: Joins

    @classmethod
    def start(cls, n: int, g: int) -> "_Recursion":
        return cls(2 * g, {k: vanishing_bound(k, g) for k in range(2, n)}, iter(range(CALL_LIMIT)), {}, {})


def _two_label_term(labels: tuple[Label, ...], exps: Exponents, m: int) -> tuple[tuple[Label], Exponents, int]:
    """Closed form over two labels u < v: x[u,v]^a * x[v,u]^b with a+b >= m = 2g
    becomes (-1)^b * x[u,v]^(a+b-m) on the block {u} x {v}, returned as the left
    part (u,), the exponents and the sign.  ``exps`` holds only those two pairs,
    and the coefficient is left to the caller.  ``decompose``'s bound check (at
    the top level) and the pivot and routing rules (below it) guarantee a+b >= m."""
    u, v = labels
    residual, b = -m, 0
    for (i, _), e in exps:
        residual += e
        if i != u:
            b = e
    return (u,), (((u, v), residual),) if residual else (), -1 if b & 1 else 1


def merge_blocks(outer: Block, inner: Block, ground: IndexSet,
                 branch: str) -> tuple[Block, tuple[Pair, ...]]:
    """Combine an outer block (pivot removed) with an inner block (pivot present).

    ``outer`` = L x R partitions ground minus a pivot z; ``inner`` partitions
    L + {z} on branch "H" or R + {z} on branch "W", and is transposed if needed
    so that z sits in its right part (H) or left part (W).  On H the inner
    block A x (B + z) merges into A x (R + B + z), leaving B x R over; on W the
    inner block (C + z) x D merges into (L + C + z) x D, leaving L x C over.
    Returns the merged block over the full ground set and the leftover pairs
    in ascending order.  The shapes are not checked: ``_solve`` builds them.
    """
    (pivot,) = set(inner.ground) - set(outer.ground)
    if branch == "H":
        if pivot in inner.left:
            inner = inner.transpose()
        merged_left = inner.left
        leftover = tuple(product((b for b in inner.right if b != pivot), outer.right))
    else:
        if pivot in inner.right:
            inner = inner.transpose()
        inner_right = set(inner.right)
        merged_left = tuple(lab for lab in ground if lab not in inner_right)
        leftover = tuple(product(outer.left, (c for c in inner.left if c != pivot)))
    # valid by the shapes above: inner.left (H) is nonempty and lacks the pivot; the
    # complement of inner.right (W) holds the pivot and misses the nonempty inner.right
    return _trusted(Block, ground=ground, left=merged_left), leftover


def _join(known: dict, side: str, inner_left: tuple, outer: Block, sub: IndexSet, ground: IndexSet, m: int) -> tuple:
    """Store and return ``_solve``'s join of a new block pair: merged left part and leftover pairs^m."""
    merged, leftover = merge_blocks(outer, _trusted(Block, ground=sub, left=inner_left), ground, side)
    return known.setdefault((side, inner_left), (merged.right if ground.elements[0] in merged.left else merged.left,
                                                 tuple((pair, m) for pair in leftover)))


def _solve(ground: IndexSet, exps: Exponents, run: _Recursion) -> Entries:
    """Nonzero certificate entries of the unit-coefficient monomial with
    ``exps`` over ``ground``, with integer terms over that ground set.

    Takes one item of ``run.budget``, shared by the whole recursion; an empty
    budget raises StopIteration, which ``decompose`` reports as
    SizeLimitError.  The recursion is linear in the coefficient, so it runs on
    unit-coefficient monomials, where every binomial, sign and closed form is
    an integer, and ``decompose`` applies the input's coefficient once.  Two
    labels are solved by their closed form, ``_two_label_term``.  Over three
    or more labels, each entry over the ground set minus the pivot is lifted
    in one pass: each term of its cofactor, times the pivot's pairs, is
    rewritten to the pivot's variables and each of those terms is routed to
    one side.  A side of two labels is solved in place, with no call: it takes
    its budget item and adds one term, from ``_two_label_term`` on the single
    chosen factor.  A larger side is solved by a call and adds each inner
    cofactor term.  Every term added into its merged block's entry carries
    the spare factors, the join's leftover pairs^m and the integer
    coefficient.  Zero sums are dropped at return.

    ``run`` lives for one ``decompose`` call and fixes its block exponent
    m = 2g, so neither table keys on g.  ``run.memo`` holds the entries of
    every sub-monomial over three or more labels solved so far, keyed on its
    labels and exponents; callers only read them, so a hit returns the stored
    map.  A hit still takes its budget item, and is looked up after the pivot
    choice and the split, so every sub-problem passes ``split_at``, where
    perfbench/tracing.py counts repeats.  ``run.joins`` holds, per (labels,
    pivot, outer left part) and (branch, inner left part), the merged left
    part with the smallest label on the right and the leftover pairs^m, so
    ``merge_blocks`` runs once per block pair in the call.
    """
    m, bounds, budget, memo, joins = run
    next(budget)  # an empty budget raises StopIteration, which decompose reports
    labels = ground.elements
    if len(labels) == 2:
        left, residual, sign = _two_label_term(labels, exps, m)
        return {left: {residual: sign}}
    # Below, every Monomial, Block and IndexSet is built from parts validated
    # at the top-level call, so none of them is checked again.  The one
    # Monomial is what the select_pivot and split_at seams read.
    mono = _trusted(Monomial, ground=ground, coeff=_Q1, exps=exps)
    pivot = select_pivot(mono, bounds[len(labels) - 1])
    touching, rest = split_at(mono, pivot)
    key = (labels, exps)
    if (solved := memo.get(key)) is not None:
        return solved
    outer_ground = ground.without(pivot)
    acc: Entries = {}
    for outer_left, theta in _solve(outer_ground, rest, run).items():
        outer_block = _trusted(Block, ground=outer_ground, left=outer_left)
        outer_right = outer_block.right
        left_bound, right_bound = bounds[len(outer_left) + 1], bounds[len(outer_right) + 1]
        sub_grounds = {side: _trusted(IndexSet, elements=tuple(sorted(part + (pivot,))))
                       for side, part in (("H", outer_left), ("W", outer_right))}
        known = joins.setdefault((labels, pivot, outer_left), {})
        for term, coeff in theta.items():
            # lifted has coefficient one, so every term it rewrites to has an
            # integer coefficient and p.coeff.numerator below is exact
            lifted = _trusted(Monomial, ground=ground, coeff=_Q1, exps=_merge_exps(touching, term))
            for p in rewrite_to_base(lifted, pivot).terms:
                side, chosen, spare = branch_of_split(p, outer_block, left_bound, right_bound)
                # chosen reaches the bound of its side plus the pivot, checked by branch_of_split
                scale = p.coeff.numerator * coeff
                sub_ground = sub_grounds[side]
                if len(sub_ground.elements) == 2:
                    next(budget)
                    inner_left, residual, sign = _two_label_term(sub_ground.elements, chosen, m)
                    merged_left, factor = (known.get((side, inner_left))
                                           or _join(known, side, inner_left, outer_block, sub_ground, ground, m))
                    terms = acc.setdefault(merged_left, {})
                    at = _merge_exps(residual, _merge_exps(spare, factor))
                    terms[at] = terms.get(at, 0) + scale * sign
                    continue
                for inner_left, phi in _solve(sub_ground, chosen, run).items():
                    merged_left, factor = (known.get((side, inner_left))
                                           or _join(known, side, inner_left, outer_block, sub_ground, ground, m))
                    terms = acc.setdefault(merged_left, {})
                    extra = _merge_exps(spare, factor)
                    for inner, c in phi.items():
                        at = _merge_exps(inner, extra)
                        terms[at] = terms.get(at, 0) + scale * c
    entries = {left: kept for left, terms in acc.items() if (kept := {e: c for e, c in terms.items() if c})}
    memo[key] = entries
    return entries


def decompose(mono: Monomial, g: int) -> Certificate:
    """Certificate expressing ``mono`` through block monomials, built recursively.

    Requires deg(mono) >= vanishing_bound(n, g) for the n labels of its
    ground set, n <= LABEL_LIMIT and at most CALL_LIMIT items of work, one
    per sub-problem solved, memo hits and two-label closed forms included
    (else SizeLimitError).  The recursion solves each repeated sub-monomial
    once, through a memo that lives for this call only, next to a table of
    the block joins made in the call.  Deterministic: pivots are the
    smallest qualifying labels, branch ties prefer "H", and entries are
    aggregated per block with the smallest label kept in the right part
    (two-label grounds keep the closed form as is).
    """
    if not isinstance(mono, Monomial):
        raise PreconditionError(f"decompose expects a monomial, got {type(mono).__name__}")
    n = len(mono.ground)
    if n > LABEL_LIMIT:
        raise SizeLimitError(f"{n} labels, above the limit {LABEL_LIMIT} for decompose")
    bound = vanishing_bound(n, g)
    if mono.degree < bound:
        raise PreconditionError(
            f"degree {mono.degree} below the vanishing bound {bound} for n={n}, g={g}"
        )
    ground = mono.ground
    try:
        entries = _solve(ground, mono.exps, _Recursion.start(n, g))
    except StopIteration:
        raise SizeLimitError(f"decompose needs more than {CALL_LIMIT} steps, above its work budget") from None
    # the left parts come from the recursion, so the blocks are valid by construction
    return Certificate(ground, g, mono, tuple(
        CertificateEntry(_trusted(Block, ground=ground, left=left),
                         _sorted_poly(ground, [Monomial(ground, mono.coeff * c, e) for e, c in entries[left].items()]))
        for left in sorted(entries)
    ))


def verify_certificate(cert: Certificate) -> bool:
    """Check a certificate using normal forms only.

    True iff every entry has a nonzero cofactor, homogeneous of degree
    deg(input) - m * |left| * |right| for the block exponent m = 2g, and
    NF(input) = sum over entries of NF(block monomial) * NF(cofactor).  The
    normal form is a ring homomorphism, so this is NF(input - sum of
    cofactor * block monomial) = 0.  The input is expanded on the shared
    packed keys of ``ring._BaseKeys`` for its degree, scaled by one common
    denominator; then one pass over the entries takes each NF(cofactor)
    from ``normal_form``, places it on those keys with ``_BaseKeys.expand``,
    and adds its products with the expansion of the block's pairs^m as
    integers.  A value that is not a Certificate raises PreconditionError;
    structural defects are rejected at construction time with
    MalformedCertificateError, never reported as False here.  The
    expansions of the input, of each block monomial and of each cofactor's
    normal form are charged as they run, before each binomial row is built,
    and the products of block expansion keys by normal-form terms are
    counted, summed over the entries, before each entry's are taken: a
    charge or a count above EXPANSION_LIMIT raises SizeLimitError.
    """
    if not isinstance(cert, Certificate):
        raise PreconditionError(f"verify_certificate expects a certificate, got {type(cert).__name__}")
    zeta = cert.input
    degree = zeta.degree
    m = 2 * cert.g
    for entry in cert.entries:
        target = degree - m * entry.block.pair_count
        cofactor = entry.cofactor
        if cofactor.is_zero or any(t.degree != target for t in cofactor.terms):
            return False
    # Every product below has the input's degree, so keys for that degree never carry.
    ground = cert.ground
    keys = _keys_for(ground, ground.min(), degree)
    # NF coefficients are integer combinations of their cofactor's, so the
    # cofactors' denominators clear them: the input is expanded before any NF.
    scale = _common_denominator((zeta, *(t for entry in cert.entries for t in entry.cofactor.terms)))
    acc = keys.expand((zeta,), -scale, degree)
    products = 0
    for entry in cert.entries:
        cofactor = keys.expand(ring.normal_form(entry.cofactor).terms, scale, entry.cofactor.degree).items()
        block = keys.block(entry.block.pairs, m)
        products += len(block) * len(cofactor)
        if products > EXPANSION_LIMIT:
            raise SizeLimitError(
                f"multiplying block expansions by cofactor normal forms takes {products} "
                f"products, above the limit {EXPANSION_LIMIT}"
            )
        for block_key, block_coeff in block.items():
            for key, coeff in cofactor:
                at = block_key + key
                acc[at] = acc.get(at, 0) + block_coeff * coeff
    return not any(acc.values())
