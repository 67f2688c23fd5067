"""Constructive block-monomial membership certificates and their verifier.

For a ground set of n labels and g >= 2, every monomial of degree at least
n(n-1)g - n + 2 is congruent, modulo the pair relations, to a sum
sum_B psi_B * prod_{(i,j) in B} x[i,j]^(2g) over blocks B.  ``decompose``
builds such a certificate recursively; ``verify_certificate`` checks it using
nothing but normal forms, so the two sides act as independent witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .combinatorics import (
    Block,
    PairCountTable,
    _require_g,
    branch_of_split,
    select_pivot,
    split_at,
)
from .errors import MalformedCertificateError, PreconditionError
from .ring import (
    Exponents,
    IndexSet,
    Monomial,
    Pair,
    Polynomial,
    _Q0,
    eq_mod_relations,
    rewrite_to_base,
)


def vanishing_bound(n: int, g: int) -> int:
    """Degree threshold n(n-1)g - n + 2 above which every class decomposes."""
    _require_g(g)
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"need at least 2 labels, got n={n!r}")
    return n * (n - 1) * g - n + 2


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


def _base_entry(mono: Monomial, g: int) -> tuple[Block, Polynomial]:
    """Closed form over two labels {u,v}: x[u,v]^a * x[v,u]^b with a+b >= 2g
    becomes coeff * (-1)^b * x[u,v]^(a+b-2g) on the block {u} x {v}."""
    ground = mono.ground
    if len(ground) != 2:
        raise PreconditionError(f"closed form needs exactly 2 labels, got {ground.elements}")
    u, v = ground.elements
    a = mono.exponent((u, v))
    b = mono.exponent((v, u))
    if a + b < 2 * g:
        raise PreconditionError(f"degree {a + b} below 2g = {2 * g}")
    coeff = -mono.coeff if b & 1 else mono.coeff
    residual = a + b - 2 * g
    exps: Exponents = (((u, v), residual),) if residual else ()
    return Block(ground, (u,)), Monomial(ground, coeff, exps).as_poly()


def base_certificate(mono: Monomial, g: int) -> Certificate:
    """The exact closed-form certificate for a two-label ground set."""
    _require_g(g)
    block, cofactor = _base_entry(mono, g)
    return Certificate(mono.ground, g, mono, (CertificateEntry(block, cofactor),))


def merge_blocks(outer: Block, inner: Block, ground: IndexSet,
                 branch: str) -> tuple[Block, tuple[Pair, ...]]:
    """Combine an outer block (pivot removed) with an inner block (pivot present).

    ``outer`` partitions ground minus a pivot z; ``inner`` partitions
    outer.left + {z} on branch "H" or outer.right + {z} on branch "W".  The
    inner block is transposed if needed so that z sits in its right part (H)
    or left part (W).  Returns the merged block E over the full ground set,
    with E.left = inner.left (H) or E.right = inner.right (W), together with
    the leftover pairs of outer not absorbed into E.  Every pair of E comes
    from outer or inner; violation of that containment is an internal error.
    """
    if branch not in ("H", "W"):
        raise PreconditionError(f"branch must be 'H' or 'W', got {branch!r}")
    pivots = set(inner.ground) - set(outer.ground)
    if len(pivots) != 1:
        raise PreconditionError("inner ground set must extend the outer one by exactly one pivot label")
    pivot = pivots.pop()
    if outer.ground != ground.without(pivot):
        raise PreconditionError("outer block must partition the ground set minus the pivot")
    side = outer.left if branch == "H" else outer.right
    if set(inner.ground) != set(side) | {pivot}:
        raise PreconditionError(f"inner ground set must be the outer {branch}-side plus the pivot")
    if branch == "H":
        if pivot in inner.left:
            inner = inner.transpose()
        merged = Block(ground, inner.left)
    else:
        if pivot in inner.right:
            inner = inner.transpose()
        merged = Block(ground, tuple(lab for lab in ground if lab not in set(inner.right)))
    available = set(outer.pairs) | set(inner.pairs)
    if not set(merged.pairs) <= available:
        raise RuntimeError("internal consistency failure: merged block exceeds the available pairs")
    leftover = tuple(sorted(available - set(merged.pairs)))
    return merged, leftover


def _decompose_entries(mono: Monomial, g: int) -> list[tuple[Block, Polynomial]]:
    ground = mono.ground
    n = len(ground)
    if n == 2:
        return [_base_entry(mono, g)]

    pivot = select_pivot(PairCountTable.from_monomial(mono), g)
    touching, rest = split_at(mono, pivot)
    inner_entries = _decompose_entries(rest.with_ground(ground.without(pivot)), g)

    first = ground.min()
    acc: dict[tuple[int, ...], dict[Exponents, Fraction]] = {}
    for outer_block, theta in inner_entries:
        left, right = outer_block.left, outer_block.right
        for m in theta.terms:
            rewritten = rewrite_to_base(touching * m.with_ground(ground), pivot)
            for p in rewritten.terms:
                choice = branch_of_split(p, pivot, left, right, g)
                side = left if choice.side == "H" else right
                side_set = set(side)
                chosen = tuple(item for item in p.exps if item[0][1] in side_set)
                spare = tuple(item for item in p.exps if item[0][1] not in side_set)
                sub_ground = IndexSet(tuple(sorted(side + (pivot,))))
                selected = Monomial(sub_ground, p.coeff, chosen)
                if selected.degree < choice.degree_bound:
                    raise RuntimeError(
                        "internal consistency failure: sub-monomial "
                        f"{selected.coeff}*{selected.exps} over ground {sub_ground.elements} "
                        f"with g={g} has degree {selected.degree}, below {choice.degree_bound}"
                    )
                remainder = Monomial(ground, Fraction(1), spare)
                for inner_block, phi in _decompose_entries(selected, g):
                    merged, leftover = merge_blocks(outer_block, inner_block, ground, choice.side)
                    if first in merged.left:
                        merged = merged.transpose()
                    extra = remainder * Monomial.make(ground, 1, {pair: 2 * g for pair in leftover})
                    bucket = acc.setdefault(merged.left, {})
                    for t in phi.terms:
                        term = t.with_ground(ground) * extra
                        c = bucket.get(term.exps, _Q0) + term.coeff
                        if c:
                            bucket[term.exps] = c
                        else:
                            bucket.pop(term.exps, None)

    entries = []
    for left_key in sorted(acc):
        cofactor = Polynomial.from_map(ground, acc[left_key])
        if not cofactor.is_zero:
            entries.append((Block(ground, left_key), cofactor))
    return entries


def decompose(mono: Monomial, g: int) -> Certificate:
    """Certificate expressing ``mono`` through block monomials, built recursively.

    Requires deg(mono) >= vanishing_bound(n, g) for the n labels of its
    ground set.  Deterministic: pivots are the smallest qualifying labels,
    branch ties prefer "H", and entries are aggregated per block with the
    smallest label kept in the right part (two-label grounds keep the closed
    form as is).
    """
    if not isinstance(mono, Monomial):
        raise PreconditionError(f"decompose expects a monomial, got {type(mono).__name__}")
    _require_g(g)
    n = len(mono.ground)
    bound = vanishing_bound(n, g)
    if mono.degree < bound:
        raise PreconditionError(
            f"degree {mono.degree} below the vanishing bound {bound} for n={n}, g={g}"
        )
    entries = _decompose_entries(mono, g)
    return Certificate(
        mono.ground, g, mono,
        tuple(CertificateEntry(block, cofactor) for block, cofactor in entries),
    )


def verify_certificate(cert: Certificate) -> bool:
    """Check a certificate using normal forms only.

    True iff every entry is homogeneous of the right degree, with
    deg(cofactor) + 2g * |left| * |right| = deg(input), and the claimed
    congruence holds.  Structural defects are rejected at construction time
    with MalformedCertificateError, never reported as False here.
    """
    zeta = cert.input
    two_g = 2 * cert.g
    acc: dict[Exponents, Fraction] = {}
    for entry in cert.entries:
        target = zeta.degree - two_g * entry.block.pair_count
        cofactor = entry.cofactor
        if cofactor.is_zero or any(t.degree != target for t in cofactor.terms):
            return False
        block_mono = Monomial.make(cert.ground, 1, {pair: two_g for pair in entry.block.pairs})
        for t in cofactor.terms:
            term = t * block_mono
            acc[term.exps] = acc.get(term.exps, _Q0) + term.coeff
    total = Polynomial.from_map(cert.ground, acc)
    return eq_mod_relations(zeta.as_poly(), total)
