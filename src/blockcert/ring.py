"""Exact sparse arithmetic in the pair-variable ring and its relation quotient.

Variables x[i,j] are indexed by ordered pairs of distinct labels from a fixed
ground set.  The quotient imposes x[i,j] + x[j,i] = 0 and
x[i,j] + x[j,k] + x[k,i] = 0.  Substituting x[i,j] -> x[b,j] - x[b,i] for the
base label b = min(ground) kills both families of relations, so every class
has a unique representative in the variables x[b,j] alone; ``normal_form``
computes it.  Coefficients are exact rationals at the API and all values are
immutable after construction; the expansion inside ``normal_form`` runs on
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import GroundMismatchError, PreconditionError

Label = int
Pair = tuple[Label, Label]
Exponents = tuple[tuple[Pair, int], ...]

_Q0 = Fraction(0)
_Q1 = Fraction(1)


class _MinusInfinity:
    """Degree of the zero polynomial: below every integer, equal only to itself."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "-infinity"


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class IndexSet:
    """Finite set of nonnegative integer labels, stored strictly ascending."""

    elements: tuple[Label, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        for lab in elems:
            if not isinstance(lab, int) or isinstance(lab, bool) or lab < 0:
                raise PreconditionError(f"labels must be nonnegative integers, got {lab!r}")
        for a, b in zip(elems, elems[1:]):
            if a >= b:
                raise PreconditionError(f"labels must be strictly ascending, got {elems}")

    @cached_property
    def _as_set(self) -> frozenset[Label]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label: object) -> bool:
        return label in self._as_set

    def min(self) -> Label:
        if not self.elements:
            raise PreconditionError("empty ground set has no minimum")
        return self.elements[0]

    def without(self, label: Label) -> "IndexSet":
        if label not in self:
            raise PreconditionError(f"label {label} not in ground set {self.elements}")
        return IndexSet(tuple(e for e in self.elements if e != label))

    def adjoin(self, label: Label) -> "IndexSet":
        if label in self:
            raise PreconditionError(f"label {label} already in ground set {self.elements}")
        return IndexSet(tuple(sorted(self.elements + (label,))))


def _require_ring_ground(ground: IndexSet) -> None:
    if len(ground) < 2:
        raise PreconditionError(f"ring operations need at least 2 labels, got {ground.elements}")


def _merge_exps(a: Exponents, b: Exponents) -> Exponents:
    """Merge two sorted exponent tuples, adding exponents on common pairs."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        pa, ea = a[ia]
        pb, eb = b[ib]
        if pa == pb:
            out.append((pa, ea + eb))
            ia += 1
            ib += 1
        elif pa < pb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


@dataclass(frozen=True)
class Monomial:
    """coeff * prod x[i,j]^e with nonzero rational coeff and positive exponents.

    ``exps`` maps ordered pairs to exponents, kept sorted by pair; an empty
    ``exps`` is a nonzero constant.
    """

    ground: IndexSet
    coeff: Fraction
    exps: Exponents = ()

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            raise PreconditionError("monomial coefficient must be nonzero")
        _require_ring_ground(self.ground)
        prev = None
        for (i, j), e in self.exps:
            if i == j:
                raise PreconditionError(f"variable x[{i},{j}] has equal indices")
            if i not in self.ground or j not in self.ground:
                raise PreconditionError(f"variable x[{i},{j}] outside ground set {self.ground.elements}")
            if not isinstance(e, int) or e <= 0:
                raise PreconditionError(f"exponent of x[{i},{j}] must be a positive integer, got {e!r}")
            if prev is not None and prev >= (i, j):
                raise PreconditionError("exponent pairs must be strictly ascending")
            prev = (i, j)

    @classmethod
    def make(cls, ground: IndexSet, coeff, exps: Mapping[Pair, int] | Iterable = ()) -> "Monomial":
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = sorted(((int(i), int(j)), int(e)) for (i, j), e in items if e != 0)
        return cls(ground, Fraction(coeff), tuple(cleaned))

    @cached_property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, pair: Pair) -> int:
        for p, e in self.exps:
            if p == pair:
                return e
        return 0

    def sort_key(self):
        # Ascending sort by this key lists terms in descending graded
        # lexicographic order (exponent vectors read in ascending pair order).
        return (-self.degree, tuple((p, -e) for p, e in self.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.ground != other.ground:
            raise GroundMismatchError("cannot multiply monomials over different ground sets")
        return Monomial(self.ground, self.coeff * other.coeff, _merge_exps(self.exps, other.exps))

    def with_ground(self, ground: IndexSet) -> "Monomial":
        """The same term viewed over another ground set containing its variables."""
        return Monomial(ground, self.coeff, self.exps)

    def as_poly(self) -> "Polynomial":
        return Polynomial(self.ground, (self,))


@dataclass(frozen=True)
class Polynomial:
    """Canonical sum of monomials: like terms merged, zeros dropped, terms sorted."""

    ground: IndexSet
    terms: tuple[Monomial, ...] = ()

    def __post_init__(self):
        _require_ring_ground(self.ground)
        prev = None
        for t in self.terms:
            if t.ground != self.ground:
                raise GroundMismatchError("term ground set differs from polynomial ground set")
            key = t.sort_key()
            if prev is not None and prev >= key:
                raise PreconditionError("terms must be strictly sorted in the canonical order")
            prev = key

    @classmethod
    def zero(cls, ground: IndexSet) -> "Polynomial":
        return cls(ground, ())

    @classmethod
    def constant(cls, ground: IndexSet, value) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return cls.zero(ground)
        return cls(ground, (Monomial(ground, value),))

    @classmethod
    def variable(cls, ground: IndexSet, i: Label, j: Label) -> "Polynomial":
        return cls(ground, (Monomial(ground, _Q1, (((i, j), 1),)),))

    @classmethod
    def from_terms(cls, ground: IndexSet, monomials: Iterable[Monomial]) -> "Polynomial":
        acc: dict[Exponents, Fraction] = {}
        for m in monomials:
            if m.ground != ground:
                raise GroundMismatchError("term ground set differs from polynomial ground set")
            acc[m.exps] = acc.get(m.exps, _Q0) + m.coeff
        return cls.from_map(ground, acc)

    @classmethod
    def from_map(cls, ground: IndexSet, mapping: Mapping[Exponents, Fraction]) -> "Polynomial":
        """Build from an exponents -> coefficient map; zero coefficients are dropped."""
        terms = [Monomial(ground, c, exps) for exps, c in mapping.items() if c != 0]
        terms.sort(key=Monomial.sort_key)
        return cls(ground, tuple(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        return self.terms[0].degree if self.terms else MINUS_INFINITY

    def is_homogeneous(self) -> bool:
        return len({t.degree for t in self.terms}) <= 1

    def _require_same_ground(self, other: "Polynomial") -> None:
        if self.ground != other.ground:
            raise GroundMismatchError("operands live over different ground sets")

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ground, tuple(Monomial(self.ground, -t.coeff, t.exps) for t in self.terms))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ground(other)
        acc = {t.exps: t.coeff for t in self.terms}
        for t in other.terms:
            acc[t.exps] = acc.get(t.exps, _Q0) + t.coeff
        return Polynomial.from_map(self.ground, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ground(other)
        acc: dict[Exponents, Fraction] = {}
        for s in self.terms:
            cs, es = s.coeff, s.exps
            for t in other.terms:
                key = _merge_exps(es, t.exps)
                acc[key] = acc.get(key, _Q0) + cs * t.coeff
        return Polynomial.from_map(self.ground, acc)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise PreconditionError(f"polynomial power must be a nonnegative integer, got {n!r}")
        result = Polynomial.constant(self.ground, 1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def with_ground(self, ground: IndexSet) -> "Polynomial":
        return Polynomial.from_map(ground, {t.exps: t.coeff for t in self.terms})


def _base_positions(ground: IndexSet, base: Label) -> tuple[tuple[Label, ...], dict[Label, int]]:
    others = tuple(lab for lab in ground if lab != base)
    return others, {lab: k for k, lab in enumerate(others)}


def _expand_monomial(
    coeff: int,
    exps: Exponents,
    base: Label,
    pos: dict[Label, int],
    width: int,
    acc: dict[tuple[int, ...], int],
) -> None:
    """Accumulate the base-variable expansion of one term into ``acc``.

    Keys of ``acc`` are dense exponent vectors over the non-base labels in
    ascending order; entry k is the exponent of x[base, others[k]].  The
    coefficient is an integer and so is every binomial and sign, so the whole
    expansion is integer multiply-adds; callers scale rationals beforehand.
    """
    start = [0] * width
    negate = False
    binoms = []
    for (i, j), e in exps:
        if i == base:
            start[pos[j]] += e
        elif j == base:
            # x[i,base] == -x[base,i] in the quotient
            start[pos[i]] += e
            if e & 1:
                negate = not negate
        else:
            binoms.append((pos[i], pos[j], e))
    local = {tuple(start): -coeff if negate else coeff}
    for pi, pj, e in binoms:
        # x[i,j] == x[base,j] - x[base,i]; expand the e-th power exactly.
        expansion = [
            (-math.comb(e, k) if (e - k) & 1 else math.comb(e, k), e - k, k)
            for k in range(e + 1)
        ]
        nxt: dict[tuple[int, ...], int] = {}
        for vec, c in local.items():
            base_vec = list(vec)
            for bc, ei, ej in expansion:
                v = base_vec.copy()
                v[pi] += ei
                v[pj] += ej
                key = tuple(v)
                nxt[key] = nxt.get(key, 0) + c * bc
        local = nxt
    for vec, c in local.items():
        total = acc.get(vec, 0) + c
        if total:
            acc[vec] = total
        else:
            acc.pop(vec, None)


def _dense_to_poly(ground: IndexSet, base: Label, others: tuple[Label, ...],
                   acc: Mapping[tuple[int, ...], int], scale: int) -> Polynomial:
    """The polynomial sum of c/scale * prod x[base, others[k]]^vec[k] over ``acc``."""
    mapping: dict[Exponents, Fraction] = {}
    for vec, c in acc.items():
        exps = tuple(((base, others[k]), e) for k, e in enumerate(vec) if e)
        mapping[exps] = Fraction(c, scale)
    return Polynomial.from_map(ground, mapping)


def rewrite_to_base(mono: Monomial, base: Label) -> Polynomial:
    """Rewrite one term, modulo the relations, in the variables x[base,j] only.

    Applies x[i,j] -> x[base,j] - x[base,i] and x[i,base] -> -x[base,i] with
    exact binomial expansion; the result is congruent to ``mono``.
    """
    if base not in mono.ground:
        raise PreconditionError(f"base label {base} not in ground set {mono.ground.elements}")
    others, pos = _base_positions(mono.ground, base)
    acc: dict[tuple[int, ...], int] = {}
    _expand_monomial(mono.coeff.numerator, mono.exps, base, pos, len(others), acc)
    return _dense_to_poly(mono.ground, base, others, acc, mono.coeff.denominator)


def normal_form(p: Polynomial) -> Polynomial:
    """The canonical representative of p's class, in variables x[b,j], b = min ground.

    The result is zero exactly when p lies in the ideal generated by
    x[i,j] + x[j,i] and x[i,j] + x[j,k] + x[k,i].  Every term is scaled to an
    integer by the lcm of the denominators, the expansion runs on integers, and
    each output coefficient is divided by that lcm once.
    """
    base = p.ground.min()
    others, pos = _base_positions(p.ground, base)
    scale = math.lcm(*(t.coeff.denominator for t in p.terms))
    acc: dict[tuple[int, ...], int] = {}
    for t in p.terms:
        coeff = t.coeff.numerator * (scale // t.coeff.denominator)
        _expand_monomial(coeff, t.exps, base, pos, len(others), acc)
    return _dense_to_poly(p.ground, base, others, acc, scale)


def eq_mod_relations(p: Polynomial, q: Polynomial) -> bool:
    """True iff p and q represent the same class in the quotient ring."""
    p._require_same_ground(q)
    return normal_form(p - q).is_zero


def relation_generators(ground: IndexSet) -> list[Polynomial]:
    """A canonical generating set: x[i,j]+x[j,i] (i<j) and the ascending triples."""
    _require_ring_ground(ground)
    gens = []
    labels = ground.elements
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            i, j = labels[a], labels[b]
            gens.append(Polynomial.variable(ground, i, j) + Polynomial.variable(ground, j, i))
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            for c in range(b + 1, len(labels)):
                i, j, k = labels[a], labels[b], labels[c]
                gens.append(
                    Polynomial.variable(ground, i, j)
                    + Polynomial.variable(ground, j, k)
                    + Polynomial.variable(ground, k, i)
                )
    return gens
