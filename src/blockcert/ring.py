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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import GroundMismatchError, PreconditionError, SizeLimitError

Label = int
Pair = tuple[Label, Label]
Exponents = tuple[tuple[Pair, int], ...]

_Q0 = Fraction(0)
_Q1 = Fraction(1)

# Cap on the charge of one expansion (``_BaseKeys.expand``), taken as it runs:
# the products each binomial row is about to run, times the bit growth of the
# coefficients.  The largest expansion in verifying any of 48 seeded n = 5,
# g = 2 certificates at the bound is charged 1,043,700; x[2,3]^9999 would be
# charged 1e8 and took seconds, and so would eight terms of degree 3161 over
# 3 labels, 1e7 each.  ``verify_certificate`` caps its count of block-key by
# normal-form-term products with it too.
EXPANSION_LIMIT = 10_000_000


def _trusted(cls, **fields):
    """A frozen ``cls`` value from fields that are valid by construction.

    ``__post_init__`` does not run, so nothing is checked or converted: only
    for values the package derives from parts it has already validated.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class IndexSet:
    """Finite set of nonnegative integer labels, stored strictly ascending."""

    elements: tuple[Label, ...]

    def __post_init__(self):
        try:
            elems = tuple(self.elements)
        except TypeError:
            raise PreconditionError(f"labels must be a sequence of integers, got {self.elements!r}") from None
        object.__setattr__(self, "elements", elems)
        for lab in elems:
            if type(lab) is not int or lab < 0:  # exactly int: bool and float are refused
                raise PreconditionError(f"labels must be nonnegative integers, got {lab!r}")
        for a, b in zip(elems, elems[1:]):
            if a >= b:
                raise PreconditionError(f"labels must be strictly ascending, got {elems}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label: object) -> bool:
        return label in self.elements

    def min(self) -> Label:
        if not self.elements:
            raise PreconditionError("empty ground set has no minimum")
        return self.elements[0]

    def without(self, label: Label) -> "IndexSet":
        if label not in self:
            raise PreconditionError(f"label {label} not in ground set {self.elements}")
        return _trusted(IndexSet, elements=tuple(e for e in self.elements if e != label))


def _require_ground(ground: IndexSet, least: int = 2) -> None:
    """The one check of a ground set: an ``IndexSet`` of at least ``least`` labels."""
    if not isinstance(ground, IndexSet):
        raise PreconditionError(f"ground set must be an IndexSet, got {ground!r}")
    if len(ground) < least:
        raise PreconditionError(f"need at least {least} labels, got {ground.elements}")


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


def _check_term(labels: tuple[Label, ...], coeff, exps) -> Fraction:
    """The one check of a term, shared by ``Monomial`` and the JSON reader; returns ``coeff`` as a Fraction.

    ``coeff`` must be a nonzero int or Fraction, and ``exps`` a tuple of
    ((i, j), e) pairs, strictly ascending, with distinct integer labels from
    ``labels`` and positive integer exponents.
    """
    if type(coeff) is int:
        coeff = Fraction(coeff)
    elif not isinstance(coeff, Fraction):
        raise PreconditionError(f"monomial coefficient must be an int or a Fraction, got {coeff!r}")
    if coeff == 0:
        raise PreconditionError("monomial coefficient must be nonzero")
    # a list, even inside the tuple, would pass the checks below and then fail hash()
    if type(exps) is not tuple:
        raise PreconditionError(f"monomial exps must be a tuple, got {type(exps).__name__}")
    try:
        hash(exps)
    except TypeError:
        raise PreconditionError(f"monomial exps must hold tuples only, got {exps!r}") from None
    prev = None
    for item in exps:
        try:
            (i, j), e = item
        except (TypeError, ValueError):
            raise PreconditionError(f"monomial exps must hold ((i, j), e) pairs, got {exps!r}") from None
        if type(i) is not int or type(j) is not int:
            raise PreconditionError(f"variable x[{i!r},{j!r}] must have integer labels")
        if i == j:
            raise PreconditionError(f"variable x[{i},{j}] has equal indices")
        if i not in labels or j not in labels:
            raise PreconditionError(f"variable x[{i},{j}] outside ground set {labels}")
        if type(e) is not int or e <= 0:
            raise PreconditionError(f"exponent of x[{i},{j}] must be a positive integer, got {e!r}")
        if prev is not None and prev >= (i, j):
            raise PreconditionError("exponent pairs must be strictly ascending")
        prev = (i, j)
    return coeff


@dataclass(frozen=True)
class Monomial:
    """coeff * prod x[i,j]^e: nonzero int or Fraction coeff, int labels, positive int exponents.

    ``exps`` maps ordered pairs to exponents, kept sorted by pair; an empty
    ``exps`` is a nonzero constant.  An int coeff is stored as a Fraction.
    """

    ground: IndexSet
    coeff: Fraction
    exps: Exponents = ()

    def __post_init__(self):
        _require_ground(self.ground)
        object.__setattr__(self, "coeff", _check_term(self.ground.elements, self.coeff, self.exps))

    @classmethod
    def make(cls, ground: IndexSet, coeff, exps: Mapping[Pair, int] | Iterable = ()) -> "Monomial":
        items = exps.items() if isinstance(exps, Mapping) else exps
        try:
            # drops int zeros only
            kept = tuple(sorted(((i, j), e) for (i, j), e in items if e != 0 or type(e) is not int))
        except (TypeError, ValueError):
            raise PreconditionError(f"monomial exps must map pairs (i, j) to exponents, got {exps!r}") from None
        return cls(ground, coeff, kept)

    @property
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
        # One plain loop sums the degree and builds the pairs: it runs per term.
        degree = 0
        lex = []
        for p, e in self.exps:
            degree += e
            lex.append((p, -e))
        return (-degree, tuple(lex))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.ground != other.ground:
            raise GroundMismatchError("cannot multiply monomials over different ground sets")
        return Monomial(self.ground, self.coeff * other.coeff, _merge_exps(self.exps, other.exps))

    def as_poly(self) -> "Polynomial":
        return Polynomial(self.ground, (self,))


@dataclass(frozen=True)
class Polynomial:
    """Canonical sum of monomials: like terms merged, zeros dropped, terms sorted."""

    ground: IndexSet
    terms: tuple[Monomial, ...] = ()

    def __post_init__(self):
        if type(self.terms) is not tuple:
            raise PreconditionError(f"polynomial terms must be a tuple, got {type(self.terms).__name__}")
        _require_ground(self.ground)
        prev = None
        for t in self.terms:
            if t.ground != self.ground:
                raise GroundMismatchError("term ground set differs from polynomial ground set")
            key = t.sort_key()
            if prev is not None and prev >= key:
                raise PreconditionError("terms must be strictly sorted in the canonical order, with no repeated exps")
            prev = key

    @classmethod
    def zero(cls, ground: IndexSet) -> "Polynomial":
        return cls(ground, ())

    @classmethod
    def constant(cls, ground: IndexSet, value) -> "Polynomial":
        return cls.from_map(ground, {(): value})

    @classmethod
    def variable(cls, ground: IndexSet, i: Label, j: Label) -> "Polynomial":
        return cls(ground, (Monomial(ground, _Q1, (((i, j), 1),)),))

    @classmethod
    def from_map(cls, ground: IndexSet, mapping: Mapping[Exponents, int | Fraction]) -> "Polynomial":
        """Build from an exponents -> coefficient map; int and Fraction zeros are dropped, Monomial judges the rest."""
        if not isinstance(mapping, Mapping):
            raise PreconditionError(f"expected a mapping of exponents to coefficients, got {type(mapping).__name__}")
        return _sorted_poly(ground, [Monomial(ground, c, exps) for exps, c in mapping.items()
                                     if c != 0 or (type(c) is not int and not isinstance(c, Fraction))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            raise PreconditionError("the zero polynomial has no degree")
        return self.terms[0].degree

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


def _sorted_poly(ground: IndexSet, terms: Iterable[Monomial]) -> Polynomial:
    """The canonical polynomial of valid monomials over ``ground`` with distinct exps: sorted, not checked again."""
    _require_ground(ground)
    terms = list(terms)
    if len(terms) > 1:  # fewer terms are in order: no key is built
        terms.sort(key=Monomial.sort_key)
    return _trusted(Polynomial, ground=ground, terms=tuple(terms))


def _common_denominator(terms: Iterable[Monomial]) -> int:
    """The lcm of the coefficient denominators of ``terms``: times it, every coefficient is an integer."""
    return math.lcm(*(t.coeff.denominator for t in terms))


class _BaseKeys:
    """The packed integer key of every base monomial over ``ground`` of degree below 2^bits.

    A monomial in the variables x[base, lab] is keyed by one integer with a
    ``bits``-wide field per non-base label, holding its exponent; ``units``
    maps each label to 1 << (its field's offset).  ``_keys_for`` takes the
    width from the bit length of the degree, so no exponent of a product
    within that degree carries, and multiplying monomials is adding keys.
    The first label's field is on top, so of two keys of one degree the
    larger comes first in ``Monomial.sort_key`` order.

    The package takes its layouts from ``_shared_keys``, one per (ground, base,
    field width), so one layout serves every degree whose bit length is its
    width.  Each owns ``decoded``, packed key -> (exponents, sort bits), which
    ``to_poly`` fills as it outputs keys: at most one entry per base monomial
    of degree below 2^bits that the layout has output.
    """

    __slots__ = ("ground", "base", "bits", "units", "decoded")

    def __init__(self, ground: IndexSet, base: Label, bits: int):
        self.ground = ground
        self.base = base
        self.bits = bits
        self.units = units = {}
        shift = bits * (len(ground) - 1)
        for lab in ground.elements:  # a plain loop: it runs once per rewrite, and is the cheapest build
            if lab != base:
                shift -= bits
                units[lab] = 1 << shift
        self.decoded: dict[int, tuple[Exponents, int]] = {}

    def expand(self, terms: Iterable[Monomial], scale: int, top: int) -> dict[int, int]:
        """``scale`` times the sum of ``terms``, in the base variables: packed key -> nonzero coefficient.

        ``scale`` is a multiple of every coefficient's denominator, so the
        whole expansion is integer multiply-adds.  ``top`` is the top degree
        of ``terms``: every caller already has it, so no term is summed here.

        Each term is folded once, both orientations of a pair into one power
        x[i,j]^e off the base label, and the terms are grouped by the powers
        they have left: a group maps packed keys to coefficients.  Each group
        then expands its first power and lands on the group of the powers
        after it, so the folded variables are expanded one at a time, and
        terms that share powers share their partial expansions.  Groups with
        the most powers left go first, so every group is complete when its
        turn comes; equal keys merge, zero sums drop before a group is
        expanded further, and a group that cancels builds no row.  A level
        is made when a group first lands on it (level 0 at the start), and
        each binomial row runs in place, one running key per state.  Before
        a binomial row is built, the expansion is charged top * (e + 1) per
        key of the group: the products the row runs, times the bit growth of
        the coefficients.  Raises SizeLimitError as soon as the charges sum
        above EXPANSION_LIMIT.  A term in the base variables, such as a normal
        form's, goes straight into the level-0 group: no row, no charge.
        """
        base, units = self.base, self.units
        # levels[k]: the groups with k folded powers left, {powers left: {key: coeff}}
        last: dict[int, int] = {}
        levels: dict[int, dict[tuple[tuple[Pair, int], ...], dict[int, int]]] = {0: {(): last}}
        for t in terms:
            start = 0
            negate = 0
            powers: dict[Pair, int] = {}
            for (i, j), e in t.exps:
                if i == base:
                    start += e * units[j]
                elif j == base:
                    # x[i,base] == -x[base,i] in the quotient
                    start += e * units[i]
                    negate ^= e & 1
                else:
                    if i > j:
                        # x[i,j] == -x[j,i]: fold both orientations into one power
                        i, j = j, i
                        negate ^= e & 1
                    powers[i, j] = powers.get((i, j), 0) + e
            coeff = t.coeff.numerator * (scale // t.coeff.denominator)
            group = (levels.setdefault(len(powers), {}).setdefault(tuple(sorted(powers.items())), {})
                     if powers else last)  # no folded power: already in the base variables
            group[start] = group.get(start, 0) + (-coeff if negate else coeff)
        size = 0
        for left in range(max(levels), 0, -1):
            for powers, states in levels.get(left, {}).items():
                if 0 in states.values():
                    states = {key: c for key, c in states.items() if c}
                    if not states:
                        # the group cancelled: no row to build, nothing to charge
                        continue
                ((i, j), e), rest = powers[0], powers[1:]
                size += top * (e + 1) * len(states)
                if size > EXPANSION_LIMIT:
                    raise SizeLimitError(
                        f"expanding terms over {len(units)} base variables measures {size}, "
                        f"above the limit {EXPANSION_LIMIT}"
                    )
                # x[i,j] == x[base,j] - x[base,i]; expand the e-th power exactly:
                # its k-th term is (-1)^(e-k) C(e, k) x[base,i]^(e-k) x[base,j]^k
                first, step = e * units[i], units[j] - units[i]
                bcs = _SMALL_ROWS[e] if e < len(_SMALL_ROWS) else _signed_binomials(e)
                nxt = levels.setdefault(left - 1, {}).setdefault(rest, {})
                for key, c in states.items():
                    at = key + first
                    for bc in bcs:
                        nxt[at] = nxt.get(at, 0) + c * bc
                        at += step
        return {key: c for key, c in last.items() if c} if 0 in last.values() else last

    def block(self, pairs: tuple[Pair, ...], power: int) -> Mapping[int, int]:
        """The expansion of the product of x[i,j]^power over ``pairs``, read-only: it is shared."""
        return _block_form(self.ground, self.base, self.bits, pairs, power)

    def of_degree(self, degree: int) -> list[int]:
        """The keys of every base monomial of ``degree``, in ``iter_compositions`` order."""
        *heads, last = self.units.values()
        partial = [(0, degree)]  # (key so far, degree left)
        for unit in heads:
            partial = [(key + e * unit, left - e) for key, left in partial for e in range(left, -1, -1)]
        return [key + left * last for key, left in partial]

    def to_poly(self, acc: Mapping[int, int], scale: int) -> Polynomial:
        """The canonical sum of c/scale * x^key over ``acc``, whose values are nonzero.

        Keys that have no decode entry yet are decoded, the keys are sorted by
        their sort bits, descending (the order of ``Monomial.sort_key``), and
        each term's ``Monomial`` is then built once, in that order.  With
        ``scale`` 1 a coefficient skips the gcd, and one in -64..64 is read from
        ``_UNIT_FRACTIONS`` (c is nonzero, so a Fraction from the table is true).
        """
        ground, decoded = self.ground, self.decoded
        rows = []
        for key, c in acc.items():
            entry = decoded.get(key)
            if entry is None:
                entry = decoded[key] = self._decode(key)
            rows.append((entry[1], entry[0], c))
        rows.sort(reverse=True)  # the sort bits are distinct, so only they are compared
        terms = []
        for _, exps, c in rows:
            term = object.__new__(Monomial)  # built as _trusted builds it, inline: this runs per term
            fields = term.__dict__
            fields["ground"], fields["exps"] = ground, exps
            fields["coeff"] = (_UNIT_FRACTIONS.get(c) or Fraction(c)) if scale == 1 else Fraction(c, scale)
            terms.append(term)
        return _trusted(Polynomial, ground=ground, terms=tuple(terms))

    def _decode(self, key: int) -> tuple[Exponents, int]:
        """The exponents of ``key``'s base monomial, and the key with its degree above the fields."""
        base, bits, units = self.base, self.bits, self.units
        top = bits * len(units)
        exps = []
        degree = 0
        rest = key
        shift = top
        for lab in units:
            if not rest:
                break
            shift -= bits
            if e := rest >> shift:
                exps.append(((base, lab), e))
                degree += e
                rest -= e << shift
        return tuple(exps), key + (degree << top)


def _signed_binomials(e: int) -> tuple[int, ...]:
    """(-1)^(e-k) * C(e, k) for k = 0..e: the coefficients of (y - x)^e, x^e first."""
    return tuple(-math.comb(e, k) if (e - k) & 1 else math.comb(e, k) for k in range(e + 1))


# The rows of the powers below 64, built once at import: 2,080 integers below
# 2^63.  The benchmark workloads build no row above power 14, and building each
# of their rows afresh took most of this loop's end-to-end gain on cert-n4.
# A higher power's row is built after it is charged, and it is not kept.
_SMALL_ROWS = tuple(_signed_binomials(e) for e in range(64))

# The Fractions of the integers -64..64, built once at import and shared by
# every output term whose coefficient is one of them with no denominator:
# 28,365 of the 40,360 terms ``to_poly`` outputs over 300 cert-n4 inputs.
_UNIT_FRACTIONS = {c: Fraction(c) for c in range(-64, 65)}


# One layout per (ground, base, field width), each with the decode table that
# ``to_poly`` fills; the same bound as ``_block_form``.  The recursion rewrites
# over every sub-ground and base it reaches: 300 cert-n4 inputs use 41 layouts,
# and three n = 5 inputs at the bound 49, so none is evicted while in use.
@functools.lru_cache(maxsize=64)
def _shared_keys(ground: IndexSet, base: Label, bits: int) -> _BaseKeys:
    """The shared ``_BaseKeys`` over ``ground`` and ``base`` with ``bits``-wide fields."""
    return _BaseKeys(ground, base, bits)


def _keys_for(ground: IndexSet, base: Label, degree: int) -> _BaseKeys:
    """The shared layout whose fields are wide enough for ``degree``."""
    return _shared_keys(ground, base, degree.bit_length() or 1)


# A ground of n labels has 2^(n-1) - 1 blocks up to transposition, 15 at n = 5,
# and each field width in use has its own forms: 64 covers a few widths at n = 5.
# One certificate merges its entries by block, so the cache pays off only when
# one process verifies many certificates or Hilbert slices.  A form is expanded
# on the shared layout of its width, which it only reads.
@functools.lru_cache(maxsize=64)
def _block_form(ground: IndexSet, base: Label, bits: int, pairs: tuple[Pair, ...], power: int) -> Mapping[int, int]:
    """``_BaseKeys.block``, expanded once per key; a form above the budget raises and is not kept."""
    term = _trusted(Monomial, ground=ground, coeff=_Q1, exps=tuple((pair, power) for pair in pairs))
    return MappingProxyType(_shared_keys(ground, base, bits).expand((term,), 1, power * len(pairs)))


def _to_base(ground: IndexSet, terms: tuple[Monomial, ...], base: Label) -> Polynomial:
    """The sum of ``terms`` in the variables x[base,j] only.

    Every term is scaled to an integer by the common denominator and expanded
    on keys wide enough for the top degree, and each output coefficient is
    divided by that denominator once.  Raises SizeLimitError, before the
    binomial row that would pass it is built, when the expansion is charged
    above EXPANSION_LIMIT.
    """
    top = max((t.degree for t in terms), default=0)
    keys = _keys_for(ground, base, top)
    scale = _common_denominator(terms)
    return keys.to_poly(keys.expand(terms, scale, top), scale)


def rewrite_to_base(mono: Monomial, base: Label) -> Polynomial:
    """Rewrite one term, modulo the relations, in the variables x[base,j] only.

    Applies x[i,j] -> x[base,j] - x[base,i] and x[i,base] -> -x[base,i] with
    exact binomial expansion; the result is congruent to ``mono``.
    """
    if not isinstance(mono, Monomial):
        raise PreconditionError(f"rewrite_to_base expects a monomial, got {type(mono).__name__}")
    if type(base) is not int or base not in mono.ground:  # exactly int: 1.0 and True would key base 1's layout
        raise PreconditionError(f"base label {base!r} is not an integer label of ground set {mono.ground.elements}")
    return _to_base(mono.ground, (mono,), base)


def normal_form(p: Polynomial) -> Polynomial:
    """The canonical representative of p's class, in variables x[b,j], b = min ground.

    The result is zero exactly when p lies in the ideal generated by
    x[i,j] + x[j,i] and x[i,j] + x[j,k] + x[k,i].
    """
    if not isinstance(p, Polynomial):
        raise PreconditionError(f"normal_form expects a polynomial, got {type(p).__name__}")
    return _to_base(p.ground, p.terms, p.ground.min())


def eq_mod_relations(p: Polynomial, q: Polynomial) -> bool:
    """True iff p and q represent the same class in the quotient ring."""
    if not isinstance(p, Polynomial) or not isinstance(q, Polynomial):
        raise PreconditionError(f"eq_mod_relations expects polynomials, got {type(p).__name__}, {type(q).__name__}")
    return normal_form(p - q).is_zero
