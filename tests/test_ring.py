"""Ring arithmetic, base-variable rewriting, and normal forms."""

from decimal import Decimal
from fractions import Fraction
import math
import random

import pytest

from blockcert import (
    Block,
    GroundMismatchError,
    IndexSet,
    MalformedCertificateError,
    Monomial,
    Polynomial,
    PreconditionError,
    SizeLimitError,
    block_ideal_slice,
    decompose,
    enumerate_blocks,
    eq_mod_relations,
    graded_report,
    normal_form,
    parse_poly,
    pivot_lemma_check,
    poly_from_json,
    rewrite_to_base,
    split_lemma_check,
    verify_certificate,
)
from blockcert.ring import _BaseKeys, _block_form, _shared_keys, _sorted_poly
from helpers import eval_at, random_monomial, random_point, random_poly, relation_generators, standard_ground, sum_of

X2 = IndexSet((1, 2))
X3 = IndexSet((1, 2, 3))


def P(text, ground=X3):
    return parse_poly(text, ground)


# -- value construction and invariants --------------------------------------

def test_index_set_validation():
    assert list(IndexSet((0, 3, 7))) == [0, 3, 7]
    with pytest.raises(PreconditionError):
        IndexSet((2, 1))
    with pytest.raises(PreconditionError):
        IndexSet((1, 1, 2))
    with pytest.raises(PreconditionError):
        IndexSet((-1, 2))
    with pytest.raises(PreconditionError, match="no minimum"):
        IndexSet(()).min()
    # a value that is not a sequence of labels, also as a block's left part
    for build in (lambda: IndexSet(5), lambda: IndexSet(None), lambda: Block(X3, 5)):
        with pytest.raises(PreconditionError, match="sequence"):
            build()


def test_index_set_subsets():
    assert IndexSet((1, 2, 3)).without(2).elements == (1, 3)
    with pytest.raises(PreconditionError):
        IndexSet((1, 3)).without(2)


def test_monomial_validation():
    with pytest.raises(PreconditionError, match="nonzero"):
        Monomial.make(X3, 0, {(1, 2): 1})
    with pytest.raises(PreconditionError, match="equal indices"):
        Monomial.make(X3, 1, {(1, 1): 1})
    with pytest.raises(PreconditionError, match="outside ground set"):
        Monomial.make(X3, 1, {(1, 4): 1})
    with pytest.raises(PreconditionError, match="positive integer"):
        Monomial.make(X3, 1, {(1, 2): -1})
    # each check names its own defect, also when exps is given directly
    for exps, message in (((((1, 1), 2),), "equal indices"), ((((1, 9), 2),), "outside ground set"),
                          ((((1, 2), 0),), "positive integer"),
                          ((((1, 3), 1), ((1, 2), 1)), "strictly ascending")):
        with pytest.raises(PreconditionError, match=message):
            Monomial(X3, 1, exps)
    # zero exponents are dropped, not stored
    assert Monomial.make(X3, 5, {(1, 2): 0}).exps == ()
    # labels and exponents are ints, the coefficient an int or a Fraction: never converted
    for exps in ({(1, 2): 2.7}, {(1, 2): "3"}, {(1, 2): 0.0}, {(1, 2): False}):
        with pytest.raises(PreconditionError, match="positive integer"):
            Monomial.make(X3, 1, exps)
    with pytest.raises(PreconditionError, match="integer labels"):
        Monomial.make(X3, 1, {(1.9, 2): 1})
    for exps, message in (((((1.0, 2), 1),), "integer labels"), ((((1, 2), True),), "positive integer"),
                          ((((True, 2), 1),), "integer labels")):
        with pytest.raises(PreconditionError, match=message):
            Monomial(X3, 1, exps)
    for coeff in (0.1, "1/3", True):
        with pytest.raises(PreconditionError):
            Monomial(X3, coeff)
    # exps and terms are tuples, down to each item and pair: a list would fail hash()
    for exps in ([((1, 2), 1)], (([1, 2], 1),), ([(1, 2), 1],), frozenset({((1, 2), 1)})):
        with pytest.raises(PreconditionError, match="tuple"):
            Monomial(X3, 1, exps)
    with pytest.raises(PreconditionError, match="tuple"):
        Polynomial(X3, [Monomial(X3, 1, (((1, 2), 1),))])
    # terms are given in the canonical order, highest degree first
    with pytest.raises(PreconditionError, match="canonical order"):
        Polynomial(X3, (Monomial(X3, 1, (((1, 2), 1),)), Monomial(X3, 1, (((1, 2), 2),))))
    # every exps item is a ((i, j), e) pair
    for exps in (((1, 2),), (((1, 2), 3, 4),), (((1, 2, 3), 1),)):
        with pytest.raises(PreconditionError, match="pairs"):
            Monomial(X3, 1, exps)
    # make reads every item as a pair (i, j) and an exponent before it sorts them
    for exps in ({(1, 2, 3): 1}, [((1, 2), 1), 5], {(1, 2): 1, ("a", 2): 1}):
        with pytest.raises(PreconditionError, match="pairs"):
            Monomial.make(X3, 1, exps)
    assert Monomial(X3, 2).coeff == Fraction(2) and type(Monomial(X3, 2).coeff) is Fraction


def test_every_ground_is_checked():
    # a ground that is not an IndexSet is refused, never met with a bare TypeError or AttributeError
    def uses(ground):
        return (lambda: Monomial(ground, 1), lambda: Monomial.make(ground, 1, {}),
                lambda: Polynomial(ground, ()), lambda: Polynomial.from_map(ground, {}),
                lambda: Block(ground, (1,)), lambda: enumerate_blocks(ground),
                lambda: pivot_lemma_check(ground, 2), lambda: split_lemma_check(ground, 2),
                lambda: block_ideal_slice(ground, 2, 5), lambda: graded_report(ground, 2, [5]),
                lambda: graded_report(ground, 2, []),
                lambda: parse_poly("x[1,2]", ground))
    for ground in (5, (1, 2, 3)):
        for use in uses(ground):
            with pytest.raises(PreconditionError, match="IndexSet"):
                use()
        # poly_from_json reports a bad ground as it reports its other defects
        for obj in ({"terms": []}, {"terms": [{"coeff": "1", "exps": [[[1, 2], 1]]}]}):
            with pytest.raises(MalformedCertificateError):
                poly_from_json(obj, ground)
    with pytest.raises(PreconditionError, match="mapping"):
        Polynomial.from_map(X3, 5)
    # too few labels: two for the ring and blocks, three for the lemma checks
    for use in (lambda: Polynomial(IndexSet((1,)), ()), lambda: enumerate_blocks(IndexSet((1,))),
                lambda: block_ideal_slice(IndexSet((1,)), 2, 5), lambda: parse_poly("3", IndexSet((1,))),
                lambda: pivot_lemma_check(X2, 2), lambda: split_lemma_check(X2, 2)):
        with pytest.raises(PreconditionError, match="at least"):
            use()


@pytest.mark.parametrize("call, near_miss", [
    pytest.param(verify_certificate, P("x[1,2]"), id="verify_certificate"),
    pytest.param(normal_form, Monomial.make(X3, 1, {(1, 2): 1}), id="normal_form"),
    pytest.param(lambda arg: rewrite_to_base(arg, 1), P("x[1,2]"), id="rewrite_to_base"),
    pytest.param(lambda arg: block_ideal_slice(X3, 2, 1).contains(arg), Monomial.make(X3, 1, {(1, 2): 1}),
                 id="contains"),
    pytest.param(lambda arg: eq_mod_relations(arg, P("x[1,2]")), Monomial.make(X3, 1, {(1, 2): 1}), id="eq_p"),
    pytest.param(lambda arg: eq_mod_relations(P("x[1,2]"), arg), Monomial.make(X3, 1, {(1, 2): 1}), id="eq_q"),
])
def test_entry_points_check_their_argument_type(call, near_miss):
    # a wrong type is refused with PreconditionError, also under -O, never a bare AttributeError or TypeError
    for arg in (None, "x[1,2]", Block(X3, (1,)), near_miss):
        with pytest.raises(PreconditionError, match="expects"):
            call(arg)


def test_canonical_term_order():
    p = P("x[1,3]^3+x[1,2]*x[1,3]^2+x[1,2]")
    assert [t.exps for t in p.terms] == [
        (((1, 2), 1), ((1, 3), 2)),
        (((1, 3), 3),),
        (((1, 2), 1),),
    ]


def _reference_key(m):
    """``Monomial.sort_key`` as it is defined: the degree negated, then each (pair, -e)."""
    return (-m.degree, tuple((p, -e) for p, e in m.exps))


def test_sort_key_matches_its_definition():
    # sort_key sums the degree and builds the pairs in one loop
    rng = random.Random(2601)
    monos = [Monomial.make(X3, 5), Monomial.make(X3, Fraction(-1, 3), {(2, 1): 4})]
    for n in range(2, 6):
        ground = standard_ground(n)
        monos += [random_monomial(rng, ground, rng.randint(0, 12)) for _ in range(25)]
    for m in monos:
        assert m.sort_key() == _reference_key(m)


def test_sorted_poly_gives_canonical_order_for_any_term_count():
    # _sorted_poly builds no key for fewer than two terms, and sorts the rest
    assert _sorted_poly(X3, []).terms == ()
    one = Monomial.make(X3, 2, {(3, 1): 3})
    assert _sorted_poly(X3, iter([one])).terms == (one,)
    rng = random.Random(2602)
    by_exps = {}
    for _ in range(40):
        m = random_monomial(rng, X3, rng.randint(0, 6))
        by_exps[m.exps] = m
    canonical = sorted(by_exps.values(), key=_reference_key)
    Polynomial(X3, tuple(canonical))  # the checked constructor accepts the order
    shuffled = canonical[:]
    rng.shuffle(shuffled)
    for given in (canonical, canonical[::-1], shuffled):
        assert _sorted_poly(X3, given).terms == tuple(canonical)


def test_constant_takes_int_or_fraction_only():
    assert Polynomial.constant(X3, 3).terms == (Monomial(X3, 3),)
    assert Polynomial.constant(X3, Fraction(-3, 4)).terms == (Monomial(X3, Fraction(-3, 4)),)
    assert type(Polynomial.constant(X3, 3).terms[0].coeff) is Fraction
    assert Polynomial.constant(X3, 0) == Polynomial.zero(X3)
    # the same values Monomial refuses: never converted through Fraction()
    for value in (0.1, True, "3/4", 1.0, None):
        with pytest.raises(PreconditionError, match="int or a Fraction"):
            Polynomial.constant(X3, value)
    # from_map drops only int and Fraction zeros: a float, bool or Decimal zero is refused, not dropped
    exps = (((1, 2), 1),)
    for value in (0.0, False, Decimal(0), 0.1, None):
        with pytest.raises(PreconditionError, match="int or a Fraction"):
            Polynomial.from_map(X3, {exps: value})
    for value in (0, Fraction(0)):
        assert Polynomial.from_map(X3, {exps: value}) == Polynomial.zero(X3)


def test_zero_polynomial_has_no_degree():
    assert P("x[1,2]^2-x[1,3]").degree == 2
    with pytest.raises(PreconditionError, match="zero polynomial has no degree"):
        Polynomial.zero(X3).degree


# -- arithmetic --------------------------------------------------------------

def test_add_examples():
    assert P("x[1,2]") + P("x[2,1]") == P("x[1,2]+x[2,1]")
    assert P("x[1,2]") + P("-x[1,2]") == Polynomial.zero(X3)
    assert P("2*x[1,3]") + P("1/2*x[1,3]") == P("5/2*x[1,3]")


def test_mul_examples():
    assert P("x[1,2]") * P("x[1,2]") == P("x[1,2]^2")
    assert P("x[1,2]+x[2,3]") * P("x[1,2]") == P("x[1,2]^2+x[1,2]*x[2,3]")
    assert P("x[1,2]") * Polynomial.zero(X3) == Polynomial.zero(X3)


def test_ground_mismatch_rejected():
    with pytest.raises(GroundMismatchError):
        P("x[1,2]", X2) + P("x[1,2]", X3)
    with pytest.raises(GroundMismatchError):
        P("x[1,2]", X2) * P("x[1,2]", X3)
    with pytest.raises(GroundMismatchError, match="multiply monomials"):
        Monomial.make(X2, 1, {(1, 2): 1}) * Monomial.make(X3, 1, {(1, 2): 1})
    with pytest.raises(GroundMismatchError, match="term ground set"):
        Polynomial(X3, (Monomial.make(X2, 1, {(1, 2): 1}),))


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(80):
        ground = standard_ground(rng.randint(2, 4))
        p = random_poly(rng, ground)
        q = random_poly(rng, ground)
        r = random_poly(rng, ground)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial.zero(ground) == p
        assert p * Polynomial.constant(ground, 1) == p


# -- rewriting to base variables ---------------------------------------------

def test_rewrite_single_variables():
    m = Monomial.make(X3, 1, {(2, 1): 1})
    assert rewrite_to_base(m, 1) == P("-x[1,2]")
    m = Monomial.make(X3, 1, {(2, 3): 1})
    assert rewrite_to_base(m, 1) == P("x[1,3]-x[1,2]")


def test_rewrite_product():
    m = Monomial.make(X3, 1, {(2, 3): 1, (3, 1): 2})
    assert rewrite_to_base(m, 1) == P("-x[1,2]*x[1,3]^2+x[1,3]^3")


def test_rewrite_keeps_class():
    # the rewrite changes the representative, never the evaluation
    rng = random.Random(5)
    for _ in range(60):
        ground = standard_ground(rng.randint(2, 5))
        p = random_poly(rng, ground, max_terms=2, max_degree=4)
        for t in p.terms:
            q = rewrite_to_base(t, ground.min())
            point = random_point(rng, ground)
            assert eval_at(q, point) == eval_at(t.as_poly(), point)


def test_rewrite_rational_coefficient_exact():
    m = Monomial.make(X3, Fraction(-7, 12), {(2, 3): 2, (3, 1): 1})
    q = rewrite_to_base(m, 1)
    assert q == P("7/12*x[1,3]^3-7/6*x[1,2]*x[1,3]^2+7/12*x[1,2]^2*x[1,3]")
    point = {1: Fraction(2, 3), 2: Fraction(-5, 7), 3: Fraction(11, 2)}
    for base in X3:
        q = rewrite_to_base(m, base)
        assert all(math.gcd(t.coeff.numerator, t.coeff.denominator) == 1 for t in q.terms)
        assert eval_at(q, point) == eval_at(m.as_poly(), point)


def test_rewrite_requires_member_base():
    # 1.0 and True equal label 1, so a membership test alone let them through:
    # the rewrite then printed x[1.0,2], and the shared layout it cached under a
    # key equal to base 1's handed float labels to every later rewrite and
    # normal form over the ground, so a valid decompose raised PreconditionError.
    _shared_keys.cache_clear()
    for base in (9, 1.0, True, 2.0, "1", None):
        for degree in (1, 6, 12, 15):
            with pytest.raises(PreconditionError, match="integer label"):
                rewrite_to_base(Monomial.make(X3, 1, {(2, 3): degree}), base)
    nf = normal_form(P("x[2,3]^12"))
    assert all(type(lab) is int for t in nf.terms for pair, _ in t.exps for lab in pair)
    assert verify_certificate(decompose(Monomial.make(X3, 1, {(1, 2): 6, (2, 3): 6}), 2))


def test_expansion_budget():
    # each of these ran for seconds (x[2,3]^9999) or without end before the budget
    for mono in (Monomial.make(X3, 1, {(2, 3): 9999}),
                 Monomial.make(X3, 1, {(1, 2): 10**8, (2, 3): 10**8})):
        with pytest.raises(SizeLimitError):
            rewrite_to_base(mono, 1)
        with pytest.raises(SizeLimitError):
            normal_form(P("x[1,2]") + mono.as_poly())
    # one term at the vanishing bound of n = 5, g = 3 (degree 57) is inside it
    x5 = standard_ground(5)
    assert normal_form(Monomial.make(x5, 1, {(2, 3): 57}).as_poly()).degree == 57
    # the charge is summed over the rows: 3161 * 3162 = 9,995,082 and 3161 * 3161 = 9,991,921
    terms = [Monomial.make(X3, 1, {(1, 3): k, (2, 3): 3161 - k}) for k in range(2)]
    with pytest.raises(SizeLimitError, match="measures 19987003"):
        normal_form(Polynomial.from_map(X3, {t.exps: t.coeff for t in terms}))


def test_expansion_budget_threshold_for_dense_terms():
    # One term spread evenly over the pairs off base label 1 is charged for every
    # key of every row it builds, so at n = 5 (six pairs) degree 61 fits and 62 is
    # refused, and at n = 4 (three pairs) 125 fits and 126 is refused.  The earlier
    # up-front measure, capped by the base monomials a term can reach, refused
    # from degree 87 and 271: a change to the charge moves these figures.
    for n, fits in ((5, 61), (4, 125)):
        ground = standard_ground(n)
        pairs = [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]

        def spread(degree):
            q, r = divmod(degree, len(pairs))
            return Monomial.make(ground, 1, {pair: q + (k < r) for k, pair in enumerate(pairs)})

        assert rewrite_to_base(spread(fits), 1).degree == fits
        with pytest.raises(SizeLimitError):
            rewrite_to_base(spread(fits + 1), 1)


def _substituted(mono, base):
    """``mono`` under x[i,j] -> x[base,j] - x[base,i], x[base,base] = 0, by Polynomial arithmetic."""
    ground = mono.ground

    def x(j):
        return Polynomial.zero(ground) if j == base else Polynomial.variable(ground, base, j)

    out = Polynomial.constant(ground, mono.coeff)
    for (i, j), e in mono.exps:
        for _ in range(e):
            out = out * (x(j) - x(i))
    return out


def test_expansion_matches_polynomial_substitution():
    # Degrees on both sides of 8, 16 and 32: the expansion packs each base
    # exponent into a field as wide as the top degree's bit length, so a field
    # holding exactly 8, 16 or 32 would spill over if it were one bit narrower.
    rng = random.Random(17)
    for n in range(2, 6):
        ground = standard_ground(n)
        labels = list(ground)
        pairs = [(i, j) for i in labels for j in labels if i != j]
        for degree in (7, 8, 15, 16, 31, 32, 33):
            coeff = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 6))
            # x[i,j]^a * x[j,i]^b with b odd, off the base label when there is room
            i, j = sorted(rng.sample(labels[1:], 2)) if n > 2 else (1, 2)
            b = rng.randrange(1, degree + 1, 2)
            spread = rng.sample(pairs, min(3, len(pairs)))
            cuts = sorted(rng.randint(0, degree) for _ in spread[1:])
            monos = [
                Monomial.make(ground, coeff, {rng.choice(pairs): degree}),
                Monomial.make(ground, -coeff, {(i, j): degree - b, (j, i): b}),
                Monomial.make(ground, 1, dict(zip(spread, (hi - lo for lo, hi in
                                                          zip([0] + cuts, cuts + [degree]))))),
            ]
            for mono in monos:
                assert mono.degree == degree
                for base in labels:
                    assert rewrite_to_base(mono, base) == _substituted(mono, base)
            total = sum_of(ground, monos)
            assert normal_form(total) == sum((_substituted(m, 1) for m in total.terms),
                                             Polynomial.zero(ground))
        # an inhomogeneous polynomial: the width follows the degree-32 term,
        # not the degree-1 term beside it
        low, high = rng.sample(pairs, 2)
        p = sum_of(ground, [Monomial.make(ground, 3, {low: 1}),
                            Monomial.make(ground, Fraction(-1, 2), {high: 32})])
        assert normal_form(p) == _substituted(p.terms[0], 1) + _substituted(p.terms[1], 1)


def test_block_forms_are_kept_per_ground_base_and_width():
    # One process builds the form of x[2,3]^2 * x[3,1]^2 over two grounds, for
    # every base label and in fields 3 and 4 bits wide; each must be that
    # monomial's own rewrite, so no form is read under another's keys.
    _block_form.cache_clear()
    pairs = ((2, 3), (3, 1))
    for ground in (X3, standard_ground(4)):
        mono = Monomial.make(ground, 1, {pair: 2 for pair in pairs})
        for base in ground:
            for bits in (3, 4):
                keys = _BaseKeys(ground, base, bits)
                assert keys.block(pairs, 2) == keys.expand(rewrite_to_base(mono, base).terms, 1, 4)


def test_decoded_keys_are_kept_per_ground_base_and_width():
    # Label for label, the same monomials over grounds (1,2,3) and (2,3,5) pack to
    # the same keys, and degrees 15/16 and 31/32 step the field width: each layout's
    # decode table must give its own ground's labels and its own width's fields,
    # whichever layout decodes a key first.  Coefficient 2 takes the shared
    # Fractions, -5/3 the scaled path.
    cases = []
    for labels in ((1, 2, 3), (2, 3, 5)):
        ground = IndexSet(labels)
        a, b, c = labels
        for degree in (15, 16, 31, 32):
            for coeff in (2, Fraction(-5, 3)):
                mono = Monomial.make(ground, coeff, {(a, b): degree - 3, (b, c): 2, (c, a): 1})
                cases += [(mono, base) for base in labels]
    for order in (cases, cases[::-1]):
        _shared_keys.cache_clear()
        for mono, base in order:
            assert rewrite_to_base(mono, base) == _substituted(mono, base)
            assert normal_form(mono.as_poly()) == _substituted(mono, mono.ground.min())


def test_to_poly_equals_from_map_of_its_accumulator():
    # Seeded accumulators of base monomials with coefficients inside and outside
    # -64..64, at scale 1 (the shared Fractions) and above (divided once); each
    # is output twice, so keys are decoded on the first output and read after.
    rng = random.Random(29)
    for n in (2, 3, 4):
        ground = standard_ground(n)
        for base in ground:
            keys = _BaseKeys(ground, base, 4)
            others = [lab for lab in ground if lab != base]
            for scale in (1, 3, 8):
                acc, expected = {}, {}
                for _ in range(rng.randint(0, 16)):
                    powers = [rng.randint(0, 5) for _ in others]
                    c = rng.choice([1, -1]) * rng.choice([rng.randint(1, 64), rng.randint(65, 10**6)])
                    acc[sum(e * keys.units[lab] for lab, e in zip(others, powers))] = c
                    expected[tuple(((base, lab), e) for lab, e in zip(others, powers) if e)] = Fraction(c, scale)
                for _ in range(2):
                    poly = keys.to_poly(acc, scale)
                    assert poly == Polynomial.from_map(ground, expected)
                    assert all(type(t.coeff) is Fraction for t in poly.terms)
                    assert Polynomial(ground, poly.terms) == poly


def test_normal_form_of_base_terms_mixed_with_folded_terms():
    # Terms in the base variables go straight into the level-0 group, where the
    # folded terms' expansions land: mixed in one normal form they must add up
    # as they do separately, and give zero when everything cancels.
    rng = random.Random(31)
    for n in (3, 4):
        ground = standard_ground(n)
        for _ in range(12):
            folded = sum_of(ground, [random_monomial(rng, ground, rng.randint(1, 6)) for _ in range(3)])
            nf = normal_form(folded)
            # x[j,1] is in the base variables too, with the sign of its power
            base_terms = sum_of(ground, [Monomial.make(ground, rng.choice([-2, -1, 1, 3]),
                                                       {rng.choice([(1, j), (j, 1)]): rng.randint(1, 6)})
                                         for j in ground.elements[1:]])
            cancelling = base_terms - Polynomial(ground, nf.terms[::2])
            expected = sum((_substituted(t, 1) for t in (*folded.terms, *cancelling.terms)), Polynomial.zero(ground))
            assert normal_form(folded + cancelling) == expected == nf + normal_form(cancelling)
            assert normal_form(folded - nf).is_zero


def test_normal_form_coefficients_at_the_edges_of_the_shared_fractions():
    # Integers -64..64 share one Fraction each: -65 and 65 are built afresh, and so
    # is every coefficient with a denominator.  Each is a Fraction, and the terms
    # pass the checked constructor, which checks their canonical order again.
    for coeff in (-65, -64, 64, 65, Fraction(64, 3)):
        mono = Monomial.make(X3, coeff, {(2, 3): 1})
        nf = normal_form(mono.as_poly())
        assert nf == _substituted(mono, 1)
        assert sorted(t.coeff for t in nf.terms) == [-abs(coeff), abs(coeff)]
        assert all(type(t.coeff) is Fraction for t in nf.terms)
        assert Polynomial(X3, nf.terms) == nf


# -- normal forms ------------------------------------------------------------

def test_normal_form_examples():
    assert normal_form(P("x[1,2]+x[2,1]")) == Polynomial.zero(X3)
    assert normal_form(P("x[1,2]+x[2,3]+x[3,1]")) == Polynomial.zero(X3)
    assert normal_form(P("x[2,3]")) == P("x[1,3]-x[1,2]")


def test_normal_form_kills_all_generators_upto_six_labels():
    for n in range(2, 7):
        ground = standard_ground(n)
        for gen in relation_generators(ground):
            assert normal_form(gen).is_zero
        # every ordered triple, not only the ascending ones
        labels = list(ground)
        for i in labels:
            for j in labels:
                for k in labels:
                    if len({i, j, k}) == 3:
                        gen = (
                            Polynomial.variable(ground, i, j)
                            + Polynomial.variable(ground, j, k)
                            + Polynomial.variable(ground, k, i)
                        )
                        assert normal_form(gen).is_zero


def test_normal_form_idempotent_randomized():
    rng = random.Random(11)
    for _ in range(200):
        ground = standard_ground(rng.randint(2, 5))
        p = random_poly(rng, ground)
        nf = normal_form(p)
        assert normal_form(nf) == nf


def test_normal_form_is_ring_homomorphism_randomized():
    rng = random.Random(12)
    for _ in range(150):
        ground = standard_ground(rng.randint(2, 4))
        p = random_poly(rng, ground)
        q = random_poly(rng, ground)
        assert normal_form(p + q) == normal_form(normal_form(p) + normal_form(q))
        assert normal_form(p * q) == normal_form(normal_form(p) * normal_form(q))


def test_normal_form_preserves_homogeneous_degree():
    rng = random.Random(13)
    for _ in range(80):
        ground = standard_ground(rng.randint(2, 5))
        d = rng.randint(1, 5)
        p = sum_of(ground, [random_monomial(rng, ground, d) for _ in range(3)])
        nf = normal_form(p)
        assert nf.is_zero or (nf.is_homogeneous() and nf.degree == d)


def test_normal_form_agrees_with_evaluation_oracle():
    rng = random.Random(14)
    for _ in range(150):
        ground = standard_ground(rng.randint(2, 5))
        p = random_poly(rng, ground)
        nf = normal_form(p)
        point = random_point(rng, ground)
        assert eval_at(nf, point) == eval_at(p, point)


def test_normal_form_coprime_denominators_exact():
    # denominators 7, 11, 5 and 77 share no common scale below 385, the
    # x[1,2]*x[2,3] pair cancels exactly, and the 15/77 term clears the
    # x[1,2]*x[1,3] coefficient of the normal form to zero
    p = P(
        "1/7*x[2,3]^2+1/11*x[2,3]*x[3,1]+13/5*x[3,1]^2"
        "+3/4*x[1,2]*x[2,3]+3/4*x[2,1]*x[2,3]+15/77*x[1,2]*x[1,3]"
    )
    nf = normal_form(p)
    assert nf == P("1/7*x[1,2]^2+1021/385*x[1,3]^2")
    assert all(t.coeff != 0 for t in nf.terms)
    assert all(math.gcd(t.coeff.numerator, t.coeff.denominator) == 1 for t in nf.terms)
    rng = random.Random(16)
    for _ in range(5):
        point = random_point(rng, X3)
        assert eval_at(nf, point) == eval_at(p, point)


def test_normal_form_lives_in_base_variables():
    rng = random.Random(15)
    for _ in range(60):
        ground = standard_ground(rng.randint(2, 5))
        base = ground.min()
        nf = normal_form(random_poly(rng, ground))
        for t in nf.terms:
            assert all(i == base for (i, _), _ in t.exps)


# -- congruence --------------------------------------------------------------

def test_eq_mod_relations_examples():
    assert eq_mod_relations(P("x[1,2]"), P("-x[2,1]"))
    assert eq_mod_relations(P("x[1,3]"), P("x[1,2]+x[2,3]"))
    assert not eq_mod_relations(P("x[1,2]"), P("x[1,3]"))


def test_eq_mod_relations_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        eq_mod_relations(P("x[1,2]", X2), P("x[1,2]", X3))
