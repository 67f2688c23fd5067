"""Ring arithmetic, base-variable rewriting, and normal forms."""

from fractions import Fraction
import math
import random

import pytest

from blockcert import (
    MINUS_INFINITY,
    GroundMismatchError,
    IndexSet,
    Monomial,
    Polynomial,
    PreconditionError,
    eq_mod_relations,
    normal_form,
    parse_poly,
    relation_generators,
    rewrite_to_base,
)
from helpers import eval_at, random_monomial, random_point, random_poly, standard_ground

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


def test_index_set_subsets():
    assert IndexSet((1, 2, 3)).without(2).elements == (1, 3)
    assert IndexSet((1, 3)).adjoin(2).elements == (1, 2, 3)
    with pytest.raises(PreconditionError):
        IndexSet((1, 3)).without(2)


def test_monomial_validation():
    with pytest.raises(PreconditionError):
        Monomial.make(X3, 0, {(1, 2): 1})
    with pytest.raises(PreconditionError):
        Monomial.make(X3, 1, {(1, 1): 1})
    with pytest.raises(PreconditionError):
        Monomial.make(X3, 1, {(1, 4): 1})
    with pytest.raises(PreconditionError):
        Monomial.make(X3, 1, {(1, 2): -1})
    # zero exponents are dropped, not stored
    assert Monomial.make(X3, 5, {(1, 2): 0}).exps == ()


def test_canonical_term_order():
    p = P("x[1,3]^3+x[1,2]*x[1,3]^2+x[1,2]")
    assert [t.exps for t in p.terms] == [
        (((1, 2), 1), ((1, 3), 2)),
        (((1, 3), 3),),
        (((1, 2), 1),),
    ]


def test_degree_of_zero_is_sentinel():
    zero = Polynomial.zero(X3)
    assert zero.degree is MINUS_INFINITY
    assert MINUS_INFINITY < 0
    assert not (MINUS_INFINITY >= 0)
    assert max(MINUS_INFINITY, 5) == 5


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


def test_pow_matches_repeated_mul():
    p = P("x[1,2]+x[2,3]")
    assert p ** 0 == Polynomial.constant(X3, 1)
    assert p ** 3 == p * p * p
    with pytest.raises(PreconditionError):
        p ** -1


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
    with pytest.raises(PreconditionError):
        rewrite_to_base(Monomial.make(X3, 1, {(1, 2): 1}), 9)


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
        p = Polynomial.from_terms(ground, [random_monomial(rng, ground, d) for _ in range(3)])
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
