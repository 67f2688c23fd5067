"""Shared builders and independent oracles for the test suite."""

from fractions import Fraction
import random

from blockcert import IndexSet, Monomial, Polynomial
from blockcert import combinatorics
from blockcert.combinatorics import sample_composition


def ordered_pairs(ground):
    return [(i, j) for i in ground for j in ground if i != j]


def eval_at(poly, values):
    """Evaluate under x[i,j] -> values[j] - values[i].

    Both relation families vanish identically under this substitution, so it
    gives an oracle independent of the normal-form rewrite: congruent
    polynomials must evaluate equally at every point.
    """
    total = Fraction(0)
    for t in poly.terms:
        prod = t.coeff
        for (i, j), e in t.exps:
            prod *= (values[j] - values[i]) ** e
        total += prod
    return total


def random_point(rng, ground):
    return {lab: Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for lab in ground}


def random_monomial(rng, ground, degree, unit_coeff=False):
    pairs = ordered_pairs(ground)
    comp = sample_composition(degree, len(pairs), rng)
    coeff = 1 if unit_coeff else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return Monomial.make(ground, coeff, dict(zip(pairs, comp)))


def sum_of(ground, monomials):
    """The sum of ``monomials`` as a polynomial, like terms added."""
    acc = {}
    for m in monomials:
        acc[m.exps] = acc.get(m.exps, 0) + m.coeff
    return Polynomial.from_map(ground, acc)


def random_poly(rng, ground, max_terms=3, max_degree=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append(random_monomial(rng, ground, rng.randint(0, max_degree)))
    return sum_of(ground, terms)


def relation_generators(ground):
    """A canonical generating set: x[i,j]+x[j,i] (i<j) and the ascending triples."""
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


def standard_ground(n):
    return IndexSet(tuple(range(1, n + 1)))


def fail_pivot_once(monkeypatch):
    """Make ``select_pivot`` fail on x[1,2]^11 only, the composition (11, 0, 0)
    of the pivot lemma check at n = 3, g = 2, as an internal failure would."""
    real = combinatorics.select_pivot

    def fails_once(mono, required_rest):
        if mono.exps == (((1, 2), 11),):
            raise RuntimeError("no qualifying pivot")
        return real(mono, required_rest)

    monkeypatch.setattr(combinatorics, "select_pivot", fails_once)
