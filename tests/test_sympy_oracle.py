"""A third oracle at n = 3: SymPy's Groebner basis of the relation ideal.

``sympy.groebner`` of x[i,j] + x[j,i] and x[i,j] + x[j,k] + x[k,i], in lex
order with the non-base variables first, reduces every polynomial to one in
the base variables x[1,j] alone: the representative ``normal_form`` computes,
found by a different algorithm.  The certificates are rebuilt as SymPy
expressions from their dataclasses, with none of the package's expansion
code.  SymPy is needed by this test only; the package has no dependencies.
n = 4 is left out: reducing 10 of its certificates at g = 2 took 4.9 s.
"""

import itertools
import random

import pytest

from blockcert import decompose, normal_form
from helpers import ordered_pairs, random_poly, standard_ground
from test_golden import golden_inputs

sympy = pytest.importorskip("sympy")

GROUND = standard_ground(3)
BASE = GROUND.min()
X = {(i, j): sympy.Symbol(f"x{i}{j}") for i, j in ordered_pairs(GROUND)}
# lex with the non-base variables first: reduction eliminates them
GENS = [X[p] for p in X if p[0] != BASE] + [X[p] for p in X if p[0] == BASE]


@pytest.fixture(scope="module")
def basis():
    relations = [X[i, j] + X[j, i] for i, j in X]
    relations += [X[i, j] + X[j, k] + X[k, i] for i, j, k in itertools.permutations(GROUND, 3)]
    return sympy.groebner(relations, *GENS, order="lex", domain=sympy.QQ)


def monomial(exps):
    return sympy.Mul(*(X[pair] ** e for pair, e in exps))


def expr(terms):
    return sympy.Add(*(sympy.Rational(t.coeff.numerator, t.coeff.denominator) * monomial(t.exps) for t in terms))


def reduces_to(basis, e):
    return sympy.expand(basis.reduce(e)[1])


def test_normal_form_is_the_groebner_remainder(basis):
    rng = random.Random(2603)
    for _ in range(30):
        p = random_poly(rng, GROUND, max_terms=4, max_degree=6)
        assert reduces_to(basis, expr(p.terms)) == sympy.expand(expr(normal_form(p).terms))


def identity(cert, bumped=None):
    """input - sum of cofactor * block monomial; entry ``bumped`` gets its first coefficient raised by one."""
    total = expr((cert.input,))
    for k, entry in enumerate(cert.entries):
        left = entry.block.left
        block = sympy.Mul(*(X[i, j] ** (2 * cert.g) for i in left for j in GROUND if j not in left))
        cofactor = expr(entry.cofactor.terms)
        if k == bumped:
            cofactor += monomial(entry.cofactor.terms[0].exps)
        total -= cofactor * block
    return total


def test_golden_certificates_reduce_to_zero(basis):
    certs = [decompose(mono, g) for mono, g in golden_inputs() if len(mono.ground) == 3]
    assert len(certs) == 20 and {c.g for c in certs} == {2, 3}
    rng = random.Random(2604)
    for cert in certs:
        assert reduces_to(basis, identity(cert)) == 0
        # a block monomial times a monomial is a product of nonzero linear forms in the base variables
        assert reduces_to(basis, identity(cert, bumped=rng.randrange(len(cert.entries)))) != 0
