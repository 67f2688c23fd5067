"""End-to-end acceptance checks.

Each test covers one gate criterion and prints a single pass/fail line, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Sample counts
and runtime budgets are asserted, not just reported.
"""

import math
import random
import time
from fractions import Fraction

from blockcert import (
    IndexSet,
    Monomial,
    block_ideal_slice,
    decompose,
    dim_quotient_graded,
    dim_ring_graded,
    normal_form,
    pivot_lemma_check,
    split_lemma_check,
    vanishing_bound,
    verify_certificate,
)
from helpers import random_monomial, random_poly, relation_generators, standard_ground

X2 = IndexSet((1, 2))
X3 = IndexSet((1, 2, 3))
X4 = IndexSet((1, 2, 3, 4))


def _report(num, desc, ok, detail=""):
    line = "[acceptance %d] %s - %s" % (num, "PASS" if ok else "FAIL", desc)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def test_acceptance_1_base_case_exact():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for g in (2, 3):
        for total in range(2 * g, 2 * g + 4):
            for a in range(total + 1):
                b = total - a
                mono = Monomial.make(X2, 1, {(1, 2): a, (2, 1): b})
                cert = decompose(mono, g)
                expected = Monomial.make(
                    X2, Fraction((-1) ** b), {(1, 2): a + b - 2 * g}
                ).as_poly()
                entry = cert.entries[0]
                ok = ok and (
                    len(cert.entries) == 1
                    and entry.block.left == (1,)
                    and entry.block.right == (2,)
                    and entry.cofactor == expected
                    and verify_certificate(cert)
                )
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "base case matches the closed form exactly", ok,
            "%d (a, b) cases, g in {2, 3}, %.3fs" % (cases, elapsed))


def test_acceptance_2_three_labels_sweep():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    failures = 0
    plan = [(11, 500), (12, 100), (13, 100)]
    for degree, count in plan:
        for _ in range(count):
            mono = random_monomial(rng, X3, degree, unit_coeff=True)
            cert = decompose(mono, 2)
            if not verify_certificate(cert):
                failures += 1
    elapsed = time.perf_counter() - t0
    total = sum(count for _, count in plan)
    ok = failures == 0 and elapsed < 300.0
    _report(2, "3-label, g=2 decompositions all verify", ok,
            "%d monomials at degrees 11-13, %d failures, %.1fs"
            % (total, failures, elapsed))


def test_acceptance_3_four_labels_spot_check():
    rng = random.Random(41)
    t0 = time.perf_counter()
    failures = 0
    total = 0
    for degree in (22, 23, 24):
        for _ in range(17):
            mono = random_monomial(rng, X4, degree, unit_coeff=True)
            cert = decompose(mono, 2)
            if not verify_certificate(cert):
                failures += 1
            total += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and total >= 50 and elapsed < 900.0
    _report(3, "4-label, g=2 decompositions all verify", ok,
            "%d monomials at degrees 22-24, %d failures, %.1fs"
            % (total, failures, elapsed))


def test_acceptance_4_pivot_existence():
    checked = 0
    bad = 0
    for g in (2, 3):
        n = 3
        total = n * (n - 1) * g - n + 2
        count, failures = pivot_lemma_check(X3, g)
        assert count == math.comb(total + 2, 2)
        checked += count
        bad += len(failures)
    count, failures = pivot_lemma_check(X4, 2, samples=10_000, seed=7)
    assert count == 10_000
    checked += count
    bad += len(failures)
    _report(4, "pivot selection succeeds on every monomial at the bound", bad == 0,
            "%d monomials (n=3 exhaustive, n=4 sampled), %d failures"
            % (checked, bad))


def test_acceptance_5_branch_dichotomy():
    checked = 0
    bad = 0
    for n in range(3, 7):
        for g in (2, 3):
            count, failures = split_lemma_check(standard_ground(n), g)
            checked += count
            bad += len(failures)
    _report(5, "two-sided degree dichotomy holds at the exact threshold",
            bad == 0, "%d splits over n in 3..6, g in {2, 3}, %d failures"
            % (checked, bad))


def test_acceptance_6_normal_form_soundness():
    gens = 0
    bad = 0
    for n in range(2, 7):
        ground = standard_ground(n)
        for gen in relation_generators(ground):
            gens += 1
            if not normal_form(gen).is_zero:
                bad += 1
        def var(i, j):
            return Monomial.make(ground, 1, {(i, j): 1}).as_poly()

        labels = ground.elements
        for i in labels:
            for j in labels:
                if i == j:
                    continue
                gens += 1
                if not normal_form(var(i, j) + var(j, i)).is_zero:
                    bad += 1
                for k in labels:
                    if k in (i, j):
                        continue
                    gens += 1
                    if not normal_form(var(i, j) + var(j, k) + var(k, i)).is_zero:
                        bad += 1
    rng = random.Random(6)
    trials = 0
    for _ in range(5_000):
        ground = standard_ground(rng.randint(2, 5))
        p = random_poly(rng, ground)
        if normal_form(normal_form(p)) != normal_form(p):
            bad += 1
        trials += 1
    for _ in range(5_000):
        ground = standard_ground(rng.randint(2, 4))
        p = random_poly(rng, ground, max_terms=3, max_degree=3)
        q = random_poly(rng, ground, max_terms=3, max_degree=3)
        if normal_form(p * q) != normal_form(normal_form(p) * normal_form(q)):
            bad += 1
        trials += 1
    _report(6, "normal form kills all relation generators and is a ring map",
            bad == 0, "%d generators (n <= 6), %d randomized trials, %d failures"
            % (gens, trials, bad))


def test_acceptance_7_hilbert_vanishing():
    t0 = time.perf_counter()
    ok = True
    for n, g in ((2, 2), (2, 3), (3, 2)):
        ground = standard_ground(n)
        bound = vanishing_bound(n, g)
        for d in (bound, bound + 1):
            ok = ok and dim_quotient_graded(ground, g, d) == 0
    ok = ok and dim_ring_graded(3, 11) == 12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(7, "graded quotient vanishes at and above the bound", ok,
            "(n, g) in {(2,2), (2,3), (3,2)}, dim R_11 = 12 at n=3, %.1fs"
            % elapsed)


def test_acceptance_8_cross_oracle_agreement():
    rng = random.Random(88)
    disagreements = 0
    total = 0
    for degree, count in ((11, 50), (12, 50)):
        slice_d = block_ideal_slice(X3, 2, degree)
        for _ in range(count):
            mono = random_monomial(rng, X3, degree, unit_coeff=True)
            by_certificate = verify_certificate(decompose(mono, 2))
            by_row_space = slice_d.contains(mono.as_poly())
            if by_certificate != by_row_space:
                disagreements += 1
            total += 1
    _report(8, "certificate verifier agrees with row-space membership",
            disagreements == 0, "%d monomials at degrees 11-12, %d disagreements"
            % (total, disagreements))
