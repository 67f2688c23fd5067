"""Certificate construction, block merging, and independent verification."""

from fractions import Fraction
import random

import pytest

from blockcert import (
    Block,
    Certificate,
    CertificateEntry,
    IndexSet,
    MalformedCertificateError,
    Monomial,
    Polynomial,
    PreconditionError,
    base_certificate,
    decompose,
    merge_blocks,
    normal_form,
    vanishing_bound,
    verify_certificate,
)
from helpers import ordered_pairs, sample_composition, standard_ground

X2 = IndexSet((1, 2))
X3 = IndexSet((1, 2, 3))
X4 = IndexSet((1, 2, 3, 4))


def block_monomial(ground, block, g):
    return Monomial.make(ground, 1, {pair: 2 * g for pair in block.pairs})


# -- vanishing bound ----------------------------------------------------------

def test_vanishing_bound_values():
    assert vanishing_bound(2, 2) == 4
    assert vanishing_bound(2, 3) == 6
    assert vanishing_bound(3, 2) == 11
    assert vanishing_bound(3, 3) == 17
    assert vanishing_bound(4, 2) == 22
    assert vanishing_bound(4, 3) == 34


def test_vanishing_bound_preconditions():
    with pytest.raises(PreconditionError):
        vanishing_bound(1, 2)
    with pytest.raises(PreconditionError):
        vanishing_bound(3, 1)


# -- two-label closed form -----------------------------------------------------

def test_base_certificate_examples():
    cert = base_certificate(Monomial.make(X2, 5, {(1, 2): 3, (2, 1): 2}), 2)
    assert cert.entries == (
        CertificateEntry(Block(X2, (1,)), Polynomial.from_terms(
            X2, [Monomial.make(X2, 5, {(1, 2): 1})])),
    )
    cert = base_certificate(Monomial.make(X2, 1, {(1, 2): 4}), 2)
    assert cert.entries[0].cofactor == Polynomial.constant(X2, 1)
    # odd count of reversed factors flips the sign, even count does not
    cert = base_certificate(Monomial.make(X2, 1, {(2, 1): 4}), 2)
    assert cert.entries[0].cofactor == Polynomial.constant(X2, 1)
    cert = base_certificate(Monomial.make(X2, 1, {(1, 2): 2, (2, 1): 3}), 2)
    assert cert.entries[0].cofactor == Polynomial.constant(X2, -1) * Polynomial.variable(X2, 1, 2)


def test_base_certificate_below_threshold():
    with pytest.raises(PreconditionError, match="below 2g"):
        base_certificate(Monomial.make(X2, 1, {(1, 2): 3}), 2)


def test_base_certificate_matches_closed_formula_sweep():
    for g in (2, 3):
        for total in range(2 * g, 2 * g + 4):
            for a in range(total + 1):
                b = total - a
                lam = Fraction(7, 3)
                mono = Monomial.make(X2, lam, {(1, 2): a, (2, 1): b})
                cert = base_certificate(mono, g)
                entry, = cert.entries
                assert entry.block == Block(X2, (1,))
                expected = Monomial.make(
                    X2, lam * (-1) ** b, {(1, 2): total - 2 * g}
                ).as_poly()
                assert entry.cofactor == expected
                assert verify_certificate(cert)


# -- merging blocks --------------------------------------------------------------

def test_merge_blocks_h_branch():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    inner = Block(IndexSet((1, 4)), (1,))
    merged, leftover = merge_blocks(outer, inner, X4, "H")
    assert merged == Block(X4, (1,))
    assert leftover == ()


def test_merge_blocks_w_branch():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    inner = Block(IndexSet((2, 3, 4)), (4,))
    merged, leftover = merge_blocks(outer, inner, X4, "W")
    assert merged == Block(X4, (1, 4))
    assert leftover == ()


def test_merge_blocks_with_leftover():
    outer = Block(IndexSet((1, 2, 3)), (1, 2))
    inner = Block(IndexSet((1, 2, 4)), (1,))
    merged, leftover = merge_blocks(outer, inner, X4, "H")
    assert merged == Block(X4, (1,))
    assert leftover == ((2, 3),)


def test_merge_blocks_normalizes_inner_orientation():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    # pivot 4 on the left gets transposed for the H branch
    inner = Block(IndexSet((1, 4)), (4,))
    merged, leftover = merge_blocks(outer, inner, X4, "H")
    assert merged == Block(X4, (1,)) and leftover == ()


def test_merge_blocks_validation():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    with pytest.raises(PreconditionError, match="branch"):
        merge_blocks(outer, Block(IndexSet((1, 4)), (1,)), X4, "X")
    with pytest.raises(PreconditionError, match="exactly one pivot"):
        merge_blocks(outer, Block(IndexSet((1, 2)), (1,)), X4, "H")
    with pytest.raises(PreconditionError, match="side plus the pivot"):
        # W branch expects the inner ground to be outer.right + pivot
        merge_blocks(outer, Block(IndexSet((1, 4)), (1,)), X4, "W")


# -- decompose --------------------------------------------------------------------

def test_decompose_two_labels_equals_closed_form():
    mono = Monomial.make(X2, 1, {(1, 2): 3, (2, 1): 2})
    assert decompose(mono, 2) == base_certificate(mono, 2)


def test_decompose_three_label_example():
    mono = Monomial.make(X3, 1, {(1, 2): 4, (1, 3): 4, (2, 1): 3})
    cert = decompose(mono, 2)
    assert verify_certificate(cert)
    assert cert.input == mono and cert.g == 2


def test_decompose_below_bound():
    mono = Monomial.make(X3, 1, {(1, 2): 5, (2, 3): 5})
    with pytest.raises(PreconditionError, match="below the vanishing bound"):
        decompose(mono, 2)


def test_decompose_deterministic():
    rng = random.Random(21)
    pairs = ordered_pairs(X3)
    for _ in range(10):
        comp = sample_composition(11, len(pairs), rng)
        mono = Monomial.make(X3, 1, dict(zip(pairs, comp)))
        assert decompose(mono, 2) == decompose(mono, 2)


def test_decompose_entries_canonical_orientation():
    rng = random.Random(22)
    pairs = ordered_pairs(X3)
    for _ in range(20):
        comp = sample_composition(12, len(pairs), rng)
        mono = Monomial.make(X3, 1, dict(zip(pairs, comp)))
        cert = decompose(mono, 2)
        lefts = [entry.block.left for entry in cert.entries]
        assert lefts == sorted(lefts)
        for entry in cert.entries:
            assert X3.min() in entry.block.right


def test_decompose_homogeneity_invariant():
    rng = random.Random(23)
    for n, g, deg in ((3, 2, 11), (3, 2, 13), (3, 3, 17), (4, 2, 22)):
        ground = standard_ground(n)
        pairs = ordered_pairs(ground)
        for _ in range(6):
            comp = sample_composition(deg, len(pairs), rng)
            mono = Monomial.make(ground, 1, dict(zip(pairs, comp)))
            cert = decompose(mono, g)
            for entry in cert.entries:
                target = deg - 2 * g * entry.block.pair_count
                assert all(t.degree == target for t in entry.cofactor.terms)


def test_decompose_soundness_random_sample():
    rng = random.Random(24)
    for n, g in ((3, 2), (3, 3), (4, 2)):
        ground = standard_ground(n)
        pairs = ordered_pairs(ground)
        bound = vanishing_bound(n, g)
        for _ in range(8):
            deg = bound + rng.randint(0, 2)
            comp = sample_composition(deg, len(pairs), rng)
            mono = Monomial.make(ground, rng.choice([1, -2, Fraction(3, 7)]), dict(zip(pairs, comp)))
            assert verify_certificate(decompose(mono, g))


def test_decompose_rejects_non_monomial():
    with pytest.raises(PreconditionError):
        decompose("x[1,2]", 2)


# -- verification ------------------------------------------------------------------

def test_verify_base_case_true():
    cert = base_certificate(Monomial.make(X2, 5, {(1, 2): 3, (2, 1): 2}), 2)
    assert verify_certificate(cert)


def test_verify_perturbed_coefficient_false():
    mono = Monomial.make(X2, 5, {(1, 2): 3, (2, 1): 2})
    bad = Certificate(
        X2, 2, mono,
        (CertificateEntry(Block(X2, (1,)), Monomial.make(X2, 4, {(1, 2): 1}).as_poly()),),
    )
    assert not verify_certificate(bad)


def test_verify_false_after_small_cofactor_perturbation():
    mono = Monomial.make(X3, Fraction(-3, 7), {(1, 2): 4, (2, 3): 4, (3, 1): 3})
    cert = decompose(mono, 2)
    assert verify_certificate(cert)
    first, *rest = cert.entries
    head, *tail = first.cofactor.terms
    nudged = Monomial(X3, head.coeff + Fraction(1, 1009), head.exps)
    bad_entry = CertificateEntry(first.block, Polynomial(X3, (nudged, *tail)))
    bad = Certificate(X3, 2, mono, (bad_entry, *rest))
    assert not verify_certificate(bad)


def test_verify_exact_block_monomial():
    mono = Monomial.make(X2, 1, {(1, 2): 4})
    cert = Certificate(
        X2, 2, mono,
        (CertificateEntry(Block(X2, (1,)), Polynomial.constant(X2, 1)),),
    )
    assert verify_certificate(cert)


def test_verify_homogeneity_failure_is_false_not_error():
    # wrong cofactor degree: claims deg 6 = 1 + 4 instead of 5
    mono = Monomial.make(X2, 1, {(1, 2): 5})
    cert = Certificate(
        X2, 2, mono,
        (CertificateEntry(Block(X2, (1,)), Monomial.make(X2, 1, {(1, 2): 2}).as_poly()),),
    )
    assert not verify_certificate(cert)


def test_verify_zero_cofactor_entry_is_false():
    mono = Monomial.make(X2, 1, {(1, 2): 4})
    cert = Certificate(
        X2, 2, mono,
        (CertificateEntry(Block(X2, (1,)), Polynomial.zero(X2)),),
    )
    assert not verify_certificate(cert)


def test_malformed_certificates_rejected_at_construction():
    mono = Monomial.make(X2, 1, {(1, 2): 4})
    entry = CertificateEntry(Block(X2, (1,)), Polynomial.constant(X2, 1))
    with pytest.raises(MalformedCertificateError):
        Certificate(X2, 1, mono, (entry,))
    with pytest.raises(MalformedCertificateError):
        Certificate(X3, 2, mono, (entry,))
    with pytest.raises(MalformedCertificateError):
        Certificate(X2, 2, mono, (entry, entry))


def test_verified_certificate_witnesses_ideal_membership():
    mono = Monomial.make(X3, 1, {(1, 2): 6, (2, 3): 5})
    cert = decompose(mono, 2)
    assert verify_certificate(cert)
    total = Polynomial.zero(X3)
    for entry in cert.entries:
        total = total + entry.cofactor * block_monomial(X3, entry.block, 2).as_poly()
    assert normal_form(mono.as_poly() - total).is_zero
