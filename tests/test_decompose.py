"""Certificate construction, block merging, and independent verification."""

from fractions import Fraction
import random
import sys

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
    SizeLimitError,
    certificate_to_json,
    decompose,
    enumerate_blocks,
    eq_mod_relations,
    normal_form,
    rewrite_to_base,
    vanishing_bound,
    verify_certificate,
)
from blockcert.combinatorics import sample_composition, split_at
from blockcert.decompose import merge_blocks
from helpers import ordered_pairs, random_monomial, random_poly, standard_ground
from test_golden import above_bound_inputs, golden_inputs

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

def test_decompose_two_labels_examples():
    cert = decompose(Monomial.make(X2, 5, {(1, 2): 3, (2, 1): 2}), 2)
    assert cert.entries == (
        CertificateEntry(Block(X2, (1,)), Monomial.make(X2, 5, {(1, 2): 1}).as_poly()),
    )
    cert = decompose(Monomial.make(X2, 1, {(1, 2): 4}), 2)
    assert cert.entries[0].cofactor == Polynomial.constant(X2, 1)
    # odd count of reversed factors flips the sign, even count does not
    cert = decompose(Monomial.make(X2, 1, {(2, 1): 4}), 2)
    assert cert.entries[0].cofactor == Polynomial.constant(X2, 1)
    cert = decompose(Monomial.make(X2, 1, {(1, 2): 2, (2, 1): 3}), 2)
    assert cert.entries[0].cofactor == Polynomial.constant(X2, -1) * Polynomial.variable(X2, 1, 2)


def test_decompose_two_labels_below_threshold():
    with pytest.raises(PreconditionError, match="degree 3 below the vanishing bound 4"):
        decompose(Monomial.make(X2, 1, {(1, 2): 3}), 2)


def test_decompose_two_labels_equals_closed_form():
    mono = Monomial.make(X2, 1, {(1, 2): 3, (2, 1): 2})
    cofactor = Monomial.make(X2, 1, {(1, 2): 1}).as_poly()
    assert decompose(mono, 2) == Certificate(
        X2, 2, mono, (CertificateEntry(Block(X2, (1,)), cofactor),)
    )


def test_base_certificate_matches_closed_formula_sweep():
    # The recursion solves every two-label sub-problem with _two_label_term,
    # in place when it is a routed side.  Over either label order (the first factor leaves the
    # smaller label or the larger) it must give decompose's two-label
    # certificate, which is the closed formula.
    dec = sys.modules["blockcert.decompose"]
    lam = Fraction(7, 3)
    for g in (2, 3):
        for p, q in ((1, 2), (2, 1), (2, 4), (4, 2)):
            u, v = sorted((p, q))
            ground = IndexSet((u, v))
            for total in range(2 * g, 2 * g + 6):
                for a in range(total + 1):
                    mono = Monomial.make(ground, lam, {(p, q): a, (q, p): total - a})
                    sign = (-1) ** mono.exponent((v, u))
                    expected = Monomial.make(ground, lam * sign, {(u, v): total - 2 * g})
                    cert = decompose(mono, g)
                    entry, = cert.entries
                    assert entry.block == Block(ground, (u,))
                    assert entry.cofactor == expected.as_poly()
                    assert dec._two_label_term((u, v), mono.exps, 2 * g) == ((u,), expected.exps, sign)
                    assert verify_certificate(cert)


# -- merging blocks --------------------------------------------------------------

def test_merge_blocks_h_branch():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    inner = Block(IndexSet((1, 4)), (1,))
    merged, leftover = merge_blocks(outer, inner, X4, "H")
    assert merged == Block(X4, (2, 3, 4))
    assert leftover == ()


def test_merge_blocks_w_branch():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    inner = Block(IndexSet((2, 3, 4)), (4,))
    merged, leftover = merge_blocks(outer, inner, X4, "W")
    assert merged == Block(X4, (2, 3))
    assert leftover == ()


def test_merge_blocks_with_leftover():
    outer = Block(IndexSet((1, 2, 3)), (1, 2))
    inner = Block(IndexSet((1, 2, 4)), (1,))
    merged, leftover = merge_blocks(outer, inner, X4, "H")
    assert merged == Block(X4, (2, 3, 4))
    assert leftover == ((2, 3),)


def test_merge_blocks_normalizes_inner_orientation():
    outer = Block(IndexSet((1, 2, 3)), (1,))
    # pivot 4 on the left: the inner block in the other orientation merges the same way
    inner = Block(IndexSet((1, 4)), (4,))
    merged, leftover = merge_blocks(outer, inner, X4, "H")
    assert merged == Block(X4, (2, 3, 4)) and leftover == ()


def unordered_pairs(pairs):
    return {frozenset(pair) for pair in pairs}


@pytest.mark.parametrize("n", [4, 5])
def test_merge_blocks_every_block_pair(n):
    ground = standard_ground(n)
    checked = 0
    for z in ground:
        for outer in enumerate_blocks(ground.without(z)):
            for branch, side in (("H", outer.left), ("W", outer.right)):
                # enumerate_blocks lists every block in both orientations
                for inner in enumerate_blocks(IndexSet(tuple(sorted(side + (z,))))):
                    merged, leftover = merge_blocks(outer, inner, ground, branch)
                    # the merged block splits the ground into the inner part without z and the rest
                    part = frozenset(inner.right if z in inner.left else inner.left)
                    assert merged.ground == ground and ground.min() in merged.right
                    assert {frozenset(merged.left), frozenset(merged.right)} == {part, frozenset(ground) - part}
                    assert not unordered_pairs(merged.pairs) & unordered_pairs(leftover)
                    assert (unordered_pairs(merged.pairs) | unordered_pairs(leftover)
                            == unordered_pairs(outer.pairs) | unordered_pairs(inner.pairs))
                    assert set(leftover) <= set(outer.pairs)
                    assert all(a < b for a, b in zip(leftover, leftover[1:]))
                    checked += 1
    # n * sum over outer blocks (h, w) of (2^(h+1) - 2) + (2^(w+1) - 2) inner blocks
    assert checked == {4: 4 * (6 * 8), 5: 5 * (8 * 16 + 6 * 12)}[n]


# -- decompose --------------------------------------------------------------------

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


def test_decompose_is_linear_in_the_coefficient():
    rng = random.Random(26)
    for n, g in ((3, 2), (4, 2)):
        mono = random_monomial(rng, standard_ground(n), vanishing_bound(n, g), unit_coeff=True)
        unit = decompose(mono, g)
        for c in (Fraction(-3, 4), Fraction(2), Fraction(5, 3)):
            scaled = decompose(Monomial(mono.ground, c, mono.exps), g)
            assert [e.block for e in scaled.entries] == [e.block for e in unit.entries]
            for got, want in zip(scaled.entries, unit.entries):
                assert [(t.exps, t.coeff) for t in got.cofactor.terms] == \
                    [(t.exps, c * t.coeff) for t in want.cofactor.terms]


def test_decompose_entries_have_integer_coefficients():
    # blockcert.decompose is the function; the module is in sys.modules
    dec = sys.modules["blockcert.decompose"]
    rng = random.Random(27)
    for n, g in ((3, 2), (4, 2)):
        mono = random_monomial(rng, standard_ground(n), vanishing_bound(n, g), unit_coeff=True)
        entries = dec._solve(mono.ground, mono.exps, dec._Recursion.start(n, g))
        assert entries and all(type(c) is int for terms in entries.values() for c in terms.values())


def test_decompose_pure_power_at_the_bound():
    # every degree on one pair: the input the pivot rule handles worst at n = 4
    mono = Monomial.make(X4, 1, {(1, 2): 22})
    assert verify_certificate(decompose(mono, 2))


def test_verify_accepts_n5_certificate_with_many_cofactor_terms():
    # seed 6 of the n = 5 random inputs at the bound: its largest cofactor has 335
    # terms of one degree, which a measure of degree * C(d + 3, 3) per term refused
    mono = Monomial.make(standard_ground(5), Fraction(3, 4), {
        (1, 5): 2, (2, 1): 3, (2, 3): 2, (2, 4): 3, (3, 1): 2, (3, 2): 2, (3, 4): 6,
        (4, 1): 4, (4, 3): 4, (4, 5): 5, (5, 1): 1, (5, 4): 3})
    assert mono == random_monomial(random.Random(6), standard_ground(5), 37)
    assert verify_certificate(decompose(mono, 2))


@pytest.mark.parametrize("seed", [14, 17])
def test_verify_accepts_n5_certificates_whose_terms_share_powers(seed):
    # Expanded term by term, the largest cofactors of these two n = 5 inputs at the
    # bound measured 13,134,324 and 10,044,321, above EXPANSION_LIMIT, so verify
    # refused certificates that decompose had built.
    mono = random_monomial(random.Random(seed), standard_ground(5), 37)
    assert verify_certificate(decompose(mono, 2))


def budget_taken(monkeypatch, mono, g):
    """The certificate of ``mono`` and the items of the work budget its decompose took."""
    dec = sys.modules["blockcert.decompose"]
    runs = []
    original = dec._solve

    def recording(ground, exps, run):
        runs.append(run)
        return original(ground, exps, run)

    with monkeypatch.context() as patch:
        patch.setattr(dec, "_solve", recording)
        cert = decompose(mono, g)
    assert runs and all(run is runs[0] for run in runs)
    # the budget is iter(range(CALL_LIMIT)), so its next item is the count taken
    return cert, next(runs[0].budget)


def test_decompose_work_budget(monkeypatch):
    dec = sys.modules["blockcert.decompose"]
    mono = Monomial.make(X4, Fraction(-1, 2), {(1, 2): 6, (2, 3): 6, (3, 4): 5, (4, 1): 5})
    expected, items = budget_taken(monkeypatch, mono, 2)
    # every sub-problem takes one item, two-label sides solved in place included
    assert items == 39
    # the budget counts the items of one decompose: exactly enough passes, twice in a row
    monkeypatch.setattr(dec, "CALL_LIMIT", items)
    assert decompose(mono, 2) == expected
    assert decompose(mono, 2) == expected
    monkeypatch.setattr(dec, "CALL_LIMIT", items - 1)
    with pytest.raises(SizeLimitError, match=f"more than {items - 1} steps, above its work budget, "
                                             "for a degree-22 monomial on 4 labels at g=2"):
        decompose(mono, 2)


def test_decompose_memo_solves_each_repeated_sub_monomial_once(monkeypatch):
    # every degree on one pair: without the memo the recursion takes 4,094 items
    mono = Monomial.make(X4, 1, {(1, 2): 22})
    assert budget_taken(monkeypatch, mono, 2)[1] == 1360
    # the n = 5 cycle, whose sub-recursion reaches four labels: 220,030 without the memo
    cycle = Monomial.make(standard_ground(5), 1, {(1, 2): 8, (2, 3): 8, (3, 4): 7, (4, 5): 7, (5, 1): 7})
    assert budget_taken(monkeypatch, cycle, 2)[1] == 23660


def test_decompose_memo_lives_in_one_call():
    # The memo key and the join key leave g out, so tables shared between calls
    # would hand g = 2 entries to a g = 3 call of the same exponents, or the
    # leftover pairs^(2g) of a g = 2 join to a g = 3 call of the same blocks, or
    # back.  The cycle's calls share sub-monomials; those of x[1,2]^34 share
    # joins that leave pairs over.
    for exps in ({(1, 2): 10, (2, 3): 10, (3, 4): 7, (4, 1): 7}, {(1, 2): 34}):
        mono = Monomial.make(X4, 1, exps)
        fresh = {g: decompose(mono, g) for g in (2, 3)}
        assert fresh[2].entries != fresh[3].entries
        for g in (2, 3, 2, 3, 2):
            cert = decompose(mono, g)
            assert cert == fresh[g] and verify_certificate(cert)


def test_decompose_rejects_non_monomial():
    with pytest.raises(PreconditionError):
        decompose("x[1,2]", 2)


# -- verification ------------------------------------------------------------------

def test_verify_base_case_true():
    cert = decompose(Monomial.make(X2, 5, {(1, 2): 3, (2, 1): 2}), 2)
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
    with pytest.raises(MalformedCertificateError, match="CertificateEntry"):
        Certificate(X2, 2, mono, ((entry.block, entry.cofactor),))
    # wrong types inside an entry, and entries in a list, which would make the value unhashable
    for bad in (CertificateEntry(5, entry.cofactor), CertificateEntry(entry.block, 5),
                CertificateEntry(entry.block, Monomial.make(X2, 1, {}))):
        with pytest.raises(MalformedCertificateError, match="must hold a Block and a Polynomial"):
            Certificate(X2, 2, mono, (bad,))
    with pytest.raises(MalformedCertificateError, match="entries must be a tuple, got list"):
        Certificate(X2, 2, mono, [entry])
    # an entry whose block or cofactor is over another ground than the input's
    mono3 = Monomial.make(X3, 1, {(1, 2): 11})
    for other in (entry, CertificateEntry(Block(X3, (1,)), Polynomial.constant(X2, 1))):
        with pytest.raises(MalformedCertificateError, match="entry ground set"):
            Certificate(X3, 2, mono3, (other,))


def test_verified_certificate_witnesses_ideal_membership():
    mono = Monomial.make(X3, 1, {(1, 2): 6, (2, 3): 5})
    cert = decompose(mono, 2)
    assert verify_certificate(cert)
    assert claimed_sum_matches(cert)


def claimed_sum_matches(cert):
    """The verifier's claim by Polynomial arithmetic: input = sum of cofactor * block monomial."""
    total = Polynomial.zero(cert.ground)
    for entry in cert.entries:
        total = total + entry.cofactor * block_monomial(cert.ground, entry.block, cert.g).as_poly()
    return eq_mod_relations(cert.input.as_poly(), total)


def perturbed_certificates(cert):
    """The certificate with its first cofactor term's coefficient nudged by 1/1009, and
    with that term moved to another block of the same size (the transpose at two labels)."""
    ground = cert.ground
    first, *rest = cert.entries
    head, *tail = first.cofactor.terms
    nudged = Monomial(ground, head.coeff + Fraction(1, 1009), head.exps)
    yield Certificate(ground, cert.g, cert.input,
                      (CertificateEntry(first.block, Polynomial(ground, (nudged, *tail))), *rest))
    same_size = [b for b in enumerate_blocks(ground)
                 if b != first.block and b.pair_count == first.block.pair_count]
    existing = [e.block for e in rest if e.block in same_size]
    target = (existing or same_size)[0]
    cofactors = {e.block: e.cofactor for e in cert.entries}
    cofactors[first.block] = cofactors[first.block] - head.as_poly()
    cofactors[target] = cofactors.get(target, Polynomial.zero(ground)) + head.as_poly()
    # an emptied entry is dropped: a zero cofactor is refused whatever the sum
    yield Certificate(ground, cert.g, cert.input,
                      tuple(CertificateEntry(b, c) for b, c in cofactors.items() if not c.is_zero))


def test_verify_agrees_with_polynomial_arithmetic():
    """On both golden corpora and two perturbations of each certificate, the
    packed-key verifier answers exactly as input = sum of cofactor * block monomial."""
    certs = [decompose(mono, g) for mono, g in (*golden_inputs(), *above_bound_inputs())]
    answers = {True: 0, False: 0}
    for cert in certs:
        assert verify_certificate(cert) and claimed_sum_matches(cert)
        for bad in perturbed_certificates(cert):
            answer = verify_certificate(bad)
            assert answer == claimed_sum_matches(bad), certificate_to_json(bad)
            answers[answer] += 1
    # the nudge always breaks the claim; a move between transposes keeps it
    assert answers[False] >= len(certs) and answers[True] > 0


def test_verify_tells_apart_every_base_monomial_of_the_degree():
    """A certificate of one base monomial fails for every other of its degree.

    Degree 22 packs into 5-bit fields.  With fields of b = 1 to 4 bits, the key
    of x[1,2]^16*x[1,4]^6 equals that of another degree-22 base monomial (at
    b = 4, 16 + 6 * 256 = 17 * 16 + 5 * 256 for x[1,3]^17*x[1,4]^5), so a
    verifier with fields too narrow would accept one of these claims.
    """
    cert = decompose(Monomial.make(X4, 1, {(1, 2): 16, (1, 4): 6}), 2)
    assert verify_certificate(cert)
    for a in range(23):
        for b in range(23 - a):
            if (a, 22 - a - b) != (16, 6):
                other = Monomial.make(X4, 1, {(1, 2): a, (1, 3): b, (1, 4): 22 - a - b})
                assert not verify_certificate(Certificate(X4, 2, other, cert.entries))


# -- derived values ------------------------------------------------------------------

def rebuilt(value):
    """``value`` built again through the public constructors, which check everything."""
    if isinstance(value, IndexSet):
        return IndexSet(value.elements)
    if isinstance(value, Monomial):
        # the constructor stores exps as given, so a list would pass it
        assert type(value.coeff) is Fraction and type(value.exps) is tuple
        return Monomial(rebuilt(value.ground), value.coeff, value.exps)
    if isinstance(value, Block):
        return Block(rebuilt(value.ground), value.left)
    if isinstance(value, Polynomial):
        assert type(value.terms) is tuple
        Polynomial(value.ground, value.terms)
        return Polynomial(rebuilt(value.ground), tuple(rebuilt(t) for t in value.terms))
    if isinstance(value, tuple):
        return tuple(rebuilt(v) for v in value)
    return value


def assert_valid(value):
    again = rebuilt(value)
    assert again == value and type(again) is type(value)


def test_derived_values_are_valid(monkeypatch):
    """Terms, blocks and ground sets the package derives without re-checking pass every check."""
    # blockcert.decompose is the function; the module is in sys.modules
    dec, ring = sys.modules["blockcert.decompose"], sys.modules["blockcert.ring"]
    seams = ((dec, "rewrite_to_base"), (dec, "split_at"), (dec, "merge_blocks"), (ring, "normal_form"))
    seen = {name: [] for _, name in seams}  # name -> (arguments, result) of every call

    def recording(name, fn):
        def wrapper(*args):
            result = fn(*args)
            seen[name].append((args, result))
            return result
        return wrapper

    for module, name in seams:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    rng = random.Random(25)
    inputs = list(golden_inputs())
    for n, g, extra in ((3, 2, 0), (3, 3, 2), (4, 2, 0), (4, 2, 1), (4, 3, 0)):
        ground = standard_ground(n)
        inputs += [(random_monomial(rng, ground, vanishing_bound(n, g) + extra), g) for _ in range(3)]
    for mono, g in inputs:
        cert = decompose(mono, g)
        assert verify_certificate(cert)
        for entry in cert.entries:
            assert_valid(entry.block)
            assert_valid(entry.cofactor)
    for n in (3, 4):
        ground = standard_ground(n)
        for _ in range(10):
            mono = random_monomial(rng, ground, rng.randint(0, 8))
            p = random_poly(rng, ground)
            seen["rewrite_to_base"].append(((mono,), rewrite_to_base(mono, ground.min())))
            seen["normal_form"].append(((p,), normal_form(p)))
            seen["split_at"] += [((mono,), split_at(mono, pivot)) for pivot in ground]
    assert all(seen.values())
    for args, parts in seen["split_at"]:
        for part in parts:
            Monomial(args[0].ground, 1, part)  # split_at returns exponents; the constructor checks them
    for calls in seen.values():
        for args, result in calls:
            assert_valid(args)
            assert_valid(result)
