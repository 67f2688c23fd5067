"""Golden corpus: certificates stay byte-identical across kernel changes.

``decompose`` promises a deterministic certificate for each input.  The first
test pins the canonical JSON of 40 certificates at the vanishing bound (n = 3
and 4, g = 2 and 3) to one sha256, so any change to the arithmetic underneath
that alters a single coefficient, term order or entry order fails here.  The
second pins what the first leaves out: two labels (two monomials per degree,
built by the closed form inside ``decompose``), and degrees one to three above
the bound.  The third pins five labels at g = 2 and the bound, where the
recursion lifts through three- and four-label sub-problems.
"""

import hashlib
import json
import random

from blockcert import Monomial, certificate_to_json, decompose, vanishing_bound
from helpers import random_monomial, standard_ground

GOLDEN_SHA256 = "0048e40a583b16b4e3fcecc96be037106736719d584778d752adeb33507ec5c9"
ABOVE_BOUND_SHA256 = "4bb0de4dacbc798c66b72a1939dfd65de8f7fc05932d00df8cd579291dc2f439"
FIVE_LABELS_SHA256 = "17d975eef9bf44c9f40ee3fb6987d01228ec54b3f162a4b5fc5d60d41077cd03"


def golden_inputs():
    rng = random.Random(20150202)
    for n, per_g in ((3, 10), (4, 10)):
        for g in (2, 3):
            for _ in range(per_g):
                yield random_monomial(rng, standard_ground(n), vanishing_bound(n, g)), g


def above_bound_inputs():
    rng = random.Random(20150203)
    for g in (2, 3):
        bound = vanishing_bound(2, g)
        for d in range(bound, bound + 4):
            for _ in range(2):
                yield random_monomial(rng, standard_ground(2), d), g
    for n, per_degree in ((3, 3), (4, 2)):
        for g in (2, 3):
            for offset in (1, 2, 3):
                for _ in range(per_degree):
                    yield random_monomial(rng, standard_ground(n), vanishing_bound(n, g) + offset), g


def five_label_inputs():
    ground = standard_ground(5)
    yield Monomial.make(ground, 1, {(1, 2): 8, (2, 3): 8, (3, 4): 7, (4, 5): 7, (5, 1): 7})
    for seed in range(1, 5):
        yield random_monomial(random.Random(seed), ground, vanishing_bound(5, 2))


def corpus_digest(certificates) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for cert in certificates:
        text = json.dumps(certificate_to_json(cert), sort_keys=True, separators=(",", ":"))
        digest.update(text.encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


def test_golden_certificates_are_byte_identical():
    count, hexdigest = corpus_digest(decompose(mono, g) for mono, g in golden_inputs())
    assert count == 40
    assert hexdigest == GOLDEN_SHA256


def test_golden_two_labels_and_above_bound_are_byte_identical():
    count, hexdigest = corpus_digest(decompose(mono, g) for mono, g in above_bound_inputs())
    assert count == 46
    assert hexdigest == ABOVE_BOUND_SHA256


def test_golden_five_labels_are_byte_identical():
    count, hexdigest = corpus_digest(decompose(mono, 2) for mono in five_label_inputs())
    assert count == 5
    assert hexdigest == FIVE_LABELS_SHA256
