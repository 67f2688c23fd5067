"""Golden corpus: certificates stay byte-identical across kernel changes.

``decompose`` promises a deterministic certificate for each input.  This test
pins the canonical JSON of 40 certificates at the vanishing bound (n = 3 and
4, g = 2 and 3) to one sha256, so any change to the arithmetic underneath
that alters a single coefficient, term order or entry order fails here.
"""

import hashlib
import json
import random

from blockcert import certificate_to_json, decompose, vanishing_bound
from helpers import random_monomial, standard_ground

GOLDEN_SHA256 = "0048e40a583b16b4e3fcecc96be037106736719d584778d752adeb33507ec5c9"


def golden_inputs():
    rng = random.Random(20150202)
    for n, per_g in ((3, 10), (4, 10)):
        for g in (2, 3):
            for _ in range(per_g):
                yield random_monomial(rng, standard_ground(n), vanishing_bound(n, g)), g


def test_golden_certificates_are_byte_identical():
    digest = hashlib.sha256()
    count = 0
    for mono, g in golden_inputs():
        text = json.dumps(certificate_to_json(decompose(mono, g)), sort_keys=True, separators=(",", ":"))
        digest.update(text.encode() + b"\n")
        count += 1
    assert count == 40
    assert digest.hexdigest() == GOLDEN_SHA256
