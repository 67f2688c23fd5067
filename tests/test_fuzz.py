"""Seeded fuzzing of the two readers: polynomial text and certificate JSON.

Valid inputs are mutated with ``random.Random``: a character inserted,
deleted or replaced, a key or a span repeated, a long digit run added, or the
input nested deeply.  The same seed gives the same cases on every run.  The
text reader must return a Polynomial or raise ParseError; ``blockcert
verify`` must never raise, must exit 0 to 3, and may exit 1 only after
printing ``false``.  A sha256 over every mutant's outcome pins both
readers: each accepted text, each error position and each exit code.
"""

from fractions import Fraction
import hashlib
import json
import random
import re

from blockcert import Monomial, ParseError, Polynomial, certificate_to_json, decompose, main, parse_poly, poly_to_str
from helpers import random_poly, standard_ground

ALPHABET = "0123456789x[],^*/+-{}:\". \t\n\u00b2\u3000"  # with a superscript digit and a wide space
LONG_DIGITS = "9" * 5001  # more digits than Python converts to an int by default
KEY = re.compile(r'"[a-z]+": ')
TEXT_SHA256 = "22623455ce44167d243b72f92b438bd9e4721c13b73e7b9cd06924c1b78e16c3"
JSON_SHA256 = "ebec11edb3ec5d7827449b532b922d21ed59c8faf6c824898a30de4cb5b70e23"


def _insert(rng, text):
    at = rng.randrange(len(text) + 1)
    return text[:at] + rng.choice(ALPHABET) + text[at:]


def _delete(rng, text):
    at = rng.randrange(len(text))
    return text[:at] + text[at + 1:]


def _replace(rng, text):
    at = rng.randrange(len(text))
    return text[:at] + rng.choice(ALPHABET) + text[at + 1:]


def _repeat(rng, text):
    """Repeat a JSON key with another value before it, or else a span of the text."""
    keys = list(KEY.finditer(text))
    if keys:
        key = rng.choice(keys)
        return text[:key.start()] + key.group() + "2, " + text[key.start():]
    start = rng.randrange(len(text))
    end = min(len(text), start + rng.randint(1, 12))
    return text[:end] + text[start:end] + text[end:]


def _digits(rng, text):
    digits = [m.start() for m in re.finditer("[0-9]", text)] or [0]
    at = rng.choice(digits)
    return text[:at] + LONG_DIGITS + text[at:]


def _nest(rng, text):
    depth = rng.choice((900, 100000))
    at = rng.randrange(len(text) + 1)
    return text[:at] + "[" * depth + text[at:]


MUTATIONS = (_insert, _delete, _replace, _repeat, _digits, _nest)


def mutants(rng, texts, count):
    """``count`` mutated texts; case k applies MUTATIONS[k % 6] and up to two more at random."""
    for k in range(count):
        text = MUTATIONS[k % len(MUTATIONS)](rng, rng.choice(texts))
        for _ in range(rng.randint(0, 2)):
            if text:
                text = rng.choice(MUTATIONS)(rng, text)
        yield text


def test_fuzz_polynomial_text():
    rng = random.Random(7001)
    ground = standard_ground(3)
    texts = ["3/2*x[1,2]^4*x[2,3] - x[3,1] + 7", "-x[1,2]*x[2,1]^2+1/3"]
    texts += [poly_to_str(random_poly(rng, ground)) for _ in range(20)]
    outcomes = set()
    digest = hashlib.sha256()
    for text in mutants(rng, texts, 600):
        try:
            p = parse_poly(text, ground)
            outcome = poly_to_str(p)
        except ParseError as exc:
            p = exc
            outcome = f"ParseError at {exc.pos}"
        outcomes.add(type(p))
        digest.update(outcome.encode() + b"\n")
    assert outcomes == {Polynomial, ParseError}
    assert digest.hexdigest() == TEXT_SHA256


def test_fuzz_certificate_json(tmp_path, capsys):
    rng = random.Random(7002)
    ground = standard_ground(2)
    monomials = [Monomial.make(ground, 1, {(1, 2): 3, (2, 1): 2})]
    monomials += [Monomial.make(ground, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                                {(1, 2): rng.randint(0, 6), (2, 1): rng.randint(4, 6)}) for _ in range(5)]
    texts = [json.dumps(certificate_to_json(decompose(m, 2))) for m in monomials]
    path = tmp_path / "cert.json"
    outcomes = set()
    digest = hashlib.sha256()
    for text in mutants(rng, texts, 600):
        path.write_text(text, encoding="utf-8")
        code = main(["verify", str(path)])
        out, _ = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        assert out == {0: "true\n", 1: "false\n"}.get(code, "")
        outcomes.add(code)
        digest.update(f"{code} {out}".encode())
    assert {0, 1, 2} <= outcomes
    assert digest.hexdigest() == JSON_SHA256
