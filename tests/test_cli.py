"""Text grammar, JSON serialization, and subcommand behavior with exit codes."""

from fractions import Fraction
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blockcert import (
    IndexSet,
    MalformedCertificateError,
    Monomial,
    ParseError,
    Polynomial,
    SizeLimitError,
    certificate_from_json,
    certificate_to_json,
    decompose,
    main,
    parse_poly,
    poly_from_json,
    poly_to_json,
    poly_to_str,
    verify_certificate,
)
from blockcert.ring import _block_form
from helpers import random_poly, standard_ground

X2 = IndexSet((1, 2))
X3 = IndexSet((1, 2, 3))


# -- parsing -------------------------------------------------------------------

def test_parse_monomial_with_rational_coeff():
    p = parse_poly("3/2*x[1,2]^4*x[2,3]", X3)
    assert p.terms == (
        Monomial.make(X3, Fraction(3, 2), {(1, 2): 4, (2, 3): 1}),
    )


def test_parse_two_terms():
    p = parse_poly("x[1,2]+x[2,1]", X3)
    assert len(p.terms) == 2
    assert not p.is_zero


def test_parse_merges_and_cancels():
    assert parse_poly("x[1,2]*x[1,2]", X3) == parse_poly("x[1,2]^2", X3)
    assert parse_poly("x[1,2]-x[1,2]", X3).is_zero
    assert parse_poly("0", X3).is_zero
    assert parse_poly(" - 5 ", X3) == Polynomial.constant(X3, -5)
    assert parse_poly("2*x[1,2]+3*x[1,2]", X3) == parse_poly("5*x[1,2]", X3)


def test_parse_whitespace_insignificant():
    assert parse_poly(" x[1,2] + 2 * x[2,3] ^ 2 ", X3) == parse_poly("x[1,2]+2*x[2,3]^2", X3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="equal indices"):
        parse_poly("x[1,1]", X3)
    with pytest.raises(ParseError, match="outside ground set"):
        parse_poly("x[1,4]", X3)
    with pytest.raises(ParseError) as info:
        parse_poly("x[1,2]+*", X3)
    assert info.value.pos == 7
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("x[1,2]^0", X3)
    with pytest.raises(ParseError, match="trailing"):
        parse_poly("x[1,2] x[1,3]", X3)
    with pytest.raises(ParseError, match="empty"):
        parse_poly("   ", X3)
    with pytest.raises(ParseError):
        parse_poly("x[1,2]^", X3)
    # only the ASCII digits 0-9 are digits: a superscript two, a full-width one
    for text, pos in (("x[1,2]^\u00b2", 7), ("x[\uff11,2]", 2), ("\uff13*x[1,2]", 0)):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_poly(text, X3)
        assert info.value.pos == pos
    # only space, tab, CR and LF are whitespace: an ideographic space, a no-break space
    for text, pos in (("x[1,2]\u3000+ x[1,3]", 6), ("x[1,2]\u00a0+ x[1,3]", 6), ("\u00a0x[1,2]", 0)):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_poly(text, X3)
        assert info.value.pos == pos
    assert parse_poly("\tx[1,2]\r\n+ x[1,3] ", X3) == parse_poly("x[1,2]+x[1,3]", X3)


def test_print_examples():
    assert poly_to_str(Polynomial.zero(X3)) == "0"
    assert poly_to_str(parse_poly("x[1,3]^3-x[1,2]*x[1,3]^2", X3)) == "-x[1,2]*x[1,3]^2+x[1,3]^3"
    assert poly_to_str(Polynomial.constant(X3, Fraction(-3, 4))) == "-3/4"
    # a coefficient longer than the interpreter prints (4,300 digits by default) is a size limit
    for value in (10 ** 4400, Fraction(1, 10 ** 4400)):
        p = Polynomial.constant(X3, value)
        with pytest.raises(SizeLimitError, match="too many digits"):
            poly_to_str(p)
        with pytest.raises(SizeLimitError, match="too many digits"):
            poly_to_json(p)
    # so is an exponent
    with pytest.raises(SizeLimitError, match="too many digits"):
        poly_to_str(Monomial.make(X3, 1, {(1, 2): 10 ** 4400}).as_poly())


def test_parse_print_round_trip_randomized():
    rng = random.Random(41)
    for _ in range(200):
        ground = standard_ground(rng.randint(2, 4))
        p = random_poly(rng, ground, max_terms=4, max_degree=5)
        assert parse_poly(poly_to_str(p), ground) == p


# -- JSON ------------------------------------------------------------------------

def test_poly_json_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        ground = standard_ground(rng.randint(2, 4))
        p = random_poly(rng, ground)
        assert poly_from_json(poly_to_json(p), ground) == p
        # term order in the file is free
        reversed_terms = {"terms": poly_to_json(p)["terms"][::-1]}
        assert poly_from_json(reversed_terms, ground) == p


def test_certificate_json_round_trip():
    mono = Monomial.make(X3, Fraction(7, 2), {(1, 2): 4, (2, 1): 3, (2, 3): 2, (3, 1): 2})
    cert = decompose(mono, 2)
    assert certificate_from_json(certificate_to_json(cert)) == cert
    # and the serialized form is stable
    assert certificate_to_json(certificate_from_json(certificate_to_json(cert))) == certificate_to_json(cert)


def test_certificate_json_coefficients_are_strings():
    cert = decompose(Monomial.make(X2, Fraction(3, 2), {(1, 2): 5}), 2)
    obj = certificate_to_json(cert)
    assert obj["input"]["terms"][0]["coeff"] == "3/2"
    assert obj["entries"][0]["cofactor"]["terms"][0]["coeff"] == "3/2"


def test_malformed_certificate_json_rejected():
    good = certificate_to_json(decompose(Monomial.make(X2, 1, {(1, 2): 4}), 2))

    bad = json.loads(json.dumps(good))
    bad["entries"][0]["left"] = []
    with pytest.raises(MalformedCertificateError):
        certificate_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["entries"][0]["left"] = [1, 2]
    with pytest.raises(MalformedCertificateError):
        certificate_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["entries"][0]["cofactor"]["terms"][0]["exps"] = [[[1, 9], 1]]
    with pytest.raises(MalformedCertificateError):
        certificate_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["input"]["terms"].append({"coeff": "1", "exps": []})
    with pytest.raises(MalformedCertificateError):
        certificate_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["g"] = 1
    with pytest.raises(MalformedCertificateError):
        certificate_from_json(bad)

    # a left part must be strictly ascending like every other list: never sorted into a valid one
    mono = parse_poly("x[1,2]^6*x[2,3]^6*x[3,4]^5*x[4,1]^5", standard_ground(4)).terms[0]
    four = certificate_to_json(decompose(mono, 2))
    assert [entry["left"] for entry in four["entries"]] == [[2, 4]]
    for left in ([4, 2], [2, 2, 4]):
        four["entries"][0]["left"] = left
        with pytest.raises(MalformedCertificateError, match="strictly ascending"):
            certificate_from_json(four)

    # values outside the schema are rejected, never coerced into another claim
    for field, value in (
        ("exps", [[[1, 2], 4.9]]),
        ("exps", [[[1, 2], True]]),
        ("exps", [[[1.0, 2], 4]]),
        ("coeff", 1.0),
        ("exps", [[[1, 2], 1], [[1, 2], 3]]),
        ("coeff", "\uff11"),
        ("coeff", "1/\uff12"),
    ):
        bad = json.loads(json.dumps(good))
        bad["input"]["terms"][0][field] = value
        with pytest.raises(MalformedCertificateError):
            certificate_from_json(bad)

    # a repeated exps within one polynomial is rejected, never summed
    bad = json.loads(json.dumps(good))
    terms = bad["entries"][0]["cofactor"]["terms"]
    terms.append(dict(terms[0]))
    with pytest.raises(MalformedCertificateError, match="repeated exps"):
        certificate_from_json(bad)

    # keys outside the schema are rejected at every level, never ignored
    for where, key in (("certificate", "bogus"), ("entry", "extra"),
                       ("polynomial", "extra"), ("term", "note")):
        bad = json.loads(json.dumps(good))
        target = {
            "certificate": bad,
            "entry": bad["entries"][0],
            "polynomial": bad["entries"][0]["cofactor"],
            "term": bad["entries"][0]["cofactor"]["terms"][0],
        }[where]
        target[key] = 0
        with pytest.raises(MalformedCertificateError, match=f"{where} must be an object"):
            certificate_from_json(bad)


# -- subcommands -------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmd_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "--ground", "1,2,3", "--g", "2")
    assert code == 0 and out.strip() == "11"


def test_cmd_nf(capsys):
    code, out, _ = run_cli(capsys, "nf", "--ground", "1,2,3", "x[1,2]+x[2,3]+x[3,1]")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "nf", "--ground", "1,2,3", "x[2,3]", "--json")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"coeff": "-1", "exps": [[[1, 2], 1]]},
            {"coeff": "1", "exps": [[[1, 3], 1]]},
        ]
    }


def test_cmd_eq(capsys):
    code, out, _ = run_cli(capsys, "eq", "--ground", "1,2,3", "x[1,3]", "x[1,2]+x[2,3]")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "eq", "--ground", "1,2,3", "x[1,2]", "x[1,3]")
    assert code == 1 and out.strip() == "false"


def test_cmd_decompose_verify_pipeline(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "decompose", "--ground", "1,2", "--g", "2", "x[1,2]^3*x[2,1]^2")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0 and out.strip() == "true"


def test_cmd_verify_false_on_perturbed(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "decompose", "--ground", "1,2", "--g", "2", "5*x[1,2]^3*x[2,1]^2")
    obj = json.loads(out)
    obj["entries"][0]["cofactor"]["terms"][0]["coeff"] = "4"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 1 and out.strip() == "false"


def test_cmd_verify_malformed_exits_2(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text('{"ground": [1,2], "g": 2}')
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 2 and "error" in err
    cert_path.write_text("not json")
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 2


def test_cmd_blocks(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--ground", "1,2")
    assert code == 0 and out.splitlines() == ["{1}x{2}", "{2}x{1}"]
    code, out, _ = run_cli(capsys, "blocks", "--ground", "1,2,3", "--json")
    assert code == 0 and len(json.loads(out)) == 6


def test_cmd_lemma_suites(capsys):
    code, out, _ = run_cli(capsys, "lemma-lines", "--ground", "1,2,3", "--g", "2")
    assert code == 0 and "all 78 cases hold" in out
    code, out, _ = run_cli(capsys, "lemma-lines", "--ground", "1,2,3,4", "--g", "2",
                           "--samples", "500", "--seed", "3")
    assert code == 0 and "500" in out
    code, out, _ = run_cli(capsys, "lemma-partition", "--ground", "1,2,3,4,5", "--g", "3")
    assert code == 0 and "hold" in out
    # a negative sample count is refused, never run as the exhaustive check; 0 is exhaustive
    code, out, err = run_cli(capsys, "lemma-lines", "--ground", "1,2,3", "--g", "2", "--samples", "-5")
    assert code == 3 and out == "" and "sample count must be nonnegative" in err
    code, out, _ = run_cli(capsys, "lemma-lines", "--ground", "1,2,3", "--g", "2", "--samples", "0")
    assert code == 0 and out == "pivot selection (exhaustive): all 78 cases hold\n"


def test_cmd_hilbert_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--ground", "1,2", "--g", "2")
    assert code == 0
    assert out.splitlines() == ["degree,dimR,dimJ,dimQuotient", "4,1,1,0", "5,1,1,0"]
    code, out, _ = run_cli(capsys, "hilbert", "--ground", "1,2,3", "--g", "2",
                           "--dmin", "11", "--dmax", "11", "--json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"degree": 11, "dimR": 12, "dimJ": 12, "dimQuotient": 0}]


def test_exit_codes_for_errors(capsys, tmp_path, monkeypatch):
    # parse error -> 2
    code, _, err = run_cli(capsys, "nf", "--ground", "1,2,3", "x[1,1]")
    assert code == 2 and "equal indices" in err
    # precondition -> 3
    code, _, err = run_cli(capsys, "decompose", "--ground", "1,2,3", "--g", "2", "x[1,2]^3")
    assert code == 3 and "vanishing bound" in err
    # usage -> 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "bound", "--ground", "3,2,1", "--g", "2")
    assert code == 2
    # multi-term input where a monomial is required -> 3
    code, _, err = run_cli(capsys, "decompose", "--ground", "1,2", "--g", "2", "x[1,2]^4+x[2,1]^4")
    assert code == 3 and "single monomial" in err
    # expansion budget -> 3, charged before the binomial row of x[2,3]^(10^8) is built
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "nf", "--ground", "1,2,3", "x[1,2]^100000000*x[2,3]^100000000")
    assert code == 3 and "above the limit" in err
    assert time.perf_counter() - start < 5
    # the budget sums over the terms: eight terms each just under the limit ran for 5 s
    start = time.perf_counter()
    eight = "x[2,3]^3161+" + "+".join(f"x[2,3]^{3161 - k}*x[1,3]^{k}" for k in range(1, 8))
    code, _, err = run_cli(capsys, "nf", "--ground", "1,2,3", eight)
    assert code == 3 and "above the limit" in err
    assert time.perf_counter() - start < 5
    # label budget -> 3, checked before decompose does any work
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "decompose", "--ground", "1,2,3,4,5,6", "--g", "2",
                           "x[1,2]^10*x[2,3]^10*x[3,4]^10*x[4,5]^10*x[5,6]^10*x[6,1]^6")
    assert code == 3 and "6 labels, above the limit 5" in err
    assert time.perf_counter() - start < 5
    # degree range budget -> 3: at n = 2 every slice is 1 x 1, and 10^8 of them ran without end
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hilbert", "--ground", "1,2", "--g", "2",
                             "--dmin", "0", "--dmax", "100000000")
    assert code == 3 and out == "" and "above the limit" in err
    assert time.perf_counter() - start < 5
    # digits outside 0-9 -> 2, never read as numbers
    code, _, err = run_cli(capsys, "nf", "--ground", "1,2,3", "x[1,2]^\u00b2")
    assert code == 2 and "position 7" in err
    code, _, err = run_cli(capsys, "nf", "--ground", "1,2,3", "x[\uff11,2]")
    assert code == 2 and "position 2" in err
    code, _, err = run_cli(capsys, "nf", "--ground", " 3,+4", "x[3,4]")
    assert code == 2 and "bad ground set" in err
    code, _, _ = run_cli(capsys, "bound", "--ground", "1,2", "--g", "\uff12")
    assert code == 2
    cert = certificate_to_json(decompose(Monomial.make(X2, 1, {(1, 2): 4}), 2))
    cert["entries"][0]["cofactor"]["terms"][0]["coeff"] = "\uff11"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    # whitespace outside ASCII -> 2, never skipped
    code, out, err = run_cli(capsys, "nf", "--ground", "1,2,3", "x[1,2]\u3000+ x[1,3]")
    assert code == 2 and out == "" and "position 6" in err
    # a key repeated at any level -> 2, never read as its last value; from stdin and from a file
    good = json.dumps(certificate_to_json(decompose(Monomial.make(X2, 1, {(1, 2): 4}), 2)))
    for repeated in (good.replace('"g": 2', '"g": 5, "g": 2'),
                     good.replace('"coeff": "1"', '"coeff": "7", "coeff": "1"', 1)):
        assert repeated != good
        monkeypatch.setattr("sys.stdin", io.StringIO(repeated))
        path.write_text(repeated, encoding="utf-8")
        for source in ("-", str(path)):
            code, out, err = run_cli(capsys, "verify", source)
            assert code == 2 and out == "" and "repeated key" in err
    # input that is not UTF-8 -> 2, not a traceback and exit 1; from a file and from stdin
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == "" and "not UTF-8" in err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"))
    code, out, err = run_cli(capsys, "verify")
    assert code == 2 and out == "" and "not UTF-8" in err
    # integers longer than the interpreter converts and deeply nested JSON -> 2, not a traceback and exit 1
    digits = "9" * 5001
    for text, at in ((f"{digits}*x[1,2]", "position 0"), (f"x[1,2]^{digits}", "position 7")):
        code, out, err = run_cli(capsys, "nf", "--ground", "1,2", text)
        assert code == 2 and out == "" and "5001 digits" in err and at in err
    for bad in ("[" * 100000, good.replace('"g": 2', f'"g": {digits}')):
        monkeypatch.setattr("sys.stdin", io.StringIO(bad))
        code, out, err = run_cli(capsys, "verify")
        assert code == 2 and out == "" and "bad certificate JSON" in err
    # a cofactor coefficient longer than the interpreter prints -> 3, not a traceback and exit 1
    code, out, err = run_cli(capsys, "decompose", "--ground", "1,2,3", "--g", "2", "9" * 4299 + "*x[1,2]^11")
    assert code == 3 and out == "" and "too many digits" in err
    # so is any other integer printed: a residual exponent of 4,301 digits, a bound of 4,301 digits
    nines = "9" * 4300
    for args in (("decompose", "--ground", "1,2", "--g", "2", f"x[1,2]^{nines}*x[2,1]^{nines}"),
                 ("bound", "--ground", "1,2,3", "--g", nines)):
        code, out, err = run_cli(capsys, *args)
        assert code == 3 and out == "" and "too many digits" in err
    # lemma checks count their cases before running any: one past the limit of 10^6, then
    # cases that did not finish within 10 s (4 * 10^9, 18,003,000, 10^8 and 1,101,716,330 cases)
    start = time.perf_counter()
    for args in (("lemma-partition", "--ground", "1,2,3", "--g", "250001"),
                 ("lemma-lines", "--ground", "1,2,3", "--g", "236"),
                 ("lemma-lines", "--ground", "1,2,3", "--g", "2", "--samples", "1000001"),
                 ("lemma-partition", "--ground", "1,2,3", "--g", "1000000000"),
                 ("lemma-lines", "--ground", "1,2,3", "--g", "1000"),
                 ("lemma-lines", "--ground", "1,2,3", "--g", "2", "--samples", "100000000"),
                 ("lemma-lines", "--ground", "1,2,3,4,5", "--g", "2")):
        code, out, err = run_cli(capsys, *args)
        assert code == 3 and out == "" and "above the limit 1000000" in err
    assert time.perf_counter() - start < 5


def test_verify_measures_block_monomials(capsys, tmp_path):
    # The input measures nothing and the cofactor is a constant, but the block
    # monomial over {2,3} x {1,4,5} with power 80 has four powers off the base label:
    # charged 480 * 81 * (1 + 81 + 81^2) = 258,279,840 by its third, it stops there.
    # Unmeasured, its 81^4 products ran for 43 s before verify printed false.
    text = ('{"ground":[1,2,3,4,5],"g":40,"input":{"terms":[{"coeff":"1","exps":[[[1,2],480]]}]},'
            '"entries":[{"left":[2,3],"cofactor":{"terms":[{"coeff":"1","exps":[]}]}}]}')
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="measures 258279840, above the limit"):
        verify_certificate(certificate_from_json(json.loads(text)))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and out == "" and "measures 258279840" in err
    assert time.perf_counter() - start < 5


def test_cancelled_groups_build_no_binomial_row(capsys, tmp_path):
    # x[3,2] == -x[2,3], so x[2,3]^N - x[3,2]^N folds into one group that cancels,
    # and x[2,3] - x[2,4] + x[1,4] - x[1,3] == 0 cancels once the first powers are
    # expanded.  A cancelled group is charged nothing, so it must build no row:
    # the row of x[2,3]^(10^8) has 10^8 + 1 binomials of up to 10^8 bits.
    n = 10**8
    m = 10**6
    four = "".join(f"{s}{t}*x[3,4]^{m}" for s, t in (("", "x[2,3]"), ("-", "x[2,4]"), ("+", "x[1,4]"), ("-", "x[1,3]")))
    cofactor = {"terms": [{"coeff": c, "exps": [[pair, n]]} for c, pair in (("1", [2, 3]), ("-1", [3, 2]))]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"ground": [1, 2, 3], "g": 2, "input": {"terms": [{"coeff": "1", "exps": [[[1, 2], n + 8]]}]},
                                "entries": [{"left": [2], "cofactor": cofactor}]}), encoding="utf-8")
    for args, expected in ((("nf", "--ground", "1,2,3", f"x[2,3]^{n}-x[3,2]^{n}"), "0\n"),
                           (("eq", "--ground", "1,2,3", f"x[2,3]^{n}", f"x[3,2]^{n}"), "true\n"),
                           (("nf", "--ground", "1,2,3,4", four), "0\n"),
                           (("verify", str(path)), "false\n")):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *args)
        assert out == expected and code == (1 if expected == "false\n" else 0)
        assert time.perf_counter() - start < 5


def test_verify_counts_block_by_cofactor_products(capsys, tmp_path):
    # Each factor is within the expansion budget, but the block expansion has
    # 17,985 keys and the cofactor's normal form 3,721 terms: uncounted, their
    # 66,922,185 products ran for 44 s before verify printed false.
    text = ('{"ground":[1,2,3,4,5],"g":8,"input":{"terms":[{"coeff":"1","exps":[[[1,2],216]]}]},'
            '"entries":[{"left":[2,3],"cofactor":{"terms":[{"coeff":"1","exps":[[[2,3],60],[[4,5],60]]}]}}]}')
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="takes 66922185 products, above the limit"):
        verify_certificate(certificate_from_json(json.loads(text)))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and out == "" and "66922185 products" in err
    assert time.perf_counter() - start < 5


def test_verify_keeps_block_forms_of_each_field_width(capsys, tmp_path):
    # Both certificates use the blocks {2} x {1,3} and {2,3} x {1} with power 4, but
    # degree 15 packs keys in 4-bit fields and degree 16 in 5-bit ones: a block form
    # kept for one width and read at the other turns the answer wrong, in either order.
    paths = []
    for degree in (15, 16):
        code, out, _ = run_cli(capsys, "decompose", "--ground", "1,2,3", "--g", "2",
                               f"x[1,2]^{degree - 5}*x[2,3]^3*x[3,1]^2")
        assert code == 0
        cert = json.loads(out)
        assert [entry["left"] for entry in cert["entries"]] == [[2], [2, 3]]
        term = cert["entries"][0]["cofactor"]["terms"][0]
        paths.append(tmp_path / f"d{degree}.json")
        paths[-1].write_text(out, encoding="utf-8")
        term["coeff"] = str(Fraction(term["coeff"]) + Fraction(1, 2))
        paths.append(tmp_path / f"d{degree}-perturbed.json")
        paths[-1].write_text(json.dumps(cert), encoding="utf-8")
    for order in (paths, paths[2:] + paths[:2]):
        _block_form.cache_clear()
        for path in order:
            code, out, _ = run_cli(capsys, "verify", str(path))
            assert (code, out) == ((1, "false\n") if "perturbed" in path.name else (0, "true\n"))


def test_cmd_decompose_work_budget_exits_3(capsys, monkeypatch):
    # the n = 4 cycle takes 39 items of the work budget, above a budget of 10
    monkeypatch.setattr(sys.modules["blockcert.decompose"], "CALL_LIMIT", 10)
    code, out, err = run_cli(capsys, "decompose", "--ground", "1,2,3,4", "--g", "2",
                             "x[1,2]^6*x[2,3]^6*x[3,4]^5*x[4,1]^5")
    assert code == 3 and out == "" and "work budget" in err


def test_cmd_verify_non_utf8_stdin_bytes():
    # the real process stdin: under a C locale Python decodes it with surrogateescape
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "blockcert", "verify"], input=b"\xff\xfe{",
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == b""
    assert b"not UTF-8" in done.stderr


def test_cmd_verify_reads_stdin(capsys, monkeypatch):
    payload = json.dumps(certificate_to_json(
        decompose(Monomial.make(X2, 1, {(1, 2): 4}), 2)
    ))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and out.strip() == "true"
