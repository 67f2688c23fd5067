"""Command line front end: polynomial text grammar, JSON/CSV serialization,
and the subcommands wired to the library.

Text grammar (ASCII space, tab, CR and LF insignificant)::

    poly   := [ '-' ] term ( ( '+' | '-' ) term )*
    term   := coeff [ '*' factor ( '*' factor )* ]
            | factor ( '*' factor )*
    factor := 'x[' int ',' int ']' [ '^' posint ]
    coeff  := int [ '/' posint ]

Exit codes: 0 success or a true answer, 1 a false answer, 2 usage or parse
error, 3 precondition violation or size limit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .combinatorics import Block, enumerate_blocks, pivot_lemma_check, split_lemma_check, vanishing_bound
from .decompose import Certificate, CertificateEntry, decompose, verify_certificate
from .errors import MalformedCertificateError, ParseError, PreconditionError, SizeLimitError
from .hilbert import GradedReport, graded_report
from .ring import (
    Exponents, IndexSet, Monomial, Polynomial, _check_term, _require_ground, _sorted_poly, _trusted, eq_mod_relations,
    normal_form,
)


# ---------------------------------------------------------------------------
# text format

# Whitespace is the ASCII space, tab, CR and LF only (str.isspace also accepts
# U+00A0, U+3000 and others), and digits are 0-9 only (str.isdigit also accepts
# superscript and full-width digits).  Every token takes the whitespace after
# it, and the tail after each token is optional, so a match ends at the first
# character that no step accepts: the position of a syntax error.
_WS = "[ \t\r\n]*"
_HEAD = re.compile(rf"{_WS}(?:([+-]){_WS})?(?:([0-9]+){_WS}(?:(/){_WS}(?:([0-9]+){_WS})?)?)?")
_FACTOR = re.compile(
    rf"{_WS}(?:(x){_WS}(?:(\[){_WS}(?:([0-9]+){_WS}(?:(,){_WS}(?:([0-9]+){_WS}"
    rf"(?:(\]){_WS}(?:(\^){_WS}(?:([0-9]+){_WS})?)?)?)?)?)?)?)?"
)
# what _FACTOR reads after its first k groups, for k = 0..5
_FACTOR_NEXT = ("'x'", "'['", "an integer", "','", "an integer", "']'")
_TOKEN_CHARS = frozenset("0123456789x[],^*/+-")


def _syntax_error(text: str, pos: int, expected: str | None) -> ParseError:
    """The error at ``pos``, where ``expected`` is missing, or else the end of input."""
    if pos < len(text) and text[pos] not in _TOKEN_CHARS:
        return ParseError(f"unexpected character {text[pos]!r}", pos)
    if expected is None:
        return ParseError("trailing input after polynomial", pos)
    found = repr(text[pos]) if pos < len(text) else "end of input"
    return ParseError(f"expected {expected}, found {found}", pos)


def _int_group(match: re.Match, group: int) -> int:
    """The integer a digit group reads, or ParseError at its start when the interpreter refuses its length."""
    try:
        return int(match[group])
    except ValueError:
        start = match.start(group)
        raise ParseError(f"integer of {match.end(group) - start} digits is too long", start) from None


def _read_factors(text: str, pos: int, labels: tuple[int, ...]) -> tuple[Exponents, int]:
    """The exponents of the factors ``x[i,j]^e * ...`` from ``pos``, and the position after them."""
    exps: dict[tuple[int, int], int] = {}
    while True:
        factor = _FACTOR.match(text, pos)
        read = factor.lastindex or 0
        i = _int_group(factor, 3) if read >= 3 else None
        j = _int_group(factor, 5) if read >= 5 else None
        if read < 6:
            raise _syntax_error(text, factor.end(), _FACTOR_NEXT[read])
        if i == j:
            raise ParseError(f"variable x[{i},{j}] has equal indices", factor.end(2))
        if i not in labels or j not in labels:
            raise ParseError(f"variable x[{i},{j}] outside ground set {list(labels)}", factor.end(2))
        e = 1
        if read == 7:
            raise _syntax_error(text, factor.end(), "an integer")
        if read == 8:
            e = _int_group(factor, 8)
            if e < 1:
                raise ParseError("exponent must be a positive integer", factor.end(7))
        exps[i, j] = exps.get((i, j), 0) + e
        pos = factor.end()
        if not text.startswith("*", pos):
            return tuple(sorted(exps.items())), pos
        pos += 1


def parse_poly(text: str, ground: IndexSet) -> Polynomial:
    """Parse polynomial text over an explicit ground set into canonical form.

    Checks run in reading order, so the first defect in the text is the one
    reported, at its position; the label count of ``ground`` is judged last.
    """
    _require_ground(ground, 0)
    labels = ground.elements
    acc: dict[Exponents, int | Fraction] = {}
    head = _HEAD.match(text)
    if head.end() == len(text) and head.lastindex is None:
        raise ParseError("empty input", head.end())
    if head[1] == "+":
        raise _syntax_error(text, head.start(1), "a term")
    while True:
        coeff = -1 if head[1] == "-" else 1
        pos = head.end()
        key: Exponents = ()
        if head[2] is None:
            key, pos = _read_factors(text, pos, labels)
        else:
            coeff *= _int_group(head, 2)
            if head[3] is not None:
                if head[4] is None:
                    raise _syntax_error(text, pos, "an integer")
                den = _int_group(head, 4)
                if den < 1:
                    raise ParseError("denominator must be a positive integer", head.end(3))
                coeff = Fraction(coeff, den)
            if text.startswith("*", pos):
                key, pos = _read_factors(text, pos + 1, labels)
        acc[key] = acc.get(key, 0) + coeff
        if pos == len(text):
            # _read_factors has checked every label, index pair and exponent and
            # sorted the pairs, so no Monomial is checked again
            return _sorted_poly(ground, [
                _trusted(Monomial, ground=ground, coeff=Fraction(c) if type(c) is int else c, exps=exps)
                for exps, c in acc.items() if c])
        if text[pos] not in "+-":
            raise _syntax_error(text, pos, None)
        head = _HEAD.match(text, pos)


def _number_text(x: int | Fraction) -> str:
    """``str(x)``, or SizeLimitError when it has more digits than the interpreter prints."""
    try:
        return str(x)
    except ValueError:  # the interpreter's limit on int to str conversion (4,300 digits by default)
        raise SizeLimitError(
            f"number of {max(x.numerator.bit_length(), x.denominator.bit_length())} bits "
            f"has too many digits to print"
        ) from None


def poly_to_str(p: Polynomial) -> str:
    """Canonical text form; ``parse_poly`` inverts it over the same ground set."""
    if p.is_zero:
        return "0"
    chunks = []
    for k, t in enumerate(p.terms):
        magnitude = abs(t.coeff)
        factors = [
            f"x[{i},{j}]" + (f"^{_number_text(e)}" if e > 1 else "")
            for (i, j), e in t.exps
        ]
        if not factors or magnitude != 1:
            factors.insert(0, _number_text(magnitude))
        body = "*".join(factors)
        if k == 0:
            chunks.append(body if t.coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+{body}" if t.coeff > 0 else f"-{body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# JSON format

def _term_to_json(t: Monomial) -> dict:
    return {"coeff": _number_text(t.coeff), "exps": [[[i, j], e] for (i, j), e in t.exps]}


def poly_to_json(p: Polynomial) -> dict:
    return {"terms": [_term_to_json(t) for t in p.terms]}


_JSON_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _json_fields(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of ``keys`` in a JSON object that has exactly those keys."""
    if isinstance(obj, dict) and len(obj) == len(keys):
        try:
            return [obj[key] for key in keys]
        except KeyError:
            pass
    found = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
    raise MalformedCertificateError(f"{what} must be an object with keys {list(keys)}, got {found}")


def poly_from_json(obj, ground: IndexSet) -> Polynomial:
    """Read a polynomial object; keys, labels, exponents and coefficients are checked, never coerced.

    Terms may come in any order, but no two may have the same exponents.
    The ground is checked once and each term by the check ``Monomial`` runs,
    so the terms are built unchecked.
    """
    try:
        _require_ground(ground)
        labels = ground.elements
        monos = []
        (terms,) = _json_fields(obj, ("terms",), "polynomial")
        for term in terms:
            coeff, raw_exps = _json_fields(term, ("coeff", "exps"), "term")
            parts = _JSON_COEFF.fullmatch(coeff) if isinstance(coeff, str) else None
            if parts is None:
                raise MalformedCertificateError(f"coefficient must be a string p or p/q, got {coeff!r}")
            if type(raw_exps) is not list:
                raise MalformedCertificateError(f"exps must be a list, got {type(raw_exps).__name__}")
            num, den = parts.groups()
            value = int(num) if den is None else Fraction(int(num), int(den))
            exps = tuple([((i, j), e) for (i, j), e in raw_exps])
            monos.append(_trusted(Monomial, ground=ground, coeff=_check_term(labels, value, exps), exps=exps))
        poly = _sorted_poly(ground, monos)  # equal exps sort next to each other
        for mono, after in zip(poly.terms, poly.terms[1:]):
            if mono.exps == after.exps:
                raise MalformedCertificateError(f"repeated exps {list(mono.exps)} in a polynomial object")
        return poly
    except MalformedCertificateError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedCertificateError(f"bad polynomial object: {exc}") from exc


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "ground": list(cert.ground),
        "g": cert.g,
        "input": {"terms": [_term_to_json(cert.input)]},
        "entries": [
            {"left": list(entry.block.left), "cofactor": poly_to_json(entry.cofactor)}
            for entry in cert.entries
        ],
    }


def certificate_from_json(obj) -> Certificate:
    try:
        labels, g, raw_input, raw_entries = _json_fields(
            obj, ("ground", "g", "input", "entries"), "certificate")
        ground = IndexSet(tuple(labels))
        input_poly = poly_from_json(raw_input, ground)
        if len(input_poly.terms) != 1:
            raise MalformedCertificateError("certificate input must be a single monomial")
        entries = []
        for raw in raw_entries:
            raw_left, raw_cofactor = _json_fields(raw, ("left", "cofactor"), "entry")
            # Block reads left as an IndexSet, so a left that is not strictly ascending is refused
            entries.append(CertificateEntry(Block(ground, tuple(raw_left)), poly_from_json(raw_cofactor, ground)))
        return Certificate(ground, g, input_poly.terms[0], tuple(entries))
    except MalformedCertificateError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"bad certificate object: {exc}") from exc


def report_to_csv(report: GradedReport) -> str:
    lines = ["degree,dimR,dimJ,dimQuotient"]
    lines.extend(f"{d},{r},{j},{q}" for d, r, j, q in report.rows)
    return "\n".join(lines)


def report_to_json(report: GradedReport) -> dict:
    return {
        "ground": list(report.ground),
        "g": report.g,
        "rows": [
            {"degree": d, "dimR": r, "dimJ": j, "dimQuotient": q}
            for d, r, j, q in report.rows
        ],
    }


# ---------------------------------------------------------------------------
# subcommands

def _int_arg(text: str) -> int:
    """An optionally signed integer written with the ASCII digits 0-9 only."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer in the digits 0-9, got {text!r}")
    return int(text)


def _ground_arg(text: str) -> IndexSet:
    try:
        return IndexSet(tuple(_int_arg(part) for part in text.split(",")))
    except (argparse.ArgumentTypeError, PreconditionError) as exc:
        raise argparse.ArgumentTypeError(f"bad ground set {text!r}: {exc}") from exc


def _emit(payload) -> None:
    try:
        text = json.dumps(payload, indent=2)
    except ValueError:  # an integer longer than the interpreter prints, as in _number_text
        raise SizeLimitError("an integer in the output has too many digits to print") from None
    print(text)


def _cmd_nf(args) -> int:
    p = normal_form(parse_poly(args.poly, args.ground))
    _emit(poly_to_json(p)) if args.json else print(poly_to_str(p))
    return 0


def _cmd_eq(args) -> int:
    equal = eq_mod_relations(
        parse_poly(args.left, args.ground), parse_poly(args.right, args.ground)
    )
    print("true" if equal else "false")
    return 0 if equal else 1


def _parse_monomial(text: str, ground: IndexSet) -> Monomial:
    p = parse_poly(text, ground)
    if len(p.terms) != 1:
        raise PreconditionError(f"expected a single monomial, got {len(p.terms)} terms")
    return p.terms[0]


def _cmd_decompose(args) -> int:
    cert = decompose(_parse_monomial(args.monomial, args.ground), args.g)
    _emit(certificate_to_json(cert))
    return 0


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a key repeated within it is an error, not a silent overwrite."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise MalformedCertificateError(f"repeated key {key!r} in a JSON object")
        seen.add(key)
    return dict(pairs)


def _cmd_verify(args) -> int:
    try:
        if args.certificate == "-":
            text = sys.stdin.read()
            # a C or POSIX locale decodes stdin with surrogateescape; stray bytes fail here
            text.encode("utf-8")
        else:
            with open(args.certificate, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (UnicodeDecodeError, UnicodeEncodeError) as exc:
        raise MalformedCertificateError(f"certificate is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise MalformedCertificateError(f"bad certificate JSON: {exc}") from exc
    valid = verify_certificate(certificate_from_json(obj))
    print("true" if valid else "false")
    return 0 if valid else 1


def _cmd_bound(args) -> int:
    print(_number_text(vanishing_bound(len(args.ground), args.g)))
    return 0


def _cmd_blocks(args) -> int:
    blocks = enumerate_blocks(args.ground)
    if args.json:
        _emit([{"left": list(b.left), "right": list(b.right)} for b in blocks])
    else:
        for b in blocks:
            print("{%s}x{%s}" % (",".join(map(str, b.left)), ",".join(map(str, b.right))))
    return 0


def _summarize_check(name: str, checked: int, failures: list, as_json: bool) -> int:
    if as_json:
        _emit({"checked": checked, "failures": [list(f) for f in failures[:10]]})
    elif failures:
        print(f"{name}: {len(failures)} of {checked} cases FAILED, first: {failures[0]}")
    else:
        print(f"{name}: all {checked} cases hold")
    return 1 if failures else 0


def _cmd_lemma_lines(args) -> int:
    checked, failures = pivot_lemma_check(args.ground, args.g, samples=args.samples, seed=args.seed)
    kind = "sampled" if args.samples else "exhaustive"
    return _summarize_check(f"pivot selection ({kind})", checked, failures, args.json)


def _cmd_lemma_partition(args) -> int:
    checked, failures = split_lemma_check(args.ground, args.g)
    return _summarize_check("degree dichotomy (exhaustive)", checked, failures, args.json)


def _cmd_hilbert(args) -> int:
    base = vanishing_bound(len(args.ground), args.g)
    lo = args.dmin if args.dmin is not None else base
    hi = args.dmax if args.dmax is not None else base + 1
    if lo > hi:
        raise PreconditionError(f"empty degree range {lo}..{hi}")
    report = graded_report(args.ground, args.g, range(lo, hi + 1))
    _emit(report_to_json(report)) if args.json else print(report_to_csv(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockcert",
        description="Exact block-monomial membership certificates in the pair-relation ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_g: bool = False) -> None:
        p.add_argument("--ground", type=_ground_arg, required=True,
                       help="comma-separated ascending labels, e.g. 1,2,3")
        if with_g:
            p.add_argument("--g", type=_int_arg, required=True, help="block exponent parameter (>= 2)")

    p = sub.add_parser("nf", help="normal form of a polynomial")
    common(p)
    p.add_argument("poly")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("eq", help="equality of two polynomials modulo the relations")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_eq)

    p = sub.add_parser("decompose", help="certificate for a monomial above the vanishing bound")
    common(p, with_g=True)
    p.add_argument("monomial")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="verify a certificate (JSON from file or stdin)")
    p.add_argument("certificate", nargs="?", default="-", help="path, or - for stdin")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bound", help="the vanishing bound n(n-1)g - n + 2")
    common(p, with_g=True)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("blocks", help="list the blocks of a ground set")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("lemma-lines", help="check pivot selection over monomials at the bound")
    common(p, with_g=True)
    p.add_argument("--samples", type=_int_arg, default=0, help="random monomials instead of exhaustion")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_lemma_lines)

    p = sub.add_parser("lemma-partition", help="check the two-sided degree dichotomy")
    common(p, with_g=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_lemma_partition)

    p = sub.add_parser("hilbert", help="graded dimensions around the vanishing bound")
    common(p, with_g=True)
    p.add_argument("--dmin", type=_int_arg, default=None)
    p.add_argument("--dmax", type=_int_arg, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_hilbert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ParseError, MalformedCertificateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
