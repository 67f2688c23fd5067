"""Seeded inputs, timed requests and output checks of the benchmark workloads.

A workload is an endless stream of units drawn from ``random.Random(seed)``:
one certificate input per unit for the certificate workloads, one slice
degree or one batch of membership queries for ``hilbert-slices``.  The same
seed gives the same units for the package under test and for the frozen copy
in ``perfbench/blockcert_seed``.  Requests and checks call only the names a
package exports at its top level (``pkg.decompose``, ``pkg.parse_poly``, ...),
so internal refactors of the package do not touch the benchmark.  Checks run
outside the timed requests.

Why each workload exists, which modules it loads and which it leaves idle is
written in ``perfbench/README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

WARM_UP_SEED = 20150202  # independent of --seed, so warm-up never runs a measured input
COEFF_NUMERATORS = (-3, -2, -1, 1, 2, 3)

# Graded dimensions (dimR, dimJ, dimQuotient) by (n, g, degree), recorded at
# the commit that introduced this benchmark.  The vanishing bound is 17 for
# (3, 3), 11 for (3, 2) and 22 for (4, 2).
EXPECTED_DIMS = {
    (3, 2, 10): (11, 9, 2),
    (3, 2, 11): (12, 12, 0),
    (3, 3, 14): (15, 9, 6),
    (3, 3, 15): (16, 12, 4),
    (3, 3, 16): (17, 15, 2),
    **{(3, 3, d): (d + 1, d + 1, 0) for d in range(17, 23)},
    (4, 2, 12): (91, 4, 87),
    (4, 2, 13): (105, 12, 93),
    (4, 2, 14): (120, 24, 96),
    (4, 2, 15): (136, 40, 96),
}

# Per-layer metrics that must be nonzero in a traced run of each workload.
# ring.normal_form.terms_out is 0 on the certificate workloads: the verifier
# takes the normal form of input minus claimed sum, which is zero when it holds.
_CERT_LAYERS = (
    "ring.normal_form.calls", "ring.normal_form.self_s", "ring.normal_form.terms_in",
    "ring.rewrite_to_base.calls", "ring.rewrite_to_base.self_s",
    "ring.rewrite_to_base.terms_out", "ring.monomials_built",
    "combinatorics.split_at.calls.n3", "combinatorics.split_at.distinct.n3",
    "combinatorics.select_pivot.calls", "combinatorics.select_pivot.self_s",
    "combinatorics.branch_of_split.calls", "combinatorics.branch_of_split.self_s",
    "decompose.decompose.self_s", "decompose.merge_blocks.self_s",
    "decompose.verify_certificate.self_s", "decompose.cert_entries", "decompose.cofactor_terms",
)
_HILBERT_LAYERS = (
    "hilbert.IntRowSpace.add.calls", "hilbert.IntRowSpace.add.useful",
    "hilbert.IntRowSpace.add.self_s", "hilbert.add.useful_ratio",
    "hilbert.IntRowSpace.contains.self_s", "hilbert.row_build.self_s",
    "hilbert.max_entry_bits", "ring.normal_form.calls", "ring.normal_form.terms_out",
)


class Tally:
    """Request latencies by phase, and failed checks, of one implementation in one run."""

    def __init__(self):
        self.requests: list[float] = []
        self.phases: defaultdict[str, list[float]] = defaultdict(list)
        self.failed = 0
        self.problems: list[str] = []

    def record(self, **phases: float) -> None:
        """One request, made of the given phases (in seconds)."""
        self.requests.append(sum(phases.values()))
        for phase, seconds in phases.items():
            self.phases[phase].append(seconds)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def canonical_json(pkg, cert) -> str:
    return json.dumps(pkg.certificate_to_json(cert), sort_keys=True, separators=(",", ":"))


def ground_set(pkg, n: int):
    return pkg.IndexSet(tuple(range(1, n + 1)))


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    labels = range(1, n + 1)
    return [(i, j) for i in labels for j in labels if i != j]


def random_exponents(rng: random.Random, pairs, degree: int) -> dict:
    """A product of ``degree`` variables, each drawn uniformly from ``pairs``."""
    exps: dict = {}
    for _ in range(degree):
        pair = rng.choice(pairs)
        exps[pair] = exps.get(pair, 0) + 1
    return exps


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(COEFF_NUMERATORS), rng.randint(1, 4))


def monomial_text(coeff: Fraction, exps: dict) -> str:
    factors = [f"x[{i},{j}]^{e}" if e > 1 else f"x[{i},{j}]" for (i, j), e in sorted(exps.items())]
    return "*".join([str(coeff)] + factors)


@dataclass(frozen=True)
class CertItem:
    g: int
    degree: int
    mono: object  # Monomial of the implementation the item was made for
    text: str  # the same monomial in the CLI's text grammar
    ends_pass = True


@dataclass(frozen=True)
class CertOutput:
    cert: object  # Certificate
    verified: bool
    text: str | None = None  # canonical JSON, when the request produced it
    parsed: object = None  # the polynomial parse_poly returned, on the text path


class CertWorkload:
    """Monomials at (or a little above) the vanishing bound, decomposed and verified.

    With ``text_path`` each request starts from polynomial text and follows
    the CLI's ``decompose | verify`` path: parse_poly, decompose, certificate
    JSON encode and decode, verify_certificate.  Without it a request is
    decompose + verify_certificate on a Monomial.
    """

    def __init__(self, name, n, degree_offsets, text_path, chunk, trace_units, memory_units,
                 exercised):
        self.name = name
        self.n = n
        self.degree_offsets = degree_offsets
        self.text_path = text_path
        self.chunk = chunk
        self.trace_units = trace_units
        self.memory_units = memory_units
        self.exercised = exercised
        self._slices: dict = {}

    def units(self, pkg, seed):
        """Endless seeded stream of CertItem, alternating g = 2 and g = 3."""
        rng = random.Random(seed)
        ground = ground_set(pkg, self.n)
        pairs = ordered_pairs(self.n)
        for g in itertools.cycle((2, 3)):
            degree = pkg.vanishing_bound(self.n, g) + rng.choice(self.degree_offsets)
            exps = random_exponents(rng, pairs, degree)
            coeff = random_coeff(rng)
            yield CertItem(g, degree, pkg.Monomial.make(ground, coeff, exps),
                           monomial_text(coeff, exps))

    def warm_up(self, pkg) -> None:
        self.run_unit(pkg, next(self.units(pkg, WARM_UP_SEED)), Tally())

    def run_unit(self, pkg, item: CertItem, tally: Tally) -> CertOutput:
        if not self.text_path:
            start = perf_counter()
            cert = pkg.decompose(item.mono, item.g)
            decomposed = perf_counter()
            verified = pkg.verify_certificate(cert)
            done = perf_counter()
            tally.record(decompose=decomposed - start, verify=done - decomposed)
            return CertOutput(cert, verified)
        start = perf_counter()
        parsed = pkg.parse_poly(item.text, item.mono.ground)
        parsed_at = perf_counter()
        cert = pkg.decompose(parsed.terms[0], item.g)
        decomposed = perf_counter()
        text = canonical_json(pkg, cert)
        decoded = pkg.certificate_from_json(json.loads(text))
        decoded_at = perf_counter()
        verified = pkg.verify_certificate(decoded)
        done = perf_counter()
        tally.record(io=(parsed_at - start) + (decoded_at - decomposed),
                     decompose=decomposed - parsed_at, verify=done - decoded_at)
        return CertOutput(cert, verified, text, parsed)

    def check(self, pkg, item: CertItem, out: CertOutput, tally: Tally) -> None:
        if not out.verified:
            tally.fail(f"{self.name}: certificate of {item.text} (g={item.g}) does not verify")
        if not self.text_path:
            return
        if out.parsed.terms != (item.mono,):
            tally.fail(f"{self.name}: parse_poly({item.text!r}) returned {out.parsed}")
        key = (item.g, item.degree)
        if key not in self._slices:
            self._slices[key] = pkg.block_ideal_slice(item.mono.ground, *key)
        if not self._slices[key].contains(item.mono.as_poly()):
            tally.fail(f"{self.name}: {item.text} (g={item.g}) is not in the ideal slice")

    @staticmethod
    def output_bytes(pkg, out: CertOutput) -> bytes:
        """The certificate as canonical JSON, which must match the frozen copy's byte for byte."""
        text = out.text if out.text is not None else canonical_json(pkg, out.cert)
        return text.encode()


@dataclass(frozen=True)
class SliceUnit:
    n: int
    g: int
    degree: int
    ground: object  # IndexSet
    ends_pass = False


@dataclass(frozen=True)
class QueryUnit:
    n: int
    g: int
    degree: int
    ground: object  # IndexSet
    queries: tuple  # Polynomials of that degree
    ends_pass = True


class HilbertWorkload:
    """Graded slices by degree, then membership queries on one slice.

    One pass is a ``graded_report`` unit for every (n, g, degree) in
    ``reports``, then one query unit: a request that builds the
    ``query_slice``, and ``queries_per_pass`` seeded membership queries on it.
    """

    name = "hilbert-slices"
    exercised = _HILBERT_LAYERS

    def __init__(self, reports=((3, 3, range(14, 23)), (4, 2, range(12, 16))),
                 query_slice=(3, 3, 17), queries_per_pass=12):
        self.reports = reports
        self.query_slice = query_slice
        self.queries_per_pass = queries_per_pass
        units_per_pass = sum(len(degrees) for _, _, degrees in reports) + 1
        self.chunk = self.trace_units = self.memory_units = units_per_pass

    def units(self, pkg, seed):
        """Endless seeded stream of passes; each pass asks new queries."""
        rng = random.Random(seed)
        n, g, degree = self.query_slice
        query_ground = ground_set(pkg, n)
        pairs = ordered_pairs(n)
        while True:
            for rn, rg, degrees in self.reports:
                for d in degrees:
                    yield SliceUnit(rn, rg, d, ground_set(pkg, rn))
            queries = tuple(
                pkg.Monomial.make(query_ground, random_coeff(rng),
                                        random_exponents(rng, pairs, degree)).as_poly()
                for _ in range(self.queries_per_pass)
            )
            yield QueryUnit(n, g, degree, query_ground, queries)

    def warm_up(self, pkg) -> None:
        ground = ground_set(pkg, 3)
        pkg.graded_report(ground, 2, [10])
        pkg.block_ideal_slice(ground, 2, 11).contains(
            pkg.Monomial.make(ground, 1, {(1, 2): 11}).as_poly())

    def run_unit(self, pkg, unit, tally: Tally):
        if isinstance(unit, SliceUnit):
            start = perf_counter()
            report = pkg.graded_report(unit.ground, unit.g, [unit.degree])
            tally.record(hilbert=perf_counter() - start)
            return report.rows[0][1:]
        start = perf_counter()
        slice_ = pkg.block_ideal_slice(unit.ground, unit.g, unit.degree)
        dim_ideal = slice_.dim
        tally.record(hilbert=perf_counter() - start)
        answers = []
        for poly in unit.queries:
            start = perf_counter()
            answers.append(slice_.contains(poly))
            tally.record(hilbert=perf_counter() - start)
        return dim_ideal, tuple(answers)

    def check(self, pkg, unit, out, tally: Tally) -> None:
        key = (unit.n, unit.g, unit.degree)
        bound = pkg.vanishing_bound(unit.n, unit.g)
        if isinstance(unit, SliceUnit):
            if out != EXPECTED_DIMS[key]:
                tally.fail(f"{self.name}: dimensions at n={unit.n} g={unit.g} d={unit.degree} "
                           f"are {out}, recorded {EXPECTED_DIMS[key]}")
            d, dim_quotient = unit.degree, out[2]
            if d >= bound and dim_quotient != 0 or d == bound - 1 and dim_quotient == 0:
                tally.fail(f"{self.name}: dimQuotient {dim_quotient} at n={unit.n} g={unit.g} "
                           f"d={d}, bound {bound}")
            return
        dim_ideal, answers = out
        if dim_ideal != EXPECTED_DIMS[key][1]:
            tally.fail(f"{self.name}: query slice {key} has dimension {dim_ideal}")
        if unit.degree >= bound and not all(answers):
            tally.fail(f"{self.name}: a query above the bound is not in the ideal slice")

    @staticmethod
    def output_bytes(pkg, out) -> bytes:
        return repr(out).encode()


def make_workload(name: str):
    """A fresh workload (its state lives for one run)."""
    if name == "cert-n4":
        return CertWorkload(name, n=4, degree_offsets=(0,), text_path=False, chunk=1000,
                            trace_units=150, memory_units=40,
                            exercised=_CERT_LAYERS + (
                                "combinatorics.split_at.calls.n4",
                                "combinatorics.split_at.distinct.n4",
                                "combinatorics.split_at.repeat_ratio.n3"))
    if name == "cert-n3-io":
        return CertWorkload(name, n=3, degree_offsets=(0, 1, 2, 3, 4), text_path=True,
                            chunk=8000, trace_units=3000, memory_units=500,
                            exercised=_CERT_LAYERS + (
                                "cli.parse_poly.self_s", "cli.certificate_to_json.self_s",
                                "cli.certificate_from_json.self_s"))
    if name == "hilbert-slices":
        return HilbertWorkload()
    raise KeyError(name)


WORKLOAD_NAMES = ("cert-n4", "cert-n3-io", "hilbert-slices")
