"""Per-layer attribution for the benchmark: wrappers around blockcert's public functions.

Wrappers are installed where the callers look the names up, not where the
functions are defined.  The benchmark calls the package's top-level exports,
so ``decompose``, ``verify_certificate`` and the CLI codecs are patched there.
Inside the package, ``decompose.py`` imports ``rewrite_to_base``,
``select_pivot``, ``split_at``, ``branch_of_split`` and ``merge_blocks`` by
name, so those are patched in the ``blockcert.decompose`` module;
``eq_mod_relations`` calls the ``normal_form`` global of ``blockcert.ring``;
``BlockIdealSlice.contains`` calls the ``normal_form`` bound in
``blockcert.hilbert``.  The package attribute ``blockcert.decompose`` is the
function, so every submodule is taken from ``sys.modules``.  This module is
the only part of the benchmark that knows the package's internal layout.  If
a call site moves, installing the wrappers raises, and the traced run counts
every request as failed instead of reporting wrong figures.

Each wrapper records a call count and self time: the span's duration minus
the time covered by wrapped spans it called.  Spans are aggregated in memory
per wrapper name; nothing is written while the benchmark runs.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (name, unit, better) of every per-layer metric, in the order they are printed.
LAYER_METRICS = (
    ("ring.normal_form.calls", "count", "lower"),
    ("ring.normal_form.self_s", "s", "lower"),
    ("ring.normal_form.terms_in", "count", "lower"),
    ("ring.normal_form.terms_out", "count", "lower"),
    ("ring.rewrite_to_base.calls", "count", "lower"),
    ("ring.rewrite_to_base.self_s", "s", "lower"),
    ("ring.rewrite_to_base.terms_out", "count", "lower"),
    ("ring.monomials_built", "count", "lower"),
    ("combinatorics.split_at.calls.n3", "count", "lower"),
    ("combinatorics.split_at.calls.n4", "count", "lower"),
    ("combinatorics.split_at.distinct.n3", "count", "lower"),
    ("combinatorics.split_at.distinct.n4", "count", "lower"),
    ("combinatorics.split_at.repeat_ratio.n3", "ratio", "lower"),
    ("combinatorics.split_at.repeat_ratio.n4", "ratio", "lower"),
    ("combinatorics.select_pivot.calls", "count", "lower"),
    ("combinatorics.select_pivot.self_s", "s", "lower"),
    ("combinatorics.branch_of_split.calls", "count", "lower"),
    ("combinatorics.branch_of_split.self_s", "s", "lower"),
    ("decompose.decompose.self_s", "s", "lower"),
    ("decompose.merge_blocks.self_s", "s", "lower"),
    ("decompose.verify_certificate.self_s", "s", "lower"),
    ("decompose.cert_entries", "count", "lower"),
    ("decompose.cofactor_terms", "count", "lower"),
    ("hilbert.IntRowSpace.add.calls", "count", "lower"),
    ("hilbert.IntRowSpace.add.useful", "count", "lower"),
    ("hilbert.IntRowSpace.add.self_s", "s", "lower"),
    ("hilbert.add.useful_ratio", "ratio", "higher"),
    ("hilbert.IntRowSpace.contains.self_s", "s", "lower"),
    ("hilbert.row_build.self_s", "s", "lower"),
    ("hilbert.max_entry_bits", "bits", "lower"),
    ("cli.parse_poly.self_s", "s", "lower"),
    ("cli.certificate_to_json.self_s", "s", "lower"),
    ("cli.certificate_from_json.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Aggregated spans and counters; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_entry_bits = 0
        self._split_calls: Counter = Counter()  # split_at calls by ground-set size
        self._split_keys: dict[int, set] = defaultdict(set)
        self._open: list[float] = []  # time covered by child spans, per open span

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` adds counters."""
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name, fn):
        """``fn`` counted under ``name`` but not timed (for very hot calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters attached to particular wrappers

    def _rewrite_terms(self, _args, poly):
        self.counts["ring.rewrite_to_base.terms_out"] += len(poly.terms)

    def _normal_form_terms(self, args, poly):
        self.counts["ring.normal_form.terms_in"] += len(args[0].terms)
        self.counts["ring.normal_form.terms_out"] += len(poly.terms)

    def _split_key(self, args, _result):
        mono = args[0]
        n = len(mono.ground)
        self._split_calls[n] += 1
        self._split_keys[n].add((mono.ground.elements, mono.exps))

    def _certificate_size(self, _args, cert):
        self.counts["decompose.cert_entries"] += len(cert.entries)
        self.counts["decompose.cofactor_terms"] += sum(len(e.cofactor.terms) for e in cert.entries)

    def _useful_row(self, _args, enlarged):
        if enlarged:
            self.counts["hilbert.IntRowSpace.add.useful"] += 1

    def _entry_bits(self, _args, space):
        bits = max((abs(x).bit_length() for row in space.rows for x in row), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    @contextmanager
    def installed(self, pkg):
        """Patch the call sites listed in the module docstring; restore on exit."""
        ring, dec, hil, cli = (sys.modules[f"{pkg.__name__}.{part}"]
                               for part in ("ring", "decompose", "hilbert", "cli"))
        space = hil.BlockIdealSlice.__dict__["_space"]
        row_build = functools.cached_property(
            self.wrap("hilbert.row_build", space.func, self._entry_bits))
        row_build.__set_name__(hil.BlockIdealSlice, "_space")
        normal_form = self.wrap("ring.normal_form", ring.normal_form, self._normal_form_terms)
        decompose = self.wrap("decompose.decompose", dec.decompose, self._certificate_size)
        verify = self.wrap("decompose.verify_certificate", dec.verify_certificate)
        patches = [
            (pkg, "decompose", decompose),
            (dec, "decompose", decompose),
            (pkg, "verify_certificate", verify),
            (dec, "verify_certificate", verify),
            (ring, "normal_form", normal_form),
            (hil, "normal_form", normal_form),
            (ring.Monomial, "__post_init__",
             self.counter("ring.monomials_built", ring.Monomial.__post_init__)),
            (dec, "rewrite_to_base", self.wrap("ring.rewrite_to_base", dec.rewrite_to_base,
                                               self._rewrite_terms)),
            (dec, "split_at", self.wrap("combinatorics.split_at", dec.split_at, self._split_key)),
            (dec, "select_pivot", self.wrap("combinatorics.select_pivot", dec.select_pivot)),
            (dec, "branch_of_split", self.wrap("combinatorics.branch_of_split", dec.branch_of_split)),
            (dec, "merge_blocks", self.wrap("decompose.merge_blocks", dec.merge_blocks)),
            (hil.IntRowSpace, "add", self.wrap("hilbert.IntRowSpace.add", hil.IntRowSpace.add,
                                               self._useful_row)),
            (hil.IntRowSpace, "contains", self.wrap("hilbert.IntRowSpace.contains",
                                                    hil.IntRowSpace.contains)),
            (hil.BlockIdealSlice, "_space", row_build),
        ]
        for name in ("parse_poly", "certificate_to_json", "certificate_from_json"):
            codec = self.wrap(f"cli.{name}", getattr(cli, name))
            patches += [(pkg, name, codec), (cli, name, codec)]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def metrics(self, overhead_s: float, untraced_s: float) -> dict:
        """Every metric of LAYER_METRICS, keyed by name, as (value, unit)."""
        adds = self.calls["hilbert.IntRowSpace.add"]
        derived = {
            "hilbert.add.useful_ratio":
                self.counts["hilbert.IntRowSpace.add.useful"] / adds if adds else 0.0,
            "hilbert.max_entry_bits": self.max_entry_bits,
            "trace.overhead_s": overhead_s,
            "trace.overhead_ratio": overhead_s / untraced_s if untraced_s else 0.0,
        }
        for n in (3, 4):
            calls, distinct = self._split_calls[n], len(self._split_keys[n])
            derived[f"combinatorics.split_at.calls.n{n}"] = calls
            derived[f"combinatorics.split_at.distinct.n{n}"] = distinct
            derived[f"combinatorics.split_at.repeat_ratio.n{n}"] = 1 - distinct / calls if calls else 0.0
        out = {}
        for name, unit, _ in LAYER_METRICS:
            if name in derived:
                value = derived[name]
            elif name.endswith(".calls"):
                value = self.calls[name.removesuffix(".calls")]
            elif name.endswith(".self_s"):
                value = self.self_s.get(name.removesuffix(".self_s"), 0.0)
            else:
                value = self.counts[name]
            out[name] = (value, unit)
        return out
