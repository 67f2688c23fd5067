"""Exact block-monomial membership certificates in a pair-relation ring.

Exports what the README, the command line and the benchmark use; the
recursion steps and ``hilbert.IntRowSpace`` stay in their own modules.
"""

from .combinatorics import (
    Block,
    enumerate_blocks,
    pivot_lemma_check,
    split_lemma_check,
    vanishing_bound,
)
from .decompose import (
    Certificate,
    CertificateEntry,
    decompose,
    verify_certificate,
)
from .errors import (
    GroundMismatchError,
    MalformedCertificateError,
    ParseError,
    PreconditionError,
    SizeLimitError,
)
from .hilbert import (
    BlockIdealSlice,
    GradedReport,
    block_ideal_slice,
    dim_quotient_graded,
    dim_ring_graded,
    graded_report,
)
from .ring import (
    IndexSet,
    Monomial,
    Polynomial,
    eq_mod_relations,
    normal_form,
    rewrite_to_base,
)
from .cli import (
    certificate_from_json,
    certificate_to_json,
    main,
    parse_poly,
    poly_from_json,
    poly_to_json,
    poly_to_str,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockIdealSlice",
    "Certificate",
    "CertificateEntry",
    "GradedReport",
    "GroundMismatchError",
    "IndexSet",
    "MalformedCertificateError",
    "Monomial",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "SizeLimitError",
    "block_ideal_slice",
    "certificate_from_json",
    "certificate_to_json",
    "decompose",
    "dim_quotient_graded",
    "dim_ring_graded",
    "enumerate_blocks",
    "eq_mod_relations",
    "graded_report",
    "main",
    "normal_form",
    "parse_poly",
    "pivot_lemma_check",
    "poly_from_json",
    "poly_to_json",
    "poly_to_str",
    "rewrite_to_base",
    "split_lemma_check",
    "vanishing_bound",
    "verify_certificate",
]
