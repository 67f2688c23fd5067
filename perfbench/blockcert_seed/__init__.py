"""Exact block-monomial membership certificates in a pair-relation ring.

Frozen copy of src/blockcert as it was when the benchmark was added.  The
benchmark runs every request on this copy too, right next to the same request
on the package under test.  Keep it unchanged: it is the fixed yardstick.
"""

from .combinatorics import (
    Block,
    BranchChoice,
    PairCountTable,
    branch_of_split,
    enumerate_blocks,
    iter_compositions,
    pivot_lemma_check,
    sample_composition,
    select_pivot,
    split_at,
    split_lemma_check,
)
from .decompose import (
    Certificate,
    CertificateEntry,
    base_certificate,
    decompose,
    merge_blocks,
    vanishing_bound,
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
    IntRowSpace,
    block_ideal_slice,
    dim_quotient_graded,
    dim_ring_graded,
    graded_report,
)
from .ring import (
    MINUS_INFINITY,
    IndexSet,
    Monomial,
    Polynomial,
    eq_mod_relations,
    normal_form,
    relation_generators,
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
    "BranchChoice",
    "Certificate",
    "CertificateEntry",
    "GradedReport",
    "GroundMismatchError",
    "IndexSet",
    "IntRowSpace",
    "MINUS_INFINITY",
    "MalformedCertificateError",
    "Monomial",
    "PairCountTable",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "SizeLimitError",
    "base_certificate",
    "block_ideal_slice",
    "branch_of_split",
    "certificate_from_json",
    "certificate_to_json",
    "decompose",
    "dim_quotient_graded",
    "dim_ring_graded",
    "enumerate_blocks",
    "eq_mod_relations",
    "graded_report",
    "iter_compositions",
    "main",
    "merge_blocks",
    "normal_form",
    "parse_poly",
    "pivot_lemma_check",
    "poly_from_json",
    "poly_to_json",
    "poly_to_str",
    "relation_generators",
    "rewrite_to_base",
    "sample_composition",
    "select_pivot",
    "split_at",
    "split_lemma_check",
    "vanishing_bound",
    "verify_certificate",
]
