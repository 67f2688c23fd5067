"""The package's public names: what the README, the command line and the benchmark use."""

import sys

import blockcert

EXPORTED = {
    "Block", "BlockIdealSlice", "Certificate", "CertificateEntry", "GradedReport",
    "GroundMismatchError", "IndexSet", "MalformedCertificateError", "Monomial", "ParseError",
    "Polynomial", "PreconditionError", "SizeLimitError", "block_ideal_slice",
    "certificate_from_json", "certificate_to_json", "decompose", "dim_quotient_graded",
    "dim_ring_graded", "enumerate_blocks", "eq_mod_relations", "graded_report", "main",
    "normal_form", "parse_poly", "pivot_lemma_check", "poly_from_json", "poly_to_json",
    "poly_to_str", "rewrite_to_base", "split_lemma_check", "vanishing_bound", "verify_certificate",
}

# names that stay in their own modules, where the recursion and the tests reach them
INTERNAL = {
    "blockcert.combinatorics": ("split_at", "select_pivot", "branch_of_split",
                                "iter_compositions", "sample_composition"),
    "blockcert.decompose": ("merge_blocks",),
    "blockcert.hilbert": ("IntRowSpace",),
}


def test_package_exports_only_the_public_names():
    assert len(blockcert.__all__) == len(EXPORTED) == 33
    assert set(blockcert.__all__) == EXPORTED
    assert all(hasattr(blockcert, name) for name in blockcert.__all__)
    for module, names in INTERNAL.items():
        for name in names:
            assert name not in blockcert.__all__
            assert hasattr(sys.modules[module], name)
