"""Exact-arithmetic toolkit for finite-dimensional Bol algebras.

Everything is computed over the rationals with `fractions.Fraction`;
there is no floating point anywhere in the library.
"""

from bolalg.linalg import Subspace, full_space, intersect, kernel, rref, span, subspace_sum, zero_space
from bolalg.core import AxiomReport, BolAlgebra, center, check_axioms, direct_sum, ideal_closure, is_ideal, is_subsystem, prod_span, quotient, restrict, tri_span
from bolalg.catalog import catalog, catalog_names
from bolalg.series import SeriesResult, bol_derived_series, is_solvable, lts_derived_series
from bolalg.lie import LieAlgebra, jacobi_check, lie_derived_series, lie_is_semisimple, lie_is_solvable, lie_radical
from bolalg.envelope import (
    EnvelopingLie,
    PairEndo,
    envelope,
    h_closure,
    ideal_extension,
    inner_pair,
    is_pseudo_derivation,
    solvability_transfer_check,
    standard_embedding_check,
)
from bolalg.forms import (
    BilinearForm,
    center_orthogonality_check,
    compare_trace_vs_envelope,
    envelope_form,
    invariance_check,
    is_nondegenerate,
    killing,
    left_perp,
    right_perp,
    trace_form,
)
from bolalg.radical import RadicalCertificate, is_semisimple, is_simple, radical
from bolalg.decompose import Decomposition, decompose_semisimple, find_proper_ideal, structure_report, verify_reassembly

__all__ = [
    "AxiomReport",
    "BilinearForm",
    "BolAlgebra",
    "Decomposition",
    "EnvelopingLie",
    "LieAlgebra",
    "PairEndo",
    "RadicalCertificate",
    "SeriesResult",
    "Subspace",
    "bol_derived_series",
    "catalog",
    "catalog_names",
    "center",
    "center_orthogonality_check",
    "check_axioms",
    "compare_trace_vs_envelope",
    "decompose_semisimple",
    "direct_sum",
    "envelope",
    "envelope_form",
    "find_proper_ideal",
    "full_space",
    "h_closure",
    "ideal_closure",
    "ideal_extension",
    "inner_pair",
    "intersect",
    "invariance_check",
    "is_ideal",
    "is_nondegenerate",
    "is_pseudo_derivation",
    "is_semisimple",
    "is_simple",
    "is_solvable",
    "is_subsystem",
    "jacobi_check",
    "kernel",
    "killing",
    "left_perp",
    "lie_derived_series",
    "lie_is_semisimple",
    "lie_is_solvable",
    "lie_radical",
    "lts_derived_series",
    "prod_span",
    "quotient",
    "radical",
    "restrict",
    "right_perp",
    "rref",
    "solvability_transfer_check",
    "span",
    "standard_embedding_check",
    "structure_report",
    "subspace_sum",
    "trace_form",
    "tri_span",
    "verify_reassembly",
    "zero_space",
]
