"""Exact-arithmetic toolkit for finite-dimensional Bol algebras.

Everything is computed over the rationals with `fractions.Fraction`;
there is no floating point anywhere in the library.

`import bolalg` loads no submodule.  Each public name is imported from
the module that defines it on first use (PEP 562), so a program loads
only the layers it calls: `bol check` never compiles the envelope,
forms, series, radical or decomposition code.
"""

import importlib
import sys
from types import ModuleType

# The public names, by the module that defines them.
_EXPORTS = {
    "linalg": ("SeriesResult", "Subspace", "full_space", "intersect", "kernel", "rref", "span", "subspace_sum", "zero_space"),
    "core": (
        "AxiomReport",
        "BolAlgebra",
        "PairEndo",
        "center",
        "check_axioms",
        "direct_sum",
        "ideal_closure",
        "is_ideal",
        "is_subsystem",
        "prod_span",
        "quotient",
        "restrict",
        "tri_span",
    ),
    "catalog": ("catalog", "catalog_names"),
    "series": ("bol_derived_series", "is_solvable", "lts_derived_series"),
    "lie": ("LieAlgebra", "jacobi_check", "lie_derived_series", "lie_is_semisimple", "lie_is_solvable", "lie_radical"),
    "envelope": (
        "EnvelopingLie",
        "envelope",
        "h_closure",
        "ideal_extension",
        "inner_pair",
        "is_pseudo_derivation",
        "solvability_transfer_check",
        "standard_embedding_check",
    ),
    "forms": (
        "BilinearForm",
        "center_orthogonality_check",
        "compare_trace_vs_envelope",
        "envelope_form",
        "invariance_check",
        "is_nondegenerate",
        "killing",
        "left_perp",
        "right_perp",
        "trace_form",
    ),
    "radical": ("RadicalCertificate", "is_semisimple", "is_simple", "radical"),
    "decompose": ("Decomposition", "decompose_semisimple", "find_proper_ideal", "structure_report", "verify_reassembly"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "errors"}  # readable as `bolalg.core` and so on after a bare `import bolalg`

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:  # the import binds it here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package module.  `catalog`, `envelope` and `radical` name both a
    function and a submodule; importing the submodule binds it on the
    package, and that binding is refused so the name stays the function."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
