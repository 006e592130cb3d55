"""Derived series in both variants, and solvability.

Two descending series are computed for an ideal inside a Bol algebra B:

    lts variant:  V^(k+1) = (V^(k), V^(k), B)
    bol variant:  W^(k+1) = W^(k)*W^(k) + (W^(k), W^(k), B)

"Solvable" without qualification always means the bol variant reaches
zero; the lts series is exposed for comparison reports.
"""

from __future__ import annotations

from bolalg.core import BolAlgebra, derived_space, is_ideal, tri_span
from bolalg.errors import NotAnIdeal
from bolalg.linalg import SeriesResult, Subspace, derived_chain, full_space


def lts_derived_series(B: BolAlgebra, V: Subspace) -> SeriesResult:
    """V^(k+1) = (V^(k), V^(k), B), run until stabilization."""
    _require_ideal(B, V)
    full = full_space(B.n)
    return derived_chain(V, lambda s: tri_span(B, s, s, full))


def bol_derived_series(B: BolAlgebra, W: Subspace) -> SeriesResult:
    """W^(k+1) = W^(k)*W^(k) + (W^(k), W^(k), B), run until stabilization."""
    _require_ideal(B, W)
    return derived_chain(W, lambda s: derived_space(B, s))


def is_solvable(B: BolAlgebra, W: Subspace) -> bool:
    return bol_derived_series(B, W).solvable


def _require_ideal(B: BolAlgebra, V: Subspace) -> None:
    if not is_ideal(B, V, "def2"):
        raise NotAnIdeal("derived series requires a def2-ideal")
