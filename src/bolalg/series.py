"""Derived series in both variants, and solvability.

Two descending series are computed for an ideal inside a Bol algebra B:

    lts variant:  V^(k+1) = (V^(k), V^(k), B)
    bol variant:  W^(k+1) = W^(k)*W^(k) + (W^(k), W^(k), B)

"Solvable" without qualification always means the bol variant reaches
zero; the lts series is exposed for comparison reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from bolalg.core import BolAlgebra, is_ideal, prod_span, tri_span
from bolalg.errors import NotAnIdeal
from bolalg.linalg import Subspace, derived_chain, full_space, subspace_sum


@dataclass(frozen=True)
class SeriesResult:
    variant: str  # "lts" | "bol"
    chain: tuple[Subspace, ...]
    stabilized_at: int
    solvable: bool


def lts_derived_series(B: BolAlgebra, V: Subspace) -> SeriesResult:
    """V^(k+1) = (V^(k), V^(k), B), run until stabilization."""
    _require_ideal(B, V)
    full = full_space(B.n)
    chain, k, solvable = derived_chain(V, lambda s: tri_span(B, s, s, full))
    return SeriesResult("lts", chain, k, solvable)


def bol_derived_series(B: BolAlgebra, W: Subspace) -> SeriesResult:
    """W^(k+1) = W^(k)*W^(k) + (W^(k), W^(k), B), run until stabilization."""
    _require_ideal(B, W)
    full = full_space(B.n)

    def step(s: Subspace) -> Subspace:
        return subspace_sum(prod_span(B, s, s), tri_span(B, s, s, full))

    chain, k, solvable = derived_chain(W, step)
    return SeriesResult("bol", chain, k, solvable)


def is_solvable(B: BolAlgebra, W: Subspace) -> bool:
    return bol_derived_series(B, W).solvable


def _require_ideal(B: BolAlgebra, V: Subspace) -> None:
    if not is_ideal(B, V, "def2"):
        raise NotAnIdeal("derived series requires a def2-ideal")
