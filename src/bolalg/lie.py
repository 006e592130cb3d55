"""Minimal exact Lie-algebra toolkit.

Just enough for the enveloping construction: Jacobi verification, the
Killing form, derived series, solvability, the radical via the Killing
criterion, and Cartan semisimplicity.  All of it is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from bolalg.errors import DimensionMismatch, FatalInconsistency, NotAnIdeal
from bolalg.linalg import (
    Mat,
    Record,
    SeriesResult,
    Subspace,
    Vec,
    basis_vec,
    combine,
    dense_row,
    dense_rows,
    dense_tensor,
    derived_chain,
    digits,
    failures,
    full_space,
    integer_tensors,
    integral,
    kernel,
    multilinear,
    nonzero_row,
    packed,
    rank,
    row_bounds,
    sized,
    slot_width,
    span,
    unscaled,
)


class LieAlgebra(Record):
    """Lie algebra over Q presented by structure constants C[i][j][k].

    They are stored once, as the rows (d, C) of `linalg.integer_tensors`; `C` is a Fraction view for callers outside the package.
    """

    m: int
    labels: tuple[str, ...]
    integer_rows: tuple[int, tuple]

    @staticmethod
    def from_constants(m: int, C, labels=None) -> LieAlgebra:
        if labels is None:
            labels = tuple(f"f{i}" for i in range(m))
        return LieAlgebra(m, sized(labels, m, "labels"), integer_tensors(m, (dense_rows(C, 3, m, "C"), 3)))

    @cached_property
    def C(self) -> tuple:
        """C[i][j][k], the coefficient of f_k in [f_i, f_j]: a read-only Fraction view of the rows, built on first use."""
        d, C = self.integer_rows
        return dense_tensor(C, 3, d, self.m)

    def bracket(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the bracket, summed from the integer rows."""
        if len(x) != self.m or len(y) != self.m:
            raise DimensionMismatch("vector length does not match the algebra dimension")
        d, C = self.integer_rows
        return multilinear(C, (x, y), d, self.m)

    def basis(self) -> tuple[Vec, ...]:
        return tuple(basis_vec(i, self.m) for i in range(self.m))

    @cached_property
    def derived(self) -> Subspace:
        """[L, L], the span of the rows [f_i, f_j] (i < j), formed once per algebra."""
        _, C = self.integer_rows
        return span([dense_row(C[i][j], self.m) for i in range(self.m) for j in range(i + 1, self.m)], self.m)


class JacobiReport(Record):
    ok: bool
    antisymmetric: bool
    witness: tuple[int, int, int] | None = None
    defect: Vec | None = None


def jacobi_check(L: LieAlgebra) -> JacobiReport:
    """Verify antisymmetry and the Jacobi identity on all basis triples.

    The Jacobi defect sum_p C_ij^p C_pk + cyclic is summed in ints from
    the integer rows, at weight d^2, by the packed zero test
    (`linalg.slot_width`), and a reported defect is read back from its
    digits and divided by the weight.
    """
    d, C = L.integer_rows
    r = range(L.m)
    antisym = all(C[i][j] == tuple((k, -c) for k, c in C[j][i]) for i in r for j in range(i, L.m))
    W = slot_width((2, 2, 2), *row_bounds((C, 2)))
    PC = packed(C, 2, W)

    def defect(i, j, k):
        s = 0
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):  # [[e_a, e_b], e_c]
            for p, v in C[a][b]:
                s += v * PC[p][c]
        return s

    triples = ((i, j, k) for i in r for j in range(i + 1, L.m) for k in range(j + 1, L.m))
    first = next(failures(triples, defect), None)
    if first is not None:
        return JacobiReport(False, antisym, first[0], unscaled(digits(first[1], W, L.m), d * d))
    return JacobiReport(antisym, antisym, None, None)


@lru_cache(maxsize=None)
def killing_gram(L: LieAlgebra) -> Mat:
    """tr(ad e_i ad e_j) from the integer rows: ad e_i has entry C_ib^a at (a, b), summed at weight d^2."""
    d, C = L.integer_rows
    r = range(L.m)
    dense = [[dense_row(row, L.m) for row in plane] for plane in C]  # dense[j][a][b] = C_ja^b, the entry (b, a) of ad e_j
    g = [[None] * L.m for _ in r]
    for i in r:
        for j in range(i, L.m):
            ad = dense[j]
            s = sum(v * ad[a][b] for b in r for a, v in C[i][b])
            g[i][j] = g[j][i] = Fraction(s, d * d)
    return tuple(tuple(row) for row in g)


def derived_subspace(L: LieAlgebra, S: Subspace) -> Subspace:
    """[S, S]; for S = L it is `LieAlgebra.derived`, read from the rows."""
    return L.derived if S.is_full() else bracket_span(L, S, S)


def bracket_span(L: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    return span([L.bracket(u, v) for u in U.basis for v in V.basis], L.m)


def lie_is_ideal(L: LieAlgebra, S: Subspace) -> bool:
    """[S, L] <= S; the full space needs no check."""
    return S.is_full() or bracket_span(L, S, full_space(L.m)) <= S


def lie_derived_series(L: LieAlgebra, S: Subspace) -> SeriesResult:
    """Standard derived series S >= [S,S] >= ... of an ideal S."""
    if not lie_is_ideal(L, S):
        raise NotAnIdeal("derived series requires a Lie ideal")
    return derived_chain(S, lambda s: derived_subspace(L, s))


def lie_is_solvable(L: LieAlgebra) -> bool:
    return lie_derived_series(L, full_space(L.m)).solvable


def lie_radical(L: LieAlgebra) -> Subspace:
    """Radical as the Killing-orthogonal of [L, L], then certified.

    Classical criterion, valid in characteristic zero.  Certification
    failure indicates an inconsistency and raises.
    """
    g, _ = integral([c for row in killing_gram(L) for c in row])
    g = [nonzero_row(g[i * L.m : (i + 1) * L.m]) for i in range(L.m)]
    rad = kernel([combine([c for _, c in u], [g[p] for p, _ in u], L.m) for u in L.derived.integer_basis[1]], L.m)
    if not lie_is_ideal(L, rad):
        raise FatalInconsistency("radical candidate is not an ideal")
    if not derived_chain(rad, lambda s: derived_subspace(L, s)).solvable:  # lie_derived_series, past its ideal test
        raise FatalInconsistency("radical candidate is not solvable")
    return rad


def lie_is_semisimple(L: LieAlgebra) -> bool:
    """Cartan: semisimple iff the Killing form is nondegenerate."""
    if L.m == 0:
        return True
    return rank(killing_gram(L)) == L.m

