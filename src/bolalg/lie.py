"""Minimal exact Lie-algebra toolkit.

Just enough for the enveloping construction: Jacobi verification, the
Killing form, derived series, solvability, the radical via the Killing
criterion, and Cartan semisimplicity.  All of it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from bolalg.errors import DimensionMismatch, FatalInconsistency, NotAnIdeal
from bolalg.linalg import (
    Mat,
    Subspace,
    Vec,
    basis_vec,
    block_sum,
    complement_constants,
    derived_chain,
    failures,
    freeze3,
    full_space,
    kernel_of,
    mat_vec,
    multilinear,
    nonzero_row,
    scaled_rows,
    sized,
    span,
    unscaled,
)

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over Q presented by structure constants C[i][j][k]."""

    m: int
    labels: tuple[str, ...]
    C: Tensor3

    @staticmethod
    def from_constants(m: int, C, labels=None) -> LieAlgebra:
        if labels is None:
            labels = tuple(f"f{i}" for i in range(m))
        return LieAlgebra(m, sized(labels, m, "labels"), freeze3(C, m, "C"))

    @cached_property
    def integer_rows(self) -> tuple[int, tuple]:
        """(d, C): every C[i][j] cut to its nonzero entries and scaled by d, the lcm of all denominators, as ints.

        A term with a factors of C is then d^a times its rational value.
        """
        d = lcm(*(c.denominator for plane in self.C for v in plane for c in v))
        return d, tuple(scaled_rows(map(nonzero_row, plane), d) for plane in self.C)

    def bracket(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the bracket, summed from the integer rows."""
        if len(x) != self.m or len(y) != self.m:
            raise DimensionMismatch("vector length does not match the algebra dimension")
        d, C = self.integer_rows
        return multilinear(C, (x, y), d, self.m)

    def basis(self) -> tuple[Vec, ...]:
        return tuple(basis_vec(i, self.m) for i in range(self.m))


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    antisymmetric: bool
    witness: tuple[int, int, int] | None = None
    defect: Vec | None = None


def jacobi_check(L: LieAlgebra) -> JacobiReport:
    """Verify antisymmetry and the Jacobi identity on all basis triples.

    The Jacobi defect sum_p C_ij^p C_pk + cyclic is summed in ints from
    the integer rows, at weight d^2, and a reported defect is divided back.
    """
    d, C = L.integer_rows
    r = range(L.m)
    antisym = all(C[i][j] == tuple((k, -c) for k, c in C[j][i]) for i in r for j in range(i, L.m))

    def defect(i, j, k):
        out = [0] * L.m
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):  # [[e_a, e_b], e_c]
            for p, v in C[a][b]:
                for q, w in C[p][c]:
                    out[q] += v * w
        return out

    triples = ((i, j, k) for i in r for j in range(i + 1, L.m) for k in range(j + 1, L.m))
    first = next(failures(triples, defect), None)
    if first is not None:
        return JacobiReport(False, antisym, first[0], unscaled(first[1], d * d))
    return JacobiReport(antisym, antisym, None, None)


@lru_cache(maxsize=None)
def killing_gram(L: LieAlgebra) -> Mat:
    """tr(ad e_i ad e_j) from the integer rows: ad e_i has entry C_ib^a at (a, b), summed at weight d^2."""
    d, C = L.integer_rows
    r = range(L.m)
    ads = [{(a, b): v for b in r for a, v in C[i][b]} for i in r]
    g = [[None] * L.m for _ in r]
    for i in r:
        for j in range(i, L.m):
            s = sum(v * ads[j].get((b, a), 0) for (a, b), v in ads[i].items())
            g[i][j] = g[j][i] = Fraction(s, d * d)
    return tuple(tuple(row) for row in g)


def killing(L: LieAlgebra):
    """Killing form tr(ad x . ad y) as a BilinearForm."""
    from bolalg.forms import BilinearForm

    return BilinearForm(killing_gram(L), provenance="lie-killing")


def derived_subspace(L: LieAlgebra, S: Subspace) -> Subspace:
    return bracket_span(L, S, S)


def bracket_span(L: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    return span([L.bracket(u, v) for u in U.basis for v in V.basis], L.m)


def lie_is_ideal(L: LieAlgebra, S: Subspace) -> bool:
    return bracket_span(L, S, full_space(L.m)) <= S


@dataclass(frozen=True)
class LieSeriesResult:
    chain: tuple[Subspace, ...]
    stabilized_at: int
    solvable: bool


def lie_derived_series(L: LieAlgebra, S: Subspace) -> LieSeriesResult:
    """Standard derived series S >= [S,S] >= ... of an ideal S."""
    if not lie_is_ideal(L, S):
        raise NotAnIdeal("derived series requires a Lie ideal")
    return LieSeriesResult(*derived_chain(S, lambda s: derived_subspace(L, s)))


def lie_is_solvable(L: LieAlgebra) -> bool:
    return lie_derived_series(L, full_space(L.m)).solvable


def lie_radical(L: LieAlgebra) -> Subspace:
    """Radical as the Killing-orthogonal of [L, L], then certified.

    Classical criterion, valid in characteristic zero.  Certification
    failure indicates an inconsistency and raises.
    """
    g = killing_gram(L)
    derived = derived_subspace(L, full_space(L.m))
    rad = kernel_of(tuple(mat_vec(g, d) for d in derived.basis), L.m)
    if not lie_is_ideal(L, rad):
        raise FatalInconsistency("radical candidate is not an ideal")
    if not lie_derived_series(L, rad).solvable:
        raise FatalInconsistency("radical candidate is not solvable")
    return rad


def lie_is_semisimple(L: LieAlgebra) -> bool:
    """Cartan: semisimple iff the Killing form is nondegenerate."""
    from bolalg.linalg import rank

    if L.m == 0:
        return True
    return rank(killing_gram(L)) == L.m


def lie_quotient(L: LieAlgebra, I: Subspace, labels=None) -> LieAlgebra:
    """Quotient Lie algebra on the complement of an ideal."""
    if not lie_is_ideal(L, I):
        raise NotAnIdeal("quotient requires a Lie ideal")
    comp, C = complement_constants(I, L.C, 3)
    if labels is None:
        labels = tuple(L.labels[j] for j in comp)
    return LieAlgebra.from_constants(len(comp), C, labels)


def lie_direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    labels = tuple(f"l.{x}" for x in L1.labels) + tuple(f"r.{x}" for x in L2.labels)
    return LieAlgebra.from_constants(L1.m + L2.m, block_sum(L1.C, L2.C, L1.m, L2.m, 3), labels)
