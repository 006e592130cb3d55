"""Minimal exact Lie-algebra toolkit.

Just enough for the enveloping construction: Jacobi verification, the
Killing form, derived series, solvability, the radical via the Killing
criterion, and Cartan semisimplicity.  All of it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from bolalg.errors import DimensionMismatch, FatalInconsistency, NotAnIdeal
from bolalg.linalg import (
    Mat,
    Subspace,
    Vec,
    ZERO,
    basis_vec,
    derived_chain,
    failures,
    frac,
    full_space,
    kernel_of,
    mat_vec,
    span,
    vec_add,
    zero_vec,
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
        frozen = tuple(tuple(tuple(frac(x) for x in row) for row in plane) for plane in C)
        return LieAlgebra(m, tuple(labels), frozen)

    def bracket(self, x: Vec, y: Vec) -> Vec:
        if len(x) != self.m or len(y) != self.m:
            raise DimensionMismatch("vector length does not match the algebra dimension")
        out = list(zero_vec(self.m))
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = xi * yj
                row = self.C[i][j]
                for k in range(self.m):
                    if row[k] != 0:
                        out[k] += c * row[k]
        return tuple(out)

    def ad(self, x: Vec) -> Mat:
        cols = [self.bracket(x, basis_vec(j, self.m)) for j in range(self.m)]
        return tuple(tuple(cols[j][i] for j in range(self.m)) for i in range(self.m))

    def basis(self) -> tuple[Vec, ...]:
        return tuple(basis_vec(i, self.m) for i in range(self.m))


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    antisymmetric: bool
    witness: tuple[int, int, int] | None = None
    defect: Vec | None = None


def jacobi_check(L: LieAlgebra) -> JacobiReport:
    """Verify antisymmetry and the Jacobi identity on all basis triples."""
    antisym = all(
        L.C[i][j][k] == -L.C[j][i][k] for i in range(L.m) for j in range(i, L.m) for k in range(L.m)
    )
    bas = L.basis()

    def defect(i, j, k):
        d = L.bracket(L.bracket(bas[i], bas[j]), bas[k])
        d = vec_add(d, L.bracket(L.bracket(bas[j], bas[k]), bas[i]))
        return vec_add(d, L.bracket(L.bracket(bas[k], bas[i]), bas[j]))

    triples = ((i, j, k) for i in range(L.m) for j in range(i + 1, L.m) for k in range(j + 1, L.m))
    first = next(failures(triples, defect), None)
    if first is not None:
        return JacobiReport(False, antisym, *first)
    return JacobiReport(antisym, antisym, None, None)


@lru_cache(maxsize=None)
def killing_gram(L: LieAlgebra) -> Mat:
    ads = [L.ad(basis_vec(i, L.m)) for i in range(L.m)]
    # tr(ad_i ad_j) without forming the product matrices
    g = [[ZERO] * L.m for _ in range(L.m)]
    for i in range(L.m):
        for j in range(i, L.m):
            s = ZERO
            for a in range(L.m):
                for b in range(L.m):
                    if ads[i][a][b] != 0 and ads[j][b][a] != 0:
                        s += ads[i][a][b] * ads[j][b][a]
            g[i][j] = g[j][i] = s
    return tuple(tuple(row) for row in g)


def killing(L: LieAlgebra):
    """Killing form tr(ad x . ad y) as a BilinearForm."""
    from bolalg.forms import BilinearForm

    return BilinearForm(killing_gram(L), provenance="lie-killing")


def derived_subspace(L: LieAlgebra, S: Subspace) -> Subspace:
    return span([L.bracket(u, v) for u in S.basis for v in S.basis], L.m)


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
    pivots = [next(j for j, c in enumerate(row) if c != 0) for row in I.basis]
    comp = [j for j in range(L.m) if j not in pivots]
    k = len(comp)

    def project(v: Vec) -> Vec:
        reduced = I.reduce(v)
        return tuple(reduced[j] for j in comp)

    C = [[project(L.bracket(basis_vec(comp[p], L.m), basis_vec(comp[q], L.m))) for q in range(k)] for p in range(k)]
    if labels is None:
        labels = tuple(L.labels[j] for j in comp)
    return LieAlgebra.from_constants(k, C, labels)


def lie_direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    m = L1.m + L2.m
    C = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for i in range(L1.m):
        for j in range(L1.m):
            for k in range(L1.m):
                C[i][j][k] = L1.C[i][j][k]
    o = L1.m
    for i in range(L2.m):
        for j in range(L2.m):
            for k in range(L2.m):
                C[o + i][o + j][o + k] = L2.C[i][j][k]
    labels = tuple(f"l.{x}" for x in L1.labels) + tuple(f"r.{x}" for x in L2.labels)
    return LieAlgebra.from_constants(m, C, labels)
