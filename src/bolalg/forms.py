"""Bilinear forms on a Bol algebra.

Two constructions of the Killing-Ricci form are provided:

* `envelope_form` restricts the Killing form of the enveloping Lie
  algebra to the base coordinates.  This is the normative form used by
  the radical and decomposition machinery.
* `trace_form` is the Ricci-style contraction of the ternary tensor,
  sign-normalized so that it agrees with `envelope_form` on algebras
  with zero binary product:

      gram[i][j] = -( tr(z -> (z, e_i, e_j)) + tr(z -> (z, e_j, e_i)) )

On algebras with a nonzero binary product the two need not agree; the
toolkit computes both and reports the difference instead of asserting a
claimed equality that does not hold in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from bolalg.core import BolAlgebra, center, prod_span, tri_span
from bolalg.errors import DimensionMismatch
from bolalg.linalg import Mat, Subspace, ZERO, failures, full_space, integral, kernel_of, mat_vec, rank, transpose


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form given by its Gram matrix, with provenance metadata."""

    gram: Mat
    provenance: str = "user"

    @property
    def n(self) -> int:
        return len(self.gram)

    @property
    def symmetric(self) -> bool:
        return self.gram == transpose(self.gram)

    def value(self, x, y) -> Fraction:
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("vector length does not match the form")
        acc = ZERO
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.gram[i]
            for j, yj in enumerate(y):
                if yj != 0 and row[j] != 0:
                    acc += xi * row[j] * yj
        return acc

    @staticmethod
    def identity_gram(n: int, provenance: str = "user") -> BilinearForm:
        from bolalg.linalg import identity

        return BilinearForm(identity(n), provenance)


@dataclass(frozen=True)
class InvarianceReport:
    variant: str
    binary_ok: bool
    ternary_ok: bool
    binary_witness: tuple[int, int, int] | None = None
    ternary_witness: tuple[int, int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.binary_ok and self.ternary_ok


def invariance_check(B: BolAlgebra, b: BilinearForm, variant: str = "skew") -> InvarianceReport:
    """Check invariance of a form on all basis tuples.

    Always: b(x*y, z) = b(x, y*z).  The ternary identity comes in two
    variants: "paper" checks b((x,y,z), t) = b(z, (x,y,t)) and "skew"
    checks b((x,y,z), t) = -b(z, (x,y,t)).  The skew variant is the one
    satisfied by the Killing forms of Lie algebras viewed through their
    ternary structure, and the one the orthogonality results need.
    """
    if variant not in ("skew", "paper"):
        raise ValueError(f"unknown invariance variant {variant!r}")
    if b.n != B.n:
        raise DimensionMismatch("vector length does not match the form")
    r = range(B.n)
    sign = 1 if variant == "paper" else -1
    # b(v, e_l) for every l, and b(e_k, v) for every k, once per structure
    # row v; the form need not be symmetric, so both tables are kept.  They
    # are summed in ints: the Gram matrix scaled by the lcm of its
    # denominators, T by d and R by d^2, so both sides of an identity
    # carry the same weight and a defect is zero exactly when it is.
    _, T, R = B.integer_rows
    w, _ = integral([c for row in b.gram for c in row])
    gram = [w[k * B.n : (k + 1) * B.n] for k in r]
    gram_t = list(zip(*gram))

    def through(M, v):  # M v for a row v given by its nonzero entries
        return [sum(c * row[k] for k, c in v) for row in M]

    T_left = [[through(gram_t, v) for v in plane] for plane in T]
    T_right = [[through(gram, v) for v in plane] for plane in T]
    R_left = [[[through(gram_t, v) for v in plane] for plane in cube] for cube in R]
    R_right = [[[through(gram, v) for v in plane] for plane in cube] for cube in R]

    def binary_defect(i, j, k):  # b(e_i*e_j, e_k) - b(e_i, e_j*e_k)
        return (T_left[i][j][k] - T_right[j][k][i],)

    def ternary_defect(i, j, k, l):  # b((e_i,e_j,e_k), e_l) - sign * b(e_k, (e_i,e_j,e_l))
        return (R_left[i][j][k][l] - sign * R_right[i][j][l][k],)

    b_wit = next((t for t, _ in failures(product(r, repeat=3), binary_defect)), None)
    t_wit = next((t for t, _ in failures(product(r, repeat=4), ternary_defect)), None)
    return InvarianceReport(variant, b_wit is None, t_wit is None, b_wit, t_wit)


@lru_cache(maxsize=None)
def trace_form(B: BolAlgebra) -> BilinearForm:
    """Ricci-style trace form of the ternary tensor (see module docstring)."""
    n = B.n
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = ZERO
            for k in range(n):
                s += B.R[k][i][j][k] + B.R[k][j][i][k]
            g[i][j] = g[j][i] = -s
    return BilinearForm(tuple(tuple(row) for row in g), provenance="trace")


@lru_cache(maxsize=None)
def envelope_form(B: BolAlgebra) -> BilinearForm:
    """Killing form of the enveloping Lie algebra restricted to B."""
    from bolalg.envelope import envelope
    from bolalg.lie import killing_gram

    E = envelope(B)
    g = killing_gram(E.lie)
    n = B.n
    return BilinearForm(tuple(tuple(g[i][j] for j in range(n)) for i in range(n)), provenance="envelope")


@dataclass(frozen=True)
class FormComparison:
    equal: bool
    difference: Mat
    trace_gram: Mat
    envelope_gram: Mat


def compare_trace_vs_envelope(B: BolAlgebra) -> FormComparison:
    """Entry-wise comparison of the two Killing-Ricci constructions."""
    t = trace_form(B).gram
    e = envelope_form(B).gram
    diff = tuple(tuple(t[i][j] - e[i][j] for j in range(B.n)) for i in range(B.n))
    return FormComparison(all(c == 0 for row in diff for c in row), diff, t, e)


def left_perp(b: BilinearForm, S: Subspace) -> Subspace:
    """{x : b(x, s) = 0 for all s in S}."""
    if b.n != S.ambient:
        raise DimensionMismatch("form and subspace ambient dimensions disagree")
    return kernel_of(tuple(mat_vec(b.gram, s) for s in S.basis), b.n)


def right_perp(b: BilinearForm, S: Subspace) -> Subspace:
    """{x : b(s, x) = 0 for all s in S}: the left orthogonal under the transposed form."""
    return left_perp(BilinearForm(transpose(b.gram), b.provenance), S)


def is_nondegenerate(b: BilinearForm) -> bool:
    return rank(b.gram) == b.n


@dataclass(frozen=True)
class CenterOrthogonalityReport:
    """Outcome of the center-orthogonality identity under an invariant form.

    Under a symmetric, nondegenerate, invariant form the left and right
    orthogonal complements of the center should both equal B*B.  The
    derivation additionally needs the triple span to sit inside B*B
    (true whenever the binary product is "large enough", e.g. for Lie
    brackets, but false for ternary-only algebras); that hypothesis is
    recorded in `triple_in_binary`.  The report never asserts.
    """

    preconditions_ok: bool
    triple_in_binary: bool
    invariance_variant: str
    center_space: Subspace
    left_perp_center: Subspace
    right_perp_center: Subspace
    derived_binary: Subspace
    equal: bool


def center_orthogonality_check(B: BolAlgebra, b: BilinearForm, variant: str = "skew") -> CenterOrthogonalityReport:
    pre = b.symmetric and is_nondegenerate(b) and invariance_check(B, b, variant).ok
    c = center(B)
    lp = left_perp(b, c)
    rp = right_perp(b, c)
    full = full_space(B.n)
    bb = prod_span(B, full, full)
    triple = tri_span(B, full, full, full) <= bb
    return CenterOrthogonalityReport(pre, triple, variant, c, lp, rp, bb, lp == rp == bb)
