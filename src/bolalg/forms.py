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

from fractions import Fraction
from functools import cached_property
from itertools import product

from bolalg.core import BolAlgebra, center, prod_span, tri_span
from bolalg.envelope import envelope
from bolalg.errors import DimensionMismatch
from bolalg.lie import LieAlgebra, killing_gram
from bolalg.linalg import (
    Mat,
    Record,
    Subspace,
    ZERO,
    digits,
    failures,
    full_space,
    identity,
    integral,
    kernel,
    nonzero_row,
    packed,
    rank,
    row_bounds,
    slot_width,
    transpose,
)


class BilinearForm(Record):
    """A bilinear form given by its Gram matrix."""

    gram: Mat

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

    @cached_property
    def integer_gram(self) -> tuple[int, tuple[list[int], ...]]:
        """(e, rows): e the lcm of the gram's denominators and rows the gram times e, as int lists."""
        w, e = integral([c for row in self.gram for c in row])
        return e, tuple(w[i * self.n : (i + 1) * self.n] for i in range(self.n))

    @staticmethod
    def identity_gram(n: int) -> BilinearForm:
        return BilinearForm(identity(n))


class InvarianceReport(Record):
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
    # Both identities are swept with the last index packed (`linalg.slot_width`):
    # for each (i, j), b(e_i*e_j, e_k) - b(e_i, e_j*e_k) over every k is one
    # integer, and a failure's k is the first nonzero digit.  They are summed
    # in ints: the Gram matrix scaled by the lcm of its denominators, T by d
    # and R by d^2, so both sides of an identity carry the same weight and a
    # defect is zero exactly when it is.  The form need not be symmetric.
    n = B.n
    _, T, R = B.integer_rows
    _, gram = b.integer_gram
    g = [nonzero_row(row) for row in gram]
    W = slot_width((2, 2), *row_bounds((T, 2), (R, 3), (g, 1)))
    right = packed(g, 1, W)  # b(e_p, e_l) over l
    T_out = [[0] * n for _ in r]  # T_out[j][p]: e_j*e_k at e_p, over k
    R_out = [[[0] * n for _ in r] for _ in r]  # R_out[i][j][p]: (e_i,e_j,e_l) at e_p, over l
    for j, k in product(r, repeat=2):
        for p, c in T[j][k]:
            T_out[j][p] += c << W * k
    for i, j, l in product(r, repeat=3):
        for p, c in R[i][j][l]:
            R_out[i][j][p] += c << W * l

    def binary_defect(i, j):  # b(e_i*e_j, e_k) - b(e_i, e_j*e_k), over k
        return sum(c * right[p] for p, c in T[i][j]) - sum(c * T_out[j][p] for p, c in g[i])

    def ternary_defect(i, j, k):  # b((e_i,e_j,e_k), e_l) - sign * b(e_k, (e_i,e_j,e_l)), over l
        return sum(c * right[p] for p, c in R[i][j][k]) - sign * sum(c * R_out[i][j][p] for p, c in g[k])

    b_wit = _first_slot(product(r, repeat=2), binary_defect, W, n)
    t_wit = _first_slot(product(r, repeat=3), ternary_defect, W, n)
    return InvarianceReport(b_wit is None, t_wit is None, b_wit, t_wit)


def _first_slot(tuples, defect, W: int, n: int) -> tuple[int, ...] | None:
    """The first tuple t whose packed defect has a nonzero digit, extended by the slot of its first one, or None."""
    first = next(failures(tuples, defect), None)
    if first is None:
        return None
    t, P = first
    return (*t, next(q for q, x in enumerate(digits(P, W, n)) if x))


def trace_form(B: BolAlgebra) -> BilinearForm:
    """Ricci-style trace form of the ternary tensor (see module docstring), its traces summed from R's rows at weight d^2."""
    n = B.n
    d, _, R = B.integer_rows
    tr = [[sum(c for k in range(n) for q, c in R[k][i][j] if q == k) for j in range(n)] for i in range(n)]
    gram = tuple(tuple(Fraction(-(tr[i][j] + tr[j][i]), d * d) for j in range(n)) for i in range(n))
    return BilinearForm(gram)


def killing(L: LieAlgebra) -> BilinearForm:
    """Killing form tr(ad x . ad y) as a BilinearForm."""
    return BilinearForm(killing_gram(L))


def envelope_form(B: BolAlgebra) -> BilinearForm:
    """Killing form of the enveloping Lie algebra restricted to B: the B-corner of its cached `killing_gram`."""
    g = killing_gram(envelope(B).lie)
    return BilinearForm(tuple(row[: B.n] for row in g[: B.n]))


class FormComparison(Record):
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
    """{x : b(x, s) = 0 for all s in S}: the kernel of the int rows g s, for s in S's integer basis."""
    if b.n != S.ambient:
        raise DimensionMismatch("form and subspace ambient dimensions disagree")
    _, gram = b.integer_gram
    return kernel([[sum(row[q] * c for q, c in s) for row in gram] for s in S.integer_basis[1]], b.n)


def right_perp(b: BilinearForm, S: Subspace) -> Subspace:
    """{x : b(s, x) = 0 for all s in S}: the kernel of the int rows s^T g."""
    if b.n != S.ambient:
        raise DimensionMismatch("form and subspace ambient dimensions disagree")
    _, gram = b.integer_gram
    return kernel([[sum(c * gram[p][q] for p, c in s) for q in range(b.n)] for s in S.integer_basis[1]], b.n)


def is_nondegenerate(b: BilinearForm) -> bool:
    return rank(b.gram) == b.n


class CenterOrthogonalityReport(Record):
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
    return CenterOrthogonalityReport(pre, triple, c, lp, rp, bb, lp == rp == bb)
