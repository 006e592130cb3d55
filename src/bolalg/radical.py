"""Radical with certificates, semisimplicity, and the simplicity search.

There is no proven closed-form radical algorithm for Bol algebras, so
two independent candidates are computed and each is certified before it
is believed:

* form-orthogonal: the left orthogonal of B*B + (B,B,B) under the
  Killing-Ricci form;
* envelope-intersection: the base-space part of the Lie radical of the
  enveloping algebra.

A candidate R is certified when (i) it is a def2-ideal, (ii) it is
solvable, and (iii) the same candidate construction on B/R is zero;
a zero or full R passes (iii) at once, as B/0 is B and B/B is zero.
If both candidates certify they must agree; if neither does, the result
is honestly `decided=False` with both partial certificates attached.

The simplicity search stops at its first sound certificate, a
dual-kernel one (Norton's irreducibility test): no later candidate can
then find a proper ideal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from bolalg.core import BolAlgebra, derived_space, ideal_closure, ideal_quotient, is_ideal, require_verified
from bolalg.envelope import envelope
from bolalg.errors import BolError, StrategyDisagreement
from bolalg.forms import BilinearForm, envelope_form, left_perp, trace_form
from bolalg.lie import lie_radical
from bolalg.linalg import (
    Record,
    Subspace,
    charpoly,
    closure,
    combine,
    derived_chain,
    full_space,
    intersect,
    kernel,
    nonzero_row,
    rational_roots,
    span,
)


def _form_for(B: BolAlgebra, kind: str) -> BilinearForm:
    if kind == "env":
        return envelope_form(B)
    if kind == "prop1":
        return trace_form(B)
    raise ValueError(f"unknown form kind {kind!r}")


def _candidate_form_orthogonal(B: BolAlgebra, kind: str) -> Subspace:
    return left_perp(_form_for(B, kind), derived_space(B, full_space(B.n)))


def _candidate_envelope_intersection(B: BolAlgebra) -> Subspace:
    E = envelope(B)
    rad = lie_radical(E.lie)
    b_coords = E.b_subspace()
    inter = intersect(rad, b_coords)
    return span([v[: B.n] for v in inter.basis], B.n)


class StrategyCertificate(Record):
    strategy: str
    candidate: Subspace | None
    is_ideal_ok: bool = False
    solvable_ok: bool = False
    quotient_semisimple_ok: bool = False
    error: str | None = None

    @property
    def certified(self) -> bool:
        return (
            self.candidate is not None
            and self.is_ideal_ok
            and self.solvable_ok
            and self.quotient_semisimple_ok
        )


class RadicalCertificate(Record):
    radical: Subspace | None
    strategy: str  # "form-orthogonal" | "envelope-intersection" | "agreement" | "none"
    decided: bool
    details: tuple[StrategyCertificate, StrategyCertificate]

    @property
    def is_ideal_ok(self) -> bool:
        """A decided radical passed the ideal, solvability and quotient checks, and an undecided one has none to pass."""
        return self.decided

    solvable_ok = quotient_semisimple_ok = is_ideal_ok


def _certify(B: BolAlgebra, name: str, cand: Subspace, recheck, checked: dict) -> StrategyCertificate:
    # The def2 test, the solvability chain and B/cand run once per distinct
    # candidate, kept in `checked`; the series and the quotient are those of
    # `is_solvable` and `quotient`, without their own def2 test.
    if cand not in checked:
        ideal_ok = is_ideal(B, cand, "def2")
        solv_ok = ideal_ok and derived_chain(cand, lambda s: derived_space(B, s)).solvable
        quotient = None  # not needed: B/B is the zero algebra and B/0 is B, whose candidate is cand itself
        if solv_ok and not (cand.is_zero() or cand.is_full()):
            try:
                quotient = ideal_quotient(B, cand)
            except BolError as exc:
                quotient = exc
        checked[cand] = ideal_ok, solv_ok, quotient
    ideal_ok, solv_ok, quotient = checked[cand]
    try:
        if isinstance(quotient, BolError):
            raise quotient
        return StrategyCertificate(name, cand, ideal_ok, solv_ok, solv_ok and (quotient is None or recheck(quotient).is_zero()))
    except BolError as exc:
        return StrategyCertificate(name, cand, ideal_ok, solv_ok, False, error=f"quotient re-check: {type(exc).__name__}: {exc}")


def radical(B: BolAlgebra, form_kind: str = "env") -> RadicalCertificate:
    """Radical of B with a full certificate.

    `form_kind` selects which Killing-Ricci construction backs the
    form-orthogonal strategy ("env" is normative; "prop1" is the trace
    form); quotient re-checks recompute it on the quotient.
    """
    require_verified(B)
    checked = {}  # candidate -> (def2 ideal, solvable, B/candidate), shared by the strategies

    def run(name, cand_fn) -> StrategyCertificate:
        try:
            cand = cand_fn(B)
        except BolError as exc:
            return StrategyCertificate(name, None, error=f"{type(exc).__name__}: {exc}")
        return _certify(B, name, cand, cand_fn, checked)

    s1 = run("form-orthogonal", lambda A: _candidate_form_orthogonal(A, form_kind))
    s2 = run("envelope-intersection", _candidate_envelope_intersection)

    if s1.certified and s2.certified:
        if s1.candidate != s2.candidate:
            raise StrategyDisagreement(
                f"both strategies certify but disagree: dims {s1.candidate.dim} vs {s2.candidate.dim}"
            )
        return RadicalCertificate(s1.candidate, "agreement", True, (s1, s2))
    for s in (s1, s2):
        if s.certified:
            return RadicalCertificate(s.candidate, s.strategy, True, (s1, s2))
    return RadicalCertificate(None, "none", False, (s1, s2))


def is_semisimple(B: BolAlgebra) -> bool:
    cert = radical(B)
    return cert.decided and cert.radical.is_zero()


class SimplicityResult(Record):
    status: str  # "yes" | "no" | "undecided"
    witness: Subspace | None
    note: str = ""


def is_simple(B: BolAlgebra) -> SimplicityResult:
    """Three-valued simplicity test.

    Searches for proper nonzero def2-ideals through ideal closures of
    basis vectors and of rational eigenvectors of the natural operator
    family (right multiplications and first-slot ternary operators).
    A positive answer is only issued through the dual-kernel criterion
    with one-dimensional kernels (Norton's irreducibility test), which
    is sound, so the search returns "yes" at its first certificate;
    otherwise the result is "no" with a witness or "undecided".

    The search runs once per algebra: equal algebras share one result.
    """
    return _is_simple(B)


@lru_cache(maxsize=None)
def _is_simple(B: BolAlgebra) -> SimplicityResult:
    n = B.n
    if n == 0:
        return SimplicityResult("no", None, "zero algebra")
    if B.is_abelian():
        witness = B.basis_closure(0) if n >= 2 else None
        return SimplicityResult("no", witness, "abelian")

    for i in range(n):
        cl = B.basis_closure(i)
        if 0 < cl.dim < n:
            return SimplicityResult("no", cl, f"closure of basis vector {i}")

    # The matrices of `BolAlgebra.ideal_operators`, in ints at scale s: a
    # charpoly of an int matrix is monic and integral, so its rational
    # roots are ints, and each eigenvalue is a root divided by s.
    ops = B._operators
    ops_t = [[nonzero_row(row) for row in m] for m, _ in ops]  # row q of m is column q of its transpose
    for m, s in ops:
        for root in rational_roots(charpoly(m)):
            shifted = [[x - root.numerator if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
            ker = kernel(shifted, n)
            for v in ker.basis:
                cl = ideal_closure(B, span([v], n))
                if 0 < cl.dim < n:
                    return SimplicityResult("no", cl, f"eigenvector closure at eigenvalue {Fraction(root.numerator, s)}")
            if ker.dim == 1:
                # the transposed kernel has the same dimension: one vector w
                (w,) = kernel([list(col) for col in zip(*shifted)], n).basis
                dual = closure(
                    span([w], n),
                    lambda sp: (combine([c for _, c in v], [op[q] for q, _ in v], n) for v in sp.integer_basis[1] for op in ops_t),
                )
                if dual.is_full():
                    return SimplicityResult("yes", None, "dual-kernel criterion")
                # annihilator of a proper dual-invariant subspace is a proper ideal
                ann = kernel(dual.basis, n)
                if 0 < ann.dim < n and is_ideal(B, ann, "def2"):
                    return SimplicityResult("no", ann, "annihilator of dual-invariant subspace")
    return SimplicityResult("undecided", None, "no witness found and no sound certificate available")
