"""Radical with certificates, semisimplicity, and the simplicity search.

There is no proven closed-form radical algorithm for Bol algebras, so
two independent candidates are computed and each is certified before it
is believed:

* form-orthogonal: the left orthogonal of B*B + (B,B,B) under the
  Killing-Ricci form;
* envelope-intersection: the base-space part of the Lie radical of the
  enveloping algebra.

A candidate R is certified when (i) it is a def2-ideal, (ii) it is
solvable, and (iii) the same candidate construction on B/R is zero.
If both candidates certify they must agree; if neither does, the result
is honestly `decided=False` with both partial certificates attached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from bolalg.core import (
    BolAlgebra,
    ideal_closure,
    is_ideal,
    prod_span,
    quotient,
    require_verified,
    tri_span,
)
from bolalg.errors import BolError, StrategyDisagreement
from bolalg.forms import BilinearForm, envelope_form, left_perp, trace_form
from bolalg.linalg import (
    Subspace,
    basis_vec,
    charpoly,
    closure,
    full_space,
    identity,
    intersect,
    kernel,
    mat_sub,
    mat_scale,
    mat_vec,
    nonzero_row,
    rational_roots,
    scaled_rows,
    span,
    subspace_sum,
    transpose,
    unscaled,
)
from bolalg.series import is_solvable

DEFAULT_SEED = 20240801


def _derived_space(B: BolAlgebra) -> Subspace:
    full = full_space(B.n)
    return subspace_sum(prod_span(B, full, full), tri_span(B, full, full, full))


def _form_for(B: BolAlgebra, kind: str) -> BilinearForm:
    if kind == "env":
        return envelope_form(B)
    if kind == "prop1":
        return trace_form(B)
    raise ValueError(f"unknown form kind {kind!r}")


def _candidate_form_orthogonal(B: BolAlgebra, kind: str, override: BilinearForm | None = None) -> Subspace:
    form = override if override is not None else _form_for(B, kind)
    return left_perp(form, _derived_space(B))


def _candidate_envelope_intersection(B: BolAlgebra) -> Subspace:
    from bolalg.envelope import envelope
    from bolalg.lie import lie_radical

    E = envelope(B)
    rad = lie_radical(E.lie)
    b_coords = E.b_subspace()
    inter = intersect(rad, b_coords)
    return span([v[: B.n] for v in inter.basis], B.n)


@dataclass(frozen=True)
class StrategyCertificate:
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


@dataclass(frozen=True)
class RadicalCertificate:
    radical: Subspace | None
    is_ideal_ok: bool
    solvable_ok: bool
    quotient_semisimple_ok: bool
    strategy: str  # "form-orthogonal" | "envelope-intersection" | "agreement" | "none"
    decided: bool
    details: tuple[StrategyCertificate, StrategyCertificate]


def _certify(B: BolAlgebra, name: str, cand: Subspace, recheck) -> StrategyCertificate:
    ideal_ok = is_ideal(B, cand, "def2")
    solv_ok = ideal_ok and is_solvable(B, cand)
    quot_ok = False
    if ideal_ok and solv_ok:
        try:
            if cand.dim == B.n:
                quot_ok = True  # quotient is the zero algebra
            elif cand.is_zero():
                quot_ok = recheck(B).is_zero()
            else:
                quot_ok = recheck(quotient(B, cand)).is_zero()
        except BolError as exc:
            return StrategyCertificate(
                name, cand, ideal_ok, solv_ok, False, error=f"quotient re-check: {type(exc).__name__}: {exc}"
            )
    return StrategyCertificate(name, cand, ideal_ok, solv_ok, quot_ok)


def radical(B: BolAlgebra, form: BilinearForm | None = None, form_kind: str = "env") -> RadicalCertificate:
    """Radical of B with a full certificate.

    `form_kind` selects which Killing-Ricci construction backs the
    form-orthogonal strategy ("env" is normative; "prop1" is the trace
    form).  An explicit `form` overrides it at the top level only;
    quotient re-checks always recompute the selected constructor.
    """
    require_verified(B)

    def run(name, cand_fn) -> StrategyCertificate:
        try:
            cand = cand_fn(B)
        except BolError as exc:
            return StrategyCertificate(name, None, error=f"{type(exc).__name__}: {exc}")
        return _certify(B, name, cand, cand_fn)

    s1 = run("form-orthogonal", lambda A: _candidate_form_orthogonal(A, form_kind, override=form if A is B else None))
    s2 = run("envelope-intersection", _candidate_envelope_intersection)

    if s1.certified and s2.certified:
        if s1.candidate != s2.candidate:
            raise StrategyDisagreement(
                f"both strategies certify but disagree: dims {s1.candidate.dim} vs {s2.candidate.dim}"
            )
        return RadicalCertificate(s1.candidate, True, True, True, "agreement", True, (s1, s2))
    for s in (s1, s2):
        if s.certified:
            return RadicalCertificate(s.candidate, True, True, True, s.strategy, True, (s1, s2))
    return RadicalCertificate(None, False, False, False, "none", False, (s1, s2))


def is_semisimple(B: BolAlgebra) -> bool:
    cert = radical(B)
    return cert.decided and cert.radical.is_zero()


@dataclass(frozen=True)
class SimplicityResult:
    status: str  # "yes" | "no" | "undecided"
    witness: Subspace | None
    seed: int
    note: str = ""


def is_simple(B: BolAlgebra, n_random: int = 32, seed: int = DEFAULT_SEED) -> SimplicityResult:
    """Three-valued simplicity test.

    Searches for proper nonzero def2-ideals through ideal closures of
    basis vectors and of rational eigenvectors of the natural operator
    family (right multiplications and first-slot ternary operators,
    plus seeded random combinations).  A positive answer is only issued
    through the dual-kernel criterion with one-dimensional kernels,
    which is sound; otherwise the result is "no" with a witness or
    "undecided".

    The search runs once per (algebra, n_random, seed): equal algebras
    share one result, however the arguments are passed.
    """
    return _is_simple(B, n_random, seed)


def _random_combinations(ops: list, n: int, n_random: int, seed: int) -> list:
    """The nonzero ones of `n_random` seeded combinations sum(c_k * ops[k]), c_k drawn from -3..3.

    Summed in integers: every operator is scaled by d, the lcm of all
    their denominators, and cut to its nonzero (flat index, int) entries.
    """
    d = lcm(*(c.denominator for op in ops for row in op for c in row))
    flat = scaled_rows([nonzero_row([c for row in op for c in row]) for op in ops], d)
    rng = random.Random(seed)
    combos = []
    for _ in range(n_random):
        coeffs = [rng.randint(-3, 3) for _ in ops]
        acc = [0] * (n * n)
        for c, op in zip(coeffs, flat):
            if c == 0:
                continue
            for idx, v in op:
                acc[idx] += c * v
        if any(acc):
            combos.append(tuple(unscaled(acc[a * n : (a + 1) * n], d) for a in range(n)))
    return combos


@lru_cache(maxsize=None)
def _is_simple(B: BolAlgebra, n_random: int, seed: int) -> SimplicityResult:
    n = B.n
    if n == 0:
        return SimplicityResult("no", None, seed, "zero algebra")
    if B.is_abelian():
        witness = ideal_closure(B, span([basis_vec(0, n)], n)) if n >= 2 else None
        return SimplicityResult("no", witness, seed, "abelian")

    ops = list(B.ideal_operators)
    candidates = ops + _random_combinations(ops, n, n_random, seed)

    for i in range(n):
        cl = ideal_closure(B, span([basis_vec(i, n)], n))
        if 0 < cl.dim < n:
            return SimplicityResult("no", cl, seed, f"closure of basis vector {i}")

    certified = False
    for m in candidates:
        for lam in rational_roots(charpoly(m)):
            shifted = mat_sub(m, mat_scale(lam, identity(n)))
            ker = kernel(shifted)
            if ker.is_zero():
                continue
            full_primal = True
            for v in ker.basis:
                cl = ideal_closure(B, span([v], n))
                if 0 < cl.dim < n:
                    return SimplicityResult("no", cl, seed, f"eigenvector closure at eigenvalue {lam}")
                full_primal = full_primal and cl.dim == n
            if ker.dim == 1 and full_primal:
                ops_t = [transpose(op) for op in ops]
                ker_t = kernel(transpose(shifted))
                dual_full = True
                for w in ker_t.basis:
                    dual = closure(span([w], n), lambda s: (mat_vec(op, v) for v in s.basis for op in ops_t))
                    if dual.dim < n:
                        # annihilator of a proper dual-invariant subspace is a proper ideal
                        rows = tuple(dual.basis)
                        ann = kernel(rows)
                        if 0 < ann.dim < n and is_ideal(B, ann, "def2"):
                            return SimplicityResult("no", ann, seed, "annihilator of dual-invariant subspace")
                        dual_full = False
                if dual_full:
                    certified = True
    if certified:
        return SimplicityResult("yes", None, seed, "dual-kernel criterion")
    return SimplicityResult("undecided", None, seed, "no witness found and no sound certificate available")
