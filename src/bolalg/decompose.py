"""Orthogonal decomposition into simple ideals, and the structure report.

`decompose_semisimple` recursively splits the algebra along a proper
ideal and its right orthogonal complement under an invariant
nondegenerate form; each split is verified (direct sum, both summands
ideals) and the final components carry simplicity certificates.  When
the simplicity search is inconclusive the decomposition is returned
flagged uncertified instead of failing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from bolalg.core import BolAlgebra, center, derived_space, ideal_closure, is_ideal, prod_span, restrict, tri_span
from bolalg.envelope import envelope
from bolalg.errors import FatalInconsistency, NotASubsystem, PreconditionViolation
from bolalg.forms import BilinearForm, envelope_form, invariance_check, is_nondegenerate, right_perp
from bolalg.lie import lie_is_semisimple, lie_is_solvable
from bolalg.linalg import (
    Record,
    Subspace,
    combine,
    full_space,
    intersect,
    span,
    subspace_sum,
)
from bolalg.radical import SimplicityResult, is_simple


def find_proper_ideal(B: BolAlgebra) -> tuple[Subspace | None, SimplicityResult]:
    """A proper nonzero def2-ideal if the simplicity search finds one.

    Returns (ideal, search_result); the ideal is None both for certified
    simple and for undecided searches, which the result distinguishes.
    """
    res = is_simple(B)
    if res.status == "no" and res.witness is not None and 0 < res.witness.dim < B.n:
        return res.witness, res
    return None, res


class _NotInvariant(PreconditionViolation):
    """The decomposition form is not invariant: `structure_report` skips the decomposition rather than report it unavailable."""


class Decomposition(Record):
    components: tuple[BolAlgebra, ...]
    embeddings: tuple[Subspace, ...]  # in the coordinates of the original algebra
    form_used: BilinearForm
    orthogonality: tuple[tuple[bool, ...], ...]
    certified: bool
    notes: tuple[str, ...] = ()


def _trivial_derived_ideal_probe(B: BolAlgebra) -> Subspace | None:
    """Look for a nonzero ideal I with I*I + (I,I,B) = 0."""
    probes = [full_space(B.n)]
    c = center(B)
    if not c.is_zero():
        probes.append(ideal_closure(B, c))
    probes += [B.basis_closure(i) for i in range(B.n)]
    found, _ = find_proper_ideal(B)
    if found is not None:
        probes.append(found)
    for I in dict.fromkeys(probes):  # each is an ideal as built: the full space, a closure, or the search's witness; each tested once
        if not I.is_zero() and derived_space(B, I).is_zero():
            return I
    return None


def _pairing(b: BilinearForm, U: Subspace, V: Subspace) -> list[list[int]]:
    """b(u, v) for u, v the canonical basis vectors of U and V, in ints at the scale e*L_U*L_V (`BilinearForm.integer_gram`)."""
    _, gram = b.integer_gram
    left = [[sum(c * gram[p][q] for p, c in u) for q in range(b.n)] for u in U.integer_basis[1]]
    return [[sum(row[q] * c for q, c in v) for v in V.integer_basis[1]] for row in left]


def _restrict_form(b: BilinearForm, S: Subspace) -> BilinearForm:
    s = b.integer_gram[0] * S.integer_basis[0] ** 2
    return BilinearForm(tuple(tuple(Fraction(x, s) for x in row) for row in _pairing(b, S, S)))


def decompose_semisimple(B: BolAlgebra, b: BilinearForm | None = None, variant: str = "skew") -> Decomposition:
    """Split B into pairwise b-orthogonal simple ideals.

    Preconditions: b symmetric, nondegenerate, invariant (in the given
    variant), and no nonzero ideal whose self-products vanish; probes
    for the latter raise PreconditionViolation when they find one.
    b defaults to `envelope_form(B)`.

    The decomposition runs once per (algebra, form, variant):
    equal algebras share one result, and omitting b shares the entry
    of passing `envelope_form(B)`.  An exception is not cached.
    """
    return _decompose_semisimple(B, envelope_form(B) if b is None else b, variant)


@lru_cache(maxsize=None)
def _decompose_semisimple(B: BolAlgebra, b: BilinearForm, variant: str) -> Decomposition:
    if not b.symmetric:
        raise PreconditionViolation("decomposition form must be symmetric")
    if not is_nondegenerate(b):
        raise PreconditionViolation("decomposition form must be nondegenerate")
    if not invariance_check(B, b, variant).ok:
        raise _NotInvariant(f"decomposition form is not invariant (variant {variant})")
    bad = _trivial_derived_ideal_probe(B)
    if bad is not None:
        raise PreconditionViolation(
            f"found a nonzero ideal of dimension {bad.dim} with vanishing self-products"
        )

    components: list[BolAlgebra] = []
    embeddings: list[Subspace] = []
    notes: list[str] = []
    certified = True

    def recurse(algebra: BolAlgebra, form: BilinearForm, frame: Subspace) -> None:
        nonlocal certified
        if algebra.n == 0:
            return
        ideal, search = find_proper_ideal(algebra)
        if ideal is None:
            components.append(algebra)
            embeddings.append(frame)
            if search.status != "yes":
                certified = False
                notes.append(f"component of dimension {algebra.n}: simplicity {search.status}")
            return
        complement = right_perp(form, ideal)
        if not (
            intersect(ideal, complement).is_zero()
            and subspace_sum(ideal, complement).dim == algebra.n
            and is_ideal(algebra, complement, "def2")
        ):
            raise FatalInconsistency("orthogonal complement of an ideal failed to split the algebra")
        _, rows = frame.integer_basis
        for part in (ideal, complement):
            embedded = span([combine([c for _, c in v], [rows[k] for k, _ in v], frame.ambient) for v in part.integer_basis[1]], frame.ambient)
            recurse(restrict(algebra, part), _restrict_form(form, part), embedded)

    recurse(B, b, full_space(B.n))

    k = len(components)
    orth = [[True] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            orth[i][j] = not any(map(any, _pairing(b, embeddings[i], embeddings[j])))
            if not orth[i][j]:
                certified = False
    return Decomposition(tuple(components), tuple(embeddings), b, tuple(tuple(r) for r in orth), certified, tuple(notes))


def verify_reassembly(B: BolAlgebra, dec: Decomposition) -> bool:
    """Check that the components reassemble to B under the recorded embeddings.

    Each component must be B restricted to its embedding, tensor for
    tensor, and products between different components must vanish.
    """
    frames = dec.embeddings
    if sum(f.dim for f in frames) != B.n:
        return False
    for a, (comp, fa) in enumerate(zip(dec.components, frames)):
        try:
            part = restrict(B, fa)
        except NotASubsystem:
            return False
        if part.integer_rows != comp.integer_rows:
            return False
        if any(not prod_span(B, fa, fb).is_zero() for b, fb in enumerate(frames) if b != a):
            return False
    return True


class StructureReport(Record):
    """Solvability/semisimplicity structure of B against its envelope.

    item1: envelope solvable  vs  base orthogonal to its triple span.
    item2: envelope semisimple  vs  Killing-Ricci form nondegenerate.
    item3: decomposition summary when the form permits one.
    """

    lie_solvable: bool
    beta_orthogonal_to_triple_span: bool
    item1_biconditional: bool
    lie_semisimple: bool
    beta_nondegenerate: bool
    item2_biconditional: bool
    decomposition_ran: bool
    component_dims: tuple[int, ...]
    triple_span_is_everything: bool
    decomposition_certified: bool
    note: str = ""


def structure_report(B: BolAlgebra) -> StructureReport:
    E = envelope(B)
    beta = envelope_form(B)
    full = full_space(B.n)
    triple = tri_span(B, full, full, full)
    orth = not any(map(any, _pairing(beta, full, triple)))
    lie_solv = lie_is_solvable(E.lie)
    lie_ss = lie_is_semisimple(E.lie)
    beta_nd = is_nondegenerate(beta)

    ran = False
    dims: tuple[int, ...] = ()
    cert = False
    note = ""
    skipped = "form degenerate or not invariant; decomposition skipped"
    if beta_nd:  # the decomposition tests invariance first, once per form
        try:
            dec = decompose_semisimple(B, beta, "skew")
        except _NotInvariant:
            note = skipped
        except (PreconditionViolation, FatalInconsistency) as exc:
            note = f"decomposition unavailable: {exc}"
        else:
            ran = True
            dims = tuple(c.n for c in dec.components)
            cert = dec.certified
    else:
        note = skipped
    return StructureReport(
        lie_solvable=lie_solv,
        beta_orthogonal_to_triple_span=orth,
        item1_biconditional=(lie_solv == orth),
        lie_semisimple=lie_ss,
        beta_nondegenerate=beta_nd,
        item2_biconditional=(lie_ss == beta_nd),
        decomposition_ran=ran,
        component_dims=dims,
        triple_span_is_everything=(triple.dim == B.n),
        decomposition_certified=cert,
        note=note,
    )
