"""Orthogonal decomposition into simple ideals, and the structure report.

`decompose_semisimple` recursively splits the algebra along a proper
ideal and its right orthogonal complement under an invariant
nondegenerate form; each split is verified (direct sum, both summands
ideals) and the final components carry simplicity certificates.  When
the simplicity search is inconclusive the decomposition is returned
flagged uncertified instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass

from bolalg.core import BolAlgebra, center, ideal_closure, is_ideal, prod_span, restrict, tri_span
from bolalg.errors import FatalInconsistency, PreconditionViolation
from bolalg.forms import BilinearForm, envelope_form, invariance_check, is_nondegenerate, right_perp
from bolalg.linalg import (
    Subspace,
    basis_vec,
    full_space,
    intersect,
    span,
    subspace_sum,
)
from bolalg.radical import SimplicityResult, is_simple


def find_proper_ideal(B: BolAlgebra, seed: int | None = None) -> tuple[Subspace | None, SimplicityResult]:
    """A proper nonzero def2-ideal if the simplicity search finds one.

    Returns (ideal, search_result); the ideal is None both for certified
    simple and for undecided searches, which the result distinguishes.
    """
    kwargs = {} if seed is None else {"seed": seed}
    res = is_simple(B, **kwargs)
    if res.status == "no" and res.witness is not None and 0 < res.witness.dim < B.n:
        return res.witness, res
    return None, res


@dataclass(frozen=True)
class Decomposition:
    components: tuple[BolAlgebra, ...]
    embeddings: tuple[Subspace, ...]  # in the coordinates of the original algebra
    form_used: BilinearForm
    orthogonality: tuple[tuple[bool, ...], ...]
    certified: bool
    notes: tuple[str, ...] = ()


def _trivial_derived_ideal_probe(B: BolAlgebra, seed: int | None) -> Subspace | None:
    """Look for a nonzero ideal I with I*I + (I,I,B) = 0."""
    full = full_space(B.n)
    probes = [full]
    c = center(B)
    if not c.is_zero():
        probes.append(ideal_closure(B, c))
    for i in range(B.n):
        probes.append(ideal_closure(B, span([basis_vec(i, B.n)], B.n)))
    found, _ = find_proper_ideal(B, seed)
    if found is not None:
        probes.append(found)
    for I in probes:
        if I.is_zero() or not is_ideal(B, I, "def2"):
            continue
        derived = subspace_sum(prod_span(B, I, I), tri_span(B, I, I, full))
        if derived.is_zero():
            return I
    return None


def _restrict_form(b: BilinearForm, S: Subspace) -> BilinearForm:
    rows = tuple(tuple(b.value(u, v) for v in S.basis) for u in S.basis)
    return BilinearForm(rows, provenance=b.provenance)


def decompose_semisimple(
    B: BolAlgebra,
    b: BilinearForm | None = None,
    variant: str = "skew",
    seed: int | None = None,
) -> Decomposition:
    """Split B into pairwise b-orthogonal simple ideals.

    Preconditions: b symmetric, nondegenerate, invariant (in the given
    variant), and no nonzero ideal whose self-products vanish; probes
    for the latter raise PreconditionViolation when they find one.
    """
    if b is None:
        b = envelope_form(B)
    if not b.symmetric:
        raise PreconditionViolation("decomposition form must be symmetric")
    if not is_nondegenerate(b):
        raise PreconditionViolation("decomposition form must be nondegenerate")
    inv = invariance_check(B, b, variant)
    if not inv.ok:
        raise PreconditionViolation(f"decomposition form is not invariant (variant {variant})")
    bad = _trivial_derived_ideal_probe(B, seed)
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
        ideal, search = find_proper_ideal(algebra, seed)
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
            and is_ideal(algebra, ideal, "def2")
            and is_ideal(algebra, complement, "def2")
        ):
            raise FatalInconsistency("orthogonal complement of an ideal failed to split the algebra")
        for part in (ideal, complement):
            embedded = span([frame.element(v) for v in part.basis], frame.ambient)
            recurse(restrict(algebra, part), _restrict_form(form, part), embedded)

    recurse(B, b, full_space(B.n))

    k = len(components)
    orth = [[True] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            orth[i][j] = all(
                b.value(u, v) == 0 for u in embeddings[i].basis for v in embeddings[j].basis
            )
            if not orth[i][j]:
                certified = False
    return Decomposition(tuple(components), tuple(embeddings), b, tuple(tuple(r) for r in orth), certified, tuple(notes))


def verify_reassembly(B: BolAlgebra, dec: Decomposition) -> bool:
    """Check that the components reassemble to B under the recorded embeddings.

    Products of embedded component vectors must agree with the original
    tensors, and cross products between different components must vanish.
    """
    frames = dec.embeddings
    if sum(f.dim for f in frames) != B.n:
        return False
    for a, fa in enumerate(frames):
        comp = dec.components[a]
        for p, u in enumerate(fa.basis):
            for q, v in enumerate(fa.basis):
                want = fa.element(comp.T[p][q])
                if B.binary(u, v) != want:
                    return False
                for r, w in enumerate(fa.basis):
                    want3 = fa.element(comp.R[p][q][r])
                    if B.ternary(u, v, w) != want3:
                        return False
        for bidx, fb in enumerate(frames):
            if bidx == a:
                continue
            for u in fa.basis:
                for v in fb.basis:
                    if not all(c == 0 for c in B.binary(u, v)):
                        return False
    return True


@dataclass(frozen=True)
class StructureReport:
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
    component_count: int
    component_dims: tuple[int, ...]
    envelope_dim: int
    component_envelope_dims: tuple[int, ...]
    triple_span_is_everything: bool
    decomposition_certified: bool
    note: str = ""


def structure_report(B: BolAlgebra, seed: int | None = None) -> StructureReport:
    from bolalg.envelope import envelope
    from bolalg.lie import lie_is_semisimple, lie_is_solvable

    E = envelope(B)
    beta = envelope_form(B)
    full = full_space(B.n)
    triple = tri_span(B, full, full, full)
    orth = all(beta.value(basis_vec(i, B.n), t) == 0 for i in range(B.n) for t in triple.basis)
    lie_solv = lie_is_solvable(E.lie)
    lie_ss = lie_is_semisimple(E.lie)
    beta_nd = is_nondegenerate(beta)

    ran = False
    count = 0
    dims: tuple[int, ...] = ()
    cert = False
    comp_env_dims: tuple[int, ...] = ()
    note = ""
    if beta_nd and invariance_check(B, beta, "skew").ok:
        try:
            dec = decompose_semisimple(B, beta, "skew", seed)
        except (PreconditionViolation, FatalInconsistency) as exc:
            note = f"decomposition unavailable: {exc}"
        else:
            ran = True
            count = len(dec.components)
            dims = tuple(c.n for c in dec.components)
            cert = dec.certified
            comp_env_dims = tuple(envelope(c).total_dim for c in dec.components)
    else:
        note = "form degenerate or not invariant; decomposition skipped"
    return StructureReport(
        lie_solvable=lie_solv,
        beta_orthogonal_to_triple_span=orth,
        item1_biconditional=(lie_solv == orth),
        lie_semisimple=lie_ss,
        beta_nondegenerate=beta_nd,
        item2_biconditional=(lie_ss == beta_nd),
        decomposition_ran=ran,
        component_count=count,
        component_dims=dims,
        envelope_dim=E.total_dim,
        component_envelope_dims=comp_env_dims,
        triple_span_is_everything=(triple.dim == B.n),
        decomposition_certified=cert,
        note=note,
    )
