"""Pseudo-derivations and the enveloping Lie algebra G = B (+) h.

An element of h is a pair (A, a): an endomorphism of B together with a
component vector.  The inner pair of (x, y) is (L(x,y), x*y) where
L(x,y)z = (x,y,z); h is the closure of the inner pairs under the bracket
that G induces on them,

    [[ (A,a), (A',a') ]] = ([A,A'] - L(a,a'), A a' - A' a).

The brackets of G are fixed by three identities, which are verified
exhaustively after construction and are the normative contract:

    proj_B [x, y]  = x * y            (projection)
    [z, [x, y]]    = (x, y, z)        (recovery)
    Jacobi on all basis triples.

Concretely, writing D(x,y) for the inner pair expressed in h:

    [x, y]      = x*y  (+)  -D(x, y)
    [z, (A,a)]  = (z*a - A z)  (+)  -D(z, a)
    [P, Q]      = [[P, Q]]

A failed verification raises FatalInconsistency: it cannot happen for
inputs that satisfy the axioms, so it signals a convention bug or an
unchecked input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from bolalg.core import BolAlgebra, is_ideal, require_verified
from bolalg.errors import FatalInconsistency, NotAnIdeal, PreconditionViolation
from bolalg.lie import LieAlgebra, bracket_span, jacobi_check, lie_is_solvable
from bolalg.linalg import (
    Mat,
    Subspace,
    Vec,
    ZERO,
    basis_vec,
    closure,
    commutator,
    derived_chain,
    failures,
    full_space,
    is_zero_vec,
    mat_sub,
    mat_vec,
    span,
    vec_add,
    vec_scale,
    vec_sub,
    zero_mat,
    zero_vec,
)
from bolalg.series import is_solvable


@dataclass(frozen=True)
class PairEndo:
    """Endomorphism/component pair; pseudo-derivation status is a predicate."""

    pi: Mat
    comp: Vec

    @staticmethod
    def zero(n: int) -> PairEndo:
        return PairEndo(zero_mat(n, n), zero_vec(n))

    def flatten(self) -> Vec:
        return tuple(c for row in self.pi for c in row) + self.comp

    @staticmethod
    def unflatten(v: Vec, n: int) -> PairEndo:
        pi = tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
        return PairEndo(pi, tuple(v[n * n :]))

    def is_zero(self) -> bool:
        return is_zero_vec(self.flatten())


@dataclass(frozen=True)
class PseudoDerivationReport:
    ok: bool
    product_rule_ok: bool
    ternary_rule_ok: bool
    witness: tuple[int, ...] | None = None
    defect: Vec | None = None


def is_pseudo_derivation(B: BolAlgebra, P: PairEndo) -> PseudoDerivationReport:
    """Check the two defining identities of a pseudo-derivation.

    With Pi = P.pi and component a = P.comp, on all basis pairs/triples:

        Pi(x*y)   = (Pi x)*y + x*(Pi y) + (x, y, a) + (x*y)*a
        Pi(x,y,z) = (Pi x, y, z) + (x, Pi y, z) + (x, y, Pi z)
    """
    r = range(B.n)
    bas = B.basis()
    a = P.comp
    pi = P.pi
    pb = [mat_vec(pi, e) for e in bas]

    def product_defect(i, j):
        d = vec_sub(mat_vec(pi, B.T[i][j]), B.binary(pb[i], bas[j]))
        d = vec_sub(d, B.binary(bas[i], pb[j]))
        d = vec_sub(d, B.ternary(bas[i], bas[j], a))
        return vec_sub(d, B.binary(B.T[i][j], a))

    def ternary_defect(i, j, k):
        d = vec_sub(mat_vec(pi, B.R[i][j][k]), B.ternary(pb[i], bas[j], bas[k]))
        d = vec_sub(d, B.ternary(bas[i], pb[j], bas[k]))
        return vec_sub(d, B.ternary(bas[i], bas[j], pb[k]))

    first = next(failures(product(r, repeat=2), product_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, False, True, *first)
    first = next(failures(product(r, repeat=3), ternary_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, True, False, *first)
    return PseudoDerivationReport(True, True, True)


def inner_pair(B: BolAlgebra, x: Vec, y: Vec) -> PairEndo:
    """The pair (L(x,y), x*y) attached to two algebra elements."""
    return PairEndo(B.left_op(x, y), B.binary(x, y))


def pair_bracket(B: BolAlgebra, P: PairEndo, Q: PairEndo) -> PairEndo:
    """Commutator of pairs with the component rule of the pair algebra.

    pi   = P.pi Q.pi - Q.pi P.pi
    comp = P.comp * Q.comp + P.pi(Q.comp) - Q.pi(P.comp)
    """
    pi = commutator(P.pi, Q.pi)
    comp = B.binary(P.comp, Q.comp)
    comp = vec_add(comp, mat_vec(P.pi, Q.comp))
    comp = vec_sub(comp, mat_vec(Q.pi, P.comp))
    return PairEndo(pi, comp)


def induced_bracket(B: BolAlgebra, P: PairEndo, Q: PairEndo) -> PairEndo:
    """The bracket G induces on h: ([A,A'] - L(a,a'), A a' - A' a)."""
    pi = mat_sub(commutator(P.pi, Q.pi), B.left_op(P.comp, Q.comp))
    comp = vec_sub(mat_vec(P.pi, Q.comp), mat_vec(Q.pi, P.comp))
    return PairEndo(pi, comp)


def h_closure(B: BolAlgebra) -> tuple[PairEndo, ...]:
    """Basis of the smallest induced-bracket-closed span of the inner pairs.

    Every element of the closure is checked to be a pseudo-derivation;
    a failure here is fatal and indicates non-Bol input.
    """
    n = B.n
    gens = [inner_pair(B, B.basis_vec(i), B.basis_vec(j)) for i in range(n) for j in range(i + 1, n)]

    def brackets(space: Subspace):
        members = [PairEndo.unflatten(v, n) for v in space.basis]
        for i, P in enumerate(members):
            for Q in members[i + 1 :]:
                yield induced_bracket(B, P, Q).flatten()

    space = closure(span([g.flatten() for g in gens if not g.is_zero()], n * n + n), brackets)
    basis = tuple(PairEndo.unflatten(v, n) for v in space.basis)
    for idx, P in enumerate(basis):
        rep = is_pseudo_derivation(B, P)
        if not rep.ok:
            raise FatalInconsistency(f"closure element {idx} is not a pseudo-derivation (witness {rep.witness})")
    return basis


@dataclass(frozen=True)
class EnvelopingLie:
    """The Lie algebra G = B (+) h with its bookkeeping tensors.

    Coordinates 0..b_dim-1 of `lie` are the base algebra B; the rest are
    the h basis.  Dtau[i][j] are the h-coordinates of the inner pair of
    (e_i, e_j); K[tau][i] is the B-component of [h_tau, e_i].
    """

    lie: LieAlgebra
    base: BolAlgebra
    h_basis: tuple[PairEndo, ...]
    Dtau: tuple[tuple[tuple[Fraction, ...], ...], ...]
    K: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def b_dim(self) -> int:
        return self.base.n

    @property
    def total_dim(self) -> int:
        return self.lie.m

    def b_subspace(self) -> Subspace:
        return span([basis_vec(i, self.lie.m) for i in range(self.b_dim)], self.lie.m)

    def lift(self, v: Vec) -> Vec:
        """Embed a B-vector into G coordinates."""
        return tuple(v) + zero_vec(self.lie.m - self.b_dim)

    def project_b(self, w: Vec) -> Vec:
        return tuple(w[: self.b_dim])


@lru_cache(maxsize=None)
def envelope(B: BolAlgebra) -> EnvelopingLie:
    """Construct and verify the enveloping Lie algebra of a Bol algebra.

    Raises FatalInconsistency if Jacobi, the projection identity or the
    recovery identity fails; for axiom-verified input this does not
    happen, and the check is itself part of the contract.
    """
    require_verified(B)
    n = B.n
    h = h_closure(B)
    N = len(h)
    m = n + N
    dim_pairs = n * n + n
    h_space = span([P.flatten() for P in h], dim_pairs)

    def h_coords(P: PairEndo) -> Vec:
        if N == 0:
            if P.is_zero():
                return ()
            raise FatalInconsistency("nonzero pair outside an empty h")
        c = h_space.coords(P.flatten())
        if c is None:
            raise FatalInconsistency("bracket left the pair closure")
        return c

    inner = [[inner_pair(B, B.basis_vec(i), B.basis_vec(j)) for j in range(n)] for i in range(n)]
    Dtau = tuple(tuple(h_coords(inner[i][j]) for j in range(n)) for i in range(n))

    C = [[[ZERO] * m for _ in range(m)] for _ in range(m)]

    def put(i: int, j: int, b_part: Vec, h_part: Vec) -> None:
        row = tuple(b_part) + tuple(h_part)
        C[i][j] = list(row)
        C[j][i] = [-c for c in row]

    for i in range(n):
        for j in range(i + 1, n):
            put(i, j, B.T[i][j], vec_scale(Fraction(-1), Dtau[i][j]))
    for i in range(n):
        ei = B.basis_vec(i)
        for t, P in enumerate(h):
            b_part = vec_sub(B.binary(ei, P.comp), mat_vec(P.pi, ei))
            h_part = vec_scale(Fraction(-1), h_coords(inner_pair(B, ei, P.comp)))
            put(i, n + t, b_part, h_part)
    for s in range(N):
        for t in range(s + 1, N):
            br = induced_bracket(B, h[s], h[t])
            put(n + s, n + t, zero_vec(n), h_coords(br))

    labels = B.labels + tuple(f"D{t}" for t in range(N))
    G = LieAlgebra.from_constants(m, C, labels)

    jac = jacobi_check(G)
    if not jac.ok:
        raise FatalInconsistency(f"envelope fails Jacobi at basis triple {jac.witness}")
    for i in range(n):
        for j in range(n):
            br = G.bracket(basis_vec(i, m), basis_vec(j, m))
            if tuple(br[:n]) != B.T[i][j]:
                raise FatalInconsistency(f"projection identity fails at ({i},{j})")
    for i in range(n):
        for j in range(n):
            bij = G.bracket(basis_vec(i, m), basis_vec(j, m))
            for k in range(n):
                rec = G.bracket(basis_vec(k, m), bij)
                if tuple(rec[:n]) != B.R[i][j][k] or not is_zero_vec(rec[n:]):
                    raise FatalInconsistency(f"recovery identity fails at ({i},{j},{k})")

    K = tuple(
        tuple(vec_sub(mat_vec(P.pi, B.basis_vec(i)), B.binary(B.basis_vec(i), P.comp)) for i in range(n))
        for P in h
    )
    return EnvelopingLie(G, B, h, Dtau, K)


@dataclass(frozen=True)
class IdealExtensionReport:
    w_subspace: Subspace
    is_lie_ideal_of_generated: bool
    lie_solvable: bool
    bol_solvable: bool
    implication_holds: bool


def ideal_extension(E: EnvelopingLie, V: Subspace) -> IdealExtensionReport:
    """Extend a Bol ideal V to W = V + [V, B] inside G and examine it.

    Verifies that W is a Lie ideal of the subalgebra it generates and
    whether W is Lie-solvable; Bol-solvability of V must imply the
    latter.
    """
    G = E.lie
    m = G.m
    n = E.b_dim
    if V.ambient != n:
        raise NotAnIdeal("ideal must live in the base algebra")
    B = E.base
    if not is_ideal(B, V, "def2"):
        raise NotAnIdeal("ideal_extension requires a def2-ideal")
    lifted = [E.lift(v) for v in V.basis]
    brackets = [G.bracket(w, basis_vec(j, m)) for w in lifted for j in range(n)]
    W = span(lifted + brackets, m)
    S = closure(W, lambda s: (G.bracket(u, v) for u in s.basis for v in s.basis))
    ideal_ok = bracket_span(G, S, W) <= W
    _, _, solvable = derived_chain(W, lambda s: bracket_span(G, s, s))
    bol_solv = is_solvable(B, V)
    return IdealExtensionReport(W, ideal_ok, solvable, bol_solv, (not bol_solv) or solvable)


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    closure_ok: bool
    action_ok: bool
    derivation_ok: bool
    witness: tuple[int, ...] | None = None


def standard_embedding_check(E: EnvelopingLie) -> EmbeddingReport:
    """Check the standard-embedding bracket relations for a ternary-only algebra.

    Writing D(x,y) := [x,y] in G (binary zero, so these land in h):

        [x, y] has no B-part
        [x, D(y, z)]       = (y, z, x)
        [D(x,y), D(u,v)]   = D((u,v,x), y) + D(x, (u,v,y))

    Rejects algebras with a nonzero binary product.
    """
    B = E.base
    if any(c != 0 for p in B.T for r in p for c in r):
        raise PreconditionViolation("standard-embedding relations require a zero binary product")
    G = E.lie
    m = G.m
    n = E.b_dim
    r = range(n)
    bas = [basis_vec(i, m) for i in r]
    d = [[G.bracket(bas[i], bas[j]) for j in r] for i in r]

    def action_defect(i, j, k):
        return vec_sub(G.bracket(bas[k], d[i][j]), E.lift(B.R[i][j][k]))

    def derivation_defect(i, j, u, v):
        lhs = G.bracket(d[i][j], d[u][v])
        lhs = vec_sub(lhs, G.bracket(E.lift(B.R[u][v][i]), bas[j]))
        return vec_sub(lhs, G.bracket(bas[i], E.lift(B.R[u][v][j])))

    def first_witness(tuples, defect):
        return next((t for t, _ in failures(tuples, defect)), None)

    witness = first_witness(product(r, repeat=2), lambda i, j: d[i][j][:n])
    if witness is not None:
        return EmbeddingReport(False, False, True, True, witness)
    witness = first_witness(product(r, repeat=3), action_defect)
    if witness is not None:
        return EmbeddingReport(False, True, False, True, witness)
    witness = first_witness(product(r, repeat=4), derivation_defect)
    if witness is not None:
        return EmbeddingReport(False, True, True, False, witness)
    return EmbeddingReport(True, True, True, True)


@dataclass(frozen=True)
class SolvabilityTransferReport:
    bol_solvable: bool
    lie_solvable: bool
    implication_holds: bool


def solvability_transfer_check(B: BolAlgebra) -> SolvabilityTransferReport:
    """Evaluate (B solvable, envelope solvable); the first must imply the second."""
    bol_solv = is_solvable(B, full_space(B.n))
    lie_solv = lie_is_solvable(envelope(B).lie)
    return SolvabilityTransferReport(bol_solv, lie_solv, (not bol_solv) or lie_solv)
