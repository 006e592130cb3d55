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
from bolalg.errors import DimensionMismatch, FatalInconsistency, NotAnIdeal, PreconditionViolation
from bolalg.lie import LieAlgebra, bracket_span, jacobi_check, lie_is_solvable
from bolalg.linalg import (
    Mat,
    Subspace,
    Vec,
    ZERO,
    basis_vec,
    closure,
    combine,
    commutator,
    derived_chain,
    failures,
    full_space,
    integral,
    is_zero_vec,
    mat_vec,
    nonzero_row,
    span,
    transpose,
    unscaled,
    vec_add,
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

    The defects are summed in ints from `B.integer_rows` (T scaled by d,
    R by d^2): with e the lcm of the pair's denominators, Pi is scaled
    by e*d and a by e, so every product-rule term has weight e*d^2 and
    every ternary-rule term e*d^3, and a reported defect is the integer
    one divided by its weight.
    """
    n = B.n
    if len(P.pi) != n or any(len(row) != n for row in P.pi) or len(P.comp) != n:
        raise DimensionMismatch(f"pair of size {len(P.pi)}/{len(P.comp)} in algebra of dimension {n}")
    d, T, R = B.integer_rows
    (A, a), e = _integral_pair(P)
    pb = [nonzero_row([d * row[i] for row in A]) for i in range(n)]  # Pi e_i
    a = nonzero_row(a)
    r = range(n)

    def product_defect(i, j):
        out = [0] * n
        Tij = T[i][j]
        for p, c in Tij:  # Pi(x*y)
            for q, v in pb[p]:
                out[q] += c * v
        for p, c in pb[i]:  # -(Pi x)*y
            for q, v in T[p][j]:
                out[q] -= c * v
        for p, c in pb[j]:  # -x*(Pi y)
            for q, v in T[i][p]:
                out[q] -= c * v
        for p, c in a:  # -(x, y, a)
            for q, v in R[i][j][p]:
                out[q] -= c * v
        for p, c in Tij:  # -(x*y)*a
            for s, f in a:
                for q, v in T[p][s]:
                    out[q] -= c * f * v
        return out

    def ternary_defect(i, j, k):
        out = [0] * n
        for p, c in R[i][j][k]:  # Pi(x,y,z)
            for q, v in pb[p]:
                out[q] += c * v
        for p, c in pb[i]:  # -(Pi x, y, z)
            for q, v in R[p][j][k]:
                out[q] -= c * v
        for p, c in pb[j]:  # -(x, Pi y, z)
            for q, v in R[i][p][k]:
                out[q] -= c * v
        for p, c in pb[k]:  # -(x, y, Pi z)
            for q, v in R[i][j][p]:
                out[q] -= c * v
        return out

    first = next(failures(product(r, repeat=2), product_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, False, True, first[0], unscaled(first[1], e * d * d))
    first = next(failures(product(r, repeat=3), ternary_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, True, False, first[0], unscaled(first[1], e * d**3))
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
    """The bracket G induces on h: ([A,A'] - L(a,a'), A a' - A' a).

    Summed in ints: with e, e' the lcms of the pairs' denominators and R
    scaled by d^2 (`B.integer_rows`), every term has weight e*e'*d^2 and
    the pair is divided once; L(a,a') = sum_ij a_i a'_j L(e_i,e_j).
    """
    n = B.n
    d, _, R = B.integer_rows
    s = d * d
    (A, a), e = _integral_pair(P)
    (A2, a2), e2 = _integral_pair(Q)
    cols = list(zip(zip(*A), zip(*A2)))
    pi = [[s * sum(x * y - u * v for x, y, u, v in zip(A[l], c2, A2[l], c)) for c, c2 in cols] for l in range(n)]
    for i, x in enumerate(a):
        for j, y in enumerate(a2):
            if x and y:
                for k, row in enumerate(R[i][j]):  # -(a, a', e_k)
                    for l, v in row:
                        pi[l][k] -= x * y * v
    comp = [s * sum(x * y - u * v for x, y, u, v in zip(A[l], a2, A2[l], a)) for l in range(n)]
    return PairEndo.unflatten(unscaled([c for row in pi for c in row] + comp, s * e * e2), n)


def _integral_pair(P: PairEndo) -> tuple[tuple[list[list[int]], list[int]], int]:
    """((A, a), e): the pair scaled by e, the lcm of its denominators, as int lists."""
    n = len(P.comp)
    w, e = integral(P.flatten())
    return ([w[l * n : (l + 1) * n] for l in range(n)], w[n * n :]), e


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

    space = closure(span([g.flatten() for g in gens], n * n + n), brackets)
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

    D(e_i, e_j) is read from R[i][j] and T[i][j], and D(e_i, a) is
    sum_j a_j D(e_i, e_j).  Raises FatalInconsistency if a pair leaves h
    or if Jacobi, the projection or the recovery identity fails; for
    axiom-verified input this does not happen, and the check is itself
    part of the contract.
    """
    require_verified(B)
    n = B.n
    r = range(n)
    h = h_closure(B)
    N = len(h)
    m = n + N
    h_space = span([P.flatten() for P in h], n * n + n)

    def h_coords(P: PairEndo) -> Vec:
        c = h_space.coords(P.flatten())
        if c is None:
            raise FatalInconsistency("bracket left the pair closure")
        return c

    Dtau = tuple(tuple(h_coords(PairEndo(transpose(B.R[i][j]), B.T[i][j])) for j in r) for i in r)
    # The rest is summed in ints: T scaled by d, the Dtau coordinates by f, each h_t by e.
    d, T, _ = B.integer_rows
    w, f = integral([c for row in Dtau for v in row for c in v])
    D = [[nonzero_row(w[(i * n + j) * N : (i * n + j + 1) * N]) for j in r] for i in r]
    C = [[[ZERO] * m for _ in range(m)] for _ in range(m)]

    def put(i: int, j: int, row) -> None:
        C[i][j] = list(row)
        C[j][i] = [-c for c in row]

    for i in r:
        for j in range(i + 1, n):
            put(i, j, B.T[i][j] + tuple(-c for c in Dtau[i][j]))
    K = []
    for t, P in enumerate(h):
        (A, a), e = _integral_pair(P)
        b_parts = [[x - d * A[l][i] for l, x in enumerate(combine(a, T[i], n))] for i in r]  # e_i*a - A e_i
        K.append(tuple(unscaled([-x for x in b], e * d) for b in b_parts))
        for i in r:  # [e_i, (A, a)] = (e_i*a - A e_i) (+) -D(e_i, a)
            put(i, n + t, unscaled(b_parts[i], e * d) + unscaled([-x for x in combine(a, D[i], N)], e * f))
    for s in range(N):
        for t in range(s + 1, N):
            put(n + s, n + t, zero_vec(n) + h_coords(induced_bracket(B, h[s], h[t])))

    labels = B.labels + tuple(f"D{t}" for t in range(N))
    G = LieAlgebra.from_constants(m, C, labels)
    _verify_envelope(B, G)
    return EnvelopingLie(G, B, h, Dtau, tuple(K))


def _verify_envelope(B: BolAlgebra, G: LieAlgebra) -> None:
    """Jacobi on all basis triples of G, then projection and recovery on B's basis, read from G's rows."""
    n = B.n
    jac = jacobi_check(G)
    if not jac.ok:
        raise FatalInconsistency(f"envelope fails Jacobi at basis triple {jac.witness}")
    for i, j in product(range(n), repeat=2):
        if G.C[i][j][:n] != B.T[i][j]:
            raise FatalInconsistency(f"projection identity fails at ({i},{j})")
    d, C = G.integer_rows
    for i, j, k in product(range(n), repeat=3):
        rec = [0] * G.m  # [e_k, [e_i, e_j]] at weight d^2
        for p, c in C[i][j]:
            for q, v in C[k][p]:
                rec[q] += c * v
        if unscaled(rec[:n], d * d) != B.R[i][j][k] or any(rec[n:]):
            raise FatalInconsistency(f"recovery identity fails at ({i},{j},{k})")


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
