"""Pseudo-derivations and the enveloping Lie algebra G = B (+) h.

An element of h is a pair (A, a): an endomorphism of B together with a
component vector.  The inner pair of (x, y) is D(x, y) = (L(x,y), x*y)
where L(x,y)z = (x,y,z), and h is the span of the inner pairs.  G
induces on pairs the bracket

    [[ (A,a), (A',a') ]] = ([A,A'] - L(a,a'), A a' - A' a),

and for a Bol algebra the span is closed under it (see `h_closure`):

    [[D(x,y), D(u,v)]] = D((x,y,u),v) + D(u,(x,y,v)) - D(x*y, u*v).

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

from functools import lru_cache
from itertools import product
from math import lcm

from bolalg.core import BolAlgebra, PairEndo, check_axioms, derived_space, is_ideal, require_verified, ternary_rule_defect
from bolalg.errors import DimensionMismatch, FatalInconsistency, NotAnIdeal, PreconditionViolation
from bolalg.lie import LieAlgebra, bracket_span, jacobi_check, lie_is_solvable
from bolalg.linalg import (
    Record,
    Subspace,
    Vec,
    basis_vec,
    closure,
    combine,
    dense_row,
    derived_chain,
    digits,
    failures,
    full_space,
    integer_tensors,
    integral,
    nonzero_row,
    packed,
    row_bounds,
    slot_width,
    span,
    subspace_sum,
    unscaled,
    vec_sub,
    zero_vec,
)
from bolalg.series import is_solvable


class PseudoDerivationReport(Record):
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
    one divided by its weight.  The ternary rule is A5's, through
    `core.ternary_rule_defect` and the packed zero test.
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

    first = next(failures(product(r, repeat=2), product_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, False, True, first[0], unscaled(first[1], e * d * d))
    W = slot_width((2, 2, 2, 2), *row_bounds((R, 3), (pb, 1)))
    PR, PD = packed(R, 3, W), packed(pb, 1, W)
    first = next(failures(product(r, repeat=3), lambda i, j, k: ternary_rule_defect(PR, R, pb, PD, i, j, k)), None)
    if first is not None:
        return PseudoDerivationReport(False, True, False, first[0], unscaled(digits(first[1], W, n), e * d**3))
    return PseudoDerivationReport(True, True, True)


def inner_pair(B: BolAlgebra, x: Vec, y: Vec) -> PairEndo:
    """The pair (L(x,y), x*y) attached to two algebra elements."""
    return PairEndo(B.left_op(x, y), B.binary(x, y))


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
    rows, rows2 = [nonzero_row(row) for row in A], [nonzero_row(row) for row in A2]
    pi = [[s * (x - y) for x, y in zip(combine(A[l], rows2, n), combine(A2[l], rows, n))] for l in range(n)]  # row l of AA' - A'A
    ij = [(i, j, x * y) for i, x in enumerate(a) if x for j, y in enumerate(a2) if y]
    for k in range(n):  # -(a, a', e_k), in column k
        for l, v in enumerate(combine([c for _, _, c in ij], [R[i][j][k] for i, j, _ in ij], n)):
            pi[l][k] -= v
    comp = [s * sum(x * y - u * v for x, y, u, v in zip(A[l], a2, A2[l], a)) for l in range(n)]
    return PairEndo.unflatten(unscaled([c for row in pi for c in row] + comp, s * e * e2), n)


def _integral_pair(P: PairEndo) -> tuple[tuple[list[list[int]], list[int]], int]:
    """((A, a), e): the pair scaled by e, the lcm of its denominators, as int lists."""
    n = len(P.comp)
    w, e = integral(P.flatten())
    return ([w[l * n : (l + 1) * n] for l in range(n)], w[n * n :]), e


def h_closure(B: BolAlgebra) -> tuple[PairEndo, ...]:
    """Echelon basis of h = span{D(e_i, e_j) : i < j}, where D(x,y) = (L(x,y), x*y) is the inner pair.

    The span is closed under the induced bracket, so no closure round is
    run: A5 says [L(x,y), L(u,v)] = L((x,y,u),v) + L(u,(x,y,v)), and A4
    with A1 turns the components into (x,y,u)*v + u*(x,y,v) - (x*y)*(u*v),
    so

        [[D(x,y), D(u,v)]] = D((x,y,u),v) + D(u,(x,y,v)) - D(x*y, u*v).

    With A1 and A2, D is alternating, so the pairs i < j span every
    D(x,y).  With A1, the product rule of a pseudo-derivation is -A4 on
    an inner pair and its ternary rule is A5, so every element of h is a
    pseudo-derivation.  A3 is not used.  These facts are read from the
    cached `check_axioms(B)`: if A1, A4, A5 or A2 fails, in that order,
    FatalInconsistency is raised and names the first failing identity.
    `envelope` still checks the closure, as it takes the h-coordinates of
    every h-h bracket.
    """
    report = check_axioms(B)
    for name in ("A1", "A4", "A5", "A2"):
        w = report.identity(name).witness
        if w is None:
            continue
        if name in ("A1", "A2"):
            raise FatalInconsistency(f"inner pairs do not span h ({name} fails at {w})")
        raise FatalInconsistency(f"inner pair {w[:2]} is not a pseudo-derivation ({name} fails at {w})")
    n = B.n
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    gens = [inner_pair(B, units[i], units[j]).flatten() for i in range(n) for j in range(i + 1, n)]
    return tuple(PairEndo.unflatten(v, n) for v in span(gens, n * n + n).basis)


class EnvelopingLie(Record):
    """The Lie algebra G = B (+) h.

    Coordinates 0..b_dim-1 of `lie` are the base algebra B; the rest are
    the h basis.  G holds every bracket: the h-part of [e_i, e_j] is minus
    the h-coordinates of the inner pair of (e_i, e_j), and the B-part of
    [h_t, e_i] is A_t e_i - e_i*a_t for h_t = (A_t, a_t).
    """

    lie: LieAlgebra
    base: BolAlgebra
    h_basis: tuple[PairEndo, ...]

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

    G's rows are formed in ints.  D(e_i, e_j) is read from R[i][j] and
    T[i][j] at scale d^2, and its h-coordinates are its entries at h's
    pivots, once it is checked to lie in h; D(e_i, a) is
    sum_j a_j D(e_i, e_j), for a pair (A, a) of h's integer basis; the
    h-h brackets are `induced_bracket` on that basis, each checked to lie
    in h.  Raises FatalInconsistency if a pair leaves h or if Jacobi, the
    projection or the recovery identity fails; for axiom-verified input
    this does not happen, and the check is itself part of the contract.
    """
    require_verified(B)
    n = B.n
    r = range(n)
    h = h_closure(B)
    N = len(h)
    m = n + N
    nn = n * n
    h_space = Subspace(nn + n, tuple(P.flatten() for P in h))  # h_closure's basis is canonical
    L, h_rows = h_space.integer_basis

    def h_coords(w: list[int]) -> list[int]:
        c = h_space.pivot_coords(w)
        if c is None:
            raise FatalInconsistency("bracket left the pair closure")
        return c

    d, T, R = B.integer_rows
    D = {}  # (i, j) -> the nonzero h-coordinates of D(e_i, e_j), at scale d^2
    for i in r:
        for j in range(i + 1, n):
            w = [0] * (nn + n)  # D(e_i, e_j) = (L(e_i, e_j), e_i*e_j) flattened; column k of L(e_i, e_j) is (e_i, e_j, e_k)
            for k, row in enumerate(R[i][j]):
                for l, v in row:
                    w[l * n + k] = v
            for q, v in T[i][j]:
                w[nn + q] = d * v
            D[i, j] = nonzero_row(h_coords(w))
            D[j, i] = tuple((t, -c) for t, c in D[i, j])
    C = {}  # (i, j) -> (row of [f_i, f_j] in ints, its scale), for i < j
    for i in r:
        for j in range(i + 1, n):  # [e_i, e_j] = e_i*e_j (+) -D(e_i, e_j)
            C[i, j] = [(q, L * d * v) for q, v in T[i][j]] + [(n + t, -L * c) for t, c in D[i, j]], L * d * d
    for t, row in enumerate(h_rows):  # h_t = (A, a) is row/L
        A = dense_row(row, nn + n)
        a = A[nn:]
        for i in r:  # [e_i, (A, a)] = (e_i*a - A e_i) (+) -D(e_i, a), at scale L*d^2
            b_part = [d * (x - d * A[l * n + i]) for l, x in enumerate(combine(a, T[i], n))]
            h_part = combine(a, [D.get((i, j), ()) for j in r], N)
            C[i, n + t] = [(q, x) for q, x in enumerate(b_part + [-x for x in h_part]) if x], L * d * d
    basis = [PairEndo.unflatten(dense_row(row, nn + n), n) for row in h_rows]
    for s in range(N):
        for t in range(s + 1, N):  # [h_s, h_t] = L^-2 [[L h_s, L h_t]], read in ints at the scale e of the bracket
            w, e = integral(induced_bracket(B, basis[s], basis[t]).flatten())
            C[n + s, n + t] = [(n + k, c) for k, c in enumerate(h_coords(w)) if c], e * L * L
    S = lcm(*(scale for _, scale in C.values()))
    rows = {}
    for (i, j), (row, scale) in C.items():
        f = S // scale
        rows[i, j] = [(k, f * c) for k, c in row]
        rows[j, i] = [(k, -f * c) for k, c in row]
    labels = B.labels + tuple(f"D{t}" for t in range(N))
    G = LieAlgebra(m, labels, integer_tensors(m, (rows, 3, S)))
    _verify_envelope(B, G)
    return EnvelopingLie(G, B, h)


def _verify_envelope(B: BolAlgebra, G: LieAlgebra) -> None:
    """Jacobi on all basis triples of G, then projection and recovery on B's basis."""
    jac = jacobi_check(G)
    if not jac.ok:
        raise FatalInconsistency(f"envelope fails Jacobi at basis triple {jac.witness}")
    bad = _contract_failure(B, G)
    if bad is not None:
        name = "projection" if len(bad) == 2 else "recovery"
        raise FatalInconsistency(f"{name} identity fails at ({','.join(map(str, bad))})")


def _contract_failure(B: BolAlgebra, G: LieAlgebra) -> tuple[int, ...] | None:
    """The first failure of projection or recovery on B's basis, read from the rows of B and G.

    That is the first (i, j) with proj_B [e_i, e_j] != e_i*e_j, else the
    first (i, j, k) with [e_k, [e_i, e_j]] != (e_i, e_j, e_k); each side
    is multiplied by the other's scale (d or d^2 for B, g for G).  The
    recovery sweep is the packed zero test of
    sum_p C_ij^p (d^2 C_kp) - g^2 R_ijk, whose h-slots must vanish too.
    """
    n = B.n
    d, T, R = B.integer_rows
    g, C = G.integer_rows
    for i, j in product(range(n), repeat=2):
        if tuple((q, c * d) for q, c in C[i][j] if q < n) != tuple((q, c * g) for q, c in T[i][j]):
            return i, j
    (c_max, c_len), (r_max, r_len) = row_bounds((C, 2)), row_bounds((R, 3))
    W = slot_width((2, 1), max(d * d * c_max, g * g * r_max), max(c_len, r_len))  # the factors are C, d^2 C and g^2 R
    PC = [[d * d * x for x in row] for row in packed(C[:n], 2, W)]
    PR = [[[g * g * x for x in row] for row in plane] for plane in packed(R, 3, W)]
    for i, j, k in product(range(n), repeat=3):
        rec = 0  # [e_k, [e_i, e_j]] at weight d^2 g^2
        for p, c in C[i][j]:
            rec += c * PC[k][p]
        if rec != PR[i][j][k]:
            return i, j, k
    return None


class IdealExtensionReport(Record):
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
    if V.ambient != E.b_dim:
        raise NotAnIdeal("ideal must live in the base algebra")
    B = E.base
    if not is_ideal(B, V, "def2"):
        raise NotAnIdeal("ideal_extension requires a def2-ideal")
    lifted = Subspace(G.m, tuple(E.lift(v) for v in V.basis))  # V's canonical basis, padded with zeros
    W = subspace_sum(lifted, bracket_span(G, lifted, E.b_subspace()))
    S = closure(W, lambda s: bracket_span(G, s, s).basis)
    ideal_ok = bracket_span(G, S, W) <= W
    solvable = derived_chain(W, lambda s: bracket_span(G, s, s)).solvable
    bol_solv = derived_chain(V, lambda s: derived_space(B, s)).solvable  # is_solvable, past its def2 test
    return IdealExtensionReport(W, ideal_ok, solvable, bol_solv, (not bol_solv) or solvable)


class EmbeddingReport(Record):
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

    With x*y = 0 the first two are the projection and recovery
    identities of the envelope contract, swept by the same code.
    Rejects algebras with a nonzero binary product.
    """
    B = E.base
    if any(row for plane in B.integer_rows[1] for row in plane):
        raise PreconditionViolation("standard-embedding relations require a zero binary product")
    witness = _contract_failure(B, E.lie)
    if witness is not None:  # a pair breaks the closure relation, a triple the action relation
        return EmbeddingReport(False, len(witness) == 3, len(witness) == 2, True, witness)
    G = E.lie
    m = G.m
    r = range(B.n)
    bas = [basis_vec(i, m) for i in r]
    pairs = [[G.bracket(bas[i], bas[j]) for j in r] for i in r]
    e = B.basis()
    tern = [[[E.lift(B.ternary(e[u], e[v], e[i])) for i in r] for v in r] for u in r]  # (e_u, e_v, e_i) in G's coordinates

    def relation_defect(i, j, u, v):
        lhs = G.bracket(pairs[i][j], pairs[u][v])
        lhs = vec_sub(lhs, G.bracket(tern[u][v][i], bas[j]))
        return vec_sub(lhs, G.bracket(bas[i], tern[u][v][j]))

    witness = next((t for t, _ in failures(product(r, repeat=4), relation_defect)), None)
    if witness is not None:
        return EmbeddingReport(False, True, True, False, witness)
    return EmbeddingReport(True, True, True, True)


class SolvabilityTransferReport(Record):
    bol_solvable: bool
    lie_solvable: bool
    implication_holds: bool


def solvability_transfer_check(B: BolAlgebra) -> SolvabilityTransferReport:
    """Evaluate (B solvable, envelope solvable); the first must imply the second."""
    bol_solv = is_solvable(B, full_space(B.n))
    lie_solv = lie_is_solvable(envelope(B).lie)
    return SolvabilityTransferReport(bol_solv, lie_solv, (not bol_solv) or lie_solv)
