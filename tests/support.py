"""Shared test helpers: independent small oracles and ideal collection."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

from bolalg.core import AxiomReport, BolAlgebra, IdentityCheck, center, ideal_closure, is_ideal
from bolalg.forms import InvarianceReport
from bolalg.envelope import PairEndo
from bolalg.lie import JacobiReport, LieAlgebra
from bolalg.linalg import (
    ONE,
    Subspace,
    ZERO,
    basis_vec,
    commutator,
    failures,
    full_space,
    mat_sub,
    mat_vec,
    rref,
    span,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
    zero_space,
)
from bolalg.radical import radical

F = Fraction


# Dense references: the products, the Lie layer, the pair algebra and the
# linear algebra as they were computed entry by entry in Fractions, straight
# from the dense tensors, before they read integer rows.


def _dense_product(table, vectors, n):
    """sum over i, j, ... of x_i y_j ... table[i][j]..., skipping zero coefficients."""
    terms = [(table, ONE)]
    for v in vectors:
        terms = [(node[i], c * x) for node, c in terms for i, x in enumerate(v) if x != 0]
    out = [ZERO] * n
    for row, c in terms:
        for k, t in enumerate(row):
            if t != 0:
                out[k] += c * t
    return tuple(out)


def dense_binary(B: BolAlgebra, x, y):
    return _dense_product(B.T, (x, y), B.n)


def dense_ternary(B: BolAlgebra, x, y, z):
    return _dense_product(B.R, (x, y, z), B.n)


def reference_left_op(B: BolAlgebra, x, y):
    """Matrix of z -> (x, y, z): its column k is (x, y, e_k)."""
    return transpose([dense_ternary(B, x, y, basis_vec(k, B.n)) for k in range(B.n)])


def reference_bracket(L: LieAlgebra, x, y):
    return _dense_product(L.C, (x, y), L.m)


def reference_jacobi_check(L: LieAlgebra) -> JacobiReport:
    r = range(L.m)
    antisym = all(L.C[i][j][k] == -L.C[j][i][k] for i in r for j in range(i, L.m) for k in r)
    bas = L.basis()

    def defect(i, j, k):
        d = reference_bracket(L, reference_bracket(L, bas[i], bas[j]), bas[k])
        d = vec_add(d, reference_bracket(L, reference_bracket(L, bas[j], bas[k]), bas[i]))
        return vec_add(d, reference_bracket(L, reference_bracket(L, bas[k], bas[i]), bas[j]))

    triples = ((i, j, k) for i in r for j in range(i + 1, L.m) for k in range(j + 1, L.m))
    first = next(failures(triples, defect), None)
    if first is not None:
        return JacobiReport(False, antisym, *first)
    return JacobiReport(antisym, antisym, None, None)


def reference_killing_gram(L: LieAlgebra):
    """tr(ad e_i ad e_j) with the ad matrices formed column by column from brackets."""
    r = range(L.m)
    ads = [transpose([reference_bracket(L, basis_vec(i, L.m), basis_vec(j, L.m)) for j in r]) for i in r]
    return tuple(tuple(sum((ads[i][a][b] * ads[j][b][a] for a in r for b in r), ZERO) for j in r) for i in r)


def reference_induced_bracket(B: BolAlgebra, P, Q):
    pi = mat_sub(commutator(P.pi, Q.pi), reference_left_op(B, P.comp, Q.comp))
    return PairEndo(pi, vec_sub(mat_vec(P.pi, Q.comp), mat_vec(Q.pi, P.comp)))


def reference_fraction_span(vectors, n) -> Subspace:
    """The incremental Fraction span: each vector is reduced against rows normalized to 1 at their pivots."""
    rows, pivots = [], []
    for v in vectors:
        w = list(v)
        for p, row in zip(pivots, rows):
            w = [x - w[p] * y for x, y in zip(w, row)]
        lead = next((j for j, c in enumerate(w) if c), None)
        if lead is not None:
            rows.append([x / w[lead] for x in w])
            pivots.append(lead)
    return Subspace(n, rref(tuple(map(tuple, rows))))


def reference_coords(S: Subspace, v):
    """Coordinates by elimination against the canonical basis, or None if v is outside."""
    w, cs = list(v), []
    for row in S.basis:
        c = w[next(j for j, x in enumerate(row) if x != 0)]
        cs.append(c)
        w = [x - c * y for x, y in zip(w, row)]
    return None if any(x != 0 for x in w) else tuple(cs)


def reference_envelope(B: BolAlgebra):
    """(h_basis, Dtau, K, C) built with the dense references above and checked by nothing."""
    n = B.n
    bas = B.basis()
    inner = [[PairEndo(reference_left_op(B, x, y), dense_binary(B, x, y)) for y in bas] for x in bas]
    space = reference_fraction_span([P.flatten() for row in inner for P in row], n * n + n)
    while True:
        members = [PairEndo.unflatten(v, n) for v in space.basis]
        brackets = [reference_induced_bracket(B, P, Q).flatten() for P in members for Q in members]
        grown = reference_fraction_span(list(space.basis) + brackets, n * n + n)
        if grown == space:
            break
        space = grown
    h = tuple(PairEndo.unflatten(v, n) for v in space.basis)
    N, m = len(h), n + len(h)

    def coords(P):
        return reference_coords(space, P.flatten())

    Dtau = tuple(tuple(coords(P) for P in row) for row in inner)
    C = [[[ZERO] * m for _ in range(m)] for _ in range(m)]

    def put(i, j, row):
        C[i][j] = list(row)
        C[j][i] = [-c for c in row]

    for i in range(n):
        for j in range(i + 1, n):
            put(i, j, B.T[i][j] + vec_scale(-ONE, Dtau[i][j]))
    K = tuple(tuple(vec_sub(mat_vec(P.pi, x), dense_binary(B, x, P.comp)) for x in bas) for P in h)
    for t, P in enumerate(h):
        for i, x in enumerate(bas):
            D = coords(PairEndo(reference_left_op(B, x, P.comp), dense_binary(B, x, P.comp)))
            put(i, n + t, vec_scale(-ONE, K[t][i]) + vec_scale(-ONE, D))
    for s in range(N):
        for t in range(s + 1, N):
            put(n + s, n + t, (ZERO,) * n + coords(reference_induced_bracket(B, h[s], h[t])))
    return h, Dtau, K, tuple(tuple(tuple(row) for row in plane) for plane in C)


def symmetric_lts(m: int) -> BolAlgebra:
    """The symmetric m x m matrices as a Lie triple system: (x, y, z) = [[x, y], z], zero binary product.

    The basis is E_ii (i < m), then E_ij + E_ji (i < j); a symmetric matrix
    has coordinate S[i][j] on the basis element at (i, j).
    """
    cells = [(i, i) for i in range(m)] + [(i, j) for i in range(m) for j in range(i + 1, m)]
    r = range(m)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in r) for j in r] for i in r]

    def bracket(a, b):
        return [[x - y for x, y in zip(p, q)] for p, q in zip(mul(a, b), mul(b, a))]

    mats = [[[int((i, j) in (cell, cell[::-1])) for j in r] for i in r] for cell in cells]
    n = len(cells)
    R = [[[[M[i][j] for i, j in cells] for M in (bracket(bracket(x, y), z) for z in mats)] for y in mats] for x in mats]
    return BolAlgebra.from_tensors(n, [[[0] * n] * n] * n, R)


def invert(m):
    """Matrix inverse via row reduction of [m | I]; oracle-grade, no shortcuts."""
    n = len(m)
    aug = [list(m[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    red = rref(tuple(tuple(r) for r in aug))
    for i in range(n):
        assert red[i][i] == 1, "matrix is singular"
    return tuple(tuple(red[i][n + j] for j in range(n)) for i in range(n))


def transport(B: BolAlgebra, S) -> BolAlgebra:
    """Change of basis: new basis vectors are the rows of S in old coordinates."""
    n = B.n
    Sinv = invert(tuple(tuple(S[j][i] for j in range(n)) for i in range(n)))  # columns = rows of S

    def to_new(v):
        return tuple(sum(Sinv[a][i] * v[i] for i in range(n)) for a in range(n))

    T = [[to_new(B.binary(S[p], S[q])) for q in range(n)] for p in range(n)]
    R = [[[to_new(B.ternary(S[p], S[q], S[r])) for r in range(n)] for q in range(n)] for p in range(n)]
    return BolAlgebra.from_tensors(n, T, R)


def collect_ideals(B: BolAlgebra) -> list[Subspace]:
    """Certified def2-ideals reachable by the standard probes."""
    n = B.n
    candidates = [zero_space(n), full_space(n)]
    for i in range(n):
        candidates.append(ideal_closure(B, span([basis_vec(i, n)], n)))
    c = center(B)
    if not c.is_zero():
        candidates.append(ideal_closure(B, c))
    cert = radical(B)
    if cert.decided:
        candidates.append(cert.radical)
    out = []
    seen = set()
    for s in candidates:
        key = (s.ambient, s.basis)
        if key in seen:
            continue
        seen.add(key)
        if is_ideal(B, s, "def2"):
            out.append(s)
    return out


def mutate_binary(B: BolAlgebra, i, j, k, delta=F(1)) -> BolAlgebra:
    T = [[[B.T[a][b][c] for c in range(B.n)] for b in range(B.n)] for a in range(B.n)]
    T[i][j][k] += delta
    return BolAlgebra.from_tensors(B.n, T, B.R, B.labels)


def mutate_ternary(B: BolAlgebra, i, j, k, l, delta=F(1)) -> BolAlgebra:
    R = [
        [[[B.R[a][b][c][d] for d in range(B.n)] for c in range(B.n)] for b in range(B.n)]
        for a in range(B.n)
    ]
    R[i][j][k][l] += delta
    return BolAlgebra.from_tensors(B.n, B.T, R, B.labels)


def axiom_oracle(B: BolAlgebra) -> dict:
    """Reference A1-A5 sweeps: {name: (tuples, defect)} in `check_axioms` order.

    `tuples()` gives the basis tuples of the identity in sweep order and
    `defect(*t)` its defect vector, computed densely with `B.binary` and
    `B.ternary` on basis vectors, independently of the structure kernel.
    """
    n = B.n
    r = range(n)
    bas = B.basis()
    Tv, Rv = B.T, B.R

    def a4_defect(i, j, k, l):
        d = dense_binary(B, Rv[i][j][k], bas[l])
        d = vec_add(d, vec_scale(-ONE, dense_binary(B, Rv[i][j][l], bas[k])))
        d = vec_add(d, dense_ternary(B, bas[k], bas[l], Tv[i][j]))
        d = vec_add(d, vec_scale(-ONE, dense_ternary(B, bas[i], bas[j], Tv[k][l])))
        d = vec_add(d, vec_scale(-ONE, dense_binary(B, Tv[i][j], Tv[k][l])))
        return d

    def a5_defect(i, j, k, l, m):
        lhs = dense_ternary(B, bas[i], bas[j], Rv[k][l][m])
        rhs = dense_ternary(B, Rv[i][j][k], bas[l], bas[m])
        rhs = vec_add(rhs, dense_ternary(B, bas[k], Rv[i][j][l], bas[m]))
        rhs = vec_add(rhs, dense_ternary(B, bas[k], bas[l], Rv[i][j][m]))
        return vec_add(lhs, vec_scale(-ONE, rhs))

    return {
        "A1": (lambda: ((i, j) for i in r for j in range(i, n)), lambda i, j: vec_add(Tv[i][j], Tv[j][i])),
        "A2": (
            lambda: ((i, j, k) for i in r for j in range(i, n) for k in r),
            lambda i, j, k: vec_add(Rv[i][j][k], Rv[j][i][k]),
        ),
        "A3": (
            lambda: product(r, repeat=3),
            lambda i, j, k: vec_add(vec_add(Rv[i][j][k], Rv[j][k][i]), Rv[k][i][j]),
        ),
        "A4": (lambda: product(r, repeat=4), a4_defect),
        "A5": (lambda: product(r, repeat=5), a5_defect),
    }


def reference_axioms(B: BolAlgebra) -> AxiomReport:
    """The full reference sweep: first witness, its defect and the failure count per identity."""
    checks = []
    for name, (tuples, defect) in axiom_oracle(B).items():
        found = list(failures(tuples(), defect))
        witness, vec = found[0] if found else (None, None)
        checks.append(IdentityCheck(name, not found, witness, vec, len(found)))
    return AxiomReport(tuple(checks))


def random_algebra(rng, n, t_dens, r_dens, density=1.0, idle_pairs=0.0):
    """Random constants; R[i][j] is zero for a share `idle_pairs` of the pairs (i, j)."""

    def coeff(dens):
        if rng.random() >= density:
            return 0
        return F(rng.randint(-3, 3), rng.choice(dens))

    r = range(n)
    T = [[[coeff(t_dens) for _ in r] for _ in r] for _ in r]
    R = [[[[coeff(r_dens) for _ in r] for _ in r] for _ in r] for _ in r]
    for i in r:
        for j in r:
            if rng.random() < idle_pairs:
                R[i][j] = [[0] * n for _ in r]
    return BolAlgebra.from_tensors(n, T, R)


def rational_basis(rng, n):
    """A dense invertible rational matrix: upper triangular (nonzero diagonal) times unit lower."""
    U = [[F(0)] * n for _ in range(n)]
    L = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        U[i][i] = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 5]))
        for j in range(n):
            if j > i:
                U[i][j] = F(rng.randint(-2, 2), rng.choice([1, 3]))
            elif j < i:
                L[i][j] = F(rng.randint(-2, 2), rng.choice([1, 2]))
    return [[sum(U[i][k] * L[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# Dense references for the ideal layer: the products formed with
# `B.binary`/`B.ternary` on basis vectors, row-reduced in one `rref`,
# independently of the structure rows, the operator family and the
# incremental `span`.


def reference_span(vectors, n) -> Subspace:
    rows = tuple(tuple(v) for v in vectors)
    return Subspace(n, tuple(row for row in rref(rows) if any(c != 0 for c in row)))


def reference_prod_span(B: BolAlgebra, U: Subspace, V: Subspace) -> Subspace:
    return reference_span([dense_binary(B, u, v) for u in U.basis for v in V.basis], B.n)


def reference_tri_span(B: BolAlgebra, U: Subspace, V: Subspace, W: Subspace) -> Subspace:
    return reference_span([dense_ternary(B, u, v, w) for u in U.basis for v in V.basis for w in W.basis], B.n)


def reference_is_ideal(B: BolAlgebra, V: Subspace, mode: str) -> bool:
    full = full_space(B.n)
    if mode == "def2":
        return reference_prod_span(B, V, full) <= V and reference_tri_span(B, V, full, full) <= V
    subsystem = reference_prod_span(B, V, V) <= V and reference_tri_span(B, V, V, V) <= V
    rows = reference_prod_span(B, V, V).basis + reference_tri_span(B, V, V, full).basis
    return subsystem and reference_span(rows, B.n) <= V


def reference_ideal_closure(B: BolAlgebra, S: Subspace) -> Subspace:
    """Fixed point of S -> S + S*B + (S,B,B)."""
    full = full_space(B.n)
    space = S
    while True:
        grown = reference_prod_span(B, space, full).basis + reference_tri_span(B, space, full, full).basis
        new = tuple(w for w in grown if not space.contains(w))
        if not new:
            return space
        space = reference_span(space.basis + new, B.n)


def reference_operator_family(B: BolAlgebra) -> list:
    """Right multiplications x -> x*e_i, then first-slot operators x -> (x, e_i, e_j), nonzero ones only."""
    bas = B.basis()
    maps = [lambda x, i=i: dense_binary(B, x, bas[i]) for i in range(B.n)]
    maps += [lambda x, i=i, j=j: dense_ternary(B, x, bas[i], bas[j]) for i in range(B.n) for j in range(B.n)]
    ops = [tuple(zip(*(f(e) for e in bas))) for f in maps]  # columns are the images of the basis
    return [op for op in ops if any(c != 0 for row in op for c in row)]


def unimodular_basis(rng, n):
    """A dense element of GL_n(Z): unit lower times unit upper triangular, entries in {-1, 0, 1}.

    Its inverse is integral, so the transported tensors stay integral.
    """
    L = [[int(i == j) if j >= i else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    U = [[int(i == j) if j <= i else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# References for the simplicity and invariance layers, in Fractions entry
# by entry, as `is_simple` and `invariance_check` computed them before
# they summed in integers and read precomputed form tables.


def reference_random_combinations(ops, n, n_random, seed) -> list:
    """The nonzero ones of `n_random` seeded combinations of ops, coefficients drawn from -3..3."""
    rng = random.Random(seed)
    combos = []
    for _ in range(n_random):
        coeffs = [rng.randint(-3, 3) for _ in ops]
        m = [[ZERO] * n for _ in range(n)]
        for c, op in zip(coeffs, ops):
            if c == 0:
                continue
            for a in range(n):
                for b in range(n):
                    if op[a][b] != 0:
                        m[a][b] += c * op[a][b]
        combos.append(tuple(tuple(row) for row in m))
    return [m for m in combos if any(c != 0 for row in m for c in row)]


def reference_invariance_check(B: BolAlgebra, b, variant: str = "skew") -> InvarianceReport:
    """b(x*y, z) = b(x, y*z) and b((x,y,z), t) = +-b(z, (x,y,t)), one `b.value` per term and tuple."""
    if variant not in ("skew", "paper"):
        raise ValueError(f"unknown invariance variant {variant!r}")
    r = range(B.n)
    bas = B.basis()
    sign = F(1) if variant == "paper" else F(-1)

    def binary_defect(i, j, k):
        return (b.value(B.T[i][j], bas[k]) - b.value(bas[i], B.T[j][k]),)

    def ternary_defect(i, j, k, l):
        return (b.value(B.R[i][j][k], bas[l]) - sign * b.value(bas[k], B.R[i][j][l]),)

    b_wit = next((t for t, _ in failures(product(r, repeat=3), binary_defect)), None)
    t_wit = next((t for t, _ in failures(product(r, repeat=4), ternary_defect)), None)
    return InvarianceReport(variant, b_wit is None, t_wit is None, b_wit, t_wit)


def spy_on_cache(monkeypatch, module, name: str) -> list:
    """Swap the `lru_cache` function `module.name` for a fresh cached spy on the same function.

    Returns the list of argument tuples the spy computed, in order; cache
    hits do not appear in it.
    """
    computed = []
    search = getattr(module, name).__wrapped__

    def spy(*args):
        computed.append(args)
        return search(*args)

    monkeypatch.setattr(module, name, lru_cache(maxsize=None)(spy))
    return computed
