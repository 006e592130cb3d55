"""Shared test helpers: independent small oracles and ideal collection."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from bolalg.core import AxiomReport, BolAlgebra, IdentityCheck, center, ideal_closure, is_ideal
from bolalg.forms import InvarianceReport
from bolalg.envelope import PairEndo, induced_bracket, inner_pair
from bolalg.errors import NotAnIdeal
from bolalg.lie import JacobiReport, LieAlgebra, lie_is_ideal
from bolalg.linalg import (
    ONE,
    Subspace,
    ZERO,
    basis_vec,
    block_sum,
    complement_constants,
    failures,
    full_space,
    integer_tensors,
    mat_vec,
    span,
    transpose,
    vec_scale,
    vec_sub,
    zero_space,
)
from bolalg.radical import radical

F = Fraction


# Constructions the tests build with, which the package itself does not use.


def summand_embeddings(B1: BolAlgebra, B2: BolAlgebra) -> tuple[Subspace, Subspace]:
    """The two coordinate subspaces of direct_sum(B1, B2)."""
    n = B1.n + B2.n
    first = span([basis_vec(i, n) for i in range(B1.n)], n)
    second = span([basis_vec(B1.n + i, n) for i in range(B2.n)], n)
    return first, second


def lie_quotient(L: LieAlgebra, I: Subspace) -> LieAlgebra:
    """Quotient Lie algebra on the complement of an ideal."""
    if not lie_is_ideal(L, I):
        raise NotAnIdeal("quotient requires a Lie ideal")
    d, C = L.integer_rows
    comp, C, s = complement_constants(I, C, 3, d)
    return LieAlgebra(len(comp), tuple(L.labels[j] for j in comp), integer_tensors(len(comp), (C, 3, s)))


def lie_direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    labels = tuple(f"l.{x}" for x in L1.labels) + tuple(f"r.{x}" for x in L2.labels)
    rows = block_sum(L1.integer_rows, L2.integer_rows, L1.m, 3)
    return LieAlgebra(L1.m + L2.m, labels, integer_tensors(L1.m + L2.m, (rows, 3)))


def pair_bracket(B: BolAlgebra, P: PairEndo, Q: PairEndo) -> PairEndo:
    """Commutator of pairs with the component rule of the pair algebra, ([A,A'], a*a' + Aa' - A'a).

    It is the induced bracket plus the inner pair of the components:
    ([A,A'] - L(a,a'), Aa' - A'a) + (L(a,a'), a*a').
    """
    S, L = induced_bracket(B, P, Q), inner_pair(B, P.comp, Q.comp)
    return PairEndo.unflatten(tuple(x + y for x, y in zip(S.flatten(), L.flatten())), B.n)


# Dense references: the products, the Lie layer, the pair algebra and the
# linear algebra as they were computed entry by entry in Fractions, straight
# from the dense tensors, before they read integer rows.


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s, strict=True)) for r, s in zip(a, b, strict=True))


def commutator(a, b):
    """ab - ba, each product entry summed over the inner index."""

    def mul(x, y):
        return tuple(tuple(sum((u * v for u, v in zip(row, col)), ZERO) for col in zip(*y)) for row in x)

    return mat_sub(mul(a, b), mul(b, a))


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


def reference_integer_rows(T, R):
    """(d, T, R) of dense Fraction tensors, entry by entry: d the lcm of every denominator, T's nonzero entries times d, R's times d^2."""
    n = len(T)
    r = range(n)
    d = lcm(*(c.denominator for i, j, k in product(r, repeat=3) for c in (T[i][j][k], *R[i][j][k])))

    def rows(v, s):
        return tuple((k, int(c * s)) for k, c in enumerate(v) if c != 0)

    return (
        d,
        tuple(tuple(rows(T[i][j], d) for j in r) for i in r),
        tuple(tuple(tuple(rows(R[i][j][k], d * d) for k in r) for j in r) for i in r),
    )


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


def reference_pair_bracket(B: BolAlgebra, P, Q):
    """([A,A'], a*a' + Aa' - A'a) for P = (A, a) and Q = (A', a')."""
    comp = vec_add(dense_binary(B, P.comp, Q.comp), vec_sub(mat_vec(P.pi, Q.comp), mat_vec(Q.pi, P.comp)))
    return PairEndo(commutator(P.pi, Q.pi), comp)


def reference_rref(m):
    """Reduced row-echelon form by Fraction Gauss-Jordan elimination, with as many rows as m."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(piv, nrows) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[piv], rows[pivot_row] = rows[pivot_row], rows[piv]
        inv = ONE / rows[piv][col]
        rows[piv] = [inv * x for x in rows[piv]]
        for r in range(nrows):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        piv += 1
        if piv == nrows:
            break
    return tuple(tuple(row) for row in rows)


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
    return Subspace(n, reference_rref(rows))


def reference_coords(S: Subspace, v):
    """Coordinates by elimination against the canonical basis, or None if v is outside."""
    w, cs = list(v), []
    for row in S.basis:
        c = w[next(j for j, x in enumerate(row) if x != 0)]
        cs.append(c)
        w = [x - c * y for x, y in zip(w, row)]
    return None if any(x != 0 for x in w) else tuple(cs)


def reference_envelope(B: BolAlgebra):
    """(h_basis, C) built with the dense references above and checked by nothing."""
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
    return h, tuple(tuple(tuple(row) for row in plane) for plane in C)


# Dense references for the constructors that build structure rows directly:
# each forms the full Fraction tensor entry by entry, as the constructors did
# before, and hands it to `from_tensors` or `from_constants`.


def reference_complement_constants(I: Subspace, t, order: int):
    """(comp, t'): t' keeps the indices at I's non-pivot columns and reduces each coefficient vector of t by I."""
    comp = [j for j in range(I.ambient) if j not in I.pivots]

    def part(x, level):
        if level == 1:
            reduced = I.reduce(x)
            return tuple(reduced[j] for j in comp)
        return tuple(part(x[i], level - 1) for i in comp)

    return comp, part(t, order)


def reference_block_sum(a, b, n1: int, n2: int, order: int):
    """The tensor that is a on the first n1 coordinates, b on the last n2, zero elsewhere."""

    def part(x, y, level):
        if level == 1:
            return (x if x is not None else (ZERO,) * n1) + (y if y is not None else (ZERO,) * n2)
        return tuple(part(None if x is None else x[i], None, level - 1) for i in range(n1)) + tuple(
            part(None, None if y is None else y[i], level - 1) for i in range(n2)
        )

    return part(a, b, order)


def reference_quotient(B: BolAlgebra, I: Subspace) -> BolAlgebra:
    comp, T = reference_complement_constants(I, B.T, 3)
    _, R = reference_complement_constants(I, B.R, 4)
    return BolAlgebra.from_tensors(len(comp), T, R, tuple(B.labels[j] for j in comp))


def reference_direct_sum(B1: BolAlgebra, B2: BolAlgebra) -> BolAlgebra:
    T = reference_block_sum(B1.T, B2.T, B1.n, B2.n, 3)
    R = reference_block_sum(B1.R, B2.R, B1.n, B2.n, 4)
    labels = B1.labels + B2.labels
    if set(B1.labels) & set(B2.labels):
        labels = tuple(f"l.{x}" for x in B1.labels) + tuple(f"r.{x}" for x in B2.labels)
    return BolAlgebra.from_tensors(B1.n + B2.n, T, R, labels)


def reference_restrict(B: BolAlgebra, I: Subspace) -> BolAlgebra:
    """The products of I's canonical basis vectors in I-coordinates, by elimination."""
    bas = I.basis
    T = [[reference_coords(I, dense_binary(B, p, q)) for q in bas] for p in bas]
    R = [[[reference_coords(I, dense_ternary(B, p, q, r)) for r in bas] for q in bas] for p in bas]
    return BolAlgebra.from_tensors(I.dim, T, R, tuple(f"v{i}" for i in range(I.dim)))


def reference_lie_quotient(L: LieAlgebra, I: Subspace) -> LieAlgebra:
    comp, C = reference_complement_constants(I, L.C, 3)
    return LieAlgebra.from_constants(len(comp), C, tuple(L.labels[j] for j in comp))


def reference_lie_direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    labels = tuple(f"l.{x}" for x in L1.labels) + tuple(f"r.{x}" for x in L2.labels)
    return LieAlgebra.from_constants(L1.m + L2.m, reference_block_sum(L1.C, L2.C, L1.m, L2.m, 3), labels)


def reference_parse(text: str) -> BolAlgebra:
    """A valid Bol document read into zero-padded dense tensors, each entry [i, j, ..., c] also setting t[j][i] = -c."""
    doc = json.loads(text)
    n = doc["dim"]
    T = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    R = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, c in doc.get("binary", []):
        T[i][j][k], T[j][i][k] = F(c), -F(c)
    for i, j, k, l, c in doc.get("ternary", []):
        R[i][j][k][l], R[j][i][k][l] = F(c), -F(c)
    return BolAlgebra.from_tensors(n, T, R, doc.get("basis"))


def _reference_entries(t, order: int) -> list:
    """[i, j, ..., "c"] for each nonzero coefficient of the dense tensor t with i < j, in index order."""
    out = []
    for idx in product(range(len(t)), repeat=order):
        c = t
        for i in idx:
            c = c[i]
        if idx[0] < idx[1] and c != 0:
            out.append([*idx, str(c)])
    return out


def reference_emit(name: str, labels, sections) -> str:
    """The canonical document: one key per line, and one line for each entry of each (key, dense tensor, order) section."""
    lines = ["{", f'  "name": {json.dumps(name)},', f'  "dim": {len(labels)},', f'  "basis": {json.dumps(list(labels))},']
    for pos, (key, t, order) in enumerate(sections):
        entries = _reference_entries(t, order)
        comma = "," if pos < len(sections) - 1 else ""
        if not entries:
            lines.append(f'  "{key}": []{comma}')
            continue
        lines.append(f'  "{key}": [')
        lines += [f"    {json.dumps(e)}{',' if k < len(entries) - 1 else ''}" for k, e in enumerate(entries)]
        lines.append(f"  ]{comma}")
    return "\n".join(lines + ["}"]) + "\n"


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
    red = reference_rref(aug)
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


def restrict_scalars(B: BolAlgebra, d: int) -> BolAlgebra:
    """B over Q(sqrt d), d not a square, seen as a 2n-dimensional algebra over Q.

    The basis is e_i, then sqrt(d) e_i.  A product of k factors sqrt(d)
    carries d^(k // 2) and lands in slot k % 2.
    """
    n = B.n
    slots = [(s, i) for s in (0, 1) for i in range(n)]

    def lift(v, k):
        scaled = [c * d ** (k // 2) for c in v]
        return scaled + [0] * n if k % 2 == 0 else [0] * n + scaled

    T = [[lift(B.T[i][j], s + t) for t, j in slots] for s, i in slots]
    R = [[[lift(B.R[i][j][k], s + t + u) for u, k in slots] for t, j in slots] for s, i in slots]
    return BolAlgebra.from_tensors(2 * n, T, R)


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
# `B.binary`/`B.ternary` on basis vectors, row-reduced in one `reference_rref`,
# independently of the structure rows, the operator family and the
# incremental `span`.


def reference_span(vectors, n) -> Subspace:
    rows = tuple(tuple(v) for v in vectors)
    return Subspace(n, tuple(row for row in reference_rref(rows) if any(c != 0 for c in row)))


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


# A reference for the invariance layer, in Fractions entry by entry, as
# `invariance_check` computed it before it summed in integers and read
# precomputed form tables.


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
    return InvarianceReport(b_wit is None, t_wit is None, b_wit, t_wit)


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


def record_fields(r) -> dict:
    """The fields of a `Record`, by name, in order."""
    return {name: getattr(r, name) for name in r._fields}


def replaced(r, **changes):
    """A copy of the `Record` r with the given fields changed."""
    return type(r)(**{**record_fields(r), **changes})
