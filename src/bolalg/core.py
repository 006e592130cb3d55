"""Bol algebra data model, axiom verification, ideals, center, quotients.

A Bol algebra here is a rational vector space with an antisymmetric binary
product x*y and a ternary product (x,y,z), presented by structure tensors

    e_i * e_j       = sum_k T[i][j][k] e_k
    (e_i, e_j, e_k) = sum_l R[i][j][k][l] e_l

The ternary slot convention is (x, y, z) = D_{x,y}(z): the pair (x, y)
acts as an operator on the third slot.  `check_axioms` verifies the five
defining identities A1-A5; see its docstring for the exact statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from bolalg.errors import DimensionMismatch, IllDefinedQuotient, NotAnIdeal, NotASubsystem
from bolalg.linalg import (
    Mat,
    ONE,
    Subspace,
    Vec,
    ZERO,
    basis_vec,
    closure,
    failures,
    frac,
    full_space,
    kernel_of,
    span,
    subspace_sum,
    transpose,
    vec_add,
    vec_scale,
    zero_vec,
)

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]
Tensor4 = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]


def _freeze3(t) -> Tensor3:
    return tuple(tuple(tuple(frac(c) for c in row) for row in plane) for plane in t)


def _freeze4(t) -> Tensor4:
    return tuple(_freeze3(cube) for cube in t)


@dataclass(frozen=True)
class BolAlgebra:
    """Finite-dimensional Bol algebra given by structure tensors.

    Immutable; all operations on it are pure functions.  The dimension 0
    case is allowed and behaves as the zero algebra.
    """

    n: int
    labels: tuple[str, ...]
    T: Tensor3
    R: Tensor4

    @staticmethod
    def from_tensors(n: int, T, R, labels=None) -> BolAlgebra:
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        labels = tuple(labels)
        if len(labels) != n:
            raise DimensionMismatch(f"{len(labels)} labels for dimension {n}")
        return BolAlgebra(n, labels, _freeze3(T), _freeze4(R))

    @staticmethod
    def zero(n: int, labels=None) -> BolAlgebra:
        T = [[[0] * n for _ in range(n)] for _ in range(n)]
        R = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return BolAlgebra.from_tensors(n, T, R, labels)

    def basis_vec(self, i: int) -> Vec:
        return basis_vec(i, self.n)

    def basis(self) -> tuple[Vec, ...]:
        return tuple(basis_vec(i, self.n) for i in range(self.n))

    def binary(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the binary product."""
        self._check_vec(x)
        self._check_vec(y)
        out = list(zero_vec(self.n))
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = xi * yj
                row = self.T[i][j]
                for k in range(self.n):
                    if row[k] != 0:
                        out[k] += c * row[k]
        return tuple(out)

    def ternary(self, x: Vec, y: Vec, z: Vec) -> Vec:
        """Trilinear extension of the ternary product (x, y, z) = D_{x,y}(z)."""
        self._check_vec(x)
        self._check_vec(y)
        self._check_vec(z)
        out = list(zero_vec(self.n))
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                cij = xi * yj
                plane = self.R[i][j]
                for k, zk in enumerate(z):
                    if zk == 0:
                        continue
                    c = cij * zk
                    row = plane[k]
                    for l in range(self.n):
                        if row[l] != 0:
                            out[l] += c * row[l]
        return tuple(out)

    def left_op(self, x: Vec, y: Vec) -> Mat:
        """Matrix of z -> (x, y, z) in the chosen basis."""
        cols = [self.ternary(x, y, self.basis_vec(k)) for k in range(self.n)]
        return tuple(tuple(cols[k][l] for k in range(self.n)) for l in range(self.n))

    def is_abelian(self) -> bool:
        return all(c == 0 for p in self.T for r in p for c in r) and all(
            c == 0 for cu in self.R for p in cu for r in p for c in r
        )

    def _check_vec(self, v: Vec) -> None:
        if len(v) != self.n:
            raise DimensionMismatch(f"vector of length {len(v)} in algebra of dimension {self.n}")


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one defining identity, with a witness when it fails."""

    name: str
    ok: bool
    witness: tuple[int, ...] | None = None
    defect: Vec | None = None
    failures: int = 0


@dataclass(frozen=True)
class AxiomReport:
    identities: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.identities)

    def identity(self, name: str) -> IdentityCheck:
        for c in self.identities:
            if c.name == name:
                return c
        raise KeyError(name)


@lru_cache(maxsize=None)
def check_axioms(B: BolAlgebra) -> AxiomReport:
    """Verify the five defining identities on all basis tuples.

    A1  x*y + y*x = 0                                (alternating binary)
    A2  (x,y,z) + (y,x,z) = 0                        (alternating ternary pair)
    A3  (x,y,z) + (y,z,x) + (z,x,y) = 0              (cyclic sum)
    A4  (x,y,z)*w - (x,y,w)*z + (z,w,x*y)
          - (x,y,z*w) - (x*y)*(z*w) = 0              (binary-ternary mix)
    A5  (x,y,(z,w,u)) = ((x,y,z),w,u) + (z,(x,y,w),u)
          + (z,w,(x,y,u))                            (pair operators derive the ternary)

    The sign of the last A4 term is fixed so that the pair operators
    D_{x,y} are pseudo-derivations with component x*y, which is what the
    enveloping construction requires; see README "Conventions".
    Multilinearity reduces each identity to basis tuples, so the sweep is
    exhaustive.  Failures are reported with a witness tuple and defect
    vector, never raised.
    """
    n = B.n
    bas = B.basis()
    Tv = [[B.T[i][j] for j in range(n)] for i in range(n)]
    Rv = [[[B.R[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]

    def first_failure(name, tuples, defect_fn):
        witness = defect = None
        count = 0
        for t, d in failures(tuples, defect_fn):
            count += 1
            if witness is None:
                witness, defect = t, d
        return IdentityCheck(name, count == 0, witness, defect, count)

    a1 = first_failure(
        "A1",
        ((i, j) for i in range(n) for j in range(i, n)),
        lambda i, j: vec_add(Tv[i][j], Tv[j][i]),
    )
    a2 = first_failure(
        "A2",
        ((i, j, k) for i in range(n) for j in range(i, n) for k in range(n)),
        lambda i, j, k: vec_add(Rv[i][j][k], Rv[j][i][k]),
    )
    a3 = first_failure(
        "A3",
        product(range(n), repeat=3),
        lambda i, j, k: vec_add(vec_add(Rv[i][j][k], Rv[j][k][i]), Rv[k][i][j]),
    )

    def a4_defect(i, j, k, l):
        d = B.binary(Rv[i][j][k], bas[l])
        d = vec_add(d, vec_scale(-ONE, B.binary(Rv[i][j][l], bas[k])))
        d = vec_add(d, B.ternary(bas[k], bas[l], Tv[i][j]))
        d = vec_add(d, vec_scale(-ONE, B.ternary(bas[i], bas[j], Tv[k][l])))
        d = vec_add(d, vec_scale(-ONE, B.binary(Tv[i][j], Tv[k][l])))
        return d

    a4 = first_failure(
        "A4",
        product(range(n), repeat=4),
        a4_defect,
    )

    def a5_defect(i, j, k, l, m):
        lhs = B.ternary(bas[i], bas[j], Rv[k][l][m])
        rhs = B.ternary(Rv[i][j][k], bas[l], bas[m])
        rhs = vec_add(rhs, B.ternary(bas[k], Rv[i][j][l], bas[m]))
        rhs = vec_add(rhs, B.ternary(bas[k], bas[l], Rv[i][j][m]))
        return vec_add(lhs, vec_scale(-ONE, rhs))

    a5 = first_failure("A5", product(range(n), repeat=5), a5_defect)
    return AxiomReport((a1, a2, a3, a4, a5))


def require_verified(B: BolAlgebra) -> None:
    report = check_axioms(B)
    if not report.ok:
        bad = ", ".join(c.name for c in report.identities if not c.ok)
        raise NotASubsystem(f"not a Bol algebra: identities {bad} fail")


def prod_span(B: BolAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """span{ u * v : u in U, v in V }."""
    _check_ambient(B, U, V)
    vecs = [B.binary(u, v) for u in U.basis for v in V.basis]
    return span(vecs, B.n)


def tri_span(B: BolAlgebra, U: Subspace, V: Subspace, W: Subspace) -> Subspace:
    """span{ (u, v, w) : u in U, v in V, w in W }."""
    _check_ambient(B, U, V, W)
    vecs = [B.ternary(u, v, w) for u in U.basis for v in V.basis for w in W.basis]
    return span(vecs, B.n)


def is_subsystem(B: BolAlgebra, V: Subspace) -> bool:
    _check_ambient(B, V)
    return prod_span(B, V, V) <= V and tri_span(B, V, V, V) <= V


def is_ideal(B: BolAlgebra, V: Subspace, mode: str = "def2") -> bool:
    """Ideal test in one of the two modes supported by the toolkit.

    def2: V*B <= V and (V,B,B) <= V (the variant used by every internal
          algorithm: closures, radical, decomposition).
    def3: V is a subsystem and V*V + (V,V,B) <= V.
    """
    _check_ambient(B, V)
    full = full_space(B.n)
    if mode == "def2":
        return prod_span(B, V, full) <= V and tri_span(B, V, full, full) <= V
    if mode == "def3":
        return is_subsystem(B, V) and subspace_sum(prod_span(B, V, V), tri_span(B, V, V, full)) <= V
    raise ValueError(f"unknown ideal mode {mode!r}")


def ideal_closure(B: BolAlgebra, S: Subspace) -> Subspace:
    """Least def2-ideal containing S.

    Fixed point of S -> S + S*B + (S,B,B); dimensions strictly increase,
    so this terminates in at most n steps.
    """
    _check_ambient(B, S)
    full = full_space(B.n)
    return closure(S, lambda s: prod_span(B, s, full).basis + tri_span(B, s, full, full).basis)


def center(B: BolAlgebra) -> Subspace:
    """{x : b*x = 0 and (b, b', x) = 0 for all basis b, b'}."""
    constraints = []
    for i in range(B.n):
        # rows of the operators x -> e_i * x and x -> (e_i, e_j, x)
        constraints.extend(transpose(B.T[i]))
        for j in range(B.n):
            constraints.extend(transpose(B.R[i][j]))
    return kernel_of(tuple(constraints), B.n)


def quotient(B: BolAlgebra, I: Subspace, labels=None) -> BolAlgebra:
    """Quotient algebra on the complement of a proper def2-ideal.

    The complement basis is the set of standard basis vectors at the
    non-pivot columns of I's canonical basis.  Well-definedness of the
    induced products is verified explicitly and reported with a witness
    when it fails (possible only for inputs violating the axioms).
    """
    _check_ambient(B, I)
    if I.dim >= B.n and B.n > 0:
        raise NotAnIdeal("quotient by the full space is not a Bol algebra; ideal must be proper")
    if not is_ideal(B, I, "def2"):
        raise NotAnIdeal("quotient requires a def2-ideal")
    full = full_space(B.n)
    for name, bad in (
        ("x*v", prod_span(B, full, I)),
        ("(v,x,y)", tri_span(B, I, full, full)),
        ("(x,v,y)", tri_span(B, full, I, full)),
        ("(x,y,v)", tri_span(B, full, full, I)),
    ):
        if not bad <= I:
            raise IllDefinedQuotient(f"coset products of type {name} leave the ideal", witness=(name, bad))

    pivots = [next(j for j, c in enumerate(row) if c != 0) for row in I.basis]
    comp = [j for j in range(B.n) if j not in pivots]
    m = len(comp)

    def project(v: Vec) -> Vec:
        reduced = I.reduce(v)
        return tuple(reduced[j] for j in comp)

    T = [[project(B.binary(basis_vec(comp[p], B.n), basis_vec(comp[q], B.n))) for q in range(m)] for p in range(m)]
    R = [
        [
            [
                project(
                    B.ternary(
                        basis_vec(comp[p], B.n),
                        basis_vec(comp[q], B.n),
                        basis_vec(comp[r], B.n),
                    )
                )
                for r in range(m)
            ]
            for q in range(m)
        ]
        for p in range(m)
    ]
    if labels is None:
        labels = tuple(B.labels[j] for j in comp)
    return BolAlgebra.from_tensors(m, T, R, labels)


def restrict(B: BolAlgebra, I: Subspace, labels=None) -> BolAlgebra:
    """Re-express the products on a basis of a subsystem I."""
    _check_ambient(B, I)
    if not is_subsystem(B, I):
        raise NotASubsystem("restriction requires a subsystem")
    m = I.dim
    rows = I.basis

    def coords(v: Vec) -> Vec:
        c = I.coords(v)
        if c is None:
            raise NotASubsystem("product left the subsystem")
        return c

    T = [[coords(B.binary(rows[p], rows[q])) for q in range(m)] for p in range(m)]
    R = [[[coords(B.ternary(rows[p], rows[q], rows[r])) for r in range(m)] for q in range(m)] for p in range(m)]
    if labels is None:
        labels = tuple(f"v{i}" for i in range(m))
    return BolAlgebra.from_tensors(m, T, R, labels)


def direct_sum(B1: BolAlgebra, B2: BolAlgebra) -> BolAlgebra:
    """Block-diagonal sum; cross products of the summands vanish."""
    n = B1.n + B2.n
    T = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    R = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(B1.n):
        for j in range(B1.n):
            for k in range(B1.n):
                T[i][j][k] = B1.T[i][j][k]
                for l in range(B1.n):
                    R[i][j][k][l] = B1.R[i][j][k][l]
    o = B1.n
    for i in range(B2.n):
        for j in range(B2.n):
            for k in range(B2.n):
                T[o + i][o + j][o + k] = B2.T[i][j][k]
                for l in range(B2.n):
                    R[o + i][o + j][o + k][o + l] = B2.R[i][j][k][l]
    labels = _dedupe_labels(B1.labels, B2.labels)
    return BolAlgebra.from_tensors(n, T, R, labels)


def summand_embeddings(B1: BolAlgebra, B2: BolAlgebra) -> tuple[Subspace, Subspace]:
    """The two coordinate subspaces of direct_sum(B1, B2)."""
    n = B1.n + B2.n
    first = span([basis_vec(i, n) for i in range(B1.n)], n)
    second = span([basis_vec(B1.n + i, n) for i in range(B2.n)], n)
    return first, second


def _dedupe_labels(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    if set(a) & set(b):
        return tuple(f"l.{x}" for x in a) + tuple(f"r.{x}" for x in b)
    return a + b


def _check_ambient(B: BolAlgebra, *spaces: Subspace) -> None:
    for s in spaces:
        if s.ambient != B.n:
            raise DimensionMismatch(f"subspace of ambient {s.ambient} in algebra of dimension {B.n}")
