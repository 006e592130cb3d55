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
from functools import cached_property, lru_cache
from itertools import product
from math import lcm

from bolalg.errors import DimensionMismatch, IllDefinedQuotient, NotAnIdeal, NotASubsystem
from bolalg.linalg import (
    Mat,
    Subspace,
    Vec,
    basis_vec,
    block_sum,
    closure,
    combine,
    complement_constants,
    failures,
    freeze3,
    full_space,
    integral,
    kernel_of,
    multilinear,
    nonzero_row,
    scaled_rows,
    sized,
    span,
    subspace_sum,
    transpose,
    unscaled,
)

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]
Tensor4 = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]


def _freeze4(t, n: int) -> Tensor4:
    return tuple(freeze3(cube, n, f"R[{i}]") for i, cube in enumerate(sized(t, n, "R")))


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
        return BolAlgebra(n, labels, freeze3(T, n, "T"), _freeze4(R, n))

    @staticmethod
    def zero(n: int, labels=None) -> BolAlgebra:
        T = [[[0] * n for _ in range(n)] for _ in range(n)]
        R = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return BolAlgebra.from_tensors(n, T, R, labels)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Kept on the instance: the lru_caches keyed on algebras hash them
        # on every call.  The labels are left out (equal algebras still
        # hash equal), so the value does not depend on string hashing.
        return hash((self.n, self.T, self.R))

    @cached_property
    def integer_rows(self) -> tuple[int, tuple, tuple]:
        """(d, T, R): every T[i][j] and R[i][j][k] cut to its nonzero entries, T scaled by d and R by d^2, as ints.

        d is the lcm of every denominator in T and R, so a term with a
        factors of T and b of R is d^(a+2b) times its rational value.
        Built on first use and kept; every product and sweep reads the
        structure tensors through these rows.
        """
        d = lcm(
            *(c.denominator for plane in self.T for v in plane for c in v),
            *(c.denominator for cube in self.R for plane in cube for v in plane for c in v),
        )
        T = tuple(scaled_rows(map(nonzero_row, plane), d) for plane in self.T)
        R = tuple(tuple(scaled_rows(map(nonzero_row, plane), d * d) for plane in cube) for cube in self.R)
        return d, T, R

    @cached_property
    def ideal_operators(self) -> tuple[Mat, ...]:
        """The nonzero matrices of x -> x*e_i (i = 0..n-1), then of x -> (x, e_i, e_j) (i, j row-major).

        A subspace is a def2-ideal exactly when it is invariant under all
        of them.  The simplicity search reads these matrices; ideal
        closures and the def2 test apply the same family, in the same
        order, from the integer rows.
        """
        r = range(self.n)
        ops = [tuple(tuple(self.T[k][i][l] for k in r) for l in r) for i in r]
        ops += [tuple(tuple(self.R[k][i][j][l] for k in r) for l in r) for i in r for j in r]
        return tuple(op for op in ops if any(c != 0 for row in op for c in row))

    def basis_vec(self, i: int) -> Vec:
        return basis_vec(i, self.n)

    def basis(self) -> tuple[Vec, ...]:
        return tuple(basis_vec(i, self.n) for i in range(self.n))

    def binary(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the binary product, summed from the integer rows."""
        self._check_vec(x, y)
        d, T, _ = self.integer_rows
        return multilinear(T, (x, y), d, self.n)

    def ternary(self, x: Vec, y: Vec, z: Vec) -> Vec:
        """Trilinear extension of the ternary product (x, y, z) = D_{x,y}(z), summed from the integer rows."""
        self._check_vec(x, y, z)
        d, _, R = self.integer_rows
        return multilinear(R, (x, y, z), d * d, self.n)

    def left_op(self, x: Vec, y: Vec) -> Mat:
        """Matrix of z -> (x, y, z) in the chosen basis."""
        cols = [self.ternary(x, y, self.basis_vec(k)) for k in range(self.n)]
        return tuple(tuple(cols[k][l] for k in range(self.n)) for l in range(self.n))

    def is_abelian(self) -> bool:
        return all(c == 0 for p in self.T for r in p for c in r) and all(
            c == 0 for cu in self.R for p in cu for r in p for c in r
        )

    def _check_vec(self, *vs: Vec) -> None:
        for v in vs:
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

    Each defect is summed straight from the nonzero rows of T and R in
    integer arithmetic: with d the lcm of all their denominators, T is
    scaled by d and R by d^2.  Every term of A1 has weight 1 in this
    grading, of A2 and A3 weight 2, of A4 weight 3 and of A5 weight 4,
    so the integer defect is d^weight times the rational one and is zero
    exactly when it is.
    """
    n = B.n
    d, T, R = B.integer_rows
    r = range(n)

    def first_failure(name, weight, tuples, defect_fn):
        witness = defect = None
        count = 0
        for t, v in failures(tuples, defect_fn):
            count += 1
            if witness is None:
                witness, defect = t, unscaled(v, d**weight)
        return IdentityCheck(name, count == 0, witness, defect, count)

    def dense(*rows):
        return combine((1,) * len(rows), rows, n)

    a1 = first_failure(
        "A1",
        1,
        ((i, j) for i in r for j in range(i, n)),
        lambda i, j: dense(T[i][j], T[j][i]),
    )
    a2 = first_failure(
        "A2",
        2,
        ((i, j, k) for i in r for j in range(i, n) for k in r),
        lambda i, j, k: dense(R[i][j][k], R[j][i][k]),
    )
    a3 = first_failure(
        "A3",
        2,
        product(r, repeat=3),
        lambda i, j, k: dense(R[i][j][k], R[j][k][i], R[k][i][j]),
    )

    def a4_defect(i, j, k, l):
        out = [0] * n
        D, Tij, Tkl = R[i][j], T[i][j], T[k][l]
        for p, c in D[k]:  # (x,y,z)*w
            for q, v in T[p][l]:
                out[q] += c * v
        for p, c in D[l]:  # -(x,y,w)*z
            for q, v in T[p][k]:
                out[q] -= c * v
        for p, c in Tij:  # (z,w,x*y)
            for q, v in R[k][l][p]:
                out[q] += c * v
        for p, c in Tkl:  # -(x,y,z*w)
            for q, v in D[p]:
                out[q] -= c * v
        for p, c in Tij:  # -(x*y)*(z*w)
            for s, e in Tkl:
                for q, v in T[p][s]:
                    out[q] -= c * e * v
        return out

    a4 = first_failure("A4", 3, product(r, repeat=4), a4_defect)

    def a5_defect(i, j, k, l, m):
        out = [0] * n
        D = R[i][j]
        for p, c in R[k][l][m]:  # (x,y,(z,w,u))
            for q, v in D[p]:
                out[q] += c * v
        for p, c in D[k]:  # -((x,y,z),w,u)
            for q, v in R[p][l][m]:
                out[q] -= c * v
        for p, c in D[l]:  # -(z,(x,y,w),u)
            for q, v in R[k][p][m]:
                out[q] -= c * v
        for p, c in D[m]:  # -(z,w,(x,y,u))
            for q, v in R[k][l][p]:
                out[q] -= c * v
        return out

    # Every A5 term carries a factor R[i][j][.], so pairs (i, j) whose
    # operator D_{e_i,e_j} vanishes cannot fail and are not swept.
    active = [(i, j) for i in r for j in r if any(R[i][j])]
    a5 = first_failure(
        "A5",
        4,
        ((i, j, k, l, m) for i, j in active for k, l, m in product(r, repeat=3)),
        a5_defect,
    )
    return AxiomReport((a1, a2, a3, a4, a5))


def require_verified(B: BolAlgebra) -> None:
    report = check_axioms(B)
    if not report.ok:
        bad = ", ".join(c.name for c in report.identities if not c.ok)
        raise NotASubsystem(f"not a Bol algebra: identities {bad} fail")


def prod_span(B: BolAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """span{ u * v : u in U, v in V }, each product summed in ints from the integer rows."""
    _check_ambient(B, U, V)
    n = B.n
    _, T, _ = B.integer_rows
    by_j = tuple(zip(*T))  # by_j[j][i] = T[i][j]
    vs = _integral_basis(V)

    def products():
        for u in _integral_basis(U):
            left = [nonzero_row(combine(u, col, n)) for col in by_j]  # u * e_j
            for v in vs:
                yield combine(v, left, n)

    return span(products(), n)


def tri_span(B: BolAlgebra, U: Subspace, V: Subspace, W: Subspace) -> Subspace:
    """span{ (u, v, w) : u in U, v in V, w in W }, each product summed in ints from the integer rows."""
    _check_ambient(B, U, V, W)
    n = B.n
    r = range(n)
    _, _, R = B.integer_rows
    by_jk = tuple(tuple(tuple(R[i][j][k] for i in r) for k in r) for j in r)
    vs, ws = _integral_basis(V), _integral_basis(W)

    def products():
        for u in _integral_basis(U):
            # (u, e_j, e_k), stored by k then j
            uj = [[nonzero_row(combine(u, by_jk[j][k], n)) for j in r] for k in r]
            for v in vs:
                uv = [nonzero_row(combine(v, col, n)) for col in uj]  # (u, v, e_k)
                for w in ws:
                    yield combine(w, uv, n)

    return span(products(), n)


def _integral_basis(S: Subspace) -> list[list[int]]:
    """S's basis vectors, each scaled to ints; products of them are only spanned, so their scale is not kept."""
    return [integral(v)[0] for v in S.basis]


def is_subsystem(B: BolAlgebra, V: Subspace) -> bool:
    _check_ambient(B, V)
    return prod_span(B, V, V) <= V and tri_span(B, V, V, V) <= V


def is_ideal(B: BolAlgebra, V: Subspace, mode: str = "def2") -> bool:
    """Ideal test in one of the two modes supported by the toolkit.

    def2: V*B <= V and (V,B,B) <= V (the variant used by every internal
          algorithm: closures, radical, decomposition), checked as the
          invariance of V under `B.ideal_operators`, stopping at the
          first image outside V; the full space needs no check.
    def3: V is a subsystem and V*V + (V,V,B) <= V.
    """
    _check_ambient(B, V)
    if mode == "def2":
        return V.is_full() or all(V.contains(w) for w in _images(B, V))
    if mode == "def3":
        full = full_space(B.n)
        return is_subsystem(B, V) and subspace_sum(prod_span(B, V, V), tri_span(B, V, V, full)) <= V
    raise ValueError(f"unknown ideal mode {mode!r}")


def ideal_closure(B: BolAlgebra, S: Subspace) -> Subspace:
    """Least def2-ideal containing S: the closure of S under `B.ideal_operators`."""
    _check_ambient(B, S)
    return closure(S, lambda s: _images(B, s))


def _images(B: BolAlgebra, V: Subspace):
    """The images of V's basis vectors under `B.ideal_operators`, summed in ints from the integer rows, lazily."""
    n = B.n
    r = range(n)
    _, T, R = B.integer_rows
    ops = [[T[k][i] for k in r] for i in r] + [[R[k][i][j] for k in r] for i in r for j in r]
    ops = [op for op in ops if any(op)]
    return (combine(v, op, n) for v in _integral_basis(V) for op in ops)


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

    comp, T = complement_constants(I, B.T, 3)
    _, R = complement_constants(I, B.R, 4)
    if labels is None:
        labels = tuple(B.labels[j] for j in comp)
    return BolAlgebra.from_tensors(len(comp), T, R, labels)


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
    T = block_sum(B1.T, B2.T, B1.n, B2.n, 3)
    R = block_sum(B1.R, B2.R, B1.n, B2.n, 4)
    return BolAlgebra.from_tensors(B1.n + B2.n, T, R, _dedupe_labels(B1.labels, B2.labels))


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
