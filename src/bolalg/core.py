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

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm

from bolalg.errors import DimensionMismatch, IllDefinedQuotient, NotAnIdeal, NotASubsystem
from bolalg.linalg import (
    Mat,
    Record,
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


class BolAlgebra(Record):
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
    def zero(n: int) -> BolAlgebra:
        T = [[[0] * n for _ in range(n)] for _ in range(n)]
        R = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return BolAlgebra.from_tensors(n, T, R)

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


class IdentityCheck(Record):
    """Outcome of one defining identity, with a witness when it fails."""

    name: str
    ok: bool
    witness: tuple[int, ...] | None = None
    defect: Vec | None = None
    failures: int = 0


class AxiomReport(Record):
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
    Multilinearity reduces each identity to basis tuples.  A1-A3 are swept
    over them.  A4 and A5 are linear in the pair (D, c) = (D_{x,y}, x*y),
    so each holds for every pair exactly when it holds for each element of
    an echelon basis of span{(R[i][j], T[i][j])} over all ordered (i, j);
    that basis is checked first, at every (z, w) and every (z, w, u), with
    no pruning by antisymmetry, so the check is sound whatever A1-A3 say.
    An identity whose basis check fails is swept over every basis tuple,
    and only that sweep gives its witness, defect vector and failure count.
    Failures are reported, never raised.

    Each defect is summed straight from the nonzero rows of T and R in
    integer arithmetic: with d the lcm of all their denominators, T is
    scaled by d and R by d^2.  Every term of A1 has weight 1 in this
    grading, of A2 and A3 weight 2, of A4 weight 3 and of A5 weight 4,
    so the integer defect is d^weight times the rational one and is zero
    exactly when it is.  The pairs are scaled the same way (R[i][j] by
    d^2, T[i][j] by d), so an integer multiple of any combination of them
    keeps A4 homogeneous.
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

    pair_basis = _inner_pair_basis(n, T, R)
    if all(not any(binary_rule_defect(T, R, D, c, k, l, n)) for D, c in pair_basis for k, l in product(r, repeat=2)):
        a4 = IdentityCheck("A4", True)
    else:
        a4 = first_failure(
            "A4",
            3,
            product(r, repeat=4),
            lambda i, j, k, l: binary_rule_defect(T, R, R[i][j], T[i][j], k, l, n),
        )
    if all(not any(ternary_rule_defect(R, D, k, l, m, n)) for D, _ in pair_basis for k, l, m in product(r, repeat=3)):
        a5 = IdentityCheck("A5", True)
    else:
        # Every A5 term carries a factor R[i][j][.], so pairs (i, j) whose
        # operator vanishes cannot fail and are not swept.
        active = [(i, j) for i in r for j in r if any(R[i][j])]
        a5 = first_failure(
            "A5",
            4,
            ((i, j, k, l, m) for i, j in active for k, l, m in product(r, repeat=3)),
            lambda i, j, k, l, m: ternary_rule_defect(R, R[i][j], k, l, m, n),
        )
    return AxiomReport((a1, a2, a3, a4, a5))


def _inner_pair_basis(n: int, T, R) -> list[tuple[tuple, tuple]]:
    """An echelon basis of span{(R[i][j], T[i][j])} over all ordered (i, j), as integer (D, c) rows.

    T and R are the scaled rows of `BolAlgebra.integer_rows`; each pair is
    flattened to D's n x n entries followed by c's n entries, and each
    basis element is scaled to the least integer multiple of itself and
    cut into D's rows and c.
    """
    m = n * n

    def flat(i, j):
        v = [0] * (m + n)
        for p, row in enumerate(R[i][j]):
            for q, x in row:
                v[p * n + q] = x
        for q, x in T[i][j]:
            v[m + q] = x
        return v

    out = []
    for row in span([flat(i, j) for i in range(n) for j in range(n)], m + n).basis:
        D = [[] for _ in range(n)]
        c = []
        for idx, x in enumerate(integral(row)[0]):
            if not x:
                continue
            if idx < m:
                D[idx // n].append((idx % n, x))
            else:
                c.append((idx - m, x))
        out.append((tuple(map(tuple, D)), tuple(c)))
    return out


def binary_rule_defect(T, R, D, c, k: int, l: int, n: int) -> list[int]:
    """(Dz)*w - (Dw)*z + (z,w,c) - D(z*w) - c*(z*w) at (z, w) = (e_k, e_l), summed in ints.

    T and R are the parts of `BolAlgebra.integer_rows`, D[p] the nonzero
    (index, int) entries of D e_p and c the nonzero entries of the
    component.  This is A4 for (D, c) = (D_{x,y}, x*y); a term has weight
    3 when D is scaled by d^2 and c by d.
    """
    out = [0] * n
    Tkl = T[k][l]
    for p, x in D[k]:  # (Dz)*w
        for q, v in T[p][l]:
            out[q] += x * v
    for p, x in D[l]:  # -(Dw)*z
        for q, v in T[p][k]:
            out[q] -= x * v
    for p, x in c:  # (z,w,c)
        for q, v in R[k][l][p]:
            out[q] += x * v
    for p, x in Tkl:  # -D(z*w)
        for q, v in D[p]:
            out[q] -= x * v
    for p, x in c:  # -c*(z*w)
        for s, e in Tkl:
            for q, v in T[p][s]:
                out[q] -= x * e * v
    return out


def ternary_rule_defect(R, D, k: int, l: int, m: int, n: int) -> list[int]:
    """D(z,w,u) - (Dz,w,u) - (z,Dw,u) - (z,w,Du) at (z, w, u) = (e_k, e_l, e_m), summed in ints.

    R is the ternary part of `BolAlgebra.integer_rows` and D[p] the
    nonzero (index, int) entries of D e_p.  The defect is zero exactly
    when D derives the ternary product on that triple; a term has the
    weight of R times that of D.
    """
    out = [0] * n
    for p, c in R[k][l][m]:  # D(z,w,u)
        for q, v in D[p]:
            out[q] += c * v
    for p, c in D[k]:  # -(Dz,w,u)
        for q, v in R[p][l][m]:
            out[q] -= c * v
    for p, c in D[l]:  # -(z,Dw,u)
        for q, v in R[k][p][m]:
            out[q] -= c * v
    for p, c in D[m]:  # -(z,w,Du)
        for q, v in R[k][l][p]:
            out[q] -= c * v
    return out


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


def derived_space(B: BolAlgebra, V: Subspace) -> Subspace:
    """V*V + (V,V,B): one step of the derived series."""
    return subspace_sum(prod_span(B, V, V), tri_span(B, V, V, full_space(B.n)))


def is_subsystem(B: BolAlgebra, V: Subspace) -> bool:
    _check_ambient(B, V)
    return prod_span(B, V, V) <= V and tri_span(B, V, V, V) <= V


def is_ideal(B: BolAlgebra, V: Subspace, mode: str = "def2") -> bool:
    """Ideal test in one of the two modes supported by the toolkit.

    def2: V*B <= V and (V,B,B) <= V (the variant used by every internal
          algorithm: closures, radical, decomposition), checked as the
          invariance of V under `B.ideal_operators`, stopping at the
          first image outside V; the full space needs no check.
    def3: V is a subsystem and V*V + (V,V,B) <= V, checked as
          `derived_space(B, V) <= V` alone: (V,V,V) lies in (V,V,B), so
          that test already says V is a subsystem.
    """
    _check_ambient(B, V)
    if mode == "def2":
        return V.is_full() or all(V.contains(w) for w in _images(B, V))
    if mode == "def3":
        return derived_space(B, V) <= V
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


def quotient(B: BolAlgebra, I: Subspace) -> BolAlgebra:
    """Quotient algebra on the complement of a proper def2-ideal; see `ideal_quotient`."""
    _check_ambient(B, I)
    if I.dim >= B.n and B.n > 0:
        raise NotAnIdeal("quotient by the full space is not a Bol algebra; ideal must be proper")
    if not is_ideal(B, I, "def2"):
        raise NotAnIdeal("quotient requires a def2-ideal")
    return ideal_quotient(B, I)


def ideal_quotient(B: BolAlgebra, I: Subspace) -> BolAlgebra:
    """B/I for a proper I that has passed the def2 test, which is not run again.

    The complement basis is the set of standard basis vectors at the
    non-pivot columns of I's canonical basis.  The def2 test covers the
    coset products v*x and (v,x,y); the others, x*v, (x,v,y) and
    (x,y,v), are verified explicitly and reported with a witness when
    they leave I (possible only for inputs violating the axioms).
    """
    full = full_space(B.n)
    for name, bad in (
        ("x*v", prod_span(B, full, I)),
        ("(x,v,y)", tri_span(B, full, I, full)),
        ("(x,y,v)", tri_span(B, full, full, I)),
    ):
        if not bad <= I:
            raise IllDefinedQuotient(f"coset products of type {name} leave the ideal", witness=(name, bad))

    comp, T = complement_constants(I, B.T, 3)
    _, R = complement_constants(I, B.R, 4)
    return BolAlgebra.from_tensors(len(comp), T, R, tuple(B.labels[j] for j in comp))


def restrict(B: BolAlgebra, I: Subspace) -> BolAlgebra:
    """Re-express the products on a basis of a subsystem I.

    Raises NotASubsystem at the first product of basis vectors of I
    that leaves I.
    """
    _check_ambient(B, I)
    m = I.dim
    rows = I.basis

    def coords(v: Vec) -> Vec:
        c = I.coords(v)
        if c is None:
            raise NotASubsystem("restriction requires a subsystem")
        return c

    T = [[coords(B.binary(rows[p], rows[q])) for q in range(m)] for p in range(m)]
    R = [[[coords(B.ternary(rows[p], rows[q], rows[r])) for r in range(m)] for q in range(m)] for p in range(m)]
    return BolAlgebra.from_tensors(m, T, R, tuple(f"v{i}" for i in range(m)))


def direct_sum(B1: BolAlgebra, B2: BolAlgebra) -> BolAlgebra:
    """Block-diagonal sum; cross products of the summands vanish."""
    T = block_sum(B1.T, B2.T, B1.n, B2.n, 3)
    R = block_sum(B1.R, B2.R, B1.n, B2.n, 4)
    return BolAlgebra.from_tensors(B1.n + B2.n, T, R, _dedupe_labels(B1.labels, B2.labels))


def _dedupe_labels(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    if set(a) & set(b):
        return tuple(f"l.{x}" for x in a) + tuple(f"r.{x}" for x in b)
    return a + b


def _check_ambient(B: BolAlgebra, *spaces: Subspace) -> None:
    for s in spaces:
        if s.ambient != B.n:
            raise DimensionMismatch(f"subspace of ambient {s.ambient} in algebra of dimension {B.n}")
