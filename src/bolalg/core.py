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

from functools import cached_property, lru_cache
from itertools import chain, product

from bolalg.errors import DimensionMismatch, IllDefinedQuotient, NotAnIdeal, NotASubsystem
from bolalg.linalg import (
    Mat,
    Record,
    Subspace,
    Vec,
    _null_space,
    _units,
    basis_vec,
    block_sum,
    closure,
    complement_constants,
    dense_row,
    dense_rows,
    dense_tensor,
    digits,
    failures,
    full_space,
    independent,
    integer_tensors,
    is_zero_vec,
    multilinear,
    packed,
    products,
    row_bounds,
    sized,
    slot_width,
    span,
    transpose,
    unscaled,
    zero_mat,
    zero_vec,
)


class BolAlgebra(Record):
    """Finite-dimensional Bol algebra given by structure tensors.

    Immutable; all operations on it are pure functions.  The dimension 0
    case is allowed and behaves as the zero algebra.  The tensors are
    stored once, as the rows (d, T, R) of `linalg.integer_tensors`, which
    the package reads; `T` and `R` are views for callers outside it.
    """

    n: int
    labels: tuple[str, ...]
    integer_rows: tuple[int, tuple, tuple]

    @staticmethod
    def from_tensors(n: int, T, R, labels=None) -> BolAlgebra:
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        labels = sized(labels, n, "labels")
        return BolAlgebra(n, labels, integer_tensors(n, (dense_rows(T, 3, n, "T"), 3), (dense_rows(R, 4, n, "R"), 4)))

    @staticmethod
    def zero(n: int) -> BolAlgebra:
        return BolAlgebra(n, tuple(f"e{i}" for i in range(n)), integer_tensors(n, ({}, 3), ({}, 4)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Kept on the instance: the lru_caches keyed on algebras hash them
        # on every call.  The labels are left out (equal algebras still
        # hash equal), so the value does not depend on string hashing.
        return hash((self.n, self.integer_rows))

    @cached_property
    def T(self) -> tuple:
        """T[i][j][k], the coefficient of e_k in e_i*e_j: a read-only Fraction view of the rows, built on first use."""
        d, T, _ = self.integer_rows
        return dense_tensor(T, 3, d, self.n)

    @cached_property
    def R(self) -> tuple:
        """R[i][j][k][l], the coefficient of e_l in (e_i, e_j, e_k): a read-only Fraction view of the rows, built on first use."""
        d, _, R = self.integer_rows
        return dense_tensor(R, 4, d * d, self.n)

    @cached_property
    def ideal_operators(self) -> tuple[Mat, ...]:
        """The nonzero matrices of x -> x*e_i (i = 0..n-1), then of x -> (x, e_i, e_j) (i, j row-major).

        A subspace is a def2-ideal exactly when it is invariant under all
        of them.  This is a Fraction view of `_operators`.
        """
        return tuple(tuple(unscaled(row, s) for row in m) for m, s in self._operators)

    @cached_property
    def _operators(self) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
        """(m, s) for each matrix of `ideal_operators`, in its order: the matrix is m/s, m in ints; the simplicity search reads these."""
        d, T, R = self.integer_rows
        r = range(self.n)
        ops = [([T[k][i] for k in r], d) for i in r] + [([R[k][i][j] for k in r], d * d) for i in r for j in r]
        return tuple((transpose([dense_row(image, self.n) for image in images]), s) for images, s in ops if any(images))

    @cached_property
    def derived(self) -> Subspace:
        """B*B + (B,B,B), the first step of the derived series (`derived_space`), formed once per algebra."""
        return _derived_space(self, full_space(self.n))

    def basis_closure(self, i: int) -> Subspace:
        """The least def2-ideal containing e_i (`ideal_closure`), formed once per algebra, on first use."""
        closures = self._basis_closures
        if closures[i] is None:
            closures[i] = ideal_closure(self, span([basis_vec(i, self.n)], self.n))
        return closures[i]

    @cached_property
    def _basis_closures(self) -> list:
        return [None] * self.n

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
        """Matrix of z -> (x, y, z) in the chosen basis; z runs over the basis as int unit vectors."""
        cols = [self.ternary(x, y, tuple(int(j == k) for j in range(self.n))) for k in range(self.n)]
        return tuple(tuple(cols[k][l] for k in range(self.n)) for l in range(self.n))

    def is_abelian(self) -> bool:
        _, T, R = self.integer_rows
        return not any(row for plane in chain(T, *R) for row in plane)

    def _check_vec(self, *vs: Vec) -> None:
        for v in vs:
            if len(v) != self.n:
                raise DimensionMismatch(f"vector of length {len(v)} in algebra of dimension {self.n}")


class PairEndo(Record):
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
    so each holds for every pair exactly when it holds for the pairs
    (i, j) whose (R[i][j], T[i][j]) are independent (`linalg.independent`
    over all ordered (i, j)).  Each is first swept over those pairs alone,
    at every (z, w) or (z, w, u), up to the first failure.  Only a failure
    runs the sweep over the basis tuples, which gives the witness, defect
    vector and failure count.  Once A2 holds (and A1 too, for A4), both
    defects are alternating in (x, y) and in (z, w), so the sweeps take
    z < w only, and the failure sweep x < y too, counting each failure
    for its four images; otherwise they take every tuple, so the check is
    sound whatever A1-A3 say.  Failures are reported, never raised.

    Each defect is summed straight from the nonzero rows of T and R in
    integer arithmetic: with d the lcm of all their denominators, T is
    scaled by d and R by d^2.  Every term of A1 has weight 1 in this
    grading, of A2 and A3 weight 2, of A4 weight 3 and of A5 weight 4,
    so the integer defect is d^weight times the rational one and is zero
    exactly when it is.  Every sweep, decision and failure sweep alike, is
    the packed zero test: each row of T and R is packed into one integer
    with slots of `linalg.slot_width` bits, derived once from the largest
    entry and row length, and a failing tuple's defect vector is read back
    as the digits of its packed value.
    """
    n = B.n
    d, T, R = B.integer_rows
    r = range(n)
    entry, length = row_bounds((T, 2), (R, 3))
    # the A4 shape bounds every identity: A5 has four of its terms' shape,
    # and A1-A3 at most three terms of one factor
    W = slot_width((2, 2, 2, 2, 3), entry, length)
    PT, PR = packed(T, 2, W), packed(R, 3, W)

    def first_failure(name, weight, tuples, defect_fn, decide=None, orbit=1):
        # With `decide`, the identity holds when no tuple of it fails, and
        # `tuples` is swept only to report a failure.  Each failing tuple
        # stands for `orbit` failing tuples of the full sweep.
        if decide is not None and next(failures(decide, defect_fn), None) is None:
            return IdentityCheck(name, True)
        witness = defect = None
        count = 0
        for t, v in failures(tuples, defect_fn):
            count += orbit
            if witness is None:
                witness, defect = t, unscaled(digits(v, W, n), d**weight)
        return IdentityCheck(name, count == 0, witness, defect, count)

    a1 = first_failure("A1", 1, ((i, j) for i in r for j in range(i, n)), lambda i, j: PT[i][j] + PT[j][i])
    a2 = first_failure(
        "A2",
        2,
        ((i, j, k) for i in r for j in range(i, n) for k in r),
        lambda i, j, k: PR[i][j][k] + PR[j][i][k],
    )
    a3 = first_failure("A3", 2, product(r, repeat=3), lambda i, j, k: PR[i][j][k] + PR[j][k][i] + PR[k][i][j])

    around = {}  # (i, j) -> D e_p + c*e_p packed, for each p, with (D, c) = (R[i][j], T[i][j])

    def a4_defect(i, j, k, l):
        if (i, j) not in around:
            around[i, j] = [PR[i][j][p] + sum(x * PT[q][p] for q, x in T[i][j]) for p in r]
        return binary_rule_defect(PT, PR, T, R[i][j], T[i][j], around[i, j], k, l)

    def a5_defect(i, j, k, l, m):
        return ternary_rule_defect(PR, R, R[i][j], PR[i][j], k, l, m)

    def flat(i, j):  # the pair (R[i][j], T[i][j]) as one integer vector; its scaling keeps independence
        v = [0] * (n * n + n)
        for p, row in enumerate((*R[i][j], T[i][j])):
            for q, x in row:
                v[p * n + q] = x
        return v

    pairs = list(product(r, repeat=2))
    basis = [pairs[k] for k in independent([flat(i, j) for i, j in pairs], n * n + n)]
    upper = [(i, j) for i in r for j in range(i + 1, n)]

    def sweep(xy, zw, m):  # each (i, j) of xy, then each (k, l) of zw, then every m more indices
        return ((*p, *q, *t) for p in xy for q in zw for t in product(r, repeat=m))

    # With A2 (and A1, for A4) a defect changes sign under (i, j) <-> (j, i)
    # and under (k, l) <-> (l, k), and vanishes at i = j or k = l.  The
    # first failure of the full lexicographic sweep is the least of its four
    # images, so it has i < j and k < l: the witness stays the same.
    xy, zw, orbit = (upper, upper, 4) if a1.ok and a2.ok else (pairs, pairs, 1)
    a4 = first_failure("A4", 3, sweep(xy, zw, 0), a4_defect, sweep(basis, zw, 0), orbit)
    xy, zw, orbit = (upper, upper, 4) if a2.ok else (pairs, pairs, 1)
    # Every A5 term carries a factor R[i][j][.], so pairs (i, j) whose
    # operator vanishes cannot fail and are not swept.
    active = [(i, j) for i, j in xy if any(R[i][j])]
    a5 = first_failure("A5", 4, sweep(active, zw, 1), a5_defect, sweep(basis, zw, 1), orbit)
    return AxiomReport((a1, a2, a3, a4, a5))


def binary_rule_defect(PT, PR, T, D, c, around, k: int, l: int) -> int:
    """(Dz)*w - (Dw)*z + (z,w,c) - D(z*w) - c*(z*w) at (z, w) = (e_k, e_l), packed.

    T is the binary part of `BolAlgebra.integer_rows`, PT and PR its
    binary and ternary parts packed (`linalg.packed`), D[p] the nonzero
    (index, int) entries of D e_p, c the nonzero entries of the component,
    and around[p] the packed D e_p + c*e_p.  This is A4 for
    (D, c) = (D_{x,y}, x*y); a term has weight 3 when D is scaled by d^2
    and c by d.
    """
    s = 0
    for p, x in D[k]:  # (Dz)*w
        s += x * PT[p][l]
    for p, x in D[l]:  # -(Dw)*z
        s -= x * PT[p][k]
    for p, x in c:  # (z,w,c)
        s += x * PR[k][l][p]
    for p, x in T[k][l]:  # -D(z*w) - c*(z*w)
        s -= x * around[p]
    return s


def ternary_rule_defect(PR, R, D, PD, k: int, l: int, m: int) -> int:
    """D(z,w,u) - (Dz,w,u) - (z,Dw,u) - (z,w,Du) at (z, w, u) = (e_k, e_l, e_m), packed.

    R is the ternary part of `BolAlgebra.integer_rows` and PR its packed
    rows (`linalg.packed`), D[p] the nonzero (index, int) entries of D e_p
    and PD[p] that row packed.  The defect is zero exactly when D derives
    the ternary product on that triple; a term has the weight of R times
    that of D.
    """
    s = 0
    for p, c in R[k][l][m]:  # D(z,w,u)
        s += c * PD[p]
    for p, c in D[k]:  # -(Dz,w,u)
        s -= c * PR[p][l][m]
    for p, c in D[l]:  # -(z,Dw,u)
        s -= c * PR[k][p][m]
    for p, c in D[m]:  # -(z,w,Du)
        s -= c * PR[k][l][p]
    return s


def require_verified(B: BolAlgebra) -> None:
    report = check_axioms(B)
    if not report.ok:
        bad = ", ".join(c.name for c in report.identities if not c.ok)
        raise NotASubsystem(f"not a Bol algebra: identities {bad} fail")


def prod_span(B: BolAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """span{ u * v : u in U, v in V }, each product summed in ints from the integer rows."""
    _check_ambient(B, U, V)
    return span(products(B.integer_rows[1], (U, V), B.n), B.n)


def tri_span(B: BolAlgebra, U: Subspace, V: Subspace, W: Subspace) -> Subspace:
    """span{ (u, v, w) : u in U, v in V, w in W }, each product summed in ints from the integer rows."""
    _check_ambient(B, U, V, W)
    return span(products(B.integer_rows[2], (U, V, W), B.n), B.n)


def derived_space(B: BolAlgebra, V: Subspace) -> Subspace:
    """V*V + (V,V,B): one step of the derived series, as one span of both kinds of product; for V = B it is `BolAlgebra.derived`."""
    if V.is_full():
        return B.derived
    return _derived_space(B, V)


def _derived_space(B: BolAlgebra, V: Subspace) -> Subspace:
    _, T, R = B.integer_rows
    return span(chain(products(T, (V, V), B.n), products(R, (V, V, full_space(B.n)), B.n)), B.n)


def is_subsystem(B: BolAlgebra, V: Subspace) -> bool:
    """V*V <= V and (V,V,V) <= V, stopping at the first product outside V."""
    _check_ambient(B, V)
    _, T, R = B.integer_rows
    return all(V.contains(w) for w in chain(products(T, (V, V), B.n), products(R, (V, V, V), B.n)))


def is_ideal(B: BolAlgebra, V: Subspace, mode: str = "def2") -> bool:
    """Ideal test in one of the two modes supported by the toolkit.

    def2: V*B <= V and (V,B,B) <= V (the variant used by every internal
          algorithm: closures, radical, decomposition), checked on the
          products of basis vectors, stopping at the first one outside
          V; the full space needs no check.
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
    """Least def2-ideal containing S: the closure of S under x -> x*e_i and x -> (x, e_i, e_j)."""
    _check_ambient(B, S)
    return closure(S, lambda s: _images(B, s))


def _images(B: BolAlgebra, V: Subspace):
    """V*B, then (V,B,B): every product of basis vectors, summed in ints from the integer rows, lazily."""
    _, T, R = B.integer_rows
    full = full_space(B.n)
    return chain(products(T, (V, full), B.n), products(R, (V, full, full), B.n))


def center(B: BolAlgebra) -> Subspace:
    """{x : b*x = 0 and (b, b', x) = 0 for all basis b, b'}: the null space of the int rows of x -> e_i * x and x -> (e_i, e_j, x).

    The rows are formed as the null-space update reads them, and none past the first that leaves it zero.
    """
    n = B.n
    _, T, R = B.integer_rows
    operators = (images for i in range(n) for images in (T[i], *R[i]))  # column k of each is the image of e_k
    rows = (row for images in operators for row in transpose([dense_row(image, n) for image in images]))
    return span(_null_space(rows, _units(n)), n)


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

    d, T, R = B.integer_rows
    comp, T, s = complement_constants(I, T, 3, d)
    _, R, s2 = complement_constants(I, R, 4, d * d)
    return BolAlgebra(len(comp), tuple(B.labels[j] for j in comp), integer_tensors(len(comp), (T, 3, s), (R, 4, s2)))


def restrict(B: BolAlgebra, I: Subspace) -> BolAlgebra:
    """Re-express the products on the canonical basis of a subsystem I.

    The products come from `linalg.products` at scale d*L^2 (binary) and
    d^2*L^3 (ternary), with d from `B.integer_rows` and L from
    `I.integer_basis`.  Raises NotASubsystem at the first product of basis
    vectors of I that leaves I.
    """
    _check_ambient(B, I)
    m = I.dim
    r = range(m)
    d, T, R = B.integer_rows
    L, _ = I.integer_basis

    def coords(table, order: int) -> dict:
        # the I-coordinates, in ints at the products' scale, of the products of I's basis vectors, keyed by their indices in basis order
        out = {}
        for idx, w in zip(product(r, repeat=order), products(table, (I,) * order, B.n)):
            c = I.pivot_coords(w)
            if c is None:
                raise NotASubsystem("restriction requires a subsystem")
            out[idx] = enumerate(c)
        return out

    rows = integer_tensors(m, (coords(T, 2), 3, d * L**2), (coords(R, 3), 4, d * d * L**3))
    return BolAlgebra(m, tuple(f"v{i}" for i in range(m)), rows)


def direct_sum(B1: BolAlgebra, B2: BolAlgebra) -> BolAlgebra:
    """Block-diagonal sum; cross products of the summands vanish."""
    (d1, T1, R1), (d2, T2, R2) = B1.integer_rows, B2.integer_rows
    T = block_sum((d1, T1), (d2, T2), B1.n, 3)
    R = block_sum((d1 * d1, R1), (d2 * d2, R2), B1.n, 4)
    return BolAlgebra(B1.n + B2.n, _dedupe_labels(B1.labels, B2.labels), integer_tensors(B1.n + B2.n, (T, 3), (R, 4)))


def _dedupe_labels(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    if set(a) & set(b):
        return tuple(f"l.{x}" for x in a) + tuple(f"r.{x}" for x in b)
    return a + b


def _check_ambient(B: BolAlgebra, *spaces: Subspace) -> None:
    for s in spaces:
        if s.ambient != B.n:
            raise DimensionMismatch(f"subspace of ambient {s.ambient} in algebra of dimension {B.n}")
