"""Exact rational linear algebra with canonical subspaces.

Scalars are `fractions.Fraction`, vectors are tuples of scalars, matrices
are tuples of row tuples.  A `Subspace` stores its basis in reduced
row-echelon form, which makes subspace equality a plain tuple comparison.
Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from bolalg.errors import DimensionMismatch

Scalar = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to a Fraction (floats are rejected)."""
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(x)


def vec(coords) -> Vec:
    return tuple(frac(c) for c in coords)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def basis_vec(i: int, n: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vec(v: Vec) -> bool:
    return all(c == 0 for c in v)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def mat(rows) -> Mat:
    m = tuple(tuple(frac(c) for c in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise DimensionMismatch("ragged matrix")
    return m


def zero_mat(rows: int, cols: int) -> Mat:
    return ((ZERO,) * cols,) * rows


def identity(n: int) -> Mat:
    return tuple(basis_vec(i, n) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    """Apply m to a column vector: (m @ v)."""
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(m[0])} columns, vector has {len(v)}")
    return tuple(sum((row[j] * v[j] for j in range(len(v)) if v[j] != 0), ZERO) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions disagree")
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col) if x != 0), ZERO) for col in bt) for row in a)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(r, s, strict=True)) for r, s in zip(a, b, strict=True))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(r, s, strict=True)) for r, s in zip(a, b, strict=True))


def mat_scale(c: Fraction, m: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in m)


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(m: Mat) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), ZERO)


def is_zero_mat(m: Mat) -> bool:
    return all(c == 0 for row in m for c in row)


def rref(m: Mat) -> Mat:
    """Reduced row-echelon form; preserves the row space."""
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


def _nonzero_rref_rows(m: Mat) -> Mat:
    return tuple(row for row in rref(m) if any(c != 0 for c in row))


def rank(m: Mat) -> int:
    return len(_nonzero_rref_rows(m))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n with its canonical (RREF) basis.

    Two subspaces are equal iff their canonical bases agree entry-wise,
    so `==` really is subspace equality.
    """

    ambient: int
    basis: Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        return is_zero_vec(self.reduce(v))

    def reduce(self, v: Vec) -> Vec:
        """Residue of v after elimination against the canonical basis."""
        w = list(v)
        for row in self.basis:
            lead = next(j for j, c in enumerate(row) if c != 0)
            if w[lead] != 0:
                f = w[lead]
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(w)

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of v in the canonical basis, or None if v is outside."""
        w = list(v)
        cs = []
        for row in self.basis:
            lead = next(j for j, c in enumerate(row) if c != 0)
            c = w[lead]
            cs.append(c)
            if c != 0:
                w = [x - c * y for x, y in zip(w, row)]
        if any(x != 0 for x in w):
            return None
        return tuple(cs)

    def element(self, coords) -> Vec:
        """The vector with the given coordinates in the canonical basis; inverse of `coords`."""
        w = zero_vec(self.ambient)
        for c, row in zip(coords, self.basis):
            if c != 0:
                w = vec_add(w, vec_scale(c, row))
        return w

    def is_subspace_of(self, other: Subspace) -> bool:
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions disagree")
        return all(other.contains(row) for row in self.basis)

    def __le__(self, other: Subspace) -> bool:
        return self.is_subspace_of(other)


def zero_space(ambient: int) -> Subspace:
    return Subspace(ambient, ())


def full_space(ambient: int) -> Subspace:
    return Subspace(ambient, identity(ambient))


def span(vectors, ambient: int) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    vs = tuple(vectors)
    for v in vs:
        if len(v) != ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient {ambient}")
    if not vs:
        return zero_space(ambient)
    return Subspace(ambient, _nonzero_rref_rows(vs))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimensions disagree")
    return span(a.basis + b.basis, a.ambient)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed from the kernel of the stacked coefficient system."""
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimensions disagree")
    if a.is_zero() or b.is_zero():
        return zero_space(a.ambient)
    # Solve sum_i x_i a_i - sum_j y_j b_j = 0; columns are the basis vectors.
    cols = a.basis + tuple(vec_scale(-ONE, row) for row in b.basis)
    system = transpose(cols)
    sols = kernel(system)
    return span([a.element(s[: a.dim]) for s in sols.basis], a.ambient)


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the right null space {v : m v = 0}."""
    if not m:
        raise DimensionMismatch("kernel of a matrix with no columns is ambiguous; pass a 0 x n matrix")
    ncols = len(m[0])
    r = _nonzero_rref_rows(m)
    pivots = [next(j for j, c in enumerate(row) if c != 0) for row in r]
    free = [j for j in range(ncols) if j not in pivots]
    vectors = []
    for j in free:
        v = [ZERO] * ncols
        v[j] = ONE
        for row, p in zip(r, pivots):
            v[p] = -row[j]
        vectors.append(tuple(v))
    return span(vectors, ncols)


def kernel_of(m: Mat, ncols: int) -> Subspace:
    """Kernel of a constraint list; all-zero rows are dropped, no rows means no constraint."""
    rows = tuple(row for row in m if not is_zero_vec(row))
    if not rows:
        return full_space(ncols)
    return kernel(rows)


def closure(start: Subspace, grow) -> Subspace:
    """Least subspace that contains `start` and is closed under `grow`.

    `grow(space)` yields vectors that must lie in the closure of `space`
    (for example the images of its basis under a family of linear maps).
    The vectors not yet contained are added until a round adds none.
    The result is canonical, so it does not depend on the order in which
    `grow` yields its vectors.
    """
    space = start
    while True:
        new = tuple(w for w in grow(space) if not space.contains(w))
        if not new:
            return space
        space = span(space.basis + new, space.ambient)


def derived_chain(start: Subspace, step) -> tuple[tuple[Subspace, ...], int, bool]:
    """The chain start, step(start), step(step(start)), ... run until it stabilizes.

    Returns (chain, stabilized_at, solvable): the chain stops at the
    first repeated space or at zero, `stabilized_at` is the index of its
    last member, and `solvable` says whether that member is zero.
    """
    chain = [start]
    current = start
    for _ in range(start.dim + 1):
        nxt = step(current)
        if nxt == current:
            break
        chain.append(nxt)
        current = nxt
        if current.is_zero():
            break
    return tuple(chain), len(chain) - 1, chain[-1].is_zero()


def failures(tuples, defect):
    """Yield (t, defect(*t)) for each tuple t whose defect is nonzero, in sweep order.

    A defect is a vector; the sweep is lazy, so `next(failures(...), None)`
    stops at the first witness.
    """
    for t in tuples:
        d = defect(*t)
        if not is_zero_vec(d):
            yield t, d


def charpoly(m: Mat) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(xI - m) via Faddeev-LeVerrier.

    Returns monic coefficients (c_0, ..., c_n) for c_0 x^n + ... + c_n with c_0 = 1.
    """
    n = len(m)
    coeffs = [ONE]
    mk = m
    for k in range(1, n + 1):
        ck = -trace(mk) / k
        coeffs.append(ck)
        if k < n:
            mk = mat_mul(m, mat_add(mk, mat_scale(ck, identity(n))))
    return tuple(coeffs)


def rational_roots(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """All rational roots of the polynomial with the given coefficients.

    Coefficients are ordered from the leading term down, as produced by
    `charpoly`.  Uses the rational root theorem on the integer-cleared
    polynomial; exact, no multiplicities.
    """
    cs = list(coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
    if not cs:
        return ()
    roots = []
    # Factor out x^k so the constant term is nonzero.
    while cs[-1] == 0:
        cs.pop()
        if ZERO not in roots:
            roots.append(ZERO)
        if not cs:
            return tuple(roots)
    denom_lcm = 1
    for c in cs:
        denom_lcm = denom_lcm * c.denominator // _gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in cs]
    lead, const = abs(ints[0]), abs(ints[-1])

    def value(x: Fraction) -> Fraction:
        acc = ZERO
        for c in ints:
            acc = acc * x + c
        return acc

    for p in _divisors(const):
        for q in _divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and value(cand) == 0:
                    roots.append(cand)
    return tuple(sorted(roots))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
