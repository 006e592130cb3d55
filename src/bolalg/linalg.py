"""Exact rational linear algebra with canonical subspaces.

Scalars are `fractions.Fraction`, vectors are tuples of scalars, matrices
are tuples of row tuples.  A `Subspace` stores its basis in reduced
row-echelon form, which makes subspace equality a plain tuple comparison.
Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from bolalg.errors import DimensionMismatch

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]
# A coefficient vector cut to its nonzero entries: ((index, coeff), ...).
Row = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to a Fraction (floats are rejected)."""
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(x)


def sized(items, n: int, name: str) -> tuple:
    items = tuple(items)
    if len(items) != n:
        raise DimensionMismatch(f"{name} has length {len(items)}, expected {n}")
    return items


def freeze3(t, n: int, name: str):
    """t as an n x n x n tensor of Fractions; DimensionMismatch names the first mis-sized index."""
    return tuple(
        tuple(
            tuple(frac(c) for c in sized(row, n, f"{name}[{i}][{j}]"))
            for j, row in enumerate(sized(plane, n, f"{name}[{i}]"))
        )
        for i, plane in enumerate(sized(t, n, name))
    )


def nonzero_row(v) -> Row:
    return tuple((k, c) for k, c in enumerate(v) if c)


def scaled_rows(rows, s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows with every coefficient multiplied by s, as ints; s must clear every denominator."""
    return tuple(tuple((k, c.numerator * (s // c.denominator)) for k, c in row) for row in rows)


def unscaled(v, s: int) -> Vec:
    """The integer vector v divided by s, as Fractions."""
    return tuple(Fraction(c, s) for c in v)


def integral(v) -> tuple[list[int], int]:
    """(w, e): e the lcm of the denominators of v and w = e*v, as ints."""
    e = lcm(*(c.denominator for c in v))
    return [c.numerator * (e // c.denominator) for c in v], e


def combine(x, rows, n: int) -> list:
    """sum_k x[k] rows[k] as a list, each row given by its nonzero entries."""
    out = [0] * n
    for xk, row in zip(x, rows):
        if xk:
            for q, c in row:
                out[q] += xk * c
    return out


def multilinear(table, vectors, scale: int, n: int) -> Vec:
    """sum over i, j, ... of x_i y_j ... table[i][j]..., with `table` one level per vector deep.

    Its integer rows are `scale` times the rational ones; the vectors are
    scaled to ints too, so the sum is formed in ints and divided once.
    """
    terms = [(table, 1)]
    for v in vectors:
        w, e = integral(v)
        scale *= e
        terms = [(node[i], c * x) for node, c in terms for i, x in enumerate(w) if x]
    return unscaled(combine([c for _, c in terms], [row for row, _ in terms], n), scale)


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


def rank(m: Mat) -> int:
    return span(m, len(m[0]) if m else 0).dim


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

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, c in enumerate(row) if c) for row in self.basis)

    @cached_property
    def integer_basis(self) -> tuple[int, tuple[Row, ...]]:
        """(L, rows): L the lcm of the basis denominators, rows the nonzero entries of L times each basis row, as ints."""
        L = lcm(*(c.denominator for row in self.basis for c in row))
        return L, scaled_rows(map(nonzero_row, self.basis), L)

    def contains(self, v: Vec) -> bool:
        return self.coords(v) is not None

    def reduce(self, v: Vec) -> Vec:
        """Residue of v after elimination against the canonical basis."""
        self._check(v)
        return vec_sub(v, self.element([v[p] for p in self.pivots]))

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of v in the canonical basis, or None if v is outside.

        They are the entries of v at the pivots; v is then checked to be
        their combination, in ints: L*e*v == sum_k (e*v)[p_k] * L*row_k.
        """
        self._check(v)
        w, e = integral(v)
        L, rows = self.integer_basis
        c = [w[p] for p in self.pivots]
        if any(L * x != y for x, y in zip(w, combine(c, rows, self.ambient))):
            return None
        return unscaled(c, e)

    def element(self, coords) -> Vec:
        """The vector with the given coordinates in the canonical basis; inverse of `coords`."""
        if len(coords) != self.dim:
            raise DimensionMismatch(f"{len(coords)} coordinates in a subspace of dimension {self.dim}")
        w, e = integral(coords)
        L, rows = self.integer_basis
        return unscaled(combine(w, rows, self.ambient), e * L)

    def _check(self, v: Vec) -> None:
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient {self.ambient}")

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
    """Canonical subspace spanned by the given vectors (of Fractions or ints).

    Fraction-free: each vector is scaled to a primitive integer row and
    reduced into a growing echelon basis by cross-multiplication as it is
    read; the rows are then cleared above their pivots the same way, and
    one `rref` divides each by its pivot.  Once the basis is full, the
    rest of a list or tuple is only checked for length, and any other
    iterable (a product generator) is not read further.
    """
    whole = isinstance(vectors, (list, tuple))
    rows: list[list[int]] = []  # each is 0 at the pivots of the rows before it
    pivots: list[int] = []
    for v in vectors:
        if len(v) != ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient {ambient}")
        if len(rows) == ambient:
            continue
        w, _ = integral(v)
        for p, row in zip(pivots, rows):
            c = w[p]
            if c:
                a = row[p]
                w = [a * x - c * y for x, y in zip(w, row)]
        lead = next((j for j, c in enumerate(w) if c), None)
        if lead is not None:
            rows.append(_primitive(w))
            pivots.append(lead)
            if len(rows) == ambient and not whole:
                break
    for k in range(len(rows) - 1, 0, -1):  # row k is 0 at every other pivot once the rows after it are done
        p, row = pivots[k], rows[k]
        a = row[p]
        for i in range(k):
            c = rows[i][p]
            if c:
                rows[i] = _primitive([a * x - c * y for x, y in zip(rows[i], row)])
    return Subspace(ambient, rref(tuple(map(tuple, rows))))


def _primitive(w: list[int]) -> list[int]:
    g = gcd(*w)
    return w if g == 1 else [x // g for x in w]


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
    sols = kernel(transpose(a.basis + tuple(vec_scale(-ONE, row) for row in b.basis)))
    return span([a.element(s[: a.dim]) for s in sols.basis], a.ambient)


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the right null space {v : m v = 0}."""
    if not m:
        raise DimensionMismatch("kernel of a matrix with no columns is ambiguous; pass a 0 x n matrix")
    ncols = len(m[0])
    r = span(m, ncols)
    vectors = []
    free = [j for j in range(ncols) if j not in r.pivots]
    for j in free:
        v = [ZERO] * ncols
        v[j] = ONE
        for row, p in zip(r.basis, r.pivots):
            v[p] = -row[j]
        vectors.append(tuple(v))
    return span(vectors, ncols)


def complement_constants(I: Subspace, t, order: int):
    """(comp, t'): the standard basis vectors at I's non-pivot columns, and the constants of the quotient by I on them.

    t has `order` indices, the last one over coordinates; t' keeps the
    complement indices and reduces each coefficient vector by I.
    """
    comp = [j for j in range(I.ambient) if j not in I.pivots]

    def part(x, level: int):
        if level == 1:
            reduced = I.reduce(x)
            return tuple(reduced[j] for j in comp)
        return tuple(part(x[i], level - 1) for i in comp)

    return comp, part(t, order)


def block_sum(a, b, n1: int, n2: int, order: int):
    """The tensor of `order` indices on Q^(n1+n2) that is a on the first n1 coordinates, b on the last n2, zero elsewhere."""

    def part(x, y, level: int):
        if level == 1:
            return (x if x is not None else (ZERO,) * n1) + (y if y is not None else (ZERO,) * n2)
        return tuple(part(None if x is None else x[i], None, level - 1) for i in range(n1)) + tuple(
            part(None, None if y is None else y[i], level - 1) for i in range(n2)
        )

    return part(a, b, order)


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
    Each round spans the space together with what `grow` yields, until a
    round adds nothing or the space is full; `grow` is never called on a
    full space, and a round stops reading `grow` once the space fills.
    The result is canonical, so it does not depend on the order in which
    `grow` yields its vectors.
    """
    space = start
    while not space.is_full():
        grown = span(chain(space.basis, grow(space)), space.ambient)
        if grown.dim == space.dim:
            break
        space = grown
    return space


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
    ints, _ = integral(cs)

    def value(p: int, q: int) -> int:  # q^deg * f(p/q), by Horner in ints
        acc, qk = 0, 1
        for c in ints:
            acc, qk = acc * p + c * qk, qk * q
        return acc

    qs = _divisors(ints[0])
    for p in _divisors(ints[-1]):
        for q in qs:
            if gcd(p, q) == 1:
                roots.extend(Fraction(x, q) for x in (p, -p) if value(x, q) == 0)
    return tuple(sorted(roots))


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
