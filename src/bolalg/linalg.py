"""Exact rational linear algebra with canonical subspaces.

Scalars are `fractions.Fraction`, vectors are tuples of scalars, matrices
are tuples of row tuples.  A `Subspace` stores its basis in reduced
row-echelon form, which makes subspace equality a plain tuple comparison.
`Record` is the immutable base of every value type in the package.
Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import gcd, isqrt, lcm

from bolalg.errors import DimensionMismatch, FatalInconsistency

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]
# A coefficient vector cut to its nonzero entries: ((index, coeff), ...).
Row = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to a Fraction (floats are rejected); a Fraction is returned as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(x)


def sized(items, n: int, name: str) -> tuple:
    items = tuple(items)
    if len(items) != n:
        raise DimensionMismatch(f"{name} has length {len(items)}, expected {n}")
    return items


def integer_tensors(n: int, *tensors) -> tuple:
    """(d, t_1, t_2, ...): each (rows, order) or (rows, order, s) as canonical integer rows, the one stored form of a structure tensor.

    t has `order` indices over range(n), the last over coordinates.
    `rows` maps a tuple of the other indices to its row: (k, c) pairs
    with c an int or any scalar `frac` accepts, standing for c/s (s = 1
    when it is left out), in any order, each k at most once; zeros are
    allowed and a missing tuple is a zero row.  Each row is stored as its
    nonzero (k, int) entries in index order, d is the lcm of the
    denominators of every c/s and t_k is scaled by d^k.  An int c/s is
    read in ints: rows of ints build no Fraction.
    """
    cuts, dens = [], set()
    for rows, order, *s in tensors:
        s = s[0] if s else 1
        cut = {idx: sorted((k, c) for k, c in ((k, c if type(c) is int else frac(c)) for k, c in row) if c) for idx, row in rows.items()}
        entries = [c for row in cut.values() for _, c in row]
        ints = all(type(c) is int for c in entries)
        cuts.append((cut, order, s, ints))
        if ints:  # the lcm of the s / gcd(c, s) is s / gcd(s, every c)
            dens.add(s // gcd(s, *entries))
        else:  # c/s = p/(q*s) has denominator q*s / gcd(p, q*s)
            dens.update(c.denominator * s // gcd(c.numerator, c.denominator * s) for c in entries)
    d = lcm(*dens)

    def nest(cut: dict, idx: tuple, depth: int, w: int, s: int, same: bool) -> tuple:
        if depth:
            return tuple(nest(cut, (*idx, i), depth - 1, w, s, same) for i in range(n))
        if same:  # ints at the stored scale
            return tuple(cut.get(idx, ()))
        return tuple((k, c.numerator * w // (c.denominator * s)) for k, c in cut.get(idx, ()))

    return (d, *(nest(cut, (), order - 1, d**k, s, ints and d**k == s) for k, (cut, order, s, ints) in enumerate(cuts, start=1)))


def dense_rows(t, order: int, n: int, name: str) -> dict:
    """Rows for `integer_tensors` of a dense tensor, `order` indices over range(n); DimensionMismatch names a mis-sized index."""
    t = sized(t, n, name)
    if order == 1:
        return {(): enumerate(t)}
    return {(i, *idx): row for i, x in enumerate(t) for idx, row in dense_rows(x, order - 1, n, f"{name}[{i}]").items()}


def dense_tensor(rows, order: int, s: int, n: int):
    """The Fraction tensor, `order` indices over range(n), of integer rows at scale s; the inverse of `integer_tensors`."""
    if order > 1:
        return tuple(dense_tensor(x, order - 1, s, n) for x in rows)
    v = dict(rows)
    return tuple(Fraction(v[k], s) if k in v else ZERO for k in range(n))


def indexed_rows(t, depth: int) -> list:
    """(index tuple, row) for each nonzero row of stored rows t, `depth` indices above the rows, in index order."""
    if depth == 0:
        return [((), t)] if t else []
    return [((i, *idx), row) for i, x in enumerate(t) for idx, row in indexed_rows(x, depth - 1)]


def nonzero_row(v) -> Row:
    return tuple((k, c) for k, c in enumerate(v) if c)


def dense_row(row, n: int) -> list[int]:
    """The row given by its nonzero (index, value) entries, as a list of length n."""
    out = [0] * n
    for k, c in row:
        out[k] = c
    return out


def unscaled(v, s: int) -> Vec:
    """The integer vector v divided by s, as Fractions."""
    return tuple(Fraction(c, s) for c in v)


def integral(v) -> tuple[list[int], int]:
    """(w, e): e the lcm of the denominators of v and w = e*v, as ints; a vector of ints is copied with e = 1."""
    for c in v:
        if type(c) is not int:
            e = lcm(*(c.denominator for c in v))
            return [c.numerator * (e // c.denominator) for c in v], e
    return list(v), 1


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


def products(table, spaces, n: int):
    """t(u, v, ...) for every tuple (u, v, ...) of canonical basis vectors of the spaces, in basis order, lazily.

    `table` holds integer rows with one index per space (T or R of
    `BolAlgebra.integer_rows`).  Each product is a list of ints at the
    table's scale times the product of the spaces' L
    (`Subspace.integer_basis`).  The first index is contracted with each
    vector of the first space, and that partial table is shared by every
    later vector.
    """
    bases = [S.integer_basis[1] for S in spaces]
    last = len(spaces) - 1

    def partial(nodes, coeffs, depth):
        # sum_k coeffs[k] nodes[k], for nodes `depth` indices above their rows; rows cut to nonzero entries
        if coeffs == [1]:  # a unit vector selects its node
            return nodes[0]
        if depth == 0:
            return nonzero_row(combine(coeffs, nodes, n))
        return [partial([node[j] for node in nodes], coeffs, depth - 1) for j in range(n)]

    def walk(table, k):
        for u in bases[k]:
            nodes, coeffs = [table[i] for i, _ in u], [c for _, c in u]
            if k == last:
                yield combine(coeffs, nodes, n)
            else:
                yield from walk(partial(nodes, coeffs, last - k), k + 1)

    return walk(table, 0)


def slot_width(terms, entry: int, length: int) -> int:
    """The slot width W of the packed zero test for an identity, from the shape of its defect.

    A vector x of ints is packed into the one integer P = sum_q x_q 2^(Wq)
    (Kronecker substitution, `packed`).  Packing is linear, so an
    identity's defect at a tuple is packed by summing small multiples of
    packed rows, one big-int multiply-add in place of a loop over q;
    partial sums may carry between slots, only the final P matters.

    Bound: `terms` gives, for each term of a defect entry, its number f of
    factors.  Such a term is a sum over f - 1 indices, each running over
    the nonzero entries of one row (at most `length` of them), of a
    product of f integer entries of absolute value at most `entry`.  So
    every defect entry satisfies |x_q| <= b = sum_f length^(f-1) entry^f,
    and W = b.bit_length() + 1 gives |x_q| < 2^(W-1).

    Claim: if -2^(W-1) <= x_q < 2^(W-1) for every q, then x is the balanced
    base-2^W digit vector of P (`digits`); in particular P = 0 exactly
    when x = 0.  Proof: P = x_0 (mod 2^W), and x_0 is the one residue of P
    mod 2^W in [-2^(W-1), 2^(W-1)); (P - x_0) / 2^W = sum_q x_(q+1) 2^(Wq)
    is the packed rest of x, so induction on its length fixes every
    digit, and the digits of 0 are all 0.  One bit less is not enough:
    an entry 2^(W-2) <= x_q <= b is then read as x_q - 2^(W-1), and the
    carry it leaves cancels a digit -1 in the slot above.
    """
    return sum(length ** (f - 1) * entry**f for f in terms).bit_length() + 1


def packed(t, depth: int, W: int):
    """Stored rows t, `depth` indices above the rows, with each row of (q, c) packed into sum c 2^(Wq)."""
    if depth:
        return [packed(x, depth - 1, W) for x in t]
    return sum(c << W * q for q, c in t)


def digits(P: int, W: int, n: int) -> list[int]:
    """The n balanced base-2^W digits of P, lowest slot first: the inverse of `packed` (see `slot_width`)."""
    half, mask, out = 1 << (W - 1), (1 << W) - 1, []
    for _ in range(n):
        x = ((P + half) & mask) - half
        out.append(x)
        P = (P - x) >> W
    return out


def row_bounds(*tables) -> tuple[int, int]:
    """(entry, length) for `slot_width`: the largest absolute entry and row length of the stored rows (t, depth) given."""
    entry = length = 0
    for rows, depth in tables:
        for _ in range(depth - 1):
            rows = [row for node in rows for row in node]
        length = max([length, *map(len, rows)])
        entry = max([entry, *(abs(c) for row in rows for _, c in row)])
    return entry, length


def vec(coords) -> Vec:
    return tuple(frac(c) for c in coords)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def basis_vec(i: int, n: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vec(v: Vec) -> bool:
    return not any(v)


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


def rref(m: Mat) -> Mat:
    """Reduced row-echelon form, with as many rows as m (zero rows last); preserves the row space.

    Fraction-free up to the end: `_reduced` gives the reduced rows in
    ints, and each is divided once by its pivot.  A ragged matrix raises
    DimensionMismatch.
    """
    ncols = len(m[0]) if m else 0
    reduced = _reduced(m, ncols)
    if len(reduced) == ncols:  # full rank: the identity, which needs no new Fraction
        return identity(ncols) + zero_mat(len(m) - ncols, ncols)
    reduced = tuple(tuple(Fraction(x, row[p]) for x in row) for p, row in reduced)
    return reduced + zero_mat(len(m) - len(reduced), ncols)


def _reduced(m, ncols: int) -> list[tuple[int, list[int]]]:
    """(pivot, row) for each row of the reduced echelon form of m's row space, in pivot order, as primitive int rows.

    The rows are reduced to an echelon form in ints (`_echelon`), then
    cleared above their pivots by cross-multiplication; a row divided by
    its pivot entry is the row of the RREF.
    """
    rows, pivots, _ = _echelon(m, ncols)
    if len(rows) == ncols:  # full rank: the unit rows
        return [(p, [int(j == p) for j in range(ncols)]) for p in range(ncols)]
    for k in range(len(rows) - 1, 0, -1):  # row k is 0 at every other pivot once the rows after it are done
        p, row = pivots[k], rows[k]
        a = row[p]
        for i in range(k):
            c = rows[i][p]
            if c:
                rows[i] = _primitive([a * x - c * y for x, y in zip(rows[i], row)])
    return sorted(zip(pivots, rows))


def rank(m) -> int:
    """The rank of a matrix of Fractions or ints, from its echelon form in ints."""
    return len(_echelon(m, len(m[0]) if m else 0)[0])


class Record:
    """An immutable value whose fields are its class annotations, in order.

    Every value type of the package derives from it.  A subclass is built
    positionally or by keyword; a field with a class-level value defaults
    to it.  `==` compares the field tuples of two instances of one class,
    `hash` hashes that tuple and `repr` is `Name(field=value, ...)`.
    Assigning or deleting an attribute raises AttributeError.  Instances
    keep a `__dict__`, so `functools.cached_property` works on them.
    Nothing is generated per class, which keeps importing the package cheap.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Set one field at a time: filling `self.__dict__` directly would
        # give up the interpreter's inline attribute storage and slow every read.
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that is not one positional argument per field."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                if not hasattr(cls, field):
                    raise TypeError(f"{name}() missing argument {field!r}")
                values[field] = getattr(cls, field)
        return [values[field] for field in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Subspace(Record):
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
        return L, tuple(tuple((k, c.numerator * (L // c.denominator)) for k, c in nonzero_row(row)) for row in self.basis)

    def contains(self, v) -> bool:
        """Whether v, a vector of Fractions or of ints at any scale, lies in the subspace; tested in ints."""
        self._check(v)
        return self.pivot_coords(integral(v)[0]) is not None

    def reduce(self, v: Vec) -> Vec:
        """Residue of v after elimination against the canonical basis."""
        self._check(v)
        return vec_sub(v, self.element([v[p] for p in self.pivots]))

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of v in the canonical basis, or None if v is outside (see `pivot_coords`)."""
        self._check(v)
        w, e = integral(v)
        c = self.pivot_coords(w)
        return None if c is None else unscaled(c, e)

    def pivot_coords(self, w: list[int]) -> list[int] | None:
        """The coordinates of an int vector w in the canonical basis, as ints at w's scale, or None if w is outside.

        They are the entries of w at the pivots; w is then checked to be
        their combination, in ints: L*w == sum_k w[p_k] * L*row_k.
        """
        L, rows = self.integer_basis
        c = [w[p] for p in self.pivots]
        if any(L * x != y for x, y in zip(w, combine(c, rows, self.ambient))):
            return None
        return c

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

    def __le__(self, other: Subspace) -> bool:
        """Containment: every basis vector of self lies in other."""
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions disagree")
        return all(other.contains(row) for row in self.basis)


def zero_space(ambient: int) -> Subspace:
    return Subspace(ambient, ())


def full_space(ambient: int) -> Subspace:
    return Subspace(ambient, identity(ambient))


def span(vectors, ambient: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (of Fractions or ints).

    Fraction-free: `_echelon` reduces the vectors to an integer echelon
    basis as they are read, and one `rref` of that basis gives the
    canonical one.  Once the basis is full, the rest of a list or tuple
    is only checked for length, and any other iterable (a product
    generator) is not read further.
    """
    rows, _, _ = _echelon(vectors, ambient)
    return Subspace(ambient, rref(rows))


def independent(vectors, ambient: int) -> tuple[int, ...]:
    """The positions of the vectors that lie outside the span of the vectors before them.

    Those vectors are a basis of the span of all of them.
    """
    return tuple(_echelon(vectors, ambient)[2])


def _echelon(vectors, ambient: int) -> tuple[list[list[int]], list[int], list[int]]:
    """(rows, pivots, kept): a fraction-free echelon basis of the vectors' span, in the order it was found.

    Each vector is scaled to ints and reduced against the rows so far by
    cross-multiplication; what is left, if nonzero, is kept as a primitive
    row, which is 0 at the pivots of the rows before it; a vector equal to
    one read before, or to its negative, is skipped.  `kept` holds the
    positions of the vectors that gave the rows.  Every length is checked
    in a list or tuple; any other iterable is not read past a full basis.
    """
    whole = isinstance(vectors, (list, tuple))
    rows: list[list[int]] = []
    pivots: list[int] = []
    kept: list[int] = []
    seen = set()  # the scaled vectors read so far and their negatives: a product table antisymmetric in two slots repeats each one
    for pos, v in enumerate(vectors):
        if len(v) != ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient {ambient}")
        if len(rows) == ambient:
            continue
        w, _ = integral(v)
        key = tuple(w)
        if key in seen:
            continue
        seen.add(key)
        seen.add(tuple([-x for x in w]))
        for p, row in zip(pivots, rows):
            c = w[p]
            if c:
                a = row[p]
                w = [a * x - c * y for x, y in zip(w, row)]
        lead = next((j for j, c in enumerate(w) if c), None)
        if lead is not None:
            rows.append(_primitive(w))
            pivots.append(lead)
            kept.append(pos)
            if len(rows) == ambient and not whole:
                break
    return rows, pivots, kept


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
    # Solve sum_i x_i a_i - sum_j y_j b_j = 0 in ints; columns are the integer basis vectors.
    n = a.ambient
    (_, ra), (_, rb) = a.integer_basis, b.integer_basis
    cols = [dense_row(row, n) for row in ra] + [dense_row(((k, -c) for k, c in row), n) for row in rb]
    sols = kernel([list(r) for r in zip(*cols)], a.dim + b.dim)
    xs = [[(k, c) for k, c in s if k < a.dim] for s in sols.integer_basis[1]]  # the a-parts of the solutions
    return span([combine([c for _, c in x], [ra[k] for k, _ in x], n) for x in xs], n)


def kernel(m, ncols: int) -> Subspace:
    """Canonical basis of the right null space {v : m v = 0} of a matrix of Fractions or ints with ncols columns.

    From the reduced rows of m in ints (`_reduced`): each free column j
    gives the kernel vector A e_j - sum_k (A / a_k) row_k[j] e_(p_k), with
    a_k the pivot entry of row k and A the lcm of the a_k.  A matrix
    with no rows, or with only zero rows, has the full space as its
    kernel; a row of another length raises DimensionMismatch.
    """
    reduced = _reduced(m, ncols)
    pivots = {p for p, _ in reduced}
    A = lcm(*(row[p] for p, row in reduced))
    vectors = []
    for j in range(ncols):
        if j not in pivots:
            v = [0] * ncols
            v[j] = A
            for p, row in reduced:
                v[p] = -row[j] * (A // row[p])
            vectors.append(v)
    return span(vectors, ncols)


def complement_constants(I: Subspace, t, order: int, s: int) -> tuple[list[int], dict, int]:
    """(comp, rows, scale): the standard basis vectors at I's non-pivot columns, and the rows of the quotient by I on them.

    t holds stored rows at scale s with `order` indices, the last one
    over coordinates (a part of `integer_tensors`); `rows`, keyed by
    positions in comp for `integer_tensors`, keeps the complement indices
    and reduces each row by I, in ints at `scale` = L*s, L from
    `I.integer_basis`: `(rows, order, scale)` is a tensor for `integer_tensors`.
    """
    comp = [j for j in range(I.ambient) if j not in I.pivots]
    L, basis = I.integer_basis
    rows = {}
    for idx in product(range(len(comp)), repeat=order - 1):
        v = t
        for a in idx:
            v = v[comp[a]]
        if v:  # L*s times the residue of v is L*v - sum_k v[p_k] L*row_k, as row_k is 1 at p_k
            v = dict(v)
            drop = combine([v.get(p, 0) for p in I.pivots], basis, I.ambient)
            rows[idx] = [(a, L * v.get(j, 0) - drop[j]) for a, j in enumerate(comp)]
    return comp, rows, L * s


def block_sum(a, b, n1: int, order: int) -> dict:
    """The rows of the tensor of `order` indices that is a on the first n1 coordinates, b on the rest and zero elsewhere.

    a and b are (s, t): stored rows t at scale s (a part of
    `integer_tensors`); the result is keyed for `integer_tensors`.
    """
    rows = {}
    for shift, (s, t) in ((0, a), (n1, b)):
        for idx, row in indexed_rows(t, order - 1):
            rows[tuple(i + shift for i in idx)] = [(k + shift, Fraction(c, s)) for k, c in row]
    return rows


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


class SeriesResult(Record):
    """A derived series: its members, the index of the last one, and whether that one is zero."""

    chain: tuple[Subspace, ...]
    stabilized_at: int
    solvable: bool


def derived_chain(start: Subspace, step) -> SeriesResult:
    """The chain start, step(start), step(step(start)), ... run until it stabilizes.

    The chain stops at the first repeated space or at zero; the series is
    solvable when its last member is zero.
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
    return SeriesResult(tuple(chain), len(chain) - 1, chain[-1].is_zero())


def failures(tuples, defect):
    """Yield (t, defect(*t)) for each tuple t whose defect is nonzero, in sweep order.

    A defect is a vector or a packed int (`packed`); the sweep is lazy, so
    `next(failures(...), None)` stops at the first witness.
    """
    for t in tuples:
        d = defect(*t)
        if d if type(d) is int else any(d):
            yield t, d


def charpoly(m: Mat) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(xI - m) via Faddeev-LeVerrier.

    Returns monic coefficients (c_0, ..., c_n) for c_0 x^n + ... + c_n with c_0 = 1.
    Summed in ints: with d the lcm of m's denominators, A = d*m is integral,
    so are its A_k and c_k (the division by k is exact), and c_k(m) = c_k(A)/d^k.
    """
    n = len(m)
    flat, d = integral([c for row in m for c in row])
    a = [flat[i * n : (i + 1) * n] for i in range(n)]
    coeffs = [ONE]
    ak = a
    for k in range(1, n + 1):
        ck = -sum(ak[i][i] for i in range(n)) // k
        coeffs.append(Fraction(ck, d**k))
        if k < n:
            # A_{k+1} = A (A_k + c_k I)
            rows = [nonzero_row(r) for r in ak]
            ak = [[x + ck * y for x, y in zip(combine(row, rows, n), row)] for row in a]
    return tuple(coeffs)


def rational_roots(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """All rational roots of the polynomial with the given coefficients, sorted.

    Coefficients are ordered from the leading term down, as produced by
    `charpoly`.  Exact, no multiplicities.  The square-free part g of the
    integer-cleared polynomial f has the same roots.  A root p/q of g has
    q | g_0 and p | g_n, so |p|, |q| <= H = max(|g_0|, |g_n|), and at a prime l
    not dividing g_0 it is a simple root of g mod l (`_good_prime`); its
    lift mod l^k > 2H^2 (`_hensel_lift`) determines p/q (`_reconstruct`).
    A candidate is kept only if f(p/q) = 0 exactly.
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
    f, _ = integral(cs)
    g = _square_free(f)
    if len(g) > 1:
        h = max(abs(g[0]), abs(g[-1]))
        ell, simple = _good_prime(g)
        for r in simple:
            x = _reconstruct(*_hensel_lift(g, r, ell, 2 * h * h), h)
            if x is not None and _value(f, x.numerator, x.denominator) == 0:
                roots.append(x)
    return tuple(sorted(roots))


# The integer polynomials below are coefficient lists, leading term first.


def _value(f: list[int], p: int, q: int) -> int:
    """q^deg * f(p/q), by Horner in ints."""
    acc, qk = 0, 1
    for c in f:
        acc, qk = acc * p + c * qk, qk * q
    return acc


def _derivative(f: list[int]) -> list[int]:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _primitive_poly(f: list[int]) -> list[int]:
    """f divided by the gcd of its coefficients, with a positive leading coefficient."""
    c = gcd(*f) if f[0] > 0 else -gcd(*f)
    return [x // c for x in f]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lc(b)^k * a on division by b, without leading zeros: [] when b divides a."""
    while len(a) >= len(b):
        c = a[0]
        a = [b[0] * x - (c * b[i] if i < len(b) else 0) for i, x in enumerate(a)][1:]
        while a and a[0] == 0:
            a = a[1:]
    return a


def _square_free(f: list[int]) -> list[int]:
    """The primitive square-free part f / gcd(f, f') of a nonzero f."""
    f = _primitive_poly(f)
    if len(f) < 3:
        return f
    a, b = f, _primitive_poly(_derivative(f))
    while b:  # primitive remainder sequence: a ends as the primitive gcd(f, f')
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive_poly(b)
    # f is primitive, so by Gauss's lemma its quotient by the primitive gcd is integral
    q = []
    while len(f) >= len(a):
        c = f[0] // a[0]
        q.append(c)
        f = [x - c * a[i] if i < len(a) else x for i, x in enumerate(f)][1:]
    return q


def _good_prime(g: list[int]) -> tuple[int, list[int]]:
    """The first odd prime l not dividing g_0 at which every root of g mod l is simple, and those roots.

    Only primes dividing g_0 * disc(g) can fail, and disc(g) != 0 since g is
    square-free.  By Mahler's bound |disc(g)| <= n^n ||g||_2^(2n-2), so fewer
    than `tries` odd primes fail; the search raises rather than go past them.
    """
    n = len(g) - 1
    deriv = _derivative(g)
    tries = (abs(g[0]) * n**n * sum(c * c for c in g) ** (n - 1)).bit_length() + 1
    ell = 1
    for _ in range(tries):
        ell = _next_odd_prime(ell)
        if g[0] % ell == 0:
            continue
        roots = [r for r in range(ell) if _value(g, r, 1) % ell == 0]
        if all(_value(deriv, r, 1) % ell for r in roots):
            return ell, roots
    raise FatalInconsistency(f"none of the first {tries} odd primes is good for a square-free polynomial")


def _next_odd_prime(m: int) -> int:
    m += 2 if m % 2 else 1
    while any(m % d == 0 for d in range(3, isqrt(m) + 1, 2)):
        m += 2
    return m


def _hensel_lift(g: list[int], r: int, ell: int, bound: int) -> tuple[int, int]:
    """(x, l^k) with x = r mod l, g(x) = 0 mod l^k and l^k the least power of l above `bound`.

    r is a simple root of g mod l, so each step x -> x - g(x)/g'(r) gains one power of l.
    """
    inverse = pow(_value(_derivative(g), r, 1), -1, ell)
    x, modulus = r, ell
    while modulus <= bound:
        modulus *= ell
        x = (x - _value(g, x, 1) * inverse) % modulus
    return x, modulus


def _reconstruct(x: int, modulus: int, h: int) -> Fraction | None:
    """The p/q = x mod `modulus` with |p|, |q| <= h, if the extended Euclidean algorithm finds one.

    When modulus > 2h^2 there is at most one such fraction, and it is found.
    """
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > h:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if 0 < abs(t1) <= h else None
