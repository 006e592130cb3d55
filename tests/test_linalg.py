import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bolalg.catalog import catalog
from bolalg.core import prod_span, tri_span
from bolalg.linalg import (
    Subspace,
    basis_vec,
    charpoly,
    closure,
    derived_chain,
    failures,
    full_space,
    identity,
    intersect,
    kernel,
    kernel_of,
    mat,
    mat_vec,
    rank,
    rational_roots,
    rref,
    span,
    subspace_sum,
    vec,
    zero_space,
)
from bolalg.errors import DimensionMismatch

F = Fraction


def test_rref_identity_fixed_point():
    m = identity(3)
    assert rref(m) == m


def test_rref_hand_example():
    # Gaussian elimination by hand: R1/2 -> [1,2]; R2 - R1 -> 0
    m = mat([[2, 4], [1, 2]])
    assert rref(m) == mat([[1, 2], [0, 0]])


def test_rref_zero_matrix():
    m = mat([[0, 0], [0, 0]])
    assert rref(m) == m


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        m = mat(rows)
        assert rref(rref(m)) == rref(m)


def test_kernel_identity_is_zero():
    assert kernel(identity(3)) == zero_space(3)


def test_kernel_zero_matrix_is_full():
    assert kernel(mat([[0, 0, 0], [0, 0, 0]])) == full_space(3)


def test_kernel_single_equation():
    # x + 2y = 0 has solution line through (-2, 1)
    k = kernel(mat([[1, 2]]))
    assert k == span([vec([-2, 1])], 2)
    assert k.dim == 1


def test_kernel_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        m = mat(rows)
        r = len([row for row in rref(m) if any(c != 0 for c in row)])
        assert kernel(m).dim == 5 - r


def test_span_empty_and_full():
    assert span([], 3) == zero_space(3)
    assert span([vec([1, 0]), vec([0, 1])], 2) == full_space(2)


def test_span_dependent_vectors():
    s = span([vec([2, 4]), vec([1, 2])], 2)
    assert s == span([vec([1, 2])], 2)
    assert s.dim == 1


def test_span_canonical_under_permutation_and_scaling():
    rng = random.Random(3)
    for _ in range(20):
        vs = [tuple(F(rng.randint(-3, 3)) for _ in range(4)) for _ in range(3)]
        s1 = span(vs, 4)
        shuffled = vs[::-1]
        scalars = [F(rng.choice([1, 2, -1, 3])) for _ in shuffled]
        scaled = [tuple(s * c for c in v) for s, v in zip(scalars, shuffled)]
        assert span(scaled, 4) == s1


def test_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span([vec([1, 0, 0])], 2)


def test_sum_with_zero_and_self_intersection():
    s = span([vec([1, 2, 0])], 3)
    assert subspace_sum(s, zero_space(3)) == s
    assert intersect(s, s) == s


def test_sum_and_intersection_of_axes():
    x = span([vec([1, 0])], 2)
    y = span([vec([0, 1])], 2)
    assert subspace_sum(x, y) == full_space(2)
    assert intersect(x, y) == zero_space(2)


def test_dimension_law():
    rng = random.Random(23)
    for _ in range(30):
        a = span([tuple(F(rng.randint(-2, 2)) for _ in range(4)) for _ in range(2)], 4)
        b = span([tuple(F(rng.randint(-2, 2)) for _ in range(4)) for _ in range(2)], 4)
        assert a.dim + b.dim == subspace_sum(a, b).dim + intersect(a, b).dim


def test_contains_and_coords():
    s = span([vec([1, 0, 1]), vec([0, 1, 1])], 3)
    assert s.contains(vec([1, 1, 2]))
    assert not s.contains(vec([0, 0, 1]))
    assert s.coords(vec([1, 1, 2])) == (F(1), F(1))
    assert s.coords(vec([0, 0, 1])) is None


def test_element_inverts_coords():
    s = span([vec([1, 0, 1]), vec([0, 1, 1])], 3)
    for v in (vec([1, 1, 2]), vec([2, -3, -1]), vec([0, 0, 0])):
        assert s.element(s.coords(v)) == v
    assert zero_space(2).element(()) == vec([0, 0])


@pytest.mark.parametrize("v", [(1, 2, 0, 5), (1, 2), ()])
def test_coords_reduce_and_contains_reject_a_vector_of_the_wrong_length(v):
    s = span([vec([1, 0, 0]), vec([0, 1, 0])], 3)
    for method in (s.coords, s.reduce, s.contains):
        with pytest.raises(DimensionMismatch):
            method(vec(v))


@pytest.mark.parametrize("coords", [(1, 2, 3), (1,), ()])
def test_element_rejects_the_wrong_number_of_coordinates(coords):
    with pytest.raises(DimensionMismatch):
        span([vec([1, 0, 0]), vec([0, 1, 0])], 3).element(vec(coords))


def test_kernel_of_drops_zero_rows():
    assert kernel_of(mat([[0, 0, 0], [1, 0, -1], [0, 0, 0]]), 3) == kernel(mat([[1, 0, -1]]))
    assert kernel_of(mat([[0, 0], [0, 0]]), 2) == full_space(2)
    assert kernel_of((), 2) == full_space(2)


def test_charpoly_known_matrix():
    # det(xI - [[2,1],[0,3]]) = x^2 - 5x + 6
    m = mat([[2, 1], [0, 3]])
    assert charpoly(m) == (F(1), F(-5), F(6))


def test_rational_roots():
    # x^2 - 5x + 6 = (x-2)(x-3)
    assert rational_roots((F(1), F(-5), F(6))) == (F(2), F(3))
    # 2x^2 - x = x(2x - 1)
    assert rational_roots((F(2), F(-1), F(0))) == (F(0), F(1, 2))
    # x^2 + 1 has no rational roots
    assert rational_roots((F(1), F(0), F(1))) == ()


def test_subspace_equality_is_canonical():
    a = span([vec([1, 1]), vec([1, -1])], 2)
    assert a == full_space(2)
    assert isinstance(a, Subspace)


@pytest.mark.parametrize("start,krylov", [(0, 4), (2, 2), (3, 1)])
def test_closure_under_a_jordan_block_is_the_krylov_space(start, krylov):
    # One nilpotent Jordan block on the first four of five coordinates:
    # e_0 -> e_1 -> e_2 -> e_3 -> 0; e_4 is sent to 0 and never reached.
    J = mat([[1 if r == c + 1 and c < 3 else 0 for c in range(5)] for r in range(5)])
    want = Subspace(5, tuple(basis_vec(i, 5) for i in range(start, start + krylov)))
    got = closure(span([basis_vec(start, 5)], 5), lambda s: (mat_vec(J, v) for v in s.basis))
    assert got == want
    reverse = closure(span([basis_vec(start, 5)], 5), lambda s: [mat_vec(J, v) for v in s.basis][::-1])
    assert reverse == want


def test_closure_of_a_closed_space_is_itself():
    s = span([vec([1, 2, 0])], 3)
    assert closure(s, lambda space: space.basis) == s


def _bol_step(B):
    full = full_space(B.n)
    return lambda s: subspace_sum(prod_span(B, s, s), tri_span(B, s, s, full))


def test_derived_chain_stalls_on_so3bol():
    B = catalog("so3bol")
    chain, stabilized_at, solvable = derived_chain(full_space(3), _bol_step(B))
    assert chain == (full_space(3),)
    assert stabilized_at == 0 and not solvable


def test_derived_chain_reaches_zero_on_heis3bol():
    # x*y = z spans B*B, and every ternary product [w,[u,v]] vanishes.
    B = catalog("heis3bol")
    chain, stabilized_at, solvable = derived_chain(full_space(3), _bol_step(B))
    assert chain == (full_space(3), Subspace(3, (vec([0, 0, 1]),)), zero_space(3))
    assert stabilized_at == 2 and solvable


def test_failures_yields_nonzero_defects_in_sweep_order():
    tuples = [(i, j) for i in range(3) for j in range(3)]
    got = list(failures(tuples, lambda i, j: vec([i - j, 0])))
    assert got == [((i, j), vec([i - j, 0])) for i, j in tuples if i != j]


def test_failures_is_lazy():
    seen = []

    def defect(i):
        seen.append(i)
        if i > 2:
            raise AssertionError("swept past the first failure")
        return vec([1 if i == 2 else 0])

    sweep = failures([(i,) for i in range(6)], defect)
    assert seen == []
    assert next(sweep) == ((2,), vec([1]))
    assert seen == [0, 1, 2]


def _random_vectors(rng, count, n):
    return [tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(5))
def test_span_is_independent_of_input_order(seed):
    rng = random.Random(seed)
    vs = _random_vectors(rng, 3, 5)
    vs += [tuple(a - 2 * b for a, b in zip(vs[0], vs[1])), vec([0] * 5)]  # dependent and zero rows
    want = span(vs, 5)
    assert want.dim == 3
    for _ in range(6):
        rng.shuffle(vs)
        assert span(vs, 5) == want
        assert span(tuple(vs), 5) == want
        assert span(iter(vs), 5) == want


@pytest.mark.parametrize("container", [list, tuple])
def test_span_checks_every_length_of_a_list_or_tuple(container):
    vs = container([vec([1, 0]), vec([0, 1]), vec([1, 2, 3])])  # the bad vector comes after a full basis
    with pytest.raises(DimensionMismatch):
        span(vs, 2)


def test_span_stops_reading_an_iterator_once_full():
    read = []

    def vectors():
        for v in (vec([1, 1, 0]), vec([2, 2, 0]), vec([0, 1, 0]), vec([0, 0, 3]), vec([1, 2, 3, 4])):
            read.append(v)
            yield v

    assert span(vectors(), 3) == full_space(3)
    assert len(read) == 4


def test_closure_never_grows_a_full_space():
    seen = []

    def grow(space):
        assert not space.is_full()
        seen.append(space.dim)
        return (mat_vec(shift, v) for v in space.basis)

    shift = mat([[1 if r == c + 1 else 0 for c in range(4)] for r in range(4)])  # e_i -> e_{i+1}, e_3 -> 0
    assert closure(span([basis_vec(0, 4)], 4), grow) == full_space(4)
    assert seen == [1, 2, 3]
    assert closure(full_space(3), grow) == full_space(3)
    assert seen == [1, 2, 3]


def _to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(c.numerator, c.denominator) for row in rows for c in row])


def _from_sympy(v):
    return tuple(F(int(x.p), int(x.q)) for x in v)


rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 5))
    # Sparse entries make rank-deficient matrices common.
    entry = st.one_of(st.just(F(0)), rational)
    return tuple(tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)), ncols


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_span_rank_and_kernel_agree_with_sympy(case):
    m, ncols = case
    M = _to_sympy(m, ncols)
    reduced, pivots = M.rref()
    want_rows = tuple(_from_sympy(reduced.row(i)) for i in range(len(pivots)))
    assert span(m, ncols).basis == want_rows
    assert rank(m) == M.rank() == len(pivots)
    null = [_from_sympy(v) for v in M.nullspace()]
    assert kernel(m) == span(null, ncols)
    assert kernel(m).dim == ncols - len(pivots)


# Denominators that share some prime factors and not others, numerators up to 10^12.
mixed_denominators = st.builds(
    F, st.integers(-(10**12), 10**12), st.sampled_from([1, 2, 3, 7, 12, 49, 97, 1024, 3**9, 10**6 + 3, 2**31 - 1])
)


@st.composite
def large_rational_matrices(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), mixed_denominators)
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1:  # a combination of two rows with large coefficients, so the rank drops
        a, b = draw(mixed_denominators), draw(mixed_denominators)
        m.append([a * x + b * y for x, y in zip(m[0], m[1])])
    return tuple(map(tuple, m)), ncols


@settings(max_examples=120, deadline=None)
@given(large_rational_matrices())
def test_fraction_free_span_agrees_with_sympy_on_large_mixed_denominators(case):
    m, ncols = case
    reduced, pivots = _to_sympy(m, ncols).rref()
    S = span(m, ncols)
    assert S.basis == tuple(_from_sympy(reduced.row(i)) for i in range(len(pivots)))
    assert S.pivots == tuple(pivots)
    for row in m:
        assert S.element(S.coords(row)) == row


@st.composite
def square_rational_matrices(draw):
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(F(0)), rational)
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


def _sympy_rational_roots(coeffs):
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], sympy.Symbol("x"), domain="QQ")
    return tuple(sorted(F(int(r.p), int(r.q)) for r in poly.ground_roots()))


@settings(max_examples=150, deadline=None)
@given(square_rational_matrices())
def test_charpoly_and_its_rational_roots_agree_with_sympy(m):
    want = _to_sympy(m, len(m)).charpoly().all_coeffs()
    got = charpoly(m)
    assert got == tuple(_from_sympy(want))
    assert rational_roots(got) == _sympy_rational_roots(got)


@st.composite
def polynomials_with_rational_roots(draw):
    """prod (q x - p) over drawn roots p/q, times a drawn rational polynomial; leading term first."""
    roots = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=4))
    rest = draw(st.lists(rational, min_size=1, max_size=3).filter(lambda cs: cs[0] != 0))
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in rest], x, domain="QQ")
    for r in roots:
        poly *= sympy.Poly([r.denominator, -r.numerator], x, domain="QQ")
    leading_zeros = draw(st.integers(0, 1))
    return (F(0),) * leading_zeros + tuple(_from_sympy(poly.all_coeffs())), roots


@settings(max_examples=150, deadline=None)
@given(polynomials_with_rational_roots())
def test_rational_roots_agree_with_sympy(case):
    coeffs, roots = case
    got = rational_roots(coeffs)
    assert got == _sympy_rational_roots(coeffs)
    assert set(roots) <= set(got)
    assert list(got) == sorted(set(got))
