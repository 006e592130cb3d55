import random
from fractions import Fraction

import pytest

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
