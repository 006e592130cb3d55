"""Differential tests of the integer-row Lie layer, pair algebra and linear algebra.

`LieAlgebra.bracket`, `jacobi_check`, `killing_gram`, `BolAlgebra.left_op`,
`induced_bracket`, `envelope`, `span` and `Subspace.coords` sum in ints
from the structure rows.  Here they are compared with the dense Fraction
references of tests/support.py on random integer tensors, tensors with
denominators (d > 1), broken Lie constants, and every catalog entry in
its natural basis and under a rational and an integral basis change.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from support import (
    dense_binary,
    dense_ternary,
    random_algebra,
    rational_basis,
    reference_bracket,
    reference_coords,
    reference_envelope,
    reference_fraction_span,
    reference_induced_bracket,
    reference_jacobi_check,
    reference_killing_gram,
    reference_left_op,
    transport,
    unimodular_basis,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.envelope import PairEndo, envelope, induced_bracket
from bolalg.lie import LieAlgebra, jacobi_check, killing_gram
from bolalg.linalg import span

F = Fraction
BASES = ("natural", "rational", "unimodular")


def basis_change(name, basis):
    B = catalog(name)
    if basis == "natural" or B.n == 0:
        return B
    rng = random.Random(f"{name}-{basis}")
    S = rational_basis(rng, B.n) if basis == "rational" else unimodular_basis(rng, B.n)
    return transport(B, S)


def rand_vec(rng, n, dens=(1, 2, 3, 7)):
    return tuple(F(rng.randint(-4, 4), rng.choice(dens)) if rng.random() < 0.8 else F(0) for _ in range(n))


def random_lie(rng, m, dens, antisymmetric=False):
    """Random constants, not in general a Lie algebra; with `antisymmetric`, C[j][i] = -C[i][j] and C[i][i] = 0."""
    C = [[[F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    if antisymmetric:
        for i in range(m):
            C[i][i] = [F(0)] * m
            for j in range(i):
                C[i][j] = [-c for c in C[j][i]]
    return LieAlgebra.from_constants(m, C)


def assert_lie_layer_matches(L, rng):
    for _ in range(4):
        x, y = rand_vec(rng, L.m), rand_vec(rng, L.m)
        assert L.bracket(x, y) == reference_bracket(L, x, y)
    assert jacobi_check(L) == reference_jacobi_check(L)
    assert killing_gram(L) == reference_killing_gram(L)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dens", [(1,), (1, 2, 5)], ids=["int", "d>1"])
@pytest.mark.parametrize("antisymmetric", [False, True], ids=["any", "antisym"])
def test_lie_layer_matches_reference_on_random_constants(seed, dens, antisymmetric):
    rng = random.Random(seed)
    L = random_lie(rng, rng.randint(1, 5), dens, antisymmetric)
    assert_lie_layer_matches(L, rng)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", BASES)
def test_lie_layer_matches_reference_on_catalog_envelopes(name, basis):
    G = envelope(basis_change(name, basis)).lie
    assert jacobi_check(G).ok
    assert_lie_layer_matches(G, random.Random(name))


@pytest.mark.parametrize("name", ["sl2bol", "lts_sl2", "mixed"])
@pytest.mark.parametrize("delta", [F(1, 3), F(-5, 2)])
def test_broken_lie_constants_give_the_reference_witness_and_defect(name, delta):
    G = envelope(basis_change(name, "rational")).lie
    rng = random.Random(f"{name}{delta}")
    for _ in range(3):
        i, j, k = rng.sample(range(G.m), 2) + [rng.randrange(G.m)]
        C = [[list(row) for row in plane] for plane in G.C]
        C[i][j][k] += delta
        C[j][i][k] -= delta
        bad = LieAlgebra.from_constants(G.m, C)
        rep = jacobi_check(bad)
        assert rep == reference_jacobi_check(bad)
        assert not rep.ok and rep.antisymmetric and rep.defect is not None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dens", [(1,), (1, 2, 3)], ids=["int", "d>1"])
def test_bol_products_and_induced_bracket_match_reference(seed, dens):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    B = random_algebra(rng, n, dens, (1, 5) if len(dens) > 1 else (1,), density=0.7)
    for _ in range(3):
        x, y, z = (rand_vec(rng, n) for _ in range(3))
        assert B.binary(x, y) == dense_binary(B, x, y)
        assert B.ternary(x, y, z) == dense_ternary(B, x, y, z)
        assert B.left_op(x, y) == reference_left_op(B, x, y)
        P = PairEndo.unflatten(rand_vec(rng, n * n + n), n)
        Q = PairEndo.unflatten(rand_vec(rng, n * n + n, (1, 4, 9)), n)
        assert induced_bracket(B, P, Q) == reference_induced_bracket(B, P, Q)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", BASES)
def test_envelope_matches_dense_reference_field_by_field(name, basis):
    B = basis_change(name, basis)
    E = envelope(B)
    h, Dtau, K, C = reference_envelope(B)
    assert E.h_basis == h
    assert E.Dtau == Dtau
    assert E.K == K
    assert E.lie.C == C


@pytest.mark.parametrize("seed", range(8))
def test_span_and_coords_match_the_fraction_references(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    gens = [rand_vec(rng, n, (1, 2, 9, 25, 49)) for _ in range(rng.randint(0, n))]
    gens += [tuple(a + b for a, b in zip(u, v)) for u, v in zip(gens, gens[1:])]  # dependent ones
    rng.shuffle(gens)
    S = span(gens, n)
    assert S == reference_fraction_span(gens, n)
    for _ in range(5):
        inside = S.element(rand_vec(rng, S.dim))
        outside = rand_vec(rng, n)
        for v in (inside, outside):
            assert S.coords(v) == reference_coords(S, v)
            assert S.contains(v) == (reference_coords(S, v) is not None)
        assert S.coords(inside) is not None


def test_span_of_integer_and_fraction_vectors_agree():
    rows = [(2, 4, -6), (3, 0, 9), (5, 4, 3)]
    scaled = [tuple(F(c, 7) for c in row) for row in rows]
    assert span(rows, 3) == span(scaled, 3) == reference_fraction_span(scaled, 3)
    assert all(isinstance(c, Fraction) for row in span(rows, 3).basis for c in row)


def test_lie_bracket_reads_the_constants_in_index_order():
    # [e0, e1] = e2 only: a swapped index in the rows would move it
    C = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1] = [0, 0, F(1, 2)]
    L = LieAlgebra.from_constants(3, C)
    e = L.basis()
    assert L.bracket(e[0], e[1]) == (0, 0, F(1, 2))
    assert L.bracket(e[1], e[0]) == (0, 0, 0)
    assert not jacobi_check(L).antisymmetric
    assert all(L.bracket(x, y) == reference_bracket(L, x, y) for x, y in product(e, repeat=2))
