"""Differential tests of the structure kernel against dense reference formulas.

`check_axioms` and `is_pseudo_derivation` sum their defects from the
nonzero rows of the structure tensors (in scaled integers for the axioms).
Here both are compared with the same identities written with
`BolAlgebra.binary`/`ternary` on dense basis vectors: every witness, defect
and failure count must be equal.
"""

import random
from fractions import Fraction

import pytest
from support import mutate_binary, mutate_ternary, random_algebra, rational_basis, reference_axioms, transport

from bolalg.catalog import catalog, catalog_names
from bolalg.core import check_axioms
from bolalg.envelope import PairEndo, PseudoDerivationReport, inner_pair, is_pseudo_derivation
from bolalg.linalg import failures, mat_vec, vec_sub

F = Fraction
SMALL = [name for name in catalog_names() if catalog(name).n <= 4]


def assert_kernel_matches(B):
    assert check_axioms(B) == reference_axioms(B)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_integer_tensors(n, seed):
    rng = random.Random(1000 * n + seed)
    assert_kernel_matches(random_algebra(rng, n, (1,), (1,), density=0.6, idle_pairs=0.4))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_tensors_with_distinct_denominators(n, seed):
    # T and R carry different denominators, so d > 1 and every weight 1..4 scales.
    rng = random.Random(2000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.7, idle_pairs=0.3)
    assert any(c.denominator > 1 for plane in B.T for row in plane for c in row)
    assert any(c.denominator > 1 for cube in B.R for plane in cube for row in plane for c in row)
    assert_kernel_matches(B)


@pytest.mark.parametrize("name", SMALL)
def test_catalog_bumps_by_non_integer_deltas(name):
    B = catalog(name)
    rng = random.Random(name)
    n = B.n
    for delta in (F(1, 3), F(-5, 2)):
        idx = [rng.randrange(n) for _ in range(4)]
        A = mutate_binary(B, *idx[:3], delta=delta)
        assert not check_axioms(A).ok
        assert_kernel_matches(A)
        A = mutate_ternary(B, *idx, delta=delta)
        assert not check_axioms(A).ok
        assert_kernel_matches(A)


@pytest.mark.parametrize("name", SMALL)
def test_catalog_under_rational_basis_change(name):
    B = catalog(name)
    rng = random.Random(f"{name}-basis")
    A = transport(B, rational_basis(rng, B.n))
    assert check_axioms(A).ok
    assert_kernel_matches(A)
    bumped = mutate_ternary(A, *(rng.randrange(A.n) for _ in range(4)), delta=F(1, 3))
    assert not check_axioms(bumped).ok
    assert_kernel_matches(bumped)


def reference_pseudo_derivation(B, P):
    """`is_pseudo_derivation` written densely with `B.binary`/`B.ternary`."""
    r = range(B.n)
    bas = B.basis()
    a = P.comp
    pb = [mat_vec(P.pi, e) for e in bas]

    def product_defect(i, j):
        d = vec_sub(mat_vec(P.pi, B.T[i][j]), B.binary(pb[i], bas[j]))
        d = vec_sub(d, B.binary(bas[i], pb[j]))
        d = vec_sub(d, B.ternary(bas[i], bas[j], a))
        return vec_sub(d, B.binary(B.T[i][j], a))

    def ternary_defect(i, j, k):
        d = vec_sub(mat_vec(P.pi, B.R[i][j][k]), B.ternary(pb[i], bas[j], bas[k]))
        d = vec_sub(d, B.ternary(bas[i], pb[j], bas[k]))
        return vec_sub(d, B.ternary(bas[i], bas[j], pb[k]))

    pairs = [(i, j) for i in r for j in r]
    first = next(failures(pairs, product_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, False, True, *first)
    first = next(failures([(i, j, k) for i in r for j in r for k in r], ternary_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, True, False, *first)
    return PseudoDerivationReport(True, True, True)


@pytest.mark.parametrize("name", SMALL)
def test_pseudo_derivation_sweep_matches_reference(name):
    rng = random.Random(f"{name}-pairs")
    B = catalog(name)
    B = transport(B, rational_basis(rng, B.n))
    n = B.n
    for _ in range(4):
        P = inner_pair(B, B.basis_vec(rng.randrange(n)), B.basis_vec(rng.randrange(n)))
        assert is_pseudo_derivation(B, P) == reference_pseudo_derivation(B, P)
        pi = [list(row) for row in P.pi]
        comp = list(P.comp)
        if rng.random() < 0.5:
            pi[rng.randrange(n)][rng.randrange(n)] += F(1, 3)
        else:
            comp[rng.randrange(n)] -= F(2, 5)
        Q = PairEndo(tuple(map(tuple, pi)), tuple(comp))
        assert is_pseudo_derivation(B, Q) == reference_pseudo_derivation(B, Q)



@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pseudo_derivation_sweep_with_rational_pairs_and_denominators(n, seed):
    # d > 1 for the algebra and non-integer entries in the pair: every
    # scale factor e*d, e, d and d^2 of the integer sums is exercised.
    rng = random.Random(5000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.7, idle_pairs=0.2)
    assert B.integer_rows[0] > 1
    pairs = [inner_pair(B, B.basis_vec(rng.randrange(n)), B.basis_vec(rng.randrange(n))), PairEndo.zero(n)]
    for _ in range(3):
        pi = tuple(tuple(F(rng.randint(-4, 4), rng.choice((1, 3, 7))) for _ in range(n)) for _ in range(n))
        comp = tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 9))) for _ in range(n))
        pairs += [PairEndo(pi, comp), PairEndo(pi, (F(0),) * n), PairEndo(PairEndo.zero(n).pi, comp)]
    for P in pairs:
        assert is_pseudo_derivation(B, P) == reference_pseudo_derivation(B, P)


@pytest.mark.parametrize("name", ["sl2bol", "heis3bol", "mixed"])
def test_inner_pairs_are_pseudo_derivations_with_denominators(name):
    # A Bol algebra with d > 1: its inner pairs pass, and a pair bumped by
    # a non-integer entry fails with the reference's witness and defect.
    rng = random.Random(f"{name}-denominators")
    B = catalog(name)
    B = transport(B, rational_basis(rng, B.n))
    assert B.integer_rows[0] > 1
    n = B.n
    for i in range(n):
        for j in range(n):
            P = inner_pair(B, B.basis_vec(i), B.basis_vec(j))
            assert is_pseudo_derivation(B, P).ok
            bumped = PairEndo(P.pi, tuple(c + F(1, 7) * (k == i) for k, c in enumerate(P.comp)))
            assert is_pseudo_derivation(B, bumped) == reference_pseudo_derivation(B, bumped)
