"""Differential tests of the ideal layer against dense reference formulas.

`prod_span` and `tri_span` build their products from the structure rows,
and `ideal_closure` and the def2 `is_ideal` read `BolAlgebra.ideal_operators`.
Here they are compared with the same constructions written with
`BolAlgebra.binary`/`ternary` on dense vectors (tests/support.py), on
zero, proper and full subspaces, and on algebras that need not be Bol.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from support import (
    random_algebra,
    rational_basis,
    reference_ideal_closure,
    reference_is_ideal,
    reference_operator_family,
    reference_prod_span,
    reference_tri_span,
    transport,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, direct_sum, ideal_closure, is_ideal, prod_span, tri_span
from bolalg.linalg import basis_vec, full_space, span, zero_space
from bolalg.radical import is_simple

F = Fraction


def subspaces(rng, n):
    """Zero, full, and random subspaces of dimension 1 and n - 1."""

    def rand_vec():
        return tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))

    spaces = [zero_space(n), full_space(n)]
    for k in (1, n - 1):
        spaces.append(span([rand_vec() for _ in range(k)], n))
    return spaces


def assert_ideal_layer_matches(B, rng):
    spaces = subspaces(rng, B.n)
    for U, V in product(spaces, repeat=2):
        assert prod_span(B, U, V) == reference_prod_span(B, U, V)
    for U, V, W in product(spaces, repeat=3):
        assert tri_span(B, U, V, W) == reference_tri_span(B, U, V, W)
    closures = [ideal_closure(B, S) for S in spaces + [span([basis_vec(0, B.n)], B.n)]]
    assert closures == [reference_ideal_closure(B, S) for S in spaces + [span([basis_vec(0, B.n)], B.n)]]
    for V in spaces + closures:
        for mode in ("def2", "def3"):
            assert is_ideal(B, V, mode) == reference_is_ideal(B, V, mode)
    assert list(B.ideal_operators) == reference_operator_family(B)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_integer_tensors(n, seed):
    rng = random.Random(3000 * n + seed)
    assert_ideal_layer_matches(random_algebra(rng, n, (1,), (1,), density=0.5, idle_pairs=0.3), rng)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_tensors_with_distinct_denominators(n, seed):
    rng = random.Random(4000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.6, idle_pairs=0.3)
    assert B.integer_rows[0] > 1
    assert_ideal_layer_matches(B, rng)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("part", ["binary", "ternary"])
def test_closures_on_sparse_tensors_that_are_not_antisymmetric(part, seed):
    # One product only, sparse and not alternating, so closures stay proper
    # and an operator read with its slots swapped (e_i*x for x*e_i) spins
    # to another space.
    rng = random.Random(f"{part}-{seed}")
    n = rng.randint(3, 5)
    A = random_algebra(rng, n, (1, 2), (1, 3), density=0.08 if part == "binary" else 0.03)
    zero = BolAlgebra.zero(n)
    B = BolAlgebra.from_tensors(n, A.T, zero.R) if part == "binary" else BolAlgebra.from_tensors(n, zero.T, A.R)
    closures = [ideal_closure(B, span([basis_vec(i, n)], n)) for i in range(n)]
    assert closures == [reference_ideal_closure(B, span([basis_vec(i, n)], n)) for i in range(n)]
    assert any(0 < S.dim < n for S in closures)
    for S in closures + [span([basis_vec(i, n)], n) for i in range(n)]:
        assert is_ideal(B, S) == reference_is_ideal(B, S, "def2")


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_under_rational_basis_change(name):
    B = catalog(name)
    rng = random.Random(f"{name}-ideals")
    assert_ideal_layer_matches(transport(B, rational_basis(rng, B.n)), rng)


@pytest.mark.parametrize("name", catalog_names())
def test_closures_of_coordinate_planes(name):
    # In the natural basis the summands of a direct sum are coordinate
    # subspaces, so a start space can hold an ideal and a vector that
    # still generates more: every basis vector of every round must be spun.
    B = catalog(name)
    n = B.n
    for i in range(n):
        for j in range(i + 1, n):
            S = span([basis_vec(i, n), basis_vec(j, n)], n)
            assert ideal_closure(B, S) == reference_ideal_closure(B, S)


# Results of `is_simple` with ideal closures and def2 tests computed by the
# dense references in tests/support.py: (status, witness basis, note).  Every search path occurs: basis-vector
# closures, eigenvector closures, the annihilator of a dual-invariant
# subspace and the dual-kernel criterion.
SIMPLICITY = {
    "abelian1": ("no", None, "abelian"),
    "abelian2": ("no", [["1", "0"]], "abelian"),
    "abelian3": ("no", [["1", "0", "0"]], "abelian"),
    "abelian4": ("no", [["1", "0", "0", "0"]], "abelian"),
    "solv2": ("no", [["1", "0"]], "closure of basis vector 0"),
    "heis3bol": ("no", [["1", "0", "0"], ["0", "0", "1"]], "closure of basis vector 0"),
    "sl2bol": ("yes", None, "dual-kernel criterion"),
    "so3bol": ("yes", None, "dual-kernel criterion"),
    "lts_sl2": ("yes", None, "dual-kernel criterion"),
    "mixed": (
        "no",
        [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
        "closure of basis vector 0",
    ),
    "abelian1@basis": ("no", None, "abelian"),
    "abelian2@basis": ("no", [["1", "0"]], "abelian"),
    "abelian3@basis": ("no", [["1", "0", "0"]], "abelian"),
    "abelian4@basis": ("no", [["1", "0", "0", "0"]], "abelian"),
    "solv2@basis": ("no", [["1", "5"]], "annihilator of dual-invariant subspace"),
    "heis3bol@basis": ("no", [["1", "0", "0"], ["0", "1", "-4"]], "closure of basis vector 0"),
    "sl2bol@basis": ("yes", None, "dual-kernel criterion"),
    "so3bol@basis": ("yes", None, "dual-kernel criterion"),
    "lts_sl2@basis": ("yes", None, "dual-kernel criterion"),
    "mixed@basis": (
        "no",
        [["1", "-39/8", "-301/15", "1981/24", "5642/15"]],
        "eigenvector closure at eigenvalue -1/3",
    ),
    "sl2bol+so3bol@basis": (
        "no",
        [
            ["1", "0", "0", "1", "10", "100"],
            ["0", "1", "0", "2/3", "25/6", "340/9"],
            ["0", "0", "1", "1", "5/2", "95/3"],
        ],
        "eigenvector closure at eigenvalue -2/5",
    ),
    "lts_sl2+solv2@basis": (
        "no",
        [["0", "1", "4/45", "-2/5", "71/27"]],
        "eigenvector closure at eigenvalue -2/3",
    ),
}


def simplicity_input(key):
    name, _, basis = key.partition("@")
    parts = [catalog(p) for p in name.split("+")]
    B = parts[0] if len(parts) == 1 else direct_sum(*parts)
    if not basis:
        return B
    return transport(B, rational_basis(random.Random(f"{name}-simple"), B.n))


@pytest.mark.parametrize("key", SIMPLICITY)
def test_is_simple_results_are_unchanged(key):
    res = is_simple(simplicity_input(key))
    witness = None if res.witness is None else [[str(c) for c in row] for row in res.witness.basis]
    assert (res.status, witness, res.note) == SIMPLICITY[key]
    assert res.seed == 20240801


def test_every_catalog_entry_has_a_simplicity_result():
    assert set(catalog_names()) <= set(SIMPLICITY)
    assert {f"{name}@basis" for name in catalog_names()} <= set(SIMPLICITY)
