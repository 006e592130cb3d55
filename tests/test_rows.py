"""Differential tests of the integer-row Lie layer, pair algebra and linear algebra.

`LieAlgebra.bracket`, `jacobi_check`, `killing_gram`, `BolAlgebra.left_op`,
`induced_bracket`, `envelope`, `restrict`, `span` and `Subspace.coords`
sum in ints from the structure rows.  Here they are compared with the dense Fraction
references of tests/support.py on random integer tensors, tensors with
denominators (d > 1), broken Lie constants, and every catalog entry in
its natural basis and under a rational and an integral basis change.
The rows are the one stored form of the tensors: they are checked
against a Fraction-built reference, and the Fraction views `T`, `R` and
`C` are checked to rebuild the algebra and to stay unbuilt where no
dense reader runs.
"""

import importlib
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from support import (
    dense_binary,
    dense_ternary,
    invert,
    pair_bracket,
    random_algebra,
    rational_basis,
    reference_bracket,
    reference_coords,
    reference_envelope,
    reference_fraction_span,
    reference_induced_bracket,
    reference_integer_rows,
    reference_jacobi_check,
    reference_killing_gram,
    reference_left_op,
    reference_pair_bracket,
    transport,
    unimodular_basis,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, check_axioms, direct_sum, restrict
from bolalg.envelope import PairEndo, envelope, induced_bracket
from bolalg.errors import DocumentError
from bolalg.fileio import parse_bol_document
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
def test_pair_bracket_matches_the_dense_formula(name):
    # pair_bracket is induced_bracket plus the inner pair of the components
    B = basis_change(name, "rational")
    rng = random.Random(f"{name}-pair-bracket")
    n = B.n
    for _ in range(4):
        P = PairEndo.unflatten(rand_vec(rng, n * n + n), n)
        Q = PairEndo.unflatten(rand_vec(rng, n * n + n, (1, 4, 9)), n)
        assert pair_bracket(B, P, Q) == reference_pair_bracket(B, P, Q)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", BASES)
def test_envelope_matches_dense_reference_field_by_field(name, basis):
    B = basis_change(name, basis)
    E = envelope(B)
    h, C = reference_envelope(B)
    assert E.h_basis == h
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


@pytest.mark.parametrize("names", [("sl2bol", "so3bol"), ("heis3bol", "lts_sl2"), ("solv2", "mixed")], ids="+".join)
def test_restrict_to_a_rational_subsystem_matches_the_dense_reference(names):
    # The summands of a direct sum are subsystems.  Under a rational basis
    # change the algebra has denominators (d > 1) and so do the summands'
    # canonical bases (L > 1), so a wrong scale changes the restriction.
    B = direct_sum(*(catalog(x) for x in names))
    S = rational_basis(random.Random(f"{names}-restrict"), B.n)
    A, Sinv = transport(B, S), invert(S)  # row i of Sinv is e_i in the new coordinates
    assert A.integer_rows[0] > 1
    start = 0
    for name in names:
        k = catalog(name).n
        I = span(Sinv[start : start + k], B.n)
        start += k
        assert I.integer_basis[0] > 1
        T = [[reference_coords(I, dense_binary(A, p, q)) for q in I.basis] for p in I.basis]
        R = [[[reference_coords(I, dense_ternary(A, p, q, r)) for r in I.basis] for q in I.basis] for p in I.basis]
        got = restrict(A, I)
        assert got == BolAlgebra.from_tensors(k, T, R, tuple(f"v{i}" for i in range(k)))
        assert not got.is_abelian()


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


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", BASES)
def test_the_stored_rows_are_canonical_and_the_views_rebuild_them(name, basis):
    B = basis_change(name, basis)
    assert B.integer_rows == reference_integer_rows(B.T, B.R)
    if basis == "rational" and not B.is_abelian():
        assert B.integer_rows[0] > 1
    as_strings = [[[str(c) for c in v] for v in plane] for plane in B.T]
    mixed = [[[c.numerator if c.denominator == 1 else str(c) for c in v] for v in plane] for plane in B.T]
    for T in (B.T, as_strings, mixed):
        rebuilt = BolAlgebra.from_tensors(B.n, T, B.R, B.labels)
        assert rebuilt == B and hash(rebuilt) == hash(B)
    G = envelope(B).lie
    rebuilt = LieAlgebra.from_constants(G.m, G.C, G.labels)
    assert rebuilt == G and hash(rebuilt) == hash(G)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_parsing_and_checking_a_document_builds_no_dense_view(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    checked = 0
    for doc in gen.check_sparse(29) + gen.reject_invalid(29):
        try:
            B, _ = parse_bol_document(doc.text)
        except DocumentError:
            continue
        check_axioms.__wrapped__(B)
        assert "T" not in B.__dict__ and "R" not in B.__dict__
        checked += 1
    assert checked >= 8


def test_a_full_session_never_builds_the_envelope_constants(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, job = importlib.import_module("gen"), importlib.import_module("job")
    for doc in gen.session_dense(29):
        job.session(doc.text)
        B, _ = parse_bol_document(doc.text)
        assert "C" not in envelope(B).lie.__dict__
