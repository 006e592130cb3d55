import re
from fractions import Fraction

import pytest

from support import collect_ideals, mutate_binary, mutate_ternary, summand_embeddings, vec

from bolalg.catalog import catalog, catalog_names
from bolalg.core import (
    BolAlgebra,
    center,
    check_axioms,
    direct_sum,
    ideal_closure,
    is_ideal,
    is_subsystem,
    prod_span,
    quotient,
    restrict,
    tri_span,
)
from bolalg.errors import DimensionMismatch, NotAnIdeal, UnknownExample
from bolalg.linalg import basis_vec, full_space, span, zero_space, zero_vec

F = Fraction


def test_binary_abelian_is_zero():
    B = catalog("abelian2")
    assert B.binary(B.basis_vec(0), B.basis_vec(1)) == zero_vec(2)


def test_binary_solv2():
    B = catalog("solv2")
    assert B.binary(B.basis_vec(0), B.basis_vec(1)) == vec([1, 0])
    assert B.binary(B.basis_vec(1), B.basis_vec(0)) == vec([-1, 0])


def test_ternary_sl2bol_efh_vanishes():
    # (e, f, h) involves [h, [e,f]] = [h, h] = 0
    B = catalog("sl2bol")
    e, f, h = B.basis()
    assert B.ternary(e, f, h) == zero_vec(3)


def test_left_op_alternating():
    for name in ("sl2bol", "lts_sl2", "heis3bol"):
        B = catalog(name)
        for x in B.basis():
            assert all(c == 0 for row in B.left_op(x, x) for c in row)


def test_left_op_abelian_zero():
    B = catalog("abelian3")
    m = B.left_op(B.basis_vec(0), B.basis_vec(1))
    assert all(c == 0 for row in m for c in row)


def test_left_op_lts_sl2():
    # (e, f, z) = [[e,f], z] = [h, z]: diag(2, -2, 0) in the e,f,h basis
    B = catalog("lts_sl2")
    e, f, _ = B.basis()
    m = B.left_op(e, f)
    assert m == (
        (F(2), F(0), F(0)),
        (F(0), F(-2), F(0)),
        (F(0), F(0), F(0)),
    )


def test_catalog_names_and_dims():
    assert catalog("abelian2").n == 2
    assert catalog("sl2bol").n == 3
    assert catalog("mixed").n == 5
    assert catalog("abelian_3").n == 3  # underscore alias
    with pytest.raises(UnknownExample):
        catalog("nope")


def test_all_catalog_entries_pass_axioms():
    for name in catalog_names():
        assert check_axioms(catalog(name)).ok, name


def test_single_entry_mutations_fail_with_witness():
    B = catalog("sl2bol")
    bad = mutate_ternary(B, 0, 1, 2, 2)
    report = check_axioms(bad)
    assert not report.ok
    failing = [c for c in report.identities if not c.ok]
    assert failing and all(c.witness is not None and c.defect is not None for c in failing)


def test_a2_reported_separately():
    # data violating only the ternary pair alternation is pinpointed as A2
    B = BolAlgebra.zero(2)
    bad = mutate_ternary(B, 0, 0, 0, 1)
    report = check_axioms(bad)
    assert not report.identity("A2").ok
    assert report.identity("A1").ok


def test_prod_span_examples():
    full2 = full_space(2)
    assert prod_span(catalog("abelian2"), full2, full2) == zero_space(2)
    assert prod_span(catalog("solv2"), full2, full2) == span([vec([1, 0])], 2)


def test_tri_span_sl2bol_is_everything():
    B = catalog("sl2bol")
    full = full_space(3)
    assert tri_span(B, full, full, full) == full


def test_is_ideal_trivial_cases():
    B = catalog("sl2bol")
    assert is_ideal(B, zero_space(3), "def2")
    assert is_ideal(B, full_space(3), "def2")
    assert is_ideal(B, zero_space(3), "def3")


def test_is_ideal_solv2_line():
    B = catalog("solv2")
    line = span([vec([1, 0])], 2)
    assert is_ideal(B, line, "def2")
    assert is_ideal(B, line, "def3")
    assert is_subsystem(B, line)


def test_is_ideal_rejects_non_ideal():
    B = catalog("solv2")
    other = span([vec([0, 1])], 2)
    assert not is_ideal(B, other, "def2")


def test_ideal_closure_examples():
    B = catalog("sl2bol")
    assert ideal_closure(B, zero_space(3)) == zero_space(3)
    assert ideal_closure(B, span([B.basis_vec(0)], 3)) == full_space(3)
    M = catalog("mixed")
    first, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
    assert ideal_closure(M, span([basis_vec(0, 5)], 5)) == first
    # e3 spans a 1-dim ideal on its own; e4 drags in e3 and fills the summand
    assert ideal_closure(M, span([basis_vec(3, 5)], 5)) == span([basis_vec(3, 5)], 5)
    assert ideal_closure(M, span([basis_vec(4, 5)], 5)) == second


def test_ideal_closure_is_minimal_over_generator():
    B = catalog("mixed")
    gen = span([basis_vec(3, 5)], 5)
    closed = ideal_closure(B, gen)
    assert is_ideal(B, closed, "def2")
    # dropping the added dimension loses the generator products
    assert not is_ideal(B, gen, "def2") or closed == gen


def test_center_examples():
    assert center(catalog("abelian3")) == full_space(3)
    assert center(catalog("sl2bol")) == zero_space(3)
    assert center(catalog("heis3bol")) == span([basis_vec(2, 3)], 3)


def test_quotient_by_zero_is_identity():
    B = catalog("sl2bol")
    Q = quotient(B, zero_space(3))
    assert Q.T == B.T and Q.R == B.R


def test_quotient_solv2_by_line():
    B = catalog("solv2")
    Q = quotient(B, span([vec([1, 0])], 2))
    assert Q.n == 1
    assert Q.T == catalog("abelian1").T


def test_quotient_mixed_by_solv2_summand_is_sl2bol():
    M = catalog("mixed")
    _, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
    Q = quotient(M, second)
    S = catalog("sl2bol")
    assert Q.n == 3 and Q.T == S.T and Q.R == S.R


def test_quotient_requires_ideal():
    B = catalog("solv2")
    with pytest.raises(NotAnIdeal):
        quotient(B, span([vec([0, 1])], 2))
    with pytest.raises(NotAnIdeal):
        quotient(B, full_space(2))


def test_quotients_by_certified_ideals_pass_axioms():
    for name in catalog_names():
        B = catalog(name)
        for I in collect_ideals(B):
            if I.dim in (0, B.n):
                continue
            assert check_axioms(quotient(B, I)).ok, (name, I.dim)


def test_direct_sum_abelian():
    D = direct_sum(catalog("abelian1"), catalog("abelian1"))
    A = catalog("abelian2")
    assert D.n == 2 and D.T == A.T and D.R == A.R


def test_direct_sum_passes_axioms():
    D = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    assert D.n == 6
    assert check_axioms(D).ok


def test_restrict_mixed_to_sl2_summand():
    M = catalog("mixed")
    first, _ = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
    S = restrict(M, first)
    assert S.T == catalog("sl2bol").T and S.R == catalog("sl2bol").R


def test_ternary_absorption_for_ideals():
    # def2-ideals absorb the ternary product in every slot
    for name in catalog_names():
        B = catalog(name)
        full = full_space(B.n)
        for I in collect_ideals(B):
            assert tri_span(B, full, I, full) <= I
            assert tri_span(B, full, full, I) <= I


def test_mutation_sweep_counts():
    # raw single-entry bumps always break an identity with a recorded witness
    for name in ("sl2bol", "heis3bol"):
        B = catalog(name)
        n = B.n
        checked = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    bad = mutate_binary(B, i, j, k)
                    rep = check_axioms(bad)
                    assert not rep.ok
                    assert any(c.witness is not None for c in rep.identities if not c.ok)
                    checked += 1
        assert checked >= 27


def test_equal_algebras_share_hash_and_cache_entry():
    A = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    assert A is not B and A == B and hash(A) == hash(B)
    assert check_axioms(A) is check_axioms(B)
    relabelled = BolAlgebra.from_tensors(A.n, A.T, A.R, [f"x{i}" for i in range(A.n)])
    assert relabelled != A
    assert check_axioms(relabelled) is not check_axioms(A)


def _zero_tensors(n):
    Z = BolAlgebra.zero(n)
    T = [[list(row) for row in plane] for plane in Z.T]
    R = [[[list(row) for row in plane] for plane in cube] for cube in Z.R]
    return T, R


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda T, R: T.pop(), "T has length 1, expected 2"),  # a missing plane
        (lambda T, R: T[1].pop(), "T[1] has length 1, expected 2"),  # a short plane
        (lambda T, R: T[0][1].pop(), "T[0][1] has length 1, expected 2"),  # a short row
        (lambda T, R: R[1][0][1].append(0), "R[1][0][1] has length 3, expected 2"),  # a ragged R
        (lambda T, R: R[0].pop(), "R[0] has length 1, expected 2"),
        (lambda T, R: R.append(R[0]), "R has length 3, expected 2"),
    ],
    ids=["missing-plane", "short-plane", "short-row", "ragged-R", "short-R-cube", "extra-R-cube"],
)
def test_from_tensors_rejects_mis_shaped_tensors(damage, message):
    T, R = _zero_tensors(2)
    damage(T, R)
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        BolAlgebra.from_tensors(2, T, R)


def test_from_tensors_rejects_the_one_by_one_tensors_of_a_plane():
    with pytest.raises(DimensionMismatch, match="T has length 1"):
        BolAlgebra.from_tensors(2, [[[0, 0]]], [[[[0, 0]]]])
