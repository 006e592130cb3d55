import importlib
import re
from fractions import Fraction

import pytest

from support import collect_ideals, mutate_ternary

from bolalg.catalog import catalog, catalog_names
from bolalg.core import summand_embeddings
from bolalg.envelope import (
    PairEndo,
    envelope,
    h_closure,
    ideal_extension,
    inner_pair,
    is_pseudo_derivation,
    pair_bracket,
    solvability_transfer_check,
    standard_embedding_check,
)
from bolalg.errors import DimensionMismatch, FatalInconsistency, PreconditionViolation
from bolalg.lie import LieAlgebra, jacobi_check, lie_is_solvable
from bolalg.linalg import (
    basis_vec,
    full_space,
    identity,
    intersect,
    is_zero_vec,
    span,
    vec,
    zero_mat,
    zero_vec,
)
from bolalg.series import is_solvable

F = Fraction
ENVELOPE = importlib.import_module("bolalg.envelope")

EXPECTED_ENVELOPE_DIM = {
    "abelian1": 1,
    "abelian2": 2,
    "abelian3": 3,
    "abelian4": 4,
    "solv2": 3,
    "heis3bol": 4,
    "sl2bol": 6,
    "so3bol": 6,
    "lts_sl2": 6,
    "mixed": 9,
}


def test_zero_pair_is_pseudo_derivation_everywhere():
    for name in catalog_names():
        B = catalog(name)
        assert is_pseudo_derivation(B, PairEndo.zero(B.n)).ok


def test_inner_pairs_are_pseudo_derivations():
    for name in catalog_names():
        B = catalog(name)
        for i in range(B.n):
            for j in range(B.n):
                P = inner_pair(B, B.basis_vec(i), B.basis_vec(j))
                assert is_pseudo_derivation(B, P).ok, (name, i, j)


def test_identity_pair_fails_on_sl2bol():
    B = catalog("sl2bol")
    rep = is_pseudo_derivation(B, PairEndo(identity(3), zero_vec(3)))
    assert not rep.ok and rep.witness is not None


@pytest.mark.parametrize(
    "pair",
    [PairEndo.zero(2), PairEndo(zero_mat(3, 2), zero_vec(3)), PairEndo(zero_mat(3, 3), zero_vec(2))],
)
def test_pseudo_derivation_rejects_a_pair_of_the_wrong_size(pair):
    with pytest.raises(DimensionMismatch):
        is_pseudo_derivation(catalog("sl2bol"), pair)


def test_pair_bracket_self_is_zero():
    B = catalog("sl2bol")
    P = inner_pair(B, B.basis_vec(0), B.basis_vec(1))
    assert pair_bracket(B, P, P).is_zero()


def test_pair_bracket_solv2_inner_self():
    B = catalog("solv2")
    P = inner_pair(B, B.basis_vec(0), B.basis_vec(1))
    assert P == PairEndo(zero_mat(2, 2), vec([1, 0]))
    assert pair_bracket(B, P, P).is_zero()


def test_pair_bracket_against_matrix_arithmetic_oracle():
    # recompute pi and comp with bare matrix loops
    B = catalog("sl2bol")
    e, f, h = B.basis()
    P = inner_pair(B, e, f)
    Q = inner_pair(B, f, h)
    got = pair_bracket(B, P, Q)
    n = 3
    pi = tuple(
        tuple(
            sum(P.pi[r][s] * Q.pi[s][c] - Q.pi[r][s] * P.pi[s][c] for s in range(n))
            for c in range(n)
        )
        for r in range(n)
    )
    comp = B.binary(P.comp, Q.comp)
    comp = tuple(
        comp[r]
        + sum(P.pi[r][s] * Q.comp[s] for s in range(n))
        - sum(Q.pi[r][s] * P.comp[s] for s in range(n))
        for r in range(n)
    )
    assert got == PairEndo(pi, comp)


def test_inner_pair_examples():
    B = catalog("lts_sl2")
    e, f, _ = B.basis()
    P = inner_pair(B, e, f)
    assert P.comp == zero_vec(3)
    assert P.pi == ((F(2), F(0), F(0)), (F(0), F(-2), F(0)), (F(0), F(0), F(0)))
    for name in catalog_names():
        A = catalog(name)
        for x in A.basis():
            assert inner_pair(A, x, x).is_zero()


def test_h_closure_dims():
    assert h_closure(catalog("abelian3")) == ()
    assert len(h_closure(catalog("sl2bol"))) == 3
    solv = h_closure(catalog("solv2"))
    assert len(solv) == 1
    assert solv[0] == PairEndo(zero_mat(2, 2), vec([1, 0]))


def test_h_closure_members_are_pseudo_derivations():
    for name in catalog_names():
        B = catalog(name)
        for P in h_closure(B):
            assert is_pseudo_derivation(B, P).ok


def test_pair_bracket_preserves_pseudo_derivations():
    # the pair algebra closes on pseudo-derivations
    for name in catalog_names():
        B = catalog(name)
        pairs = [
            inner_pair(B, B.basis_vec(i), B.basis_vec(j))
            for i in range(B.n)
            for j in range(i + 1, B.n)
        ]
        for P in pairs:
            for Q in pairs:
                assert is_pseudo_derivation(B, pair_bracket(B, P, Q)).ok, name


def test_envelope_dims_match_expected():
    for name, dim in EXPECTED_ENVELOPE_DIM.items():
        E = envelope(catalog(name))
        assert E.total_dim == dim, name
        assert E.b_dim == catalog(name).n
        assert len(E.h_basis) == dim - E.b_dim


def test_envelope_projection_and_recovery_identities():
    for name in catalog_names():
        B = catalog(name)
        E = envelope(B)
        G = E.lie
        m = G.m
        for i in range(B.n):
            for j in range(B.n):
                br = G.bracket(basis_vec(i, m), basis_vec(j, m))
                assert E.project_b(br) == B.T[i][j]
                for k in range(B.n):
                    rec = G.bracket(basis_vec(k, m), br)
                    assert E.project_b(rec) == B.R[i][j][k]
                    assert is_zero_vec(rec[B.n :])


def test_envelope_bracket_of_base_misses_base():
    # the span of [B, B] inside G meets the base coordinates only in zero
    for name in catalog_names():
        B = catalog(name)
        E = envelope(B)
        G = E.lie
        m = G.m
        brackets = [
            G.bracket(basis_vec(i, m), basis_vec(j, m)) for i in range(B.n) for j in range(B.n)
        ]
        bb = span(brackets, m)
        assert intersect(bb, E.b_subspace()).is_zero(), name


def test_envelope_h_generation_bound():
    for name in catalog_names():
        B = catalog(name)
        gens = [
            inner_pair(B, B.basis_vec(i), B.basis_vec(j))
            for i in range(B.n)
            for j in range(i + 1, B.n)
        ]
        gen_dim = span([g.flatten() for g in gens if not g.is_zero()], B.n * B.n + B.n).dim
        assert gen_dim <= B.n * (B.n - 1) // 2
        assert len(envelope(B).h_basis) >= gen_dim


def test_envelope_k_and_dtau_tensors():
    for name in ("solv2", "sl2bol", "mixed"):
        B = catalog(name)
        E = envelope(B)
        G = E.lie
        m = G.m
        n = B.n
        for t, P in enumerate(E.h_basis):
            for i in range(n):
                br = G.bracket(basis_vec(n + t, m), basis_vec(i, m))
                assert E.project_b(br) == E.K[t][i]
        for i in range(n):
            for j in range(n):
                got = PairEndo.zero(n)
                acc = got.flatten()
                for c, P in zip(E.Dtau[i][j], E.h_basis):
                    acc = tuple(a + c * b for a, b in zip(acc, P.flatten()))
                assert PairEndo.unflatten(acc, n) == inner_pair(B, B.basis_vec(i), B.basis_vec(j))


def test_ideal_extension_zero():
    E = envelope(catalog("sl2bol"))
    from bolalg.linalg import zero_space

    rep = ideal_extension(E, zero_space(3))
    assert rep.w_subspace.is_zero() and rep.lie_solvable and rep.implication_holds


def test_ideal_extension_mixed_solv2_summand():
    M = catalog("mixed")
    _, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
    rep = ideal_extension(envelope(M), second)
    assert rep.bol_solvable and rep.lie_solvable and rep.is_lie_ideal_of_generated
    assert rep.implication_holds


def test_ideal_extension_sl2bol_full():
    B = catalog("sl2bol")
    rep = ideal_extension(envelope(B), full_space(3))
    assert rep.w_subspace.dim == 6  # all of G: a copy of the algebra sits inside h
    assert not rep.lie_solvable and not rep.bol_solvable
    assert rep.implication_holds


def test_ideal_extension_on_all_certified_solvable_ideals():
    for name in catalog_names():
        B = catalog(name)
        E = envelope(B)
        for I in collect_ideals(B):
            if is_solvable(B, I):
                rep = ideal_extension(E, I)
                assert rep.lie_solvable, (name, I.dim)


def test_standard_embedding_checks():
    assert standard_embedding_check(envelope(catalog("abelian3"))).ok
    assert standard_embedding_check(envelope(catalog("lts_sl2"))).ok
    with pytest.raises(PreconditionViolation):
        standard_embedding_check(envelope(catalog("sl2bol")))


def test_solvability_transfer_table():
    expected = {
        "abelian1": (True, True),
        "abelian2": (True, True),
        "abelian3": (True, True),
        "abelian4": (True, True),
        "solv2": (True, True),
        "heis3bol": (True, True),
        "sl2bol": (False, False),
        "so3bol": (False, False),
        "lts_sl2": (False, False),
        "mixed": (False, False),
    }
    for name, (bol_s, lie_s) in expected.items():
        rep = solvability_transfer_check(catalog(name))
        assert (rep.bol_solvable, rep.lie_solvable) == (bol_s, lie_s), name
        assert rep.implication_holds


def test_envelope_solvable_values():
    assert lie_is_solvable(envelope(catalog("solv2")).lie)
    assert not lie_is_solvable(envelope(catalog("sl2bol")).lie)


# The envelope contract: each check fires on its own on a deliberately
# inconsistent input, so none of them can be dropped unnoticed.


def test_verify_envelope_rejects_a_broken_jacobi_identity():
    G = envelope(catalog("sl2bol")).lie
    C = [[list(row) for row in plane] for plane in G.C]
    C[0][1][0] += F(1, 3)
    C[1][0][0] -= F(1, 3)
    with pytest.raises(FatalInconsistency, match="fails Jacobi at basis triple"):
        ENVELOPE._verify_envelope(catalog("sl2bol"), LieAlgebra.from_constants(G.m, C))


def test_verify_envelope_rejects_a_wrong_projection():
    # a Lie algebra whose base brackets are those of sl2, over lts_sl2 whose binary product is zero
    with pytest.raises(FatalInconsistency, match=re.escape("projection identity fails at (0,1)")):
        ENVELOPE._verify_envelope(catalog("lts_sl2"), envelope(catalog("sl2bol")).lie)


def test_verify_envelope_rejects_a_wrong_recovery_in_the_base():
    with pytest.raises(FatalInconsistency, match=re.escape("recovery identity fails at (0,1,0)")):
        ENVELOPE._verify_envelope(catalog("lts_sl2"), LieAlgebra.from_constants(6, [[[0] * 6] * 6] * 6))


def test_verify_envelope_rejects_a_recovery_with_an_h_part():
    # [e0, e1] = f and [e0, f] = f is a Lie algebra over abelian2, but [e0, [e0, e1]] = f is not in B
    C = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1], C[1][0] = [0, 0, 1], [0, 0, -1]
    C[0][2], C[2][0] = [0, 0, 1], [0, 0, -1]
    G = LieAlgebra.from_constants(3, C)
    assert jacobi_check(G).ok
    with pytest.raises(FatalInconsistency, match=re.escape("recovery identity fails at (0,1,0)")):
        ENVELOPE._verify_envelope(catalog("abelian2"), G)


def test_h_closure_rejects_a_pair_that_is_not_a_pseudo_derivation():
    B = mutate_ternary(catalog("sl2bol"), 0, 1, 0, 1, F(1, 2))
    with pytest.raises(FatalInconsistency, match="is not a pseudo-derivation"):
        h_closure(B)


def test_envelope_rejects_a_bracket_outside_h(monkeypatch):
    B = catalog("sl2bol")
    h = h_closure(B)
    monkeypatch.setattr(ENVELOPE, "h_closure", lambda _: h)
    monkeypatch.setattr(ENVELOPE, "induced_bracket", lambda B, P, Q: PairEndo(identity(B.n), zero_vec(B.n)))
    with pytest.raises(FatalInconsistency, match="bracket left the pair closure"):
        envelope.__wrapped__(B)


def test_envelope_rejects_an_inner_pair_outside_h(monkeypatch):
    B = catalog("sl2bol")
    monkeypatch.setattr(ENVELOPE, "h_closure", lambda B: h_closure(B)[1:])
    with pytest.raises(FatalInconsistency, match="bracket left the pair closure"):
        envelope.__wrapped__(B)
