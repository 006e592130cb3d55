import importlib
import random
import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from support import (
    collect_ideals,
    dense_binary,
    dense_ternary,
    mutate_binary,
    mutate_ternary,
    pair_bracket,
    rational_basis,
    reference_induced_bracket,
    reference_left_op,
    reference_span,
    replaced,
    summand_embeddings,
    transport,
    unimodular_basis,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, check_axioms, direct_sum
from bolalg.envelope import (
    EmbeddingReport,
    PairEndo,
    envelope,
    h_closure,
    ideal_extension,
    inner_pair,
    is_pseudo_derivation,
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
    mat_vec,
    span,
    vec,
    vec_sub,
    zero_mat,
    zero_vec,
)
from bolalg.radical import radical
from bolalg.series import is_solvable

F = Fraction
ENVELOPE = importlib.import_module("bolalg.envelope")
CORE = importlib.import_module("bolalg.core")
SERIES = importlib.import_module("bolalg.series")

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


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", ["natural", "unimodular"])
def test_envelope_brackets_hold_the_inner_pairs_and_the_action_of_h(name, basis):
    # The h-part of [e_i, e_j] is minus the inner pair of (e_i, e_j) in the
    # h basis, and the B-part of [h_t, e_i] is A_t e_i - e_i*a_t.
    B = catalog(name)
    if basis == "unimodular":
        B = transport(B, unimodular_basis(random.Random(f"{name}-envelope-brackets"), B.n))
    E = envelope(B)
    G, n = E.lie, B.n
    e = [basis_vec(i, G.m) for i in range(G.m)]
    for i in range(n):
        for j in range(n):
            acc = zero_vec(n * n + n)
            for c, P in zip(G.bracket(e[i], e[j])[n:], E.h_basis):
                acc = tuple(x - c * y for x, y in zip(acc, P.flatten()))
            assert PairEndo.unflatten(acc, n) == inner_pair(B, B.basis_vec(i), B.basis_vec(j))
    for t, P in enumerate(E.h_basis):
        for i in range(n):
            x = B.basis_vec(i)
            assert E.project_b(G.bracket(e[n + t], e[i])) == vec_sub(mat_vec(P.pi, x), B.binary(x, P.comp))


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


@pytest.mark.parametrize("name", ["sl2bol", "lts_sl2", "mixed"])
def test_envelope_rejects_its_rows_with_any_one_coefficient_changed(name, monkeypatch):
    # G's rows are formed in ints and handed to integer_tensors at one scale;
    # raising any one bracket coefficient [f_i, f_j] at f_k by 1 (and
    # lowering [f_j, f_i] with it) must fail Jacobi, projection or recovery
    B = catalog(name)
    m = envelope(B).lie.m
    build = ENVELOPE.integer_tensors
    for i, j, k in product(range(m), repeat=3):
        if i >= j:
            continue

        def bumped(n, tensor, i=i, j=j, k=k):
            rows, order, s = tensor
            rows = {key: dict(row) for key, row in rows.items()}
            for key, sign in (((i, j), 1), ((j, i), -1)):
                row = rows.setdefault(key, {})
                row[k] = row.get(k, 0) + sign * s
            return build(n, ({key: row.items() for key, row in rows.items()}, order, s))

        monkeypatch.setattr(ENVELOPE, "integer_tensors", bumped)
        with pytest.raises(FatalInconsistency, match="fails Jacobi|identity fails"):
            envelope.__wrapped__(B)


def test_envelope_rejects_an_inner_pair_outside_h(monkeypatch):
    B = catalog("sl2bol")
    monkeypatch.setattr(ENVELOPE, "h_closure", lambda B: h_closure(B)[1:])
    with pytest.raises(FatalInconsistency, match="bracket left the pair closure"):
        envelope.__wrapped__(B)


def _bumped_envelope(name, i, j, k, by=F(1)):
    """The envelope of a catalog entry with C[i][j][k] raised by `by` (and C[j][i][k] lowered)."""
    E = envelope(catalog(name))
    C = [[list(v) for v in plane] for plane in E.lie.C]
    C[i][j][k] += by
    C[j][i][k] -= by
    return replaced(E, lie=LieAlgebra.from_constants(E.lie.m, C, E.lie.labels))


@pytest.mark.parametrize(
    "bump, report",
    [
        # a B-part in [e_i, e_j]: the closure relation fails first
        ((0, 1, 0), EmbeddingReport(False, False, True, True, (0, 1))),
        ((1, 2, 2), EmbeddingReport(False, False, True, True, (1, 2))),
        # a wrong B-part, then a stray h-part, of [e_k, h]: the action relation
        ((0, 3, 0), EmbeddingReport(False, True, False, True, (0, 1, 0))),
        ((2, 4, 1), EmbeddingReport(False, True, False, True, (0, 2, 2))),
        ((0, 3, 4), EmbeddingReport(False, True, False, True, (0, 1, 0))),
        # a wrong h-h bracket: only the derivation relation sees it
        ((3, 4, 3), EmbeddingReport(False, True, True, False, (0, 1, 0, 2))),
        ((4, 5, 0), EmbeddingReport(False, True, True, False, (0, 2, 1, 2))),
    ],
)
def test_standard_embedding_check_reports_the_first_failing_relation(bump, report):
    assert standard_embedding_check(_bumped_envelope("lts_sl2", *bump)) == report


# h is the span of the inner pairs D(x,y) = (L(x,y), x*y): for a Bol algebra
#   [[D(x,y), D(u,v)]] = D((x,y,u),v) + D(u,(x,y,v)) - D(x*y, u*v),
# by A5 for the operators and A4 with A1 for the components.  These tests
# check that identity with the dense references, and that `h_closure`
# builds the span from the axiom report, with no closure round.


def dense_pair(B, x, y):
    return PairEndo(reference_left_op(B, x, y), dense_binary(B, x, y))


def closure_identity_failures(B):
    """The (i, j, k, l), i < j and k < l, at which the identity fails, from the dense references alone."""
    bas = B.basis()
    pairs = [(i, j) for i in range(B.n) for j in range(i + 1, B.n)]
    out = []
    for (i, j), (k, l) in product(pairs, repeat=2):
        x, y, u, v = bas[i], bas[j], bas[k], bas[l]
        lhs = reference_induced_bracket(B, dense_pair(B, x, y), dense_pair(B, u, v)).flatten()
        terms = (
            dense_pair(B, dense_ternary(B, x, y, u), v),
            dense_pair(B, u, dense_ternary(B, x, y, v)),
            dense_pair(B, dense_binary(B, x, y), dense_binary(B, u, v)),
        )
        rhs = tuple(a + b - c for a, b, c in zip(*(P.flatten() for P in terms)))
        if lhs != rhs:
            out.append((i, j, k, l))
    return out


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", ["natural", "unimodular", "rational"])
def test_inner_pairs_close_under_the_induced_bracket(name, basis):
    B = catalog(name)
    if basis != "natural":
        rng = random.Random(f"{name}-{basis}-inner-pairs")
        B = transport(B, (unimodular_basis if basis == "unimodular" else rational_basis)(rng, B.n))
    assert closure_identity_failures(B) == []
    # h_closure is the span of every inner pair, ordered (i, j) with i = j included
    every_pair = [dense_pair(B, x, y).flatten() for x in B.basis() for y in B.basis()]
    assert tuple(P.flatten() for P in h_closure(B)) == reference_span(every_pair, B.n * B.n + B.n).basis


def test_h_closure_and_envelope_bracket_each_pair_once(monkeypatch):
    # dense sl2bol + so3bol: C(n, 2) inner pairs, no induced bracket in
    # h_closure, one per pair of h basis elements in envelope, and no
    # pseudo-derivation check
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    B = transport(B, unimodular_basis(random.Random("sl2bol+so3bol-h"), B.n))
    calls = {"inner_pair": 0, "induced_bracket": 0, "is_pseudo_derivation": 0}
    for name in calls:
        fn = getattr(ENVELOPE, name)

        def counted(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ENVELOPE, name, counted)
    N = len(h_closure(B))
    assert N == 6
    assert calls == {"inner_pair": comb(B.n, 2), "induced_bracket": 0, "is_pseudo_derivation": 0}
    calls.update(dict.fromkeys(calls, 0))
    envelope.__wrapped__(B)
    assert calls == {"inner_pair": comb(B.n, 2), "induced_bracket": comb(N, 2), "is_pseudo_derivation": 0}


def test_h_closure_rejects_an_algebra_that_fails_a4_alone():
    # doubling sl2bol's binary product breaks A4 only: the component of the
    # bracket of two inner pairs is then not the component the identity needs
    sl2 = catalog("sl2bol")
    B = BolAlgebra.from_tensors(3, [[[2 * c for c in row] for row in plane] for plane in sl2.T], sl2.R)
    assert [c.name for c in check_axioms(B).identities if not c.ok] == ["A4"]
    assert closure_identity_failures(B) != []
    w = check_axioms(B).identity("A4").witness
    with pytest.raises(FatalInconsistency, match=re.escape(f"inner pair {w[:2]} is not a pseudo-derivation (A4 fails at {w})")):
        h_closure(B)


@pytest.mark.parametrize(
    "B, failing, guard, message",
    [
        # A1 is checked first, before the A4 it breaks too
        (mutate_binary(catalog("sl2bol"), 0, 1, 0), ["A1", "A4"], "A1", "inner pairs do not span h (A1 fails at {w})"),
        # A4 holds (T = 0) and A5 fails, so the guard names A5 before A2
        (
            mutate_ternary(catalog("lts_sl2"), 0, 1, 2, 0),
            ["A2", "A3", "A5"],
            "A5",
            "inner pair {p} is not a pseudo-derivation (A5 fails at {w})",
        ),
        # (e0, e0, e1) = e2 alone: A1, A4 and A5 hold and A2 fails, and the
        # nonzero D(e0, e0) lies outside the span of the zero pairs i < j
        (mutate_ternary(BolAlgebra.zero(3), 0, 0, 1, 2), ["A2", "A3"], "A2", "inner pairs do not span h (A2 fails at {w})"),
    ],
    ids=["A1", "A5", "A2"],
)
def test_h_closure_names_the_first_failing_axiom_it_rests_on(B, failing, guard, message):
    report = check_axioms(B)
    assert [c.name for c in report.identities if not c.ok] == failing
    w = report.identity(guard).witness
    with pytest.raises(FatalInconsistency, match=re.escape(message.format(w=w, p=w[:2]))):
        h_closure(B)


def test_ideal_extension_tests_its_ideal_once(monkeypatch):
    # mixed = sl2bol + solv2: V is the solv2 summand; its Bol series is
    # run past the def2 test that ideal_extension has already made
    B = catalog("mixed")
    V = radical(B).radical
    E = envelope(B)
    is_ideal = CORE.is_ideal
    tested = []

    def spy(A, W, mode="def2"):
        if A == B and W == V:
            tested.append(mode)
        return is_ideal(A, W, mode)

    for module in (CORE, SERIES, ENVELOPE):
        monkeypatch.setattr(module, "is_ideal", spy)
    rep = ideal_extension(E, V)
    assert rep.bol_solvable and rep.lie_solvable and rep.implication_holds
    assert tested == ["def2"]
