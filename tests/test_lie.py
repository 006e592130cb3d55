import importlib
import re
from fractions import Fraction

import pytest
from support import lie_direct_sum, lie_quotient, reference_bracket, reference_span

from bolalg.catalog import catalog, catalog_names
from bolalg.envelope import envelope
from bolalg.errors import DimensionMismatch, NotAnIdeal
from bolalg.forms import killing
from bolalg.lie import (
    LieAlgebra,
    bracket_span,
    derived_subspace,
    jacobi_check,
    killing_gram,
    lie_derived_series,
    lie_is_ideal,
    lie_is_semisimple,
    lie_is_solvable,
    lie_radical,
)
from bolalg.linalg import basis_vec, full_space, rank, span, vec, zero_space

F = Fraction

LIE = importlib.import_module("bolalg.lie")

SL2 = {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0), (2, 1): (0, -2, 0)}
HEIS = {(0, 1): (0, 0, 1)}


def make_lie(m, sparse, labels=None):
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j), coords in sparse.items():
        for k, c in enumerate(coords):
            C[i][j][k] = F(c)
            C[j][i][k] = F(-c)
    return LieAlgebra.from_constants(m, C, labels)


def hand_killing(L):
    """Independent oracle: ad matrices and traces with bare loops."""
    m = L.m
    ad = []
    for i in range(m):
        cols = [L.bracket(basis_vec(i, m), basis_vec(j, m)) for j in range(m)]
        ad.append([[cols[j][r] for j in range(m)] for r in range(m)])
    g = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            s = F(0)
            for a in range(m):
                for b in range(m):
                    s += ad[i][a][b] * ad[j][b][a]
            g[i][j] = s
    return tuple(tuple(row) for row in g)


def test_jacobi_abelian_and_sl2():
    assert jacobi_check(make_lie(3, {})).ok
    assert jacobi_check(make_lie(3, SL2)).ok


def test_jacobi_detects_perturbation():
    L = make_lie(3, SL2)
    C = [[[L.C[i][j][k] for k in range(3)] for j in range(3)] for i in range(3)]
    # set [e,f] = e + h: [[e,f],h] + [[f,h],e] + [[h,e],f] = -2e
    C[0][1][0] += 1
    C[1][0][0] -= 1
    bad = LieAlgebra.from_constants(3, C)
    rep = jacobi_check(bad)
    assert not rep.ok and rep.witness is not None


def test_killing_sl2_matches_hand_oracle():
    L = make_lie(3, SL2)
    g = killing_gram(L)
    assert g == hand_killing(L)
    assert g == (
        (F(0), F(4), F(0)),
        (F(4), F(0), F(0)),
        (F(0), F(0), F(8)),
    )
    assert killing(L).symmetric


def test_killing_heis3_vanishes():
    L = make_lie(3, HEIS)
    assert all(c == 0 for row in killing_gram(L) for c in row)


def test_killing_ad_invariance():
    L = make_lie(3, SL2)
    b = killing(L)
    bas = L.basis()
    for x in bas:
        for y in bas:
            for z in bas:
                assert b.value(L.bracket(x, y), z) == b.value(x, L.bracket(y, z))


def test_lie_solvability():
    assert lie_is_solvable(make_lie(2, {}))
    assert lie_is_solvable(make_lie(3, HEIS))
    assert not lie_is_solvable(make_lie(3, SL2))


def test_lie_series_requires_ideal():
    L = make_lie(3, SL2)
    with pytest.raises(NotAnIdeal):
        lie_derived_series(L, span([vec([1, 0, 0])], 3))


def test_lie_radical_values():
    assert lie_radical(make_lie(3, SL2)) == zero_space(3)
    assert lie_radical(make_lie(3, HEIS)) == full_space(3)


def test_lie_semisimple_direct_sum():
    two = lie_direct_sum(make_lie(3, SL2), make_lie(3, SL2))
    assert lie_is_semisimple(two)
    assert not lie_is_semisimple(make_lie(3, HEIS))


def test_radical_quotient_has_nondegenerate_killing():
    for name in catalog_names():
        G = envelope(catalog(name)).lie
        rad = lie_radical(G)
        assert lie_derived_series(G, rad).solvable
        Q = lie_quotient(G, rad)
        assert Q.m == 0 or rank(killing_gram(Q)) == Q.m


def test_cartan_solvability_criterion_on_envelopes():
    # solvable iff the Killing form kills the derived algebra
    for name in catalog_names():
        G = envelope(catalog(name)).lie
        b = killing(G)
        derived = derived_subspace(G, full_space(G.m))
        vanished = all(
            b.value(basis_vec(i, G.m), d) == 0 for i in range(G.m) for d in derived.basis
        )
        assert vanished == lie_is_solvable(G)


def test_bracket_span_and_derived():
    L = make_lie(3, SL2)
    assert derived_subspace(L, full_space(3)) == full_space(3)
    assert bracket_span(L, span([vec([1, 0, 0])], 3), full_space(3)).dim == 2


@pytest.mark.parametrize(
    ("m", "C", "where"),
    [
        (2, [[[0, 0]]], "C has length 1, expected 2"),
        (2, [[[0, 0], [0, 0]], [[0, 0]]], "C[1] has length 1, expected 2"),
        (2, [[[0, 0], [0, 0]], [[0, 0], [0]]], "C[1][1] has length 1, expected 2"),
        (1, [[[0, 0]]], "C[0][0] has length 2, expected 1"),
    ],
)
def test_from_constants_rejects_a_tensor_that_is_not_m_cubed(m, C, where):
    with pytest.raises(DimensionMismatch, match=re.escape(where)):
        LieAlgebra.from_constants(m, C)


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
def test_from_constants_rejects_the_wrong_number_of_labels(labels):
    with pytest.raises(DimensionMismatch, match="labels has length"):
        LieAlgebra.from_constants(2, [[[0, 0]] * 2] * 2, labels)


def test_direct_sum_and_quotient_invert_each_other():
    L = lie_direct_sum(make_lie(3, SL2, ("e", "f", "h")), make_lie(3, HEIS, ("x", "y", "z")))
    assert L.labels == ("l.e", "l.f", "l.h", "r.x", "r.y", "r.z")
    assert all(L.C[i][j][k] == 0 for i in range(6) for j in range(6) for k in range(6) if (i < 3) != (j < 3) or (i < 3) != (k < 3))
    Q = lie_quotient(L, span([basis_vec(i, 6) for i in range(3, 6)], 6))
    assert Q.labels == ("l.e", "l.f", "l.h") and Q.C == make_lie(3, SL2).C


def test_solvability_brackets_the_full_space_once(monkeypatch):
    # L is an ideal of itself without a bracket; [L, L] is the span of the
    # rows [f_i, f_j], formed once per algebra and shared by the radical
    L = envelope(catalog("sl2bol")).lie
    calls, spans = [], []
    monkeypatch.setattr(LIE, "bracket_span", lambda *args: calls.append(args) or bracket_span(*args))
    monkeypatch.setattr(LIE, "span", lambda *args: spans.append(args) or span(*args))
    L = LieAlgebra(L.m, L.labels, L.integer_rows)  # a fresh instance, with nothing cached
    assert lie_is_ideal(L, full_space(L.m)) and calls == []
    assert not lie_is_solvable(L)
    assert lie_radical(L).is_zero() and not lie_is_solvable(L)
    assert [args for args in calls if args[1].is_full()] == []
    assert [len(vectors) for vectors, _ in spans].count(L.m * (L.m - 1) // 2) == 1
    assert L.derived == reference_span([reference_bracket(L, x, y) for x in L.basis() for y in L.basis()], L.m)
