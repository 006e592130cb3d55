import pytest

from support import collect_ideals, summand_embeddings, vec

from bolalg.catalog import catalog, catalog_names
from bolalg.core import prod_span, tri_span
from bolalg.errors import NotAnIdeal
from bolalg.linalg import full_space, span, zero_space
from bolalg.series import bol_derived_series, is_solvable, lts_derived_series


def test_lts_series_abelian():
    res = lts_derived_series(catalog("abelian3"), full_space(3))
    assert [s.dim for s in res.chain] == [3, 0]
    assert res.solvable


def test_lts_series_sl2bol_stabilizes_high():
    res = lts_derived_series(catalog("sl2bol"), full_space(3))
    assert res.chain[-1].dim == 3
    assert not res.solvable


def test_lts_series_heis3bol():
    res = lts_derived_series(catalog("heis3bol"), full_space(3))
    assert [s.dim for s in res.chain] == [3, 0]
    assert res.solvable


def test_bol_series_solv2():
    res = bol_derived_series(catalog("solv2"), full_space(2))
    assert [s.dim for s in res.chain] == [2, 1, 0]
    assert res.solvable and res.stabilized_at == 2


def test_bol_series_sl2bol_not_solvable():
    res = bol_derived_series(catalog("sl2bol"), full_space(3))
    assert res.chain[-1].dim == 3
    assert not res.solvable


def test_bol_series_zero_ideal():
    res = bol_derived_series(catalog("sl2bol"), zero_space(3))
    assert [s.dim for s in res.chain] == [0]
    assert res.solvable


def test_is_solvable_examples():
    assert is_solvable(catalog("heis3bol"), full_space(3))
    _, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
    assert is_solvable(catalog("mixed"), second)
    assert not is_solvable(catalog("sl2bol"), full_space(3))


def test_series_requires_ideal():
    B = catalog("solv2")
    with pytest.raises(NotAnIdeal):
        bol_derived_series(B, span([vec([0, 1])], 2))
    with pytest.raises(NotAnIdeal):
        lts_derived_series(B, span([vec([0, 1])], 2))


def test_monotone_and_strictly_decreasing_until_stable():
    for name in catalog_names():
        B = catalog(name)
        for I in collect_ideals(B):
            for res in (bol_derived_series(B, I), lts_derived_series(B, I)):
                for a, b in zip(res.chain, res.chain[1:]):
                    assert b <= a
                    assert b.dim < a.dim


def test_each_step_is_ideal_in_previous():
    # W^(n) absorbs products from W^(n-1) exactly
    for name in catalog_names():
        B = catalog(name)
        for I in collect_ideals(B):
            res = bol_derived_series(B, I)
            for prev, cur in zip(res.chain, res.chain[1:]):
                assert prod_span(B, prev, cur) <= cur
                assert tri_span(B, cur, prev, prev) <= cur


def test_sum_of_solvable_ideals_is_solvable():
    for name in catalog_names():
        B = catalog(name)
        solvable = [I for I in collect_ideals(B) if is_solvable(B, I)]
        from bolalg.linalg import subspace_sum

        for a in solvable:
            for b in solvable:
                assert is_solvable(B, subspace_sum(a, b))
