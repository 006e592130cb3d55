import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
from support import rational_basis, reference_invariance_check, symmetric_lts, transport, unimodular_basis

from bolalg.catalog import catalog, catalog_names
from bolalg.core import direct_sum, prod_span
from bolalg.envelope import envelope
from bolalg.errors import DimensionMismatch
from bolalg.forms import (
    BilinearForm,
    center_orthogonality_check,
    compare_trace_vs_envelope,
    envelope_form,
    invariance_check,
    is_nondegenerate,
    left_perp,
    right_perp,
    trace_form,
)
from bolalg.lie import killing_gram
from bolalg.linalg import full_space, mat, rank, span, vec, zero_space

F = Fraction

KILLING_SL2 = BilinearForm(mat([[0, 4, 0], [4, 0, 0], [0, 0, 8]]))


def test_invariance_abelian_any_form():
    B = catalog("abelian3")
    b = BilinearForm(mat([[1, 2, 0], [2, 5, 1], [0, 1, 3]]))
    assert invariance_check(B, b, "paper").ok
    assert invariance_check(B, b, "skew").ok


def test_invariance_sl2bol_killing_skew():
    rep = invariance_check(catalog("sl2bol"), KILLING_SL2, "skew")
    assert rep.ok


def test_invariance_sl2bol_identity_gram_fails():
    rep = invariance_check(catalog("sl2bol"), BilinearForm.identity_gram(3), "paper")
    assert not rep.ok
    assert rep.binary_witness is not None or rep.ternary_witness is not None


def test_trace_form_zero_on_abelian():
    for n in (1, 2, 3, 4):
        g = trace_form(catalog(f"abelian{n}")).gram
        assert all(c == 0 for row in g for c in row)


def test_trace_form_lts_sl2_value():
    # minus twice the sl2 Killing form, frozen after the envelope cross-check
    g = trace_form(catalog("lts_sl2")).gram
    assert g == mat([[0, -8, 0], [-8, 0, 0], [0, 0, -16]])


def test_envelope_form_values():
    assert envelope_form(catalog("sl2bol")).gram == mat([[0, 8, 0], [8, 0, 0], [0, 0, 16]])
    assert all(c == 0 for row in envelope_form(catalog("solv2")).gram for c in row)
    assert all(c == 0 for row in envelope_form(catalog("abelian4")).gram for c in row)


def test_forms_agree_on_binary_zero_entries():
    for name in ("abelian1", "abelian2", "abelian3", "abelian4", "lts_sl2"):
        assert compare_trace_vs_envelope(catalog(name)).equal, name


def test_comparison_report_on_nonzero_binary():
    for name in ("solv2", "heis3bol", "sl2bol", "so3bol", "mixed"):
        cmp = compare_trace_vs_envelope(catalog(name))
        t = BilinearForm(cmp.trace_gram)
        e = BilinearForm(cmp.envelope_gram)
        assert t.symmetric and e.symmetric
        assert len(cmp.difference) == catalog(name).n


def test_forms_are_basis_covariant():
    S = mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    for name in ("sl2bol", "lts_sl2"):
        B = catalog(name)
        Bt = transport(B, S)
        for form in (trace_form, envelope_form):
            g = form(B).gram
            gt = form(Bt).gram
            pulled = tuple(
                tuple(
                    sum(S[a][i] * g[i][j] * S[b][j] for i in range(3) for j in range(3))
                    for b in range(3)
                )
                for a in range(3)
            )
            assert gt == pulled, (name, form.__name__)


def test_perp_trivial_cases():
    b = KILLING_SL2
    assert left_perp(b, zero_space(3)) == full_space(3)
    assert left_perp(b, full_space(3)) == zero_space(3)


def test_right_perp_of_e_line():
    # kappa(e, .) pairs only against f, so the perp of span{e} is span{e, h}
    p = right_perp(KILLING_SL2, span([vec([1, 0, 0])], 3))
    assert p == span([vec([1, 0, 0]), vec([0, 0, 1])], 3)
    assert p.dim == 2


def test_perp_dimension_law():
    b = KILLING_SL2
    for s in (zero_space(3), span([vec([1, 0, 0])], 3), span([vec([1, 2, 3]), vec([0, 1, 0])], 3)):
        assert s.dim + left_perp(b, s).dim == 3


def test_nondegeneracy():
    assert is_nondegenerate(KILLING_SL2)
    assert not is_nondegenerate(BilinearForm(mat([[0, 0], [0, 0]])))


def test_left_and_right_perp_differ_for_nonsymmetric_forms():
    b = BilinearForm(mat([[0, 1], [0, 0]]))
    s = span([vec([1, 0])], 2)
    assert left_perp(b, s) == full_space(2)  # b(x, e0) = 0 always
    assert right_perp(b, s) == span([vec([1, 0])], 2)  # b(e0, x) = x_1


def test_center_orthogonality_sl2bol():
    rep = center_orthogonality_check(catalog("sl2bol"), KILLING_SL2, "skew")
    assert rep.preconditions_ok
    assert rep.center_space == zero_space(3)
    assert rep.left_perp_center == full_space(3)
    assert rep.derived_binary == full_space(3)
    assert rep.equal


def test_center_orthogonality_abelian2_identity():
    B = catalog("abelian2")
    rep = center_orthogonality_check(B, BilinearForm.identity_gram(2), "skew")
    assert rep.preconditions_ok
    assert rep.center_space == full_space(2)
    assert rep.left_perp_center == zero_space(2)
    assert rep.derived_binary == zero_space(2)
    assert rep.equal


def test_center_orthogonality_holds_under_certified_forms():
    # conditional property: preconditions plus the triple-span hypothesis
    # force the equality; ternary-only algebras violate the hypothesis
    cases = [
        (catalog("sl2bol"), KILLING_SL2),
        (catalog("abelian2"), BilinearForm.identity_gram(2)),
        (catalog("abelian3"), BilinearForm.identity_gram(3)),
        (catalog("so3bol"), envelope_form(catalog("so3bol"))),
        (catalog("lts_sl2"), envelope_form(catalog("lts_sl2"))),
    ]
    for B, b in cases:
        rep = center_orthogonality_check(B, b, "skew")
        if rep.preconditions_ok and rep.triple_in_binary:
            assert rep.equal


def test_center_orthogonality_needs_triple_span_hypothesis():
    # with zero binary the perp of the center cannot equal B*B = 0
    B = catalog("lts_sl2")
    rep = center_orthogonality_check(B, envelope_form(B), "skew")
    assert rep.preconditions_ok and not rep.triple_in_binary
    assert not rep.equal


def test_solv2_admits_no_invariant_nondegenerate_form():
    # invariance forces the first row of the gram to vanish
    B = catalog("solv2")
    found = []
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        form = BilinearForm(mat([[a, b], [b, c]]))
        if is_nondegenerate(form) and invariance_check(B, form, "skew").ok:
            found.append(form)
    assert not found


def test_envelope_form_skew_invariant_on_catalog():
    for name in catalog_names():
        B = catalog(name)
        assert invariance_check(B, envelope_form(B), "skew").ok, name


def test_center_perp_equals_derived_for_invariant_nondegenerate():
    # on entries whose envelope form certifies, run the orthogonality check
    for name in catalog_names():
        B = catalog(name)
        beta = envelope_form(B)
        rep = center_orthogonality_check(B, beta, "skew")
        if rep.preconditions_ok and rep.triple_in_binary:
            assert rep.equal, name


def test_prod_span_matches_report_field():
    B = catalog("sl2bol")
    rep = center_orthogonality_check(B, KILLING_SL2, "skew")
    assert rep.derived_binary == prod_span(B, full_space(3), full_space(3))


def _random_form(rng, n, symmetric):
    g = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
    if symmetric:
        g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return BilinearForm(mat(g))


def _bumped(b, i, j, delta):
    g = [list(row) for row in b.gram]
    g[i][j] += delta
    return BilinearForm(mat(g))


def invariance_forms(B, rng):
    """Invariant forms, the same bumped at one entry (not symmetric), and random forms."""
    n = B.n
    forms = [envelope_form(B), trace_form(B), BilinearForm.identity_gram(n)]
    forms += [_random_form(rng, n, symmetric=s) for s in (False, True)]
    forms += [_bumped(envelope_form(B), rng.randrange(n), rng.randrange(n), F(1, 2)) for _ in range(3)]
    return forms


def assert_invariance_matches(B, rng):
    for b in invariance_forms(B, rng):
        for variant in ("skew", "paper"):
            assert invariance_check(B, b, variant) == reference_invariance_check(B, b, variant)


@pytest.mark.parametrize("name", catalog_names())
def test_invariance_check_matches_reference(name):
    B = catalog(name)
    assert_invariance_matches(B, random.Random(f"{name}-invariance"))


@pytest.mark.parametrize("name", catalog_names())
def test_invariance_check_matches_reference_under_basis_change(name):
    rng = random.Random(f"{name}-invariance-basis")
    B = catalog(name)
    assert_invariance_matches(transport(B, unimodular_basis(rng, B.n)), rng)
    # rational basis: the envelope is skipped, the trace form is cheap
    Bq = transport(B, rational_basis(rng, B.n))
    for b in (trace_form(Bq), _random_form(rng, B.n, symmetric=False), _bumped(trace_form(Bq), 0, B.n - 1, F(1))):
        for variant in ("skew", "paper"):
            assert invariance_check(Bq, b, variant) == reference_invariance_check(Bq, b, variant)


def test_invariance_check_witnesses_past_the_first_tuple():
    # lts_sl2 has zero binary product, so a bumped form passes the binary
    # identity and fails the ternary one at a later tuple
    B = catalog("lts_sl2")
    rep = invariance_check(B, _bumped(envelope_form(B), 2, 2, F(1)), "skew")
    assert rep.binary_ok and not rep.ternary_ok
    assert rep.ternary_witness != (0, 0, 0, 0)
    assert rep == reference_invariance_check(B, _bumped(envelope_form(B), 2, 2, F(1)), "skew")


@pytest.mark.parametrize("size", [0, 2, 4])
def test_invariance_check_rejects_wrong_size_form(size):
    with pytest.raises(DimensionMismatch):
        invariance_check(catalog("sl2bol"), BilinearForm.identity_gram(size))


def test_invariance_check_rejects_unknown_variant():
    with pytest.raises(ValueError):
        invariance_check(catalog("sl2bol"), KILLING_SL2, "twisted")


ZERO_BINARY = {
    "lts_sl2": lambda: catalog("lts_sl2"),
    "lts_sl2+lts_sl2": lambda: direct_sum(catalog("lts_sl2"), catalog("lts_sl2")),
    "sym3": lambda: symmetric_lts(3),
}


@pytest.mark.parametrize("key", ZERO_BINARY)
@pytest.mark.parametrize("seed", range(2))
def test_trace_form_is_the_envelope_form_on_zero_binary_algebras(key, seed):
    # Independent oracle: the trace form is a contraction of R alone, the
    # envelope form the Killing form of the whole enveloping Lie algebra.
    B = ZERO_BINARY[key]()
    moved = transport(B, unimodular_basis(random.Random(f"{key}-{seed}"), B.n))
    for A in (B, moved):
        assert trace_form(A).gram == envelope_form(A).gram


@pytest.mark.parametrize("key", ["sl2bol+so3bol", "sl2bol+solv2", "heis3bol+solv2", "lts_sl2+lts_sl2", "sym3"])
def test_envelope_dimension_and_killing_rank_do_not_depend_on_the_basis(key):
    B = symmetric_lts(3) if key == "sym3" else reduce(direct_sum, [catalog(p) for p in key.split("+")])
    moved = transport(B, unimodular_basis(random.Random(key), B.n))
    E, M = envelope(B), envelope(moved)
    assert E.total_dim == M.total_dim
    assert rank(killing_gram(E.lie)) == rank(killing_gram(M.lie))
    assert rank(envelope_form(B).gram) == rank(envelope_form(moved).gram)
