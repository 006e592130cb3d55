import importlib
import random
from functools import reduce
from itertools import combinations_with_replacement

import pytest
from support import rational_basis, record_fields, replaced, spy_on_cache, transport, unimodular_basis

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, center, check_axioms, direct_sum, prod_span, tri_span
from bolalg.decompose import Decomposition, decompose_semisimple, find_proper_ideal, structure_report, verify_reassembly
from bolalg.envelope import envelope
from bolalg.errors import PreconditionViolation
from bolalg.forms import BilinearForm, envelope_form
from bolalg.linalg import basis_vec, full_space, intersect, span, zero_vec
from bolalg.radical import is_simple, radical
from bolalg.series import bol_derived_series, lts_derived_series

RADICAL = importlib.import_module("bolalg.radical")
DECOMPOSE = importlib.import_module("bolalg.decompose")


def test_find_proper_ideal_simple_algebra():
    ideal, res = find_proper_ideal(catalog("sl2bol"))
    assert ideal is None and res.status == "yes"


@pytest.mark.parametrize(
    "search", [is_simple, find_proper_ideal, decompose_semisimple, structure_report], ids=lambda f: f.__name__
)
def test_the_searches_take_no_seed(search):
    # the simplicity search draws nothing at random, so there is nothing to seed
    with pytest.raises(TypeError, match="seed"):
        search(catalog("sl2bol"), seed=0)


def test_find_proper_ideal_mixed():
    ideal, res = find_proper_ideal(catalog("mixed"))
    assert ideal is not None and 0 < ideal.dim < 5
    assert res.status == "no"


def test_find_proper_ideal_abelian2():
    ideal, res = find_proper_ideal(catalog("abelian2"))
    assert ideal is not None and ideal.dim == 1


def test_decompose_simple_returns_single_component():
    B = catalog("sl2bol")
    dec = decompose_semisimple(B)
    assert len(dec.components) == 1
    assert dec.components[0].T == B.T and dec.components[0].R == B.R
    assert dec.certified
    assert verify_reassembly(B, dec)


def test_decompose_two_simple_summands():
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    beta = envelope_form(B)
    dec = decompose_semisimple(B, beta)
    assert dec.certified
    assert sorted(c.n for c in dec.components) == [3, 3]
    assert all(dec.orthogonality[i][j] for i in range(2) for j in range(2) if i != j)
    assert verify_reassembly(B, dec)
    # cross products vanish between distinct components
    e1, e2 = dec.embeddings
    assert prod_span(B, e1, e2).is_zero()
    full = full_space(6)
    assert tri_span(B, full, e1, e2) <= intersect(e1, e2)


def test_decompose_solv2_precondition_violation():
    with pytest.raises(PreconditionViolation):
        decompose_semisimple(catalog("solv2"), BilinearForm.identity_gram(2))


def test_decompose_abelian_precondition_violation():
    with pytest.raises(PreconditionViolation):
        decompose_semisimple(catalog("abelian2"), BilinearForm.identity_gram(2))


def test_decompose_rejects_degenerate_form():
    from bolalg.linalg import mat

    with pytest.raises(PreconditionViolation):
        decompose_semisimple(catalog("sl2bol"), BilinearForm(mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])))


def test_structure_report_item1_on_catalog():
    for name in catalog_names():
        rep = structure_report(catalog(name))
        assert rep.item1_biconditional, name


def test_structure_report_item2_on_catalog():
    for name in catalog_names():
        rep = structure_report(catalog(name))
        assert rep.item2_biconditional, name


def test_structure_report_item3_semisimple_entries():
    for name in ("sl2bol", "so3bol", "lts_sl2"):
        rep = structure_report(catalog(name))
        assert rep.decomposition_ran and rep.component_dims == (3,)
        assert rep.triple_span_is_everything
        assert rep.decomposition_certified
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    rep = structure_report(B)
    assert rep.component_dims == (3, 3)
    assert rep.triple_span_is_everything


@pytest.mark.parametrize("pair", list(combinations_with_replacement(catalog_names(), 2)), ids="+".join)
@pytest.mark.parametrize("basis", ["natural", "unimodular"])
def test_direct_sums_add_envelopes_radicals_and_components(pair, basis):
    A, B = (catalog(name) for name in pair)
    S = direct_sum(A, B)
    if basis == "unimodular":
        S = transport(S, unimodular_basis(random.Random("+".join(pair)), S.n))
    assert envelope(S).total_dim == envelope(A).total_dim + envelope(B).total_dim
    rad_s, rad_a, rad_b = radical(S), radical(A), radical(B)
    assert rad_s.decided and rad_a.decided and rad_b.decided
    assert rad_s.radical.dim == rad_a.radical.dim + rad_b.radical.dim
    if basis == "natural":  # radical(A+B) = radical(A) + radical(B), block by block
        blocks = [v + zero_vec(B.n) for v in rad_a.radical.basis] + [zero_vec(A.n) + v for v in rad_b.radical.basis]
        assert rad_s.radical == span(blocks, S.n)
    if rad_a.radical.is_zero() and rad_b.radical.is_zero():
        parts = decompose_semisimple(A).components + decompose_semisimple(B).components
        assert sorted(c.n for c in decompose_semisimple(S).components) == sorted(c.n for c in parts)


def test_structure_report_solvable_entry():
    rep = structure_report(catalog("solv2"))
    assert rep.lie_solvable and rep.beta_orthogonal_to_triple_span
    assert not rep.decomposition_ran
    assert not rep.triple_span_is_everything


# Decompositions of direct sums under a dense integral change of basis,
# recorded before the searches were cached: (component dimensions,
# embeddings in the coordinates of the input, certified, notes).
DECOMPOSITIONS = {
    "sl2bol+so3bol": (
        (3, 3),
        [
            [
                ["1", "0", "0", "1/2", "2", "-3/2"],
                ["0", "1", "0", "0", "2", "-1"],
                ["0", "0", "1", "0", "1", "0"],
            ],
            [
                ["1", "0", "0", "1", "0", "0"],
                ["0", "1", "0", "0", "-1", "1"],
                ["0", "0", "1", "0", "0", "1"],
            ],
        ],
        True,
        (),
    ),
    "lts_sl2+lts_sl2": (
        (3, 3),
        [
            [
                ["1", "0", "0", "0", "1/5", "1/5"],
                ["0", "1", "0", "0", "4/5", "-1/5"],
                ["0", "0", "1", "0", "2/5", "2/5"],
            ],
            [
                ["1", "0", "1", "0", "0", "1"],
                ["0", "1", "1", "1", "0", "1"],
                ["0", "0", "0", "0", "1", "-1"],
            ],
        ],
        True,
        (),
    ),
    "sl2bol+so3bol+lts_sl2": (
        (3, 3, 3),
        [
            [
                ["1", "0", "0", "1/4", "1/4", "1/2", "-1/4", "-1/2", "1/2"],
                ["0", "1", "0", "1/8", "1/8", "3/4", "-5/8", "-1/4", "3/4"],
                ["0", "0", "1", "-1/2", "1/2", "0", "1/2", "0", "0"],
            ],
            [
                ["1", "0", "0", "5/4", "1/8", "1/4", "1/2", "3/8", "-7/8"],
                ["0", "1", "0", "1/2", "-1/4", "1/2", "0", "1/4", "-1/4"],
                ["0", "0", "1", "1", "1", "0", "1", "1", "-1"],
            ],
            [
                ["1", "0", "0", "46/107", "-10/107", "15/107", "-7/107", "-47/107", "-18/107"],
                ["0", "1", "0", "24/107", "-43/214", "59/107", "-105/214", "-63/214", "51/214"],
                ["0", "0", "1", "-35/107", "85/214", "-37/107", "113/214", "25/214", "-61/214"],
            ],
        ],
        True,
        (),
    ),
}

# Every field of `structure_report` on the same inputs.
STRUCTURE = {
    "sl2bol+so3bol": dict(
        beta_nondegenerate=True,
        beta_orthogonal_to_triple_span=False,
        component_dims=(3, 3),
        decomposition_certified=True,
        decomposition_ran=True,
        item1_biconditional=True,
        item2_biconditional=True,
        lie_semisimple=True,
        lie_solvable=False,
        note="",
        triple_span_is_everything=True,
    ),
    "lts_sl2+lts_sl2": dict(
        beta_nondegenerate=True,
        beta_orthogonal_to_triple_span=False,
        component_dims=(3, 3),
        decomposition_certified=True,
        decomposition_ran=True,
        item1_biconditional=True,
        item2_biconditional=True,
        lie_semisimple=True,
        lie_solvable=False,
        note="",
        triple_span_is_everything=True,
    ),
    "sl2bol+so3bol+lts_sl2": dict(
        beta_nondegenerate=True,
        beta_orthogonal_to_triple_span=False,
        component_dims=(3, 3, 3),
        decomposition_certified=True,
        decomposition_ran=True,
        item1_biconditional=True,
        item2_biconditional=True,
        lie_semisimple=True,
        lie_solvable=False,
        note="",
        triple_span_is_everything=True,
    ),
}


def decomposition_input(key):
    B = reduce(direct_sum, [catalog(p) for p in key.split("+")])
    return transport(B, unimodular_basis(random.Random(f"{key}-decompose"), B.n))


@pytest.mark.parametrize("key", DECOMPOSITIONS)
def test_dense_decomposition_results_are_unchanged(key):
    B = decomposition_input(key)
    dec = decompose_semisimple(B)
    embeddings = [[[str(c) for c in row] for row in e.basis] for e in dec.embeddings]
    assert (tuple(c.n for c in dec.components), embeddings, dec.certified, dec.notes) == DECOMPOSITIONS[key]
    assert record_fields(structure_report(B)) == STRUCTURE[key]


def test_dense_twelve_dimensional_decomposition_is_certified():
    # its charpolys carry 18-digit coefficients, so finding their rational roots must not factor them
    s = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    B = transport(direct_sum(s, s), unimodular_basis(random.Random(5), 12))
    dec = decompose_semisimple(B)
    assert (dec.certified, [c.n for c in dec.components], dec.notes) == (True, [3, 3, 3, 3], ())
    assert verify_reassembly(B, dec)


def rebuilt(B):
    return BolAlgebra.from_tensors(B.n, B.T, B.R, B.labels)


def test_equal_algebras_share_one_decomposition():
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    assert decompose_semisimple(rebuilt(B)) is decompose_semisimple(B)


def test_default_form_shares_the_envelope_form_entry():
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    dec = decompose_semisimple(B)
    assert decompose_semisimple(B, envelope_form(B), "skew") is dec
    assert decompose_semisimple(B, b=None, variant="skew") is dec
    assert decompose_semisimple(B, envelope_form(rebuilt(B))) is dec


def test_a_form_built_from_the_envelope_gram_is_the_envelope_form(monkeypatch):
    # a form is its Gram matrix and nothing else, so equal matrices share one decomposition
    computed = spy_on_cache(monkeypatch, DECOMPOSE, "_decompose_semisimple")
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    beta = BilinearForm(envelope_form(B).gram)
    assert beta == envelope_form(B) and hash(beta) == hash(envelope_form(B))
    assert decompose_semisimple(B, beta) is decompose_semisimple(B)
    assert len(computed) == 1


def test_other_arguments_get_their_own_decomposition(monkeypatch):
    computed = spy_on_cache(monkeypatch, DECOMPOSE, "_decompose_semisimple")
    B = catalog("so3bol")
    beta = envelope_form(B)
    doubled = BilinearForm(tuple(tuple(2 * c for c in row) for row in beta.gram))
    decompose_semisimple(B)
    decompose_semisimple(B, doubled)
    with pytest.raises(PreconditionViolation):
        decompose_semisimple(B, variant="paper")
    assert computed == [
        (B, beta, "skew"),
        (B, doubled, "skew"),
        (B, beta, "paper"),
    ]


def test_failed_decomposition_is_not_cached(monkeypatch):
    computed = spy_on_cache(monkeypatch, DECOMPOSE, "_decompose_semisimple")
    for _ in range(2):
        with pytest.raises(PreconditionViolation):
            decompose_semisimple(catalog("solv2"), BilinearForm.identity_gram(2))
    assert len(computed) == 2


def test_each_algebra_is_searched_once_per_session(monkeypatch):
    # the spies start with empty caches, so earlier tests cannot hide a search
    B = decomposition_input("sl2bol+so3bol")
    searched = spy_on_cache(monkeypatch, RADICAL, "_is_simple")
    decomposed = spy_on_cache(monkeypatch, DECOMPOSE, "_decompose_semisimple")
    is_simple(B)
    dec = decompose_semisimple(B)
    structure_report(B)
    assert [args[0] for args in searched] == [B, *dec.components]
    assert len(set(dec.components)) == 2
    assert decomposed == [(B, envelope_form(B), "skew")]


def test_public_searches_are_not_cache_objects():
    # a wrapper around a public name (tracing, counting) must see every call, cache hits included
    for fn in (is_simple, decompose_semisimple):
        assert not hasattr(fn, "cache_info")


def _sl2_so3_decomposition():
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    return B, decompose_semisimple(B)


@pytest.mark.parametrize("keep_binary", [False, True])
def test_verify_reassembly_rejects_a_wrong_component_tensor(keep_binary):
    B, dec = _sl2_so3_decomposition()
    first = dec.components[0]
    wrong = BolAlgebra.from_tensors(3, first.T, BolAlgebra.zero(3).R) if keep_binary else BolAlgebra.zero(3)
    assert not verify_reassembly(B, replaced(dec, components=(wrong, dec.components[1])))


def test_verify_reassembly_rejects_a_nonzero_cross_product():
    # span{e0} and span{e1} of solv2 are each a one-dimensional zero algebra, but e0*e1 = e0
    B = catalog("solv2")
    frames = tuple(span([basis_vec(i, 2)], 2) for i in range(2))
    line = catalog("abelian1")
    dec = Decomposition((line, line), frames, BilinearForm.identity_gram(2), ((True, True), (True, True)), True)
    assert not verify_reassembly(B, dec)


def test_verify_reassembly_rejects_dimensions_that_do_not_sum_to_n():
    B, dec = _sl2_so3_decomposition()
    assert not verify_reassembly(B, replaced(dec, components=dec.components[:1], embeddings=dec.embeddings[:1]))


def test_verify_reassembly_rejects_a_component_of_the_wrong_dimension():
    B, dec = _sl2_so3_decomposition()
    assert not verify_reassembly(B, replaced(dec, components=(dec.components[0], catalog("solv2"))))


# A change of basis moves every answer of a session to an isomorphic one,
# so the basis-free parts must equal the natural basis's (ROADMAP item 5).


def _session_answers(B: BolAlgebra) -> dict:
    full = full_space(B.n)
    cert = radical(B)
    try:
        components = sorted(c.n for c in decompose_semisimple(B).components)
    except PreconditionViolation:
        components = None
    report = record_fields(structure_report(B))
    return {
        "pass": check_axioms(B).ok,
        "center": center(B).dim,
        "bol_series": [s.dim for s in bol_derived_series(B, full).chain],
        "lts_series": [s.dim for s in lts_derived_series(B, full).chain],
        "envelope": envelope(B).total_dim,
        "radical": (cert.radical.dim if cert.radical is not None else None, cert.decided),
        "simple": is_simple(B).status,
        "components": components,
        "report": dict(report, component_dims=sorted(report["component_dims"])),
    }


ENTRIES_AND_SUMS = [(name,) for name in catalog_names()] + list(combinations_with_replacement(catalog_names(), 2))


@pytest.mark.parametrize("names", ENTRIES_AND_SUMS, ids="+".join)
@pytest.mark.parametrize("basis", ["unimodular", "rational"])
def test_a_session_answers_the_same_in_any_basis(names, basis):
    B = reduce(direct_sum, (catalog(name) for name in names))
    rng = random.Random(f"{'+'.join(names)}-{basis}-session")
    moved = transport(B, (unimodular_basis if basis == "unimodular" else rational_basis)(rng, B.n))
    assert _session_answers(moved) == _session_answers(B)
