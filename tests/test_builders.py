"""Differential tests of the constructors that build structure rows directly.

The parsers, `ideal_quotient`, `restrict`, `direct_sum`, `BolAlgebra.zero`,
`envelope` and the Lie quotient and direct sum of tests/support.py hand
sparse rows to `linalg.integer_tensors`; both emitters read the rows.  Each
is compared with a dense reference of tests/support.py that forms the full
Fraction tensor and goes through `from_tensors` or `from_constants`: the
algebras must be equal and hash alike, and the documents equal byte for
byte.  Inputs are every catalog entry in its natural basis and under a
unimodular and a rational basis change, and seeded random constants.
"""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from support import (
    invert,
    lie_direct_sum,
    lie_quotient,
    random_algebra,
    rational_basis,
    reference_direct_sum,
    reference_emit,
    reference_envelope,
    reference_lie_direct_sum,
    reference_lie_quotient,
    reference_parse,
    reference_quotient,
    reference_restrict,
    transport,
    unimodular_basis,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, direct_sum, ideal_closure, ideal_quotient, restrict
from bolalg.decompose import decompose_semisimple
from bolalg.envelope import envelope
from bolalg.fileio import emit_bol_document, emit_lie_document, parse_bol_document, parse_lie_document
from bolalg.lie import LieAlgebra, lie_radical
from bolalg.linalg import complement_constants, identity, integer_tensors, span
from bolalg.radical import radical

F = Fraction
BASES = ("natural", "unimodular", "rational")


def basis_change(name, basis):
    B = catalog(name)
    if basis == "natural" or B.n == 0:
        return B
    rng = random.Random(f"{name}-{basis}-builders")
    S = rational_basis(rng, B.n) if basis == "rational" else unimodular_basis(rng, B.n)
    return transport(B, S)


def assert_same(got, ref):
    assert got == ref
    assert hash(got) == hash(ref)


def bol_reference_text(B, name):
    return reference_emit(name, B.labels, [("binary", B.T, 3), ("ternary", B.R, 4)])


def shuffled(text, rng):
    """The document with its entries shuffled, explicit "0" entries added and scalars respelled (unreduced p/q, JSON ints)."""
    doc = json.loads(text)
    n = doc["dim"]
    for key, arity in (("binary", 3), ("ternary", 4)):
        entries = doc[key]
        present = {tuple(e[:arity]) for e in entries}
        for _ in range(4 if n >= 2 else 0):
            idx = (*sorted(rng.sample(range(n), 2)), *(rng.randrange(n) for _ in range(arity - 2)))
            if idx not in present:
                present.add(idx)
                entries.append([*idx, "0"])
        for e in entries:
            c, k = F(e[-1]), rng.choice([1, 2, 6])
            e[-1] = c.numerator if c.denominator == 1 and rng.random() < 0.5 else f"{c.numerator * k}/{c.denominator * k}"
        rng.shuffle(entries)
    return json.dumps(doc)


def random_document(rng, n):
    """A document with random i < j entries, some of them zero, most with denominators."""
    doc = {"name": "random", "dim": n, "binary": [], "ternary": []}
    for key, arity in (("binary", 3), ("ternary", 4)):
        seen = set()
        for _ in range(rng.randint(0, 3 * n)):
            idx = (*sorted(rng.sample(range(n), 2)), *(rng.randrange(n) for _ in range(arity - 2)))
            if idx not in seen:
                seen.add(idx)
                doc[key].append([*idx, f"{rng.randint(-4, 4)}/{rng.choice([1, 2, 3, 10])}"])
    return json.dumps(doc)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", BASES)
def test_emitted_and_shuffled_documents_parse_to_the_dense_reference(name, basis):
    B = basis_change(name, basis)
    text = emit_bol_document(B, name)
    assert text == bol_reference_text(B, name)
    rng = random.Random(f"{name}-{basis}-shuffle")
    for doc in (text, shuffled(text, rng), shuffled(text, rng)):
        got, _ = parse_bol_document(doc)
        assert_same(got, reference_parse(doc))
        assert_same(got, B)


@pytest.mark.parametrize("seed", range(8))
def test_random_documents_parse_and_emit_like_the_dense_reference(seed):
    rng = random.Random(seed)
    text = random_document(rng, rng.randint(2, 5))
    got, _ = parse_bol_document(text)
    ref = reference_parse(text)
    assert_same(got, ref)
    assert emit_bol_document(got, "random") == bol_reference_text(ref, "random")


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("basis", BASES)
def test_envelopes_and_lie_documents_match_the_dense_reference(name, basis):
    B = basis_change(name, basis)
    G = envelope(B).lie
    h, C = reference_envelope(B)
    assert_same(G, LieAlgebra.from_constants(G.m, C, B.labels + tuple(f"D{t}" for t in range(len(h)))))
    text = emit_lie_document(G, name)
    assert text == reference_emit(name, G.labels, [("brackets", G.C, 3)])
    assert_same(parse_lie_document(text)[0], G)


def proper_ideals(B, vectors):
    """The radical and the ideal closures of the vectors, where they are proper and nonzero."""
    cert = radical(B)
    found = [cert.radical] if cert.decided else []
    found += [ideal_closure(B, span([v], B.n)) for v in vectors]
    return {I for I in found if 0 < I.dim < B.n}


@pytest.mark.parametrize("basis", BASES)
def test_quotients_by_radicals_and_closures_match_the_dense_reference(basis):
    # Sums of catalog entries under a basis change S: the closure of an old
    # basis vector (a row of S^-1) lies in its summand, so the quotient has
    # the other summand's products, and every coset is reduced by a dense I.
    quotients = []
    for name in catalog_names():
        B = basis_change(name, basis)
        quotients += [(B, I) for I in proper_ideals(B, B.basis())]
    for names in (("sl2bol", "solv2"), ("sl2bol", "so3bol"), ("heis3bol", "lts_sl2")):
        B = direct_sum(*(catalog(x) for x in names))
        S = identity(B.n)
        if basis != "natural":
            rng = random.Random(f"{names}-{basis}-quotient")
            S = rational_basis(rng, B.n) if basis == "rational" else unimodular_basis(rng, B.n)
            B = transport(B, S)
        quotients += [(B, I) for I in proper_ideals(B, invert(S))]
    for B, I in quotients:
        assert_same(ideal_quotient(B, I), reference_quotient(B, I))
    assert sum(not ideal_quotient(B, I).is_abelian() for B, I in quotients) >= 6


@pytest.mark.parametrize("seed", range(6))
def test_complement_constants_match_the_dense_reference_on_random_constants(seed):
    # the constants of a quotient by any subspace, ideal or not, of an algebra with denominators
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5), density=0.6)
    gens = [[F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
    I = span(gens, n)
    d, T, R = B.integer_rows
    comp, Tq, s = complement_constants(I, T, 3, d)
    _, Rq, s2 = complement_constants(I, R, 4, d * d)
    got = BolAlgebra(len(comp), tuple(B.labels[j] for j in comp), integer_tensors(len(comp), (Tq, 3, s), (Rq, 4, s2)))
    assert_same(got, reference_quotient(B, I))


@pytest.mark.parametrize("names", [("sl2bol", "so3bol"), ("lts_sl2", "sl2bol", "so3bol"), ("so3bol", "so3bol")], ids="+".join)
@pytest.mark.parametrize("basis", BASES)
def test_restrictions_to_decomposition_components_match_the_dense_reference(names, basis):
    B = catalog(names[0])
    for name in names[1:]:
        B = direct_sum(B, catalog(name))
    if basis != "natural":
        rng = random.Random(f"{names}-{basis}-restrict")
        B = transport(B, rational_basis(rng, B.n) if basis == "rational" else unimodular_basis(rng, B.n))
    dec = decompose_semisimple(B)
    assert dec.certified and len(dec.embeddings) == len(names)
    for I, component in zip(dec.embeddings, dec.components):
        got = restrict(B, I)
        assert_same(got, reference_restrict(B, I))
        assert_same(component, got)


def summands():
    """Catalog entries in every basis, and random constants with and without denominators."""
    out = [basis_change(name, basis) for name in ("solv2", "heis3bol", "sl2bol", "lts_sl2") for basis in BASES]
    rng = random.Random("summands")
    out += [random_algebra(rng, rng.randint(1, 3), dens, dens, density=0.7) for dens in ((1,), (1, 2, 7))]
    return out


def test_direct_sums_of_pairs_match_the_dense_reference():
    parts = summands()
    assert len({A.integer_rows[0] for A in parts}) > 2  # summands at different scales d
    for A, C in combinations(parts, 2):
        for X, Y in ((A, C), (C, A)):
            assert_same(direct_sum(X, Y), reference_direct_sum(X, Y))


@pytest.mark.parametrize("n", range(5))
def test_the_zero_algebra_matches_the_dense_reference(n):
    assert_same(BolAlgebra.zero(n), BolAlgebra.from_tensors(n, [[[0] * n] * n] * n, [[[[0] * n] * n] * n] * n))


@pytest.mark.parametrize("name", ["heis3bol", "mixed", "sl2bol"])
@pytest.mark.parametrize("basis", BASES)
def test_lie_quotients_and_direct_sums_match_the_dense_reference(name, basis):
    G = envelope(basis_change(name, basis)).lie
    H = envelope(basis_change("solv2", "rational")).lie
    rad = lie_radical(G)
    if 0 < rad.dim < G.m:
        assert_same(lie_quotient(G, rad), reference_lie_quotient(G, rad))
    assert_same(lie_direct_sum(G, H), reference_lie_direct_sum(G, H))
    assert_same(lie_direct_sum(H, G), reference_lie_direct_sum(H, G))


def test_parsing_an_empty_forty_dimensional_document_builds_no_dense_table():
    text = json.dumps({"name": "empty", "dim": 40})
    tracemalloc.start()
    try:
        B, _ = parse_bol_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert B.is_abelian() and B.n == 40
    assert peak < 10 * 2**20
