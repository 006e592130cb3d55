import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra
from bolalg.envelope import envelope
from bolalg.errors import DocumentError, PreconditionViolation
from bolalg.fileio import emit_bol_document, emit_lie_document, parse_bol_document, parse_lie_document
from bolalg.lie import LieAlgebra

FIXTURES = Path(__file__).parent / "fixtures"
# A JSON integer past the interpreter's 4300-digit limit for int <-> str.
LONG_COEFF = '{"name": "t", "dim": 2, "binary": [[0, 1, 0, ' + "7" * 5000 + "]]}"
# Strings Fraction reads but the documented grammar "p" or "p/q" does not allow.
OFF_GRAMMAR = ("0.5", "1e5", " 3", "1_000", "1e10000000", "\u0663")


def test_round_trip_catalog_byte_identical():
    for name in catalog_names():
        text = emit_bol_document(catalog(name), name)
        B, parsed_name = parse_bol_document(text)
        assert parsed_name == name
        assert emit_bol_document(B, parsed_name) == text


def test_round_trip_preserves_tensors():
    for name in catalog_names():
        B0 = catalog(name)
        B1, _ = parse_bol_document(emit_bol_document(B0, name))
        assert B1.T == B0.T and B1.R == B0.R and B1.labels == B0.labels


def test_fixture_files_are_canonical():
    for fname in ("undecided_radical.json", "not_a_bol_algebra.json"):
        text = (FIXTURES / fname).read_text()
        B, name = parse_bol_document(text)
        assert emit_bol_document(B, name) == text


def test_lie_document_round_trip():
    E = envelope(catalog("solv2"))
    text = emit_lie_document(E.lie, "solv2.envelope", env=E)
    L, name, b_dim, h_basis = parse_lie_document(text)
    assert name == "solv2.envelope"
    assert L.C == E.lie.C
    assert b_dim == 2
    assert h_basis == E.h_basis
    assert emit_lie_document(L, name, env=E) == text


def test_scalars_render_reduced_without_p_over_1():
    text = emit_bol_document(catalog("sl2bol"), "sl2bol")
    assert '"1"' in text and '"/1"' not in text and "+" not in text


def test_parse_accepts_plain_integers():
    B, _ = parse_bol_document(
        '{"name": "t", "dim": 2, "binary": [[0, 1, 0, 2]], "ternary": []}'
    )
    assert B.T[0][1][0] == 2 and B.T[1][0][0] == -2


def test_parse_accepts_fraction_strings():
    B, _ = parse_bol_document(
        '{"name": "t", "dim": 2, "binary": [[0, 1, 0, "-3/6"]], "ternary": []}'
    )
    assert str(B.T[0][1][0]) == "-1/2"


@pytest.mark.parametrize(
    "body,fragment",
    [
        ('{"dim": 2}', "name"),
        ('{"name": "t"}', "dim"),
        ('{"name": "t", "dim": -1}', "dim"),
        ('{"name": "t", "dim": 2, "basis": ["a"]}', "basis"),
        ('{"name": "t", "dim": 2, "extra": 1}', "unknown"),
        ('{"name": "t", "dim": 2, "binary": [[1, 0, 0, "1"]]}', "i < j"),
        ('{"name": "t", "dim": 2, "binary": [[0, 0, 0, "1"]]}', "i < j"),
        ('{"name": "t", "dim": 2, "binary": [[0, 2, 0, "1"]]}', "out of range"),
        ('{"name": "t", "dim": 2, "binary": [[0, 1, 0, "1"], [0, 1, 0, "2"]]}', "duplicate"),
        ('{"name": "t", "dim": 2, "binary": [[0, 1, 0, 1.5]]}', "scalars"),
        ('{"name": "t", "dim": 2, "binary": [[0, 1, 0, "x"]]}', "cannot parse"),
        ('{"name": "t", "dim": 2, "binary": [[0, 1, "1"]]}', "expected"),
        ('{"name": "t", "dim": 2, "ternary": [[0, 1, 0, 0]]}', "expected"),
        ('{"name": "t", "dim": 2, "binary": null}', "must be a list"),
        ('{"name": "t", "dim": 2, "ternary": 3}', "must be a list"),
        ("[1, 2]", "object"),
        ("{broken", "invalid JSON"),
        pytest.param("[" * 100_000, "nested too deeply", id="deeply-nested"),
        pytest.param(LONG_COEFF, "invalid JSON", id="long-integer"),
        pytest.param('{"name": "t", "dim": ' + "7" * 5000 + "}", "invalid JSON", id="long-dim"),
        *(
            pytest.param(f'{{"name": "t", "dim": 2, "binary": [[0, 1, 0, "{x}"]]}}', "cannot parse", id=f"scalar-{x}")
            for x in OFF_GRAMMAR
        ),
    ],
)
def test_parse_rejects_invalid_documents(body, fragment):
    with pytest.raises(DocumentError) as err:
        parse_bol_document(body)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ('{"name": 5, "dim": 1}', "name"),
        ('{"name": "g", "dim": 2, "basis": [1, 2]}', "basis"),
        ('{"name": "g", "dim": 1, "b_dim": true}', "b_dim"),
        ('{"name": "g", "dim": 1, "b_dim": "3"}', "b_dim"),
        ('{"name": "g", "dim": 1, "b_dim": 7}', "b_dim"),
        ('{"name": "g", "dim": 1, "b_dim": -1}', "b_dim"),
        ('{"name": "g", "dim": 2, "brackets": [[1, 0, 0, "1"]]}', "i < j"),
        ('{"name": "g", "dim": 2, "brackets": [[0, 1, 5, "1"]]}', "out of range"),
        ('{"name": "g", "dim": 2, "brackets": {"0": 1}}', "must be a list"),
        ('{"name": "g", "dim": 2, "binary": []}', "unknown"),
        pytest.param("[" * 100_000, "nested too deeply", id="deeply-nested"),
        pytest.param(LONG_COEFF.replace("binary", "brackets"), "invalid JSON", id="long-integer"),
        *(
            pytest.param(
                f'{{"name": "g", "dim": 1, "b_dim": 1, "h_basis": [{{"pi": [["{x}"]], "comp": ["0"]}}]}}',
                "cannot parse",
                id=f"h-scalar-{x}",
            )
            for x in OFF_GRAMMAR
        ),
    ],
)
def test_parse_lie_rejects_invalid_documents(body, fragment):
    with pytest.raises(DocumentError) as err:
        parse_lie_document(body)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "h_basis,field",
    [
        ("5", "h_basis"),
        ('[{"pi": 5, "comp": ["0"]}]', "h_basis[0].pi"),
        ('[{"pi": [5], "comp": ["0"]}]', "h_basis[0].pi[0]"),
        ('[{"pi": [["0"]], "comp": 5}]', "h_basis[0].comp"),
    ],
)
def test_parse_lie_rejects_non_list_h_basis_parts(h_basis, field):
    with pytest.raises(DocumentError) as err:
        parse_lie_document(f'{{"name": "g", "dim": 1, "b_dim": 1, "h_basis": {h_basis}}}')
    assert err.value.field == field
    assert str(err.value).startswith(f"{field}: must be a list")


def test_parse_lie_accepts_b_dim_bounds():
    for b_dim in (0, 2):
        _, _, got, _ = parse_lie_document(f'{{"name": "g", "dim": 2, "b_dim": {b_dim}}}')
        assert got == b_dim


def test_default_basis_labels():
    B, _ = parse_bol_document('{"name": "t", "dim": 3}')
    assert B.labels == ("e0", "e1", "e2")


def test_emitted_entries_are_sorted():
    import json

    text = emit_bol_document(catalog("mixed"), "mixed")
    doc = json.loads(text)
    for section in ("binary", "ternary"):
        keys = [tuple(e[:-1]) for e in doc[section]]
        assert keys == sorted(keys)
    assert list(doc) == ["name", "dim", "basis", "binary", "ternary"]


def test_emit_refuses_tensors_the_format_cannot_hold():
    # a document stores i < j only, so T[0][0] and T[1][0] would be read back as 0 and -e0
    Z = [[[[0, 0]] * 2] * 2] * 2
    B = BolAlgebra.from_tensors(2, [[[1, 0], [1, 0]], [[0, 0], [0, 0]]], Z)
    with pytest.raises(PreconditionViolation, match=re.escape("T[0][0]")):
        emit_bol_document(B, "bad")
    R = [[[[0, 0], [0, 0]], [[0, 0], [0, 1]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]
    with pytest.raises(PreconditionViolation, match=re.escape("R[0][1]")):
        emit_bol_document(BolAlgebra.from_tensors(2, [[[0, 0]] * 2] * 2, R), "bad")
    C = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
    with pytest.raises(PreconditionViolation, match=re.escape("C[0][1]")):
        emit_lie_document(LieAlgebra.from_constants(2, C), "bad")


def test_an_exponent_scalar_is_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(DocumentError, match="cannot parse"):
        parse_bol_document('{"name": "t", "dim": 2, "binary": [[0, 1, 0, "1e10000000"]]}')
    assert time.perf_counter() - start < 1.0


@given(st.sampled_from(["", "+", "-"]), st.integers(0, 10**40), st.integers(1, 10**40))
def test_scalar_strings_read_as_their_fraction(sign, p, q):
    B, _ = parse_bol_document(
        json.dumps({"name": "t", "dim": 2, "binary": [[0, 1, 0, f"{sign}{p}/{q}"], [0, 1, 1, f"{sign}{p}"]]})
    )
    s = -1 if sign == "-" else 1
    assert B.T[0][1] == (s * Fraction(p, q), s * Fraction(p))


# Documents that are mostly well formed: the known keys, small indices and
# dims, and scalars on and off the grammar.  Dims stay small because a
# valid document of dimension n allocates n^4 coefficients.
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-3/6", "+2", "1/0", "0.5", "1e5", " 3", "1_000", "\u0663", "x", ""]),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
JSON = st.recursive(
    SCALARS | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=16,
)
ENTRY = st.lists(st.integers(-1, 3) | SCALARS, min_size=3, max_size=6)
PAIR = st.fixed_dictionaries({"pi": JSON, "comp": JSON}) | st.fixed_dictionaries(
    {"pi": st.lists(st.lists(SCALARS, max_size=3), max_size=3), "comp": st.lists(SCALARS, max_size=3)}
)
FIELDS = {
    "name": st.text(max_size=3) | JSON,
    "dim": st.integers(-1, 3) | JSON,
    "basis": st.lists(st.text(max_size=2), max_size=4) | JSON,
    "binary": st.lists(ENTRY, max_size=4) | JSON,
    "ternary": st.lists(ENTRY, max_size=4) | JSON,
    "brackets": st.lists(ENTRY, max_size=4) | JSON,
    "b_dim": st.integers(-1, 4) | JSON,
    "h_basis": st.lists(PAIR, max_size=3) | JSON,
    "extra": JSON,
}
DOCUMENTS = st.one_of(
    st.text(max_size=40),
    JSON.map(json.dumps),
    st.fixed_dictionaries({}, optional=FIELDS).map(json.dumps),
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
@example(LONG_COEFF)
@example('{"name": "t", "dim": 2, "binary": [[0, 1, 0, "1e100"]]}')
@example('{"name": "g", "dim": 1, "b_dim": 1, "h_basis": [{"pi": [["1e100"]], "comp": ["0"]}]}')
def test_every_text_parses_or_is_a_document_error(text):
    for parse in (parse_bol_document, parse_lie_document):
        try:
            parse(text)
        except DocumentError:
            pass
