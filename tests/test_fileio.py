from pathlib import Path

import pytest

from bolalg.catalog import catalog, catalog_names
from bolalg.envelope import envelope
from bolalg.errors import DocumentError
from bolalg.fileio import emit_bol_document, emit_lie_document, parse_bol_document, parse_lie_document

FIXTURES = Path(__file__).parent / "fixtures"


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
    ],
)
def test_parse_lie_rejects_invalid_documents(body, fragment):
    with pytest.raises(DocumentError) as err:
        parse_lie_document(body)
    assert fragment in str(err.value)


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
