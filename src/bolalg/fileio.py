"""Canonical JSON documents for Bol and Lie algebras.

A Bol document looks like

    {
      "name": "solv2",
      "dim": 2,
      "basis": ["e0", "e1"],
      "binary": [[0, 1, 0, "1"]],
      "ternary": []
    }

Binary entries are [i, j, k, coeff] with i < j, meaning e_i*e_j has
coefficient coeff on e_k; the antisymmetric completion is implied and
must not be spelled out.  Ternary entries are [i, j, k, l, coeff] with
i < j for (e_i, e_j, e_k) on e_l.  Coefficients are exact fraction
strings ("p" or "p/q"); plain JSON integers are accepted on input,
floats never are.

Serialization is canonical: fixed key order, entries sorted
lexicographically, fractions reduced, so emit-parse-emit is
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from bolalg.core import BolAlgebra
from bolalg.envelope import EnvelopingLie, PairEndo
from bolalg.errors import DocumentError
from bolalg.lie import LieAlgebra
from bolalg.linalg import ZERO


def _parse_scalar(x, field: str) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise DocumentError(f"{field}: scalars must be integers or fraction strings, got {x!r}", field)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{field}: cannot parse scalar {x!r} ({exc})", field) from None
        return f
    raise DocumentError(f"{field}: scalars must be integers or fraction strings, got {type(x).__name__}", field)


def _render_scalar(f: Fraction) -> str:
    return str(f)


def _render_document(pairs) -> str:
    """Canonical layout: one key per line, sparse entries one per line."""
    lines = ["{"]
    for idx, (key, kind, value) in enumerate(pairs):
        comma = "," if idx < len(pairs) - 1 else ""
        if kind == "plain":
            lines.append(f'  "{key}": {json.dumps(value)}{comma}')
        elif kind == "entries":
            if not value:
                lines.append(f'  "{key}": []{comma}')
            else:
                lines.append(f'  "{key}": [')
                for epos, entry in enumerate(value):
                    ecomma = "," if epos < len(value) - 1 else ""
                    lines.append(f"    {json.dumps(entry)}{ecomma}")
                lines.append(f"  ]{comma}")
        else:  # pragma: no cover - internal misuse
            raise ValueError(kind)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check_index(x, dim: int, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise DocumentError(f"{field}: index must be an integer, got {x!r}", field)
    if not 0 <= x < dim:
        raise DocumentError(f"{field}: index {x} out of range for dimension {dim}", field)
    return x


def _read_header(text: str, fields: tuple[str, ...], label: str) -> tuple[dict, str, int, tuple[str, ...]]:
    """Parse a document and check what every kind shares; returns (doc, name, dim, basis).

    `fields` are the kind's own keys besides name, dim and basis; default
    basis labels are `label` followed by the index.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("top-level value must be an object")
    for key in ("name", "dim"):
        if key not in doc:
            raise DocumentError(f"missing required field {key!r}", key)
    name = doc["name"]
    if not isinstance(name, str):
        raise DocumentError("name: must be a string", "name")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise DocumentError("dim: must be a non-negative integer", "dim")
    basis = doc.get("basis", [f"{label}{i}" for i in range(dim)])
    if not isinstance(basis, list) or len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise DocumentError(f"basis: must be a list of {dim} strings", "basis")
    unknown = set(doc) - {"name", "dim", "basis", *fields}
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    return doc, name, dim, tuple(basis)


def _sparse_entries(doc: dict, key: str, dim: int, arity: int):
    """Yield (indices, coeff) for each entry [i, j, ..., coeff] under `key`.

    Every index is checked against `dim`; i < j is required, since the
    antisymmetric completion in (i, j) is implied, and no index tuple
    may repeat.
    """
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise DocumentError(f"{key}: must be a list of entries", key)
    slots = ", ".join("ijkl"[:arity])
    seen: set[tuple] = set()
    for pos, entry in enumerate(entries):
        field = f"{key}[{pos}]"
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise DocumentError(f"{field}: expected [{slots}, coeff]", field)
        idx = tuple(_check_index(x, dim, field) for x in entry[:arity])
        if idx[0] >= idx[1]:
            raise DocumentError(f"{field}: requires i < j (antisymmetric completion is implied)", field)
        if idx in seen:
            raise DocumentError(f"{field}: duplicate entry for ({','.join(map(str, idx))})", field)
        seen.add(idx)
        yield idx, _parse_scalar(entry[arity], field)


def parse_bol_document(text: str) -> tuple[BolAlgebra, str]:
    """Parse and validate a Bol document; returns (algebra, name)."""
    doc, name, dim, basis = _read_header(text, ("binary", "ternary"), "e")
    T = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    R = [[[[ZERO] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in _sparse_entries(doc, "binary", dim, 3):
        T[i][j][k] = c
        T[j][i][k] = -c
    for (i, j, k, l), c in _sparse_entries(doc, "ternary", dim, 4):
        R[i][j][k][l] = c
        R[j][i][k][l] = -c
    return BolAlgebra.from_tensors(dim, T, R, basis), name


def emit_bol_document(B: BolAlgebra, name: str) -> str:
    """Canonical serialization of a Bol algebra."""
    binary = []
    for i in range(B.n):
        for j in range(i + 1, B.n):
            for k in range(B.n):
                if B.T[i][j][k] != 0:
                    binary.append([i, j, k, _render_scalar(B.T[i][j][k])])
    ternary = []
    for i in range(B.n):
        for j in range(i + 1, B.n):
            for k in range(B.n):
                for l in range(B.n):
                    if B.R[i][j][k][l] != 0:
                        ternary.append([i, j, k, l, _render_scalar(B.R[i][j][k][l])])
    return _render_document(
        [
            ("name", "plain", name),
            ("dim", "plain", B.n),
            ("basis", "plain", list(B.labels)),
            ("binary", "entries", binary),
            ("ternary", "entries", ternary),
        ]
    )


def emit_lie_document(L: LieAlgebra, name: str, env: EnvelopingLie | None = None) -> str:
    """Canonical serialization of a Lie algebra, optionally with envelope data."""
    brackets = []
    for i in range(L.m):
        for j in range(i + 1, L.m):
            for k in range(L.m):
                if L.C[i][j][k] != 0:
                    brackets.append([i, j, k, _render_scalar(L.C[i][j][k])])
    pairs = [
        ("name", "plain", name),
        ("dim", "plain", L.m),
        ("basis", "plain", list(L.labels)),
        ("brackets", "entries", brackets),
    ]
    if env is not None:
        pairs.append(("b_dim", "plain", env.b_dim))
        pairs.append(
            (
                "h_basis",
                "entries",
                [
                    {
                        "pi": [[_render_scalar(c) for c in row] for row in P.pi],
                        "comp": [_render_scalar(c) for c in P.comp],
                    }
                    for P in env.h_basis
                ],
            )
        )
    return _render_document(pairs)


def parse_lie_document(text: str) -> tuple[LieAlgebra, str, int | None, tuple[PairEndo, ...] | None]:
    """Parse a Lie document; returns (algebra, name, b_dim, h_basis)."""
    doc, name, dim, basis = _read_header(text, ("brackets", "b_dim", "h_basis"), "f")
    C = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in _sparse_entries(doc, "brackets", dim, 3):
        C[i][j][k] = c
        C[j][i][k] = -c
    L = LieAlgebra.from_constants(dim, C, basis)
    b_dim = doc.get("b_dim")
    if b_dim is not None and (isinstance(b_dim, bool) or not isinstance(b_dim, int) or not 0 <= b_dim <= dim):
        raise DocumentError(f"b_dim: must be an integer between 0 and {dim}", "b_dim")
    h_basis = None
    if "h_basis" in doc:
        n = dim if b_dim is None else b_dim
        pairs = []
        for pos, item in enumerate(doc["h_basis"]):
            field = f"h_basis[{pos}]"
            if not isinstance(item, dict) or "pi" not in item or "comp" not in item:
                raise DocumentError(f"{field}: expected an object with pi and comp", field)
            pi = tuple(
                tuple(_parse_scalar(c, f"{field}.pi") for c in row) for row in item["pi"]
            )
            comp = tuple(_parse_scalar(c, f"{field}.comp") for c in item["comp"])
            if len(pi) != n or any(len(r) != n for r in pi) or len(comp) != n:
                raise DocumentError(f"{field}: pi must be {n}x{n} and comp length {n}", field)
            pairs.append(PairEndo(pi, comp))
        h_basis = tuple(pairs)
    return L, name, b_dim, h_basis
