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
import re
from fractions import Fraction

# The algebra layers are reached through the package on use, so a document
# the parser rejects loads none of them, and a Bol document no Lie layer.
import bolalg
from bolalg.errors import DocumentError, PreconditionViolation


# The documented scalar grammar, "p" or "p/q": Fraction alone also reads
# decimals, exponents, spaces and underscores, and "1e10000000" costs seconds.
_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_scalar(x, field: str) -> int | Fraction:
    """An int for an integer or a "p" string, a Fraction only for "p/q"."""
    if isinstance(x, bool) or isinstance(x, float):
        raise DocumentError(f"{field}: scalars must be integers or fraction strings, got {x!r}", field)
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            if not _SCALAR.fullmatch(x):  # the text Fraction gives a literal it cannot read
                raise ValueError(f"Invalid literal for Fraction: {x!r}")
            return Fraction(x) if "/" in x else int(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{field}: cannot parse scalar {x!r} ({exc})", field) from None
    raise DocumentError(f"{field}: scalars must be integers or fraction strings, got {type(x).__name__}", field)


def _render_document(pairs) -> str:
    """Canonical layout: one key per line, sparse entries one per line."""
    lines = ["{"]
    for idx, (key, kind, value) in enumerate(pairs):
        comma = "," if idx < len(pairs) - 1 else ""
        if kind == "plain":
            lines.append(f'  "{key}": {json.dumps(value)}{comma}')
        elif not value:
            lines.append(f'  "{key}": []{comma}')
        else:
            lines.append(f'  "{key}": [')
            for epos, entry in enumerate(value):
                ecomma = "," if epos < len(value) - 1 else ""
                lines.append(f"    {json.dumps(entry)}{ecomma}")
            lines.append(f"  ]{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require_list(x, field: str, items: str) -> list:
    if not isinstance(x, list):
        raise DocumentError(f"{field}: must be a list of {items}", field)
    return x


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
    except ValueError as exc:  # a JSONDecodeError, or an integer past the interpreter's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
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


def _sparse_rows(doc: dict, key: str, dim: int, arity: int) -> dict:
    """The rows, for `integer_tensors`, of the entries [i, j, ..., coeff] under `key` and of t[j][i] = -t[i][j].

    Every index is checked against `dim`; i < j is required, since the
    antisymmetric completion in (i, j) is implied, and no index tuple
    may repeat.
    """
    entries = _require_list(doc.get(key, []), key, "entries")
    slots = ", ".join("ijkl"[:arity])
    seen: set[tuple] = set()
    scalars: dict[str, int | Fraction] = {}
    rows: dict[tuple, list] = {}
    for pos, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != arity + 1:
            field = f"{key}[{pos}]"
            raise DocumentError(f"{field}: expected [{slots}, coeff]", field)
        *idx, c = entry
        idx = tuple(idx)
        for x in idx:
            if type(x) is not int or not 0 <= x < dim:
                _check_index(x, dim, f"{key}[{pos}]")
        if idx[0] >= idx[1]:
            field = f"{key}[{pos}]"
            raise DocumentError(f"{field}: requires i < j (antisymmetric completion is implied)", field)
        if idx in seen:
            field = f"{key}[{pos}]"
            raise DocumentError(f"{field}: duplicate entry for ({','.join(map(str, idx))})", field)
        seen.add(idx)
        if type(c) is not int:  # a repeated scalar string is read once per section
            text = c
            c = scalars.get(text) if type(text) is str else None
            if c is None:
                c = _parse_scalar(text, f"{key}[{pos}]")
                if type(text) is str:
                    scalars[text] = c
        (i, j, *rest, k) = idx
        rows.setdefault((i, j, *rest), []).append((k, c))
        rows.setdefault((j, i, *rest), []).append((k, -c))
    return rows


def parse_bol_document(text: str) -> tuple[bolalg.BolAlgebra, str]:
    """Parse and validate a Bol document; returns (algebra, name)."""
    doc, name, dim, basis = _read_header(text, ("binary", "ternary"), "e")
    T, R = _sparse_rows(doc, "binary", dim, 3), _sparse_rows(doc, "ternary", dim, 4)
    return bolalg.BolAlgebra(dim, basis, bolalg.linalg.integer_tensors(dim, (T, 3), (R, 4))), name


def _upper_entries(t, order: int, s: int, name: str) -> list:
    """The entries [i, j, ..., coeff] with i < j of stored rows t at scale s with `order` indices, in index order.

    A document holds only i < j and implies the rest, so this raises at
    the first i <= j where t[j][i] is not -t[i][j]; past that check a
    diagonal t[i][i] is zero and yields no entry.
    """
    entries = []
    for i in range(len(t)):
        for j in range(i, len(t)):
            cells = [(*idx, k, c) for idx, row in bolalg.linalg.indexed_rows(t[i][j], order - 3) for k, c in row]
            if [(*idx, k, -c) for idx, row in bolalg.linalg.indexed_rows(t[j][i], order - 3) for k, c in row] != cells:
                raise PreconditionViolation(
                    f"{name}[{i}][{j}] is not -{name}[{j}][{i}]; a document holds only i < j and implies the rest"
                )
            entries += [[i, j, *cell[:-1], str(Fraction(cell[-1], s))] for cell in cells]
    return entries


def emit_bol_document(B: bolalg.BolAlgebra, name: str) -> str:
    """Canonical serialization of a Bol algebra; T and R must be antisymmetric in their first two slots."""
    d, T, R = B.integer_rows
    return _render_document(
        [
            ("name", "plain", name),
            ("dim", "plain", B.n),
            ("basis", "plain", list(B.labels)),
            ("binary", "entries", _upper_entries(T, 3, d, "T")),
            ("ternary", "entries", _upper_entries(R, 4, d * d, "R")),
        ]
    )


def emit_lie_document(L: bolalg.LieAlgebra, name: str, env: bolalg.EnvelopingLie | None = None) -> str:
    """Canonical serialization of a Lie algebra, optionally with envelope data; C must be antisymmetric."""
    pairs = [
        ("name", "plain", name),
        ("dim", "plain", L.m),
        ("basis", "plain", list(L.labels)),
        ("brackets", "entries", _upper_entries(L.integer_rows[1], 3, L.integer_rows[0], "C")),
    ]
    if env is not None:
        pairs.append(("b_dim", "plain", env.b_dim))
        pairs.append(
            (
                "h_basis",
                "entries",
                [
                    {
                        "pi": [[str(c) for c in row] for row in P.pi],
                        "comp": [str(c) for c in P.comp],
                    }
                    for P in env.h_basis
                ],
            )
        )
    return _render_document(pairs)


def parse_lie_document(text: str) -> tuple[bolalg.LieAlgebra, str, int | None, tuple[bolalg.PairEndo, ...] | None]:
    """Parse a Lie document; returns (algebra, name, b_dim, h_basis)."""
    doc, name, dim, basis = _read_header(text, ("brackets", "b_dim", "h_basis"), "f")
    L = bolalg.LieAlgebra(dim, basis, bolalg.linalg.integer_tensors(dim, (_sparse_rows(doc, "brackets", dim, 3), 3)))
    b_dim = doc.get("b_dim")
    if b_dim is not None and (isinstance(b_dim, bool) or not isinstance(b_dim, int) or not 0 <= b_dim <= dim):
        raise DocumentError(f"b_dim: must be an integer between 0 and {dim}", "b_dim")
    h_basis = None
    if "h_basis" in doc:
        n = dim if b_dim is None else b_dim
        pairs = []
        for pos, item in enumerate(_require_list(doc["h_basis"], "h_basis", "objects")):
            field = f"h_basis[{pos}]"
            if not isinstance(item, dict) or "pi" not in item or "comp" not in item:
                raise DocumentError(f"{field}: expected an object with pi and comp", field)
            rows = _require_list(item["pi"], f"{field}.pi", "rows")
            pi = tuple(
                tuple(_parse_scalar(c, f"{field}.pi") for c in _require_list(row, f"{field}.pi[{r}]", "scalars"))
                for r, row in enumerate(rows)
            )
            comp = _require_list(item["comp"], f"{field}.comp", "scalars")
            comp = tuple(_parse_scalar(c, f"{field}.comp") for c in comp)
            if len(pi) != n or any(len(r) != n for r in pi) or len(comp) != n:
                raise DocumentError(f"{field}: pi must be {n}x{n} and comp length {n}", field)
            pairs.append(bolalg.PairEndo(pi, comp))
        h_basis = tuple(pairs)
    return L, name, b_dim, h_basis
