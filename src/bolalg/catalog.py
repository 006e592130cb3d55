"""Bundled example algebras used throughout the test-suite and docs.

Every entry is verified against the axioms once, at first access.

Lie algebras enter the catalog in two ways: with their bracket as the
binary product and ternary (x,y,z) = [z,[x,y]] (sl2bol, so3bol), or with
zero binary and ternary (x,y,z) = [[x,y],z] (lts_sl2).  Both recipes
satisfy the axioms; the first is the one compatible with a nonzero
binary product (the ternary sign is forced by identity A4).
"""

from __future__ import annotations

from functools import lru_cache

from bolalg.core import BolAlgebra, check_axioms, direct_sum
from bolalg.errors import FatalInconsistency, UnknownExample

_SL2 = {  # [e,f]=h, [h,e]=2e, [h,f]=-2f
    (0, 1): ((0, 0, 1),),
    (2, 0): ((2, 0, 0),),
    (2, 1): ((0, -2, 0),),
}
_SO3 = {  # [x,y]=z, [y,z]=x, [z,x]=y
    (0, 1): ((0, 0, 1),),
    (1, 2): ((1, 0, 0),),
    (2, 0): ((0, 1, 0),),
}
_HEIS3 = {(0, 1): ((0, 0, 1),)}  # [x,y]=z


def _lie_to_bol(n: int, sparse: dict, labels, with_binary: bool, ternary: str) -> BolAlgebra:
    """Bol structure from Lie structure constants.

    ternary="zxy" gives (x,y,z) = [z,[x,y]]; ternary="xyz" gives
    (x,y,z) = [[x,y],z] = -[z,[x,y]].
    """
    r = range(n)
    C = [[[0] * n for _ in r] for _ in r]
    for (i, j), (coords,) in sparse.items():
        C[i][j] = list(coords)
        C[j][i] = [-c for c in coords]
    sign = 1 if ternary == "zxy" else -1
    # [e_k, [e_i, e_j]] = sum_p C[i][j][p] [e_k, e_p]
    R = [[[[sign * sum(C[i][j][p] * C[k][p][l] for p in r) for l in r] for k in r] for j in r] for i in r]
    return BolAlgebra.from_tensors(n, C if with_binary else [[[0] * n] * n] * n, R, labels)


def _build(name: str) -> BolAlgebra:
    if name.startswith("abelian"):
        n = int(name.removeprefix("abelian"))
        return BolAlgebra.zero(n)
    if name == "solv2":
        # e0*e1 = e0, ternary zero
        n = 2
        T = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
        R = [[[[0, 0]] * 2] * 2] * 2
        return BolAlgebra.from_tensors(n, T, R, ("e0", "e1"))
    if name == "heis3bol":
        return _lie_to_bol(3, _HEIS3, ("x", "y", "z"), with_binary=True, ternary="zxy")
    if name == "sl2bol":
        return _lie_to_bol(3, _SL2, ("e", "f", "h"), with_binary=True, ternary="zxy")
    if name == "so3bol":
        return _lie_to_bol(3, _SO3, ("x", "y", "z"), with_binary=True, ternary="zxy")
    if name == "lts_sl2":
        return _lie_to_bol(3, _SL2, ("e", "f", "h"), with_binary=False, ternary="xyz")
    if name == "mixed":
        return direct_sum(_build("sl2bol"), _build("solv2"))
    raise UnknownExample(name)


_NAMES = (
    "abelian1",
    "abelian2",
    "abelian3",
    "abelian4",
    "solv2",
    "heis3bol",
    "sl2bol",
    "so3bol",
    "lts_sl2",
    "mixed",
)


def catalog_names() -> tuple[str, ...]:
    return _NAMES


@lru_cache(maxsize=None)
def catalog(name: str) -> BolAlgebra:
    """Return the named verified example algebra."""
    key = name.replace("_", "") if name.startswith("abelian_") else name
    if key not in _NAMES:
        raise UnknownExample(f"unknown example {name!r}; choose from {', '.join(_NAMES)}")
    B = _build(key)
    if not check_axioms(B).ok:
        raise FatalInconsistency(f"catalog entry {name} fails its own axioms")
    return B
