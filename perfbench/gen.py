"""Seeded inputs for the benchmark, each with the answer its construction implies.

Only the standard library and the public `bolalg` API are used.  Every
document is a canonical Bol document written by `emit_bol_document`
(or, for the malformed cases, a deliberately broken text), paired with
the answer that follows from how it was built: catalog summands have
known invariants, a change of basis keeps them, and direct sums add them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from bolalg import BolAlgebra, catalog, direct_sum
from bolalg.fileio import emit_bol_document
from evaluator import first_failure

# Invariants of the catalog summands used below: dimension, envelope
# dimension, radical dimension, center dimension, solvable.  A direct sum
# has the sums of the first four, and is solvable iff every summand is.
# The envelope of a simple summand adds its inner derivations (dim 3);
# for heis3bol h is spanned by the pair (0, z), for solv2 by (0, e0).
SUMMANDS = {
    "sl2bol": (3, 6, 0, 0, False),
    "so3bol": (3, 6, 0, 0, False),
    "lts_sl2": (3, 6, 0, 0, False),
    "heis3bol": (3, 4, 3, 1, True),
    "solv2": (2, 3, 2, 0, True),
}
SIMPLE = ("sl2bol", "so3bol", "lts_sl2")


@dataclass
class Doc:
    """One input document and its construction-derived expected answer."""

    name: str
    text: str
    dim: int
    expect: dict


# ---------------------------------------------------------------- tensors


def tensors(B: BolAlgebra) -> tuple[list, list]:
    """Mutable copies of the structure tensors T[i][j][k] and R[i][j][k][l]."""
    T = [[list(row) for row in plane] for plane in B.T]
    R = [[[list(row) for row in plane] for plane in cube] for cube in B.R]
    return T, R


def invert(S: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse by Gauss-Jordan elimination on [S | I]."""
    n = len(S)
    aug = [list(map(Fraction, S[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [inv * x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_basis(rng: random.Random, n: int) -> list[list[int]]:
    """A random element of GL_n(Z): signed permutation times L times U.

    L and U are unit triangular with entries in {-1, 0, 1}, so det = +-1
    and the inverse is integral.  The transformed tensors are dense, and
    their entries stay small integers, so the arithmetic cost varies
    little from seed to seed.
    """
    L = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    LU = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * x for x in LU[perm[i]]] for i in range(n)]


def change_basis(B: BolAlgebra, S: list[list[int]], labels=None) -> BolAlgebra:
    """The same algebra on the new basis f_p = sum_i S[p][i] e_i.

    The tensors transform covariantly in their input slots and
    contravariantly in the output slot; one slot is contracted at a time.
    """
    n = B.n
    Sinv = invert(S)
    T, R = tensors(B)

    def contract_in(t, axis, depth):
        # new[..p..] = sum_i S[p][i] old[..i..] on the given input axis
        if axis == 0:
            return [_lin([(S[p][i], t[i]) for i in range(n)], depth - 1) for p in range(n)]
        return [contract_in(sub, axis - 1, depth - 1) for sub in t]

    def contract_out(t, depth):
        if depth == 1:
            return [sum((t[l] * Sinv[l][s] for l in range(n) if t[l]), Fraction(0)) for s in range(n)]
        return [contract_out(sub, depth - 1) for sub in t]

    for axis in range(2):
        T = contract_in(T, axis, 3)
    T = contract_out(T, 3)
    for axis in range(3):
        R = contract_in(R, axis, 4)
    R = contract_out(R, 4)
    return BolAlgebra.from_tensors(n, T, R, labels)


def _lin(terms, depth):
    """sum c * t over nested lists of the given depth."""
    if depth == 0:
        return sum((c * t for c, t in terms if c and t), Fraction(0))
    width = len(terms[0][1])
    return [_lin([(c, t[i]) for c, t in terms], depth - 1) for i in range(width)]


# ---------------------------------------------------------- constructions


def catalog_sum(names) -> BolAlgebra:
    B = catalog(names[0])
    for name in names[1:]:
        B = direct_sum(B, catalog(name))
    return B


def sum_expect(names) -> dict:
    dims = [SUMMANDS[x] for x in names]
    semisimple = all(x in SIMPLE for x in names)
    return {
        "pass": True,
        "envelope_dim": sum(d[1] for d in dims),
        "radical_dim": sum(d[2] for d in dims),
        "radical_decided": True,
        "center_dim": sum(d[3] for d in dims),
        "solvable": all(d[4] for d in dims),
        "components": sorted(d[0] for d in dims) if semisimple else None,
    }


def symmetric_lts(m: int) -> BolAlgebra:
    """Symmetric m x m matrices with (x, y, z) = [[x, y], z] and zero binary product.

    This is the -1 eigenspace of x -> -x^T on gl_m, dimension m(m+1)/2.
    Basis: E_ii, then E_ij + E_ji for i < j.
    """
    basis = [(i, i) for i in range(m)] + [(i, j) for i in range(m) for j in range(i + 1, m)]
    n = len(basis)

    def matrix(p):
        i, j = basis[p]
        M = [[0] * m for _ in range(m)]
        M[i][j] = M[j][i] = 1
        return M

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

    def brk(a, b):
        ab, ba = mul(a, b), mul(b, a)
        return [[ab[i][j] - ba[i][j] for j in range(m)] for i in range(m)]

    def coords(M):
        # symmetric M = sum over basis; off-diagonal basis element has 1 at (i,j)
        return [M[i][j] for (i, j) in basis]

    mats = [matrix(p) for p in range(n)]
    T = [[[0] * n for _ in range(n)] for _ in range(n)]
    R = [[[coords(brk(brk(mats[p], mats[q]), mats[r])) for r in range(n)] for q in range(n)] for p in range(n)]
    return BolAlgebra.from_tensors(n, T, R)


def symmetric_expect(m: int) -> dict:
    # Envelope sym + so(m) = gl(m); span(I) is the center and the radical,
    # and it makes the envelope form degenerate, so decomposition refuses.
    return {
        "pass": True,
        "envelope_dim": m * m,
        "radical_dim": 1,
        "radical_decided": True,
        "center_dim": 1,
        "solvable": False,
        "components": None,
    }


def mutate(B: BolAlgebra, rng: random.Random) -> tuple[BolAlgebra, str]:
    """Add 1 to one i < j structure constant, chosen by the seed."""
    n = B.n
    T, R = tensors(B)
    i, j = sorted(rng.sample(range(n), 2))
    if rng.random() < 0.5:
        k = rng.randrange(n)
        T[i][j][k] += 1
        T[j][i][k] -= 1
        where = f"binary[{i},{j},{k}]"
    else:
        k, l = rng.randrange(n), rng.randrange(n)
        R[i][j][k][l] += 1
        R[j][i][k][l] -= 1
        where = f"ternary[{i},{j},{k},{l}]"
    return BolAlgebra.from_tensors(n, T, R, B.labels), where


def random_constants(rng: random.Random, n: int) -> BolAlgebra:
    """Random integer constants, antisymmetric in (i, j); almost never Bol.

    Every row e_i * e_j and (e_i, e_j, e_k) has the same number of
    nonzero entries, so the sweep costs about the same for every seed.
    """
    T = [[[0] * n for _ in range(n)] for _ in range(n)]
    R = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    width = (n + 1) // 2

    def fill(row, mirror):
        for idx in rng.sample(range(n), width):
            c = rng.choice((-2, -1, 1, 2))
            row[idx], mirror[idx] = c, -c

    for i in range(n):
        for j in range(i + 1, n):
            fill(T[i][j], T[j][i])
            for k in range(n):
                fill(R[i][j][k], R[j][i][k])
    return BolAlgebra.from_tensors(n, T, R)


def malformed(rng: random.Random) -> list[Doc]:
    """Documents the parser must reject with exit code 3."""
    base = json.loads(emit_bol_document(catalog("solv2"), "solv2"))
    k = rng.randrange(2)
    bad_json = emit_bol_document(catalog("sl2bol"), "truncated")
    cut = bad_json[: rng.randrange(10, len(bad_json) - 10)]
    as_float = dict(base, name="float-coefficient", binary=[[0, 1, k, 1.0 + rng.randrange(3)]])
    out_of_range = dict(base, name="out-of-range", binary=[[0, 1, 2 + rng.randrange(5), "1"]])
    not_ordered = dict(base, name="i-not-less-than-j", binary=[[1, 1 - rng.randrange(2), k, "1"]])
    expect = {"exit": 3}
    return [
        Doc("bad-json", cut, 0, dict(expect)),
        Doc("float-coefficient", json.dumps(as_float), 2, dict(expect)),
        Doc("out-of-range", json.dumps(out_of_range), 2, dict(expect)),
        Doc("i-not-less-than-j", json.dumps(not_ordered), 2, dict(expect)),
    ]




# ------------------------------------------------------------- workloads

# Catalog summands of each rung of the natural-basis ladder.  The seed
# only orders the summands and relabels the basis, which leaves the work
# of the sweeps the same, so runs with different seeds stay comparable.
LADDER = {
    6: ("sl2bol", "so3bol"),
    7: ("heis3bol", "solv2", "solv2"),
    8: ("lts_sl2", "heis3bol", "solv2"),
    9: ("sl2bol", "so3bol", "lts_sl2"),
}
NEAR_BOL = (("sl2bol", "lts_sl2"), ("so3bol", "heis3bol"))


def signed_permutation(rng: random.Random, n: int) -> list[list[int]]:
    """A seeded relabelling of the natural basis; keeps the tensors sparse."""
    perm = list(range(n))
    rng.shuffle(perm)
    S = [[0] * n for _ in range(n)]
    for p, i in enumerate(perm):
        S[p][i] = rng.choice((-1, 1))
    return S


def _natural(rng: random.Random, summands) -> tuple[BolAlgebra, list[str]]:
    names = list(summands)
    rng.shuffle(names)
    B = catalog_sum(names)
    return change_basis(B, signed_permutation(rng, B.n)), names


def check_sparse(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    docs = []
    for n, summands in LADDER.items():
        B, names = _natural(rng, summands)
        name = f"ladder{n}-" + "+".join(names)
        docs.append(Doc(name, emit_bol_document(B, name), n, {"exit": 0, "pass": True}))
    return docs


def session_dense(seed: int) -> list[Doc]:
    """Five algebras of dimension <= 6 under a random change of basis."""
    rng = random.Random(seed)
    sums = [
        ["sl2bol", "so3bol"],  # semisimple, binary product
        ["lts_sl2", "lts_sl2"],  # semisimple, ternary only
        ["sl2bol", "solv2"],  # the catalog's `mixed`
        ["heis3bol", "solv2"],  # solvable
    ]
    built = [(catalog_sum(names), "+".join(names), sum_expect(names)) for names in sums]
    built.append((symmetric_lts(3), "sym3", symmetric_expect(3)))
    docs = []
    for B, name, expect in built:
        B = change_basis(B, random_basis(rng, B.n))
        docs.append(Doc(name, emit_bol_document(B, name), B.n, dict(expect, exit=0)))
    return docs


def _failing(rng: random.Random, make):
    """Draw make(rng) until the evaluator finds a failing tuple in the result."""
    while True:
        A, where = make(rng)
        failing = first_failure(A)
        if failing is not None:
            return A, where, failing


def reject_invalid(seed: int) -> list[Doc]:
    """Near-Bol mutations, random constants, and malformed documents."""
    rng = random.Random(seed)
    makers = []
    for summands in NEAR_BOL:
        B, names = _natural(rng, summands)
        makers.append(("near-" + "+".join(names), lambda r, B=B: mutate(B, r)))
    for n in (4, 6):
        makers.append((f"random{n}", lambda r, n=n: (random_constants(r, n), "all")))
    docs = []
    for name, make in makers:
        A, where, failing = _failing(rng, make)
        expect = {"exit": 1, "pass": False, "fails": failing}
        docs.append(Doc(f"{name}@{where}", emit_bol_document(A, name), A.n, expect))
    return docs + malformed(rng)


WORKLOADS = {"check-sparse": check_sparse, "session-dense": session_dense, "reject-invalid": reject_invalid}
