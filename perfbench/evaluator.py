"""The benchmark's own evaluator of the identities A3-A5.

Written from the statements in the README, independently of
`bolalg.core.check_axioms`, so the checker can recompute the defect at
a witness the program reports.  Tensors are held sparsely:

    T[(i, j)]    = {k: c}   coefficient of e_k in e_i * e_j
    R[(i, j, k)] = {l: c}   coefficient of e_l in (e_i, e_j, e_k)

A1 and A2 cannot fail for a document, because the file format only
holds entries with i < j and implies the antisymmetric completion.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

IDENTITY_ARITY = {"A3": 3, "A4": 4, "A5": 5}


class Tensors:
    def __init__(self, n: int, T: dict, R: dict):
        self.n = n
        self.T = T
        self.R = R

    @staticmethod
    def from_document(text: str) -> Tensors:
        """Read a Bol document with the stdlib only."""
        doc = json.loads(text)
        n = doc["dim"]
        T: dict = {}
        R: dict = {}
        for i, j, k, c in doc.get("binary", []):
            c = Fraction(c)
            T.setdefault((i, j), {})[k] = c
            T.setdefault((j, i), {})[k] = -c
        for i, j, k, l, c in doc.get("ternary", []):
            c = Fraction(c)
            R.setdefault((i, j, k), {})[l] = c
            R.setdefault((j, i, k), {})[l] = -c
        return Tensors(n, T, R)

    @staticmethod
    def from_algebra(B) -> Tensors:
        n = B.n
        T = {}
        R = {}
        for i, j in itertools.product(range(n), repeat=2):
            row = {k: c for k, c in enumerate(B.T[i][j]) if c}
            if row:
                T[(i, j)] = row
            for k in range(n):
                row = {l: c for l, c in enumerate(B.R[i][j][k]) if c}
                if row:
                    R[(i, j, k)] = row
        return Tensors(n, T, R)

    # products of sparse vectors {index: coefficient}
    def binary(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in self.T.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * c
        return out

    def ternary(self, x: dict, y: dict, z: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in z.items():
                    for l, d in self.R.get((i, j, k), {}).items():
                        out[l] = out.get(l, 0) + a * b * c * d
        return out

    def defect(self, identity: str, t: tuple[int, ...]) -> list[Fraction]:
        """The defect vector of one identity at a basis tuple."""
        e = [{i: Fraction(1)} for i in range(self.n)]

        def T(*ij):
            return self.T.get(ij, {})

        def R(*ijk):
            return self.R.get(ijk, {})

        if identity == "A3":
            i, j, k = t
            terms = [(1, R(i, j, k)), (1, R(j, k, i)), (1, R(k, i, j))]
        elif identity == "A4":
            i, j, k, l = t
            terms = [
                (1, self.binary(R(i, j, k), e[l])),
                (-1, self.binary(R(i, j, l), e[k])),
                (1, self.ternary(e[k], e[l], T(i, j))),
                (-1, self.ternary(e[i], e[j], T(k, l))),
                (-1, self.binary(T(i, j), T(k, l))),
            ]
        elif identity == "A5":
            i, j, k, l, m = t
            terms = [
                (1, self.ternary(e[i], e[j], R(k, l, m))),
                (-1, self.ternary(R(i, j, k), e[l], e[m])),
                (-1, self.ternary(e[k], R(i, j, l), e[m])),
                (-1, self.ternary(e[k], e[l], R(i, j, m))),
            ]
        else:
            raise ValueError(f"no evaluator for identity {identity!r}")
        out = [Fraction(0)] * self.n
        for sign, vec in terms:
            for idx, c in vec.items():
                out[idx] += sign * c
        return out


def first_failure(B) -> tuple[str, tuple[int, ...]] | None:
    """The first failing (identity, basis tuple) in sweep order, or None."""
    t = Tensors.from_algebra(B)
    for name, arity in IDENTITY_ARITY.items():
        for tup in itertools.product(range(t.n), repeat=arity):
            if any(t.defect(name, tup)):
                return name, tup
    return None
