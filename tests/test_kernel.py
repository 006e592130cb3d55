"""Differential tests of the structure kernel against dense reference formulas.

`check_axioms` and `is_pseudo_derivation` sum their defects from the
nonzero rows of the structure tensors (in scaled integers for the axioms).
Here both are compared with the same identities written with
`BolAlgebra.binary`/`ternary` on dense basis vectors: every witness, defect
and failure count must be equal.
"""

import importlib
import random
from fractions import Fraction

import pytest
from support import (
    mutate_binary,
    mutate_ternary,
    random_algebra,
    rational_basis,
    reference_axioms,
    reference_jacobi_check,
    transport,
    unimodular_basis,
)

from bolalg import core
from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, check_axioms, direct_sum
from bolalg.envelope import PairEndo, PseudoDerivationReport, inner_pair, is_pseudo_derivation
from bolalg.lie import LieAlgebra, jacobi_check
from bolalg.linalg import failures, mat_vec, vec_sub

LIE = importlib.import_module("bolalg.lie")

F = Fraction
SMALL = [name for name in catalog_names() if catalog(name).n <= 4]


def assert_kernel_matches(B):
    assert check_axioms(B) == reference_axioms(B)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_integer_tensors(n, seed):
    rng = random.Random(1000 * n + seed)
    assert_kernel_matches(random_algebra(rng, n, (1,), (1,), density=0.6, idle_pairs=0.4))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_tensors_with_distinct_denominators(n, seed):
    # T and R carry different denominators, so d > 1 and every weight 1..4 scales.
    rng = random.Random(2000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.7, idle_pairs=0.3)
    assert any(c.denominator > 1 for plane in B.T for row in plane for c in row)
    assert any(c.denominator > 1 for cube in B.R for plane in cube for row in plane for c in row)
    assert_kernel_matches(B)


@pytest.mark.parametrize("name", SMALL)
def test_catalog_bumps_by_non_integer_deltas(name):
    B = catalog(name)
    rng = random.Random(name)
    n = B.n
    for delta in (F(1, 3), F(-5, 2)):
        idx = [rng.randrange(n) for _ in range(4)]
        A = mutate_binary(B, *idx[:3], delta=delta)
        assert not check_axioms(A).ok
        assert_kernel_matches(A)
        A = mutate_ternary(B, *idx, delta=delta)
        assert not check_axioms(A).ok
        assert_kernel_matches(A)


@pytest.mark.parametrize("name", SMALL)
def test_catalog_under_rational_basis_change(name):
    B = catalog(name)
    rng = random.Random(f"{name}-basis")
    A = transport(B, rational_basis(rng, B.n))
    assert check_axioms(A).ok
    assert_kernel_matches(A)
    bumped = mutate_ternary(A, *(rng.randrange(A.n) for _ in range(4)), delta=F(1, 3))
    assert not check_axioms(bumped).ok
    assert_kernel_matches(bumped)


def reference_pseudo_derivation(B, P):
    """`is_pseudo_derivation` written densely with `B.binary`/`B.ternary`."""
    r = range(B.n)
    bas = B.basis()
    a = P.comp
    pb = [mat_vec(P.pi, e) for e in bas]

    def product_defect(i, j):
        d = vec_sub(mat_vec(P.pi, B.T[i][j]), B.binary(pb[i], bas[j]))
        d = vec_sub(d, B.binary(bas[i], pb[j]))
        d = vec_sub(d, B.ternary(bas[i], bas[j], a))
        return vec_sub(d, B.binary(B.T[i][j], a))

    def ternary_defect(i, j, k):
        d = vec_sub(mat_vec(P.pi, B.R[i][j][k]), B.ternary(pb[i], bas[j], bas[k]))
        d = vec_sub(d, B.ternary(bas[i], pb[j], bas[k]))
        return vec_sub(d, B.ternary(bas[i], bas[j], pb[k]))

    pairs = [(i, j) for i in r for j in r]
    first = next(failures(pairs, product_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, False, True, *first)
    first = next(failures([(i, j, k) for i in r for j in r for k in r], ternary_defect), None)
    if first is not None:
        return PseudoDerivationReport(False, True, False, *first)
    return PseudoDerivationReport(True, True, True)


@pytest.mark.parametrize("name", SMALL)
def test_pseudo_derivation_sweep_matches_reference(name):
    rng = random.Random(f"{name}-pairs")
    B = catalog(name)
    B = transport(B, rational_basis(rng, B.n))
    n = B.n
    for _ in range(4):
        P = inner_pair(B, B.basis_vec(rng.randrange(n)), B.basis_vec(rng.randrange(n)))
        assert is_pseudo_derivation(B, P) == reference_pseudo_derivation(B, P)
        pi = [list(row) for row in P.pi]
        comp = list(P.comp)
        if rng.random() < 0.5:
            pi[rng.randrange(n)][rng.randrange(n)] += F(1, 3)
        else:
            comp[rng.randrange(n)] -= F(2, 5)
        Q = PairEndo(tuple(map(tuple, pi)), tuple(comp))
        assert is_pseudo_derivation(B, Q) == reference_pseudo_derivation(B, Q)



@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pseudo_derivation_sweep_with_rational_pairs_and_denominators(n, seed):
    # d > 1 for the algebra and non-integer entries in the pair: every
    # scale factor e*d, e, d and d^2 of the integer sums is exercised.
    rng = random.Random(5000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.7, idle_pairs=0.2)
    assert B.integer_rows[0] > 1
    pairs = [inner_pair(B, B.basis_vec(rng.randrange(n)), B.basis_vec(rng.randrange(n))), PairEndo.zero(n)]
    for _ in range(3):
        pi = tuple(tuple(F(rng.randint(-4, 4), rng.choice((1, 3, 7))) for _ in range(n)) for _ in range(n))
        comp = tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 9))) for _ in range(n))
        pairs += [PairEndo(pi, comp), PairEndo(pi, (F(0),) * n), PairEndo(PairEndo.zero(n).pi, comp)]
    for P in pairs:
        assert is_pseudo_derivation(B, P) == reference_pseudo_derivation(B, P)


@pytest.mark.parametrize("name", ["sl2bol", "heis3bol", "mixed"])
def test_inner_pairs_are_pseudo_derivations_with_denominators(name):
    # A Bol algebra with d > 1: its inner pairs pass, and a pair bumped by
    # a non-integer entry fails with the reference's witness and defect.
    rng = random.Random(f"{name}-denominators")
    B = catalog(name)
    B = transport(B, rational_basis(rng, B.n))
    assert B.integer_rows[0] > 1
    n = B.n
    for i in range(n):
        for j in range(n):
            P = inner_pair(B, B.basis_vec(i), B.basis_vec(j))
            assert is_pseudo_derivation(B, P).ok
            bumped = PairEndo(P.pi, tuple(c + F(1, 7) * (k == i) for k, c in enumerate(P.comp)))
            assert is_pseudo_derivation(B, bumped) == reference_pseudo_derivation(B, bumped)


# `check_axioms` decides A4 and A5 on the pairs (i, j) whose constants
# (R[i][j], T[i][j]) are independent, and sweeps every basis tuple only
# when one of them fails.  These inputs reach both paths, for each
# identity on its own.

ALL = list(catalog_names())


def from_entries(n, t_entries=(), r_entries=()):
    """The algebra on n basis vectors whose only nonzero constants are the given T and R entries."""
    r = range(n)
    T = [[[F(0)] * n for _ in r] for _ in r]
    R = [[[[F(0)] * n for _ in r] for _ in r] for _ in r]
    for (i, j, k), c in t_entries:
        T[i][j][k] = F(c)
    for (i, j, k, l), c in r_entries:
        R[i][j][k][l] = F(c)
    return BolAlgebra.from_tensors(n, T, R)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("basis", ["natural", "unimodular", "rational"])
def test_basis_check_matches_the_sweep_on_the_catalog(name, basis):
    B = catalog(name)
    if basis != "natural":
        rng = random.Random(f"{name}-{basis}-axioms")
        B = transport(B, (unimodular_basis if basis == "unimodular" else rational_basis)(rng, B.n))
    if basis == "rational" and B.n > 1 and not B.is_abelian():
        assert B.integer_rows[0] > 1
    assert check_axioms(B).ok
    assert_kernel_matches(B)


@pytest.mark.parametrize("name", [name for name in ALL if not name.startswith("abelian")])
@pytest.mark.parametrize("part", ["T", "R"])
def test_basis_check_falls_back_on_single_constant_bumps(name, part):
    B = catalog(name)
    rng = random.Random(f"{name}-{part}-bump")
    if name in SMALL:  # the dense reference sweep takes seconds at n = 5, so mixed keeps its basis
        B = transport(B, unimodular_basis(rng, B.n))
    for _ in range(3):
        idx = [rng.randrange(B.n) for _ in range(4)]
        A = mutate_binary(B, *idx[:3]) if part == "T" else mutate_ternary(B, *idx, delta=F(-1))
        assert not check_axioms(A).ok
        assert_kernel_matches(A)


def test_a4_fails_through_pairs_that_have_only_a_binary_part():
    # heis3bol + solv2 has R = 0, so every inner pair is (0, x*y); the bump
    # z*e0 = e0 makes (x*y)*(e0*e1) = z*e0 nonzero
    B = direct_sum(catalog("heis3bol"), catalog("solv2"))
    assert not any(c for cube in B.R for plane in cube for row in plane for c in row)
    A = mutate_binary(mutate_binary(B, 2, 3, 3), 3, 2, 3, delta=F(-1))
    rep = check_axioms(A)
    assert [c.ok for c in rep.identities] == [True, True, True, False, True]
    assert_kernel_matches(A)


@pytest.mark.parametrize(
    ("n", "t_entries", "r_entries", "failing"),
    [
        (0, (), (), []),
        (1, (), (), []),
        # A1 fails through the pair (0, 0), and so does A4: e0*e0 = e0
        (1, [((0, 0, 0), 1)], (), ["A1", "A4"]),
        # the pair (0, 0) fails A5 (and A2, A3), and passes A4 (T = 0)
        (1, (), [((0, 0, 0, 0), 1)], ["A2", "A3", "A5"]),
        # only the pair (1, 0) is nonzero, and it fails A4 and A5 at (e1, e1)
        (2, [((1, 0, 1), 1)], [((1, 0, 1, 1), 1)], ["A1", "A2", "A3", "A4", "A5"]),
        # only the pair (1, 0) is nonzero; it passes A4 and fails A5 at (1, 1, 1)
        (2, (), [((1, 0, 1, 0), 1)], ["A2", "A3", "A5"]),
    ],
)
def test_basis_check_on_small_and_non_antisymmetric_inputs(n, t_entries, r_entries, failing):
    B = from_entries(n, t_entries, r_entries)
    rep = check_axioms(B)
    assert [c.name for c in rep.identities if not c.ok] == failing
    assert_kernel_matches(B)


def test_each_identity_falls_back_on_its_own():
    # A5 reads only R, and A4 fails once sl2bol's binary product is doubled:
    # the term (x*y)*(z*w) doubles twice
    sl2 = catalog("sl2bol")
    doubled = BolAlgebra.from_tensors(3, [[[2 * c for c in row] for row in plane] for plane in sl2.T], sl2.R)
    # every A4 term has a factor of T, so A4 holds on lts_sl2 (T = 0) whatever R is
    bumped = mutate_ternary(catalog("lts_sl2"), 0, 1, 2, 0)
    for B, failing in ((doubled, ["A4"]), (bumped, ["A2", "A3", "A5"])):
        assert [c.name for c in check_axioms(B).identities if not c.ok] == failing
        assert_kernel_matches(B)
        A = transport(B, rational_basis(random.Random(f"{failing}-basis"), 3))
        assert [c.name for c in check_axioms(A).identities if not c.ok] == failing
        assert_kernel_matches(A)


def test_a_passing_dense_algebra_is_decided_on_the_pair_basis(monkeypatch):
    # sl2bol + so3bol: the pairs (ad c, c) for c in [B, B] = B span a space
    # of rank 6, and A1, A2 hold, so A4 takes 6 * 15 packed rule evaluations
    # (one per (k, l) with k < l) and A5 6 * 15 * 6, where the full sweeps
    # take 6^4 and 30 * 6^3; each evaluation is one packed zero test
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    B = transport(B, unimodular_basis(random.Random("sl2bol+so3bol-pairs"), B.n))
    calls = {"binary_rule_defect": 0, "ternary_rule_defect": 0}
    for name in calls:
        rule = getattr(core, name)

        def counted(*args, name=name, rule=rule):
            calls[name] += 1
            return rule(*args)

        monkeypatch.setattr(core, name, counted)
    assert check_axioms.__wrapped__(B).ok
    assert calls == {"binary_rule_defect": 6 * 15, "ternary_rule_defect": 6 * 15 * 6}


# The A4 and A5 sweeps decide on packed rows (`linalg.slot_width`): a failing
# tuple's defect is read back as the balanced digits of its packed value.


def _one_bit_short(monkeypatch, module):
    width = module.slot_width
    monkeypatch.setattr(module, "slot_width", lambda *args: width(*args) - 1)


def test_the_a4_defect_needs_its_full_slot_width(monkeypatch):
    # e0*e0 = -8 e0 fails A1 and A4 at (0, 0, 0, 0), whose A4 defect is
    # -c*(z*w) = 512 e0 with c = z*w = -8 e0.  With entries of at most 8 in
    # rows of length 1 the A4 bound is 4*8^2 + 8^3 = 768, so W = 11 and
    # 512 is a digit; one bit less reads it as -512 and carries into e1.
    B = BolAlgebra.from_tensors(2, [[[-8, 0], [0, 0]], [[0, 0], [0, 0]]], [[[[0] * 2] * 2] * 2] * 2)
    a4 = check_axioms.__wrapped__(B).identity("A4")
    assert a4 == reference_axioms(B).identity("A4")
    assert (a4.witness, a4.defect) == ((0, 0, 0, 0), (512, 0))
    _one_bit_short(monkeypatch, core)
    assert check_axioms.__wrapped__(B).identity("A4").defect == (-512, 1)


def test_the_jacobi_defect_needs_its_full_slot_width(monkeypatch):
    # [f0,f1] = [f0,f2] = f3, [f0,f3] = -f1, [f1,f2] = f1, [f1,f3] = f2 and
    # [f2,f3] = -f2: the Jacobi defect at (0, 1, 2) is 2 f2 - f3.  Entries
    # are at most 1 in rows of length 1, so the bound is 3 and W = 3; with
    # one bit less the digit 2 is read as -2 and its carry cancels the -1
    # in the slot above.
    C = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), k, v in (((0, 1), 3, 1), ((0, 2), 3, 1), ((0, 3), 1, -1), ((1, 2), 1, 1), ((1, 3), 2, 1), ((2, 3), 2, -1)):
        C[i][j][k], C[j][i][k] = v, -v
    L = LieAlgebra.from_constants(4, C)
    rep = jacobi_check(L)
    assert rep == reference_jacobi_check(L)
    assert (rep.witness, rep.defect) == ((0, 1, 2), (0, 0, 2, -1))
    _one_bit_short(monkeypatch, LIE)
    assert jacobi_check(L).defect == (0, 0, -2, 0)


@pytest.mark.parametrize("seed", range(8))
def test_packed_defects_read_back_as_the_reference_defects(seed):
    # dense entries with a bumped structure constant: larger entries,
    # several failing identities, and the first failure's digits against
    # the defect summed entry by entry from the dense tensors
    rng = random.Random(f"packed-{seed}")
    B = direct_sum(catalog(rng.choice(["sl2bol", "so3bol", "lts_sl2", "heis3bol"])), catalog("abelian1"))
    B = transport(B, unimodular_basis(rng, 4))
    i, j, k, l = (rng.randrange(B.n) for _ in range(4))
    A = mutate_ternary(B, i, j, k, l, F(rng.choice((1, -2, 3)), rng.choice((1, 2))))
    if seed % 2:
        A = mutate_binary(A, i, j, l, F(rng.choice((-1, 5))))
    report = check_axioms(A)
    assert {"A4", "A5"} & {c.name for c in report.identities if not c.ok}
    assert report == reference_axioms(A)
