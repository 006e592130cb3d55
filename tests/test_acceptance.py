"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything is exact rational arithmetic; every comparison is equality,
there are no tolerances anywhere.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from support import collect_ideals, mutate_binary, mutate_ternary, transport

from bolalg.catalog import catalog, catalog_names
from bolalg.core import check_axioms, direct_sum, prod_span, summand_embeddings, tri_span
from bolalg.decompose import decompose_semisimple, structure_report
from bolalg.envelope import envelope, ideal_extension, solvability_transfer_check
from bolalg.fileio import emit_bol_document, parse_bol_document
from bolalg.forms import (
    BilinearForm,
    center_orthogonality_check,
    compare_trace_vs_envelope,
    envelope_form,
    trace_form,
)
from bolalg.lie import (
    LieAlgebra,
    derived_subspace,
    killing,
    killing_gram,
    lie_is_solvable,
)
from bolalg.linalg import basis_vec, full_space, intersect, mat, span, subspace_sum, zero_space
from bolalg.radical import radical
from bolalg.series import bol_derived_series, is_solvable

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

BINARY_ZERO = ("abelian1", "abelian2", "abelian3", "abelian4", "lts_sl2")


def _report(num: int, desc: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"acceptance {num:2d}: FAIL  {desc}")
        raise
    print(f"acceptance {num:2d}: PASS  {desc}")


def test_acceptance_01_axioms_and_mutations():
    def run():
        for name in catalog_names():
            assert check_axioms(catalog(name)).ok, name
        for name in ("sl2bol", "heis3bol"):
            B = catalog(name)
            n = B.n
            mutations = 0
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        rep = check_axioms(mutate_binary(B, i, j, k))
                        assert not rep.ok
                        assert any(c.witness is not None for c in rep.identities if not c.ok)
                        mutations += 1
                        for l in range(n):
                            rep = check_axioms(mutate_ternary(B, i, j, k, l))
                            assert not rep.ok
                            assert any(c.witness is not None for c in rep.identities if not c.ok)
                            mutations += 1
            assert mutations >= 50, (name, mutations)

    _report(1, "axiom suite: catalog passes, single-entry mutations fail with witnesses", run)


def test_acceptance_02_derived_step_is_ideal_in_previous():
    def run():
        for name in catalog_names():
            B = catalog(name)
            for I in collect_ideals(B):
                res = bol_derived_series(B, I)
                for prev, cur in zip(res.chain, res.chain[1:]):
                    assert prod_span(B, prev, cur) <= cur
                    assert tri_span(B, cur, prev, prev) <= cur

    _report(2, "each derived-series step is an ideal in its predecessor", run)


def test_acceptance_03_sums_of_solvable_ideals():
    def run():
        for name in catalog_names():
            B = catalog(name)
            solvable = [I for I in collect_ideals(B) if is_solvable(B, I)]
            for a in solvable:
                for b in solvable:
                    assert is_solvable(B, subspace_sum(a, b))

    _report(3, "sums of certified solvable ideals are solvable", run)


def test_acceptance_04_envelope_verification_and_dims():
    def run():
        expected = {"sl2bol": 6, "solv2": 3, "abelian1": 1, "abelian2": 2, "abelian3": 3, "abelian4": 4}
        for name in catalog_names():
            B = catalog(name)
            E = envelope(B)  # raises on any Jacobi/projection/recovery failure
            G = E.lie
            m = G.m
            for i in range(B.n):
                for j in range(B.n):
                    br = G.bracket(basis_vec(i, m), basis_vec(j, m))
                    assert tuple(br[: B.n]) == B.T[i][j]
                    for k in range(B.n):
                        rec = G.bracket(basis_vec(k, m), br)
                        assert tuple(rec[: B.n]) == B.R[i][j][k]
                        assert all(c == 0 for c in rec[B.n :])
            if name in expected:
                assert E.total_dim == expected[name], name

    _report(4, "envelopes verify Jacobi/projection/recovery; dims 6, 3, n", run)


def test_acceptance_05_solvability_transfer():
    def run():
        positive = {"solv2", "heis3bol", "abelian1", "abelian2", "abelian3", "abelian4"}
        negative = {"sl2bol", "so3bol", "lts_sl2", "mixed"}
        for name in catalog_names():
            rep = solvability_transfer_check(catalog(name))
            assert rep.implication_holds, name
            if name in positive:
                assert rep.bol_solvable and rep.lie_solvable, name
            if name in negative:
                assert not rep.bol_solvable and not rep.lie_solvable, name

    _report(5, "solvable base algebras have solvable envelopes (catalog-wide)", run)


def test_acceptance_06_ideal_extension():
    def run():
        M = catalog("mixed")
        _, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
        rep = ideal_extension(envelope(M), second)
        assert rep.lie_solvable and rep.implication_holds
        B = catalog("sl2bol")
        rep2 = ideal_extension(envelope(B), full_space(3))
        assert not rep2.lie_solvable and rep2.w_subspace.dim == 6

    _report(6, "ideal extension: solvable summand stays solvable, full sl2 does not", run)


def test_acceptance_07_killing_ricci_cross_check():
    def run():
        for name in BINARY_ZERO:
            assert compare_trace_vs_envelope(catalog(name)).equal, name
        S = mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        for name in ("solv2", "heis3bol", "sl2bol", "so3bol", "mixed"):
            B = catalog(name)
            cmp = compare_trace_vs_envelope(B)
            assert BilinearForm(cmp.trace_gram).symmetric
            assert BilinearForm(cmp.envelope_gram).symmetric
            if B.n == 3:
                Bt = transport(B, S)
                for form in (trace_form, envelope_form):
                    g, gt = form(B).gram, form(Bt).gram
                    pulled = tuple(
                        tuple(
                            sum(S[a][i] * g[i][j] * S[b][j] for i in range(3) for j in range(3))
                            for b in range(3)
                        )
                        for a in range(3)
                    )
                    assert gt == pulled

    _report(7, "trace form matches envelope form on zero-binary entries; both covariant", run)


def test_acceptance_08_center_orthogonality():
    def run():
        kappa = BilinearForm(mat([[0, 4, 0], [4, 0, 0], [0, 0, 8]]))
        rep = center_orthogonality_check(catalog("sl2bol"), kappa, "skew")
        assert rep.preconditions_ok and rep.equal
        assert rep.left_perp_center == rep.right_perp_center == full_space(3)
        rep2 = center_orthogonality_check(catalog("abelian2"), BilinearForm.identity_gram(2), "skew")
        assert rep2.preconditions_ok and rep2.equal
        assert rep2.left_perp_center == rep2.right_perp_center == zero_space(2)

    _report(8, "center orthogonals equal the binary derived space (certified cases)", run)


def test_acceptance_09_decomposition_and_structure():
    def run():
        B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
        beta = envelope_form(B)
        dec = decompose_semisimple(B, beta)
        assert dec.certified and len(dec.components) == 2
        e1, e2 = dec.embeddings
        assert all(beta.value(u, v) == 0 for u in e1.basis for v in e2.basis)
        assert prod_span(B, e1, e2).is_zero()
        assert tri_span(B, full_space(6), e1, e2) <= intersect(e1, e2)
        for name in catalog_names():
            assert structure_report(catalog(name)).item1_biconditional, name
        for name in ("sl2bol", "so3bol", "lts_sl2"):
            assert structure_report(catalog(name)).triple_span_is_everything
        assert structure_report(B).triple_span_is_everything

    _report(9, "orthogonal simple decomposition and structure biconditionals", run)


def test_acceptance_10_radical_values():
    def run():
        for n in (1, 2, 3, 4):
            cert = radical(catalog(f"abelian{n}"))
            assert cert.decided and cert.strategy == "agreement"
            assert cert.radical == full_space(n)
        cert = radical(catalog("sl2bol"))
        assert cert.decided and cert.strategy == "agreement" and cert.radical == zero_space(3)
        cert = radical(catalog("mixed"))
        _, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
        assert cert.decided and cert.strategy == "agreement" and cert.radical == second

    _report(10, "radicals: abelian full, sl2 zero, mixed its solvable summand", run)


def test_acceptance_11_lie_oracle_and_cartan():
    def run():
        C = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
        for (i, j), coords in {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0), (2, 1): (0, -2, 0)}.items():
            for k, c in enumerate(coords):
                C[i][j][k] = F(c)
                C[j][i][k] = F(-c)
        sl2 = LieAlgebra.from_constants(3, C)
        assert killing_gram(sl2) == mat([[0, 4, 0], [4, 0, 0], [0, 0, 8]])
        heis = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
        heis[0][1][2], heis[1][0][2] = F(1), F(-1)
        assert all(c == 0 for row in killing_gram(LieAlgebra.from_constants(3, heis)) for c in row)
        for name in catalog_names():
            G = envelope(catalog(name)).lie
            b = killing(G)
            derived = derived_subspace(G, full_space(G.m))
            vanished = all(
                b.value(basis_vec(i, G.m), d) == 0 for i in range(G.m) for d in derived.basis
            )
            assert vanished == lie_is_solvable(G), name

    _report(11, "Killing form oracle values; Cartan criterion on all envelopes", run)


def test_acceptance_12_cli_golden_and_exit_codes():
    def run():
        def run_bol(*args):
            return subprocess.run(
                [sys.executable, "-m", "bolalg.cli", *args], text=True, capture_output=True
            )

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name in catalog_names():
                f = tmp / f"{name}.json"
                assert run_bol("examples", name, "--emit", str(f)).returncode == 0
                text = f.read_text()
                B, parsed = parse_bol_document(text)
                assert emit_bol_document(B, parsed) == text  # byte-identical round trip
                assert run_bol("check", str(f)).returncode == 0
            assert run_bol("check", str(FIXTURES / "malformed.json")).returncode == 3
            assert run_bol("check", str(FIXTURES / "not_a_bol_algebra.json")).returncode == 1
            assert run_bol("radical", str(FIXTURES / "undecided_radical.json")).returncode == 2
            mixed = tmp / "mixed.json"
            run_bol("examples", "mixed", "--emit", str(mixed))
            assert run_bol("radical", str(mixed)).returncode == 0
            r = run_bol("radical", str(mixed), "--json")
            data = json.loads(r.stdout)
            assert data["decided"] is True

    _report(12, "CLI golden files byte-identical; exit-code table honored", run)
