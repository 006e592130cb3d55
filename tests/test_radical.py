from pathlib import Path

from bolalg.catalog import catalog
from bolalg.core import direct_sum, summand_embeddings
from bolalg.fileio import parse_bol_document
from bolalg.linalg import full_space, span, vec, zero_space
from bolalg.radical import is_semisimple, is_simple, radical

FIXTURES = Path(__file__).parent / "fixtures"


def test_radical_abelian_is_everything():
    for n in (1, 2, 3, 4):
        cert = radical(catalog(f"abelian{n}"))
        assert cert.decided and cert.strategy == "agreement"
        assert cert.radical == full_space(n)


def test_radical_sl2bol_is_zero():
    cert = radical(catalog("sl2bol"))
    assert cert.decided
    assert cert.radical == zero_space(3)
    assert cert.is_ideal_ok and cert.solvable_ok and cert.quotient_semisimple_ok


def test_radical_mixed_is_solv2_summand():
    cert = radical(catalog("mixed"))
    _, second = summand_embeddings(catalog("sl2bol"), catalog("solv2"))
    assert cert.decided and cert.radical == second
    assert cert.strategy == "agreement"


def test_radical_strategies_agree_on_catalog():
    from bolalg.catalog import catalog_names

    for name in catalog_names():
        cert = radical(catalog(name))
        assert cert.decided, name
        assert cert.strategy == "agreement", name
        s1, s2 = cert.details
        assert s1.certified and s2.certified
        assert s1.candidate == s2.candidate


def test_radical_with_trace_form_backend():
    cert = radical(catalog("sl2bol"), form_kind="prop1")
    assert cert.decided and cert.radical == zero_space(3)


def test_radical_maximality_over_found_solvable_ideals():
    from support import collect_ideals
    from bolalg.catalog import catalog_names
    from bolalg.series import is_solvable

    for name in catalog_names():
        B = catalog(name)
        cert = radical(B)
        assert cert.decided
        for I in collect_ideals(B):
            if is_solvable(B, I):
                assert I <= cert.radical, (name, I.dim)


def test_quotient_by_radical_is_semisimple():
    from bolalg.core import quotient

    for name in ("mixed", "solv2", "heis3bol"):
        B = catalog(name)
        cert = radical(B)
        if cert.radical.dim in (0, B.n):
            continue
        Q = quotient(B, cert.radical)
        qcert = radical(Q)
        assert qcert.decided and qcert.radical.is_zero()


def test_is_semisimple():
    assert is_semisimple(catalog("sl2bol"))
    assert is_semisimple(direct_sum(catalog("sl2bol"), catalog("so3bol")))
    assert not is_semisimple(catalog("solv2"))
    assert not is_semisimple(catalog("mixed"))


def test_is_simple_yes_cases():
    for name in ("sl2bol", "so3bol", "lts_sl2"):
        res = is_simple(catalog(name))
        assert res.status == "yes", name
        assert res.witness is None


def test_is_simple_mixed_has_witness():
    res = is_simple(catalog("mixed"))
    assert res.status == "no"
    assert res.witness is not None and 0 < res.witness.dim < 5
    from bolalg.core import is_ideal

    assert is_ideal(catalog("mixed"), res.witness, "def2")


def test_is_simple_abelian():
    res = is_simple(catalog("abelian2"))
    assert res.status == "no"
    assert res.witness is not None and res.witness.dim == 1
    assert is_simple(catalog("abelian1")).status == "no"


def test_is_simple_seed_is_recorded():
    res = is_simple(catalog("sl2bol"), seed=7)
    assert res.seed == 7


def test_undecided_radical_fixture():
    # a verified two-dimensional algebra whose only ideals are 0 and itself,
    # not solvable, so its radical is 0; both strategy candidates overshoot
    # and fail certification, which the toolkit must report honestly
    B, name = parse_bol_document((FIXTURES / "undecided_radical.json").read_text())
    from bolalg.core import check_axioms

    assert check_axioms(B).ok
    cert = radical(B)
    assert not cert.decided
    assert cert.strategy == "none"
    assert cert.radical is None
    s1, s2 = cert.details
    assert not s1.certified and not s2.certified
    assert s1.candidate is not None and s2.candidate is not None


def test_undecided_fixture_is_actually_simple():
    # the honest ground truth for the fixture: simple, hence radical zero
    B, _ = parse_bol_document((FIXTURES / "undecided_radical.json").read_text())
    assert is_simple(B).status == "yes"
    from bolalg.core import is_ideal

    for p, q in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]:
        line = span([vec([p, q])], 2)
        assert not is_ideal(B, line, "def2")


def test_undecided_fixture_envelope_solvable_but_base_is_not():
    # root cause of the second strategy's failure: the envelope is solvable
    # while the base algebra is not, so the Lie radical meets all of B;
    # solvability transfers upward only
    B, _ = parse_bol_document((FIXTURES / "undecided_radical.json").read_text())
    from bolalg.envelope import solvability_transfer_check

    rep = solvability_transfer_check(B)
    assert not rep.bol_solvable and rep.lie_solvable
    assert rep.implication_holds
