import importlib
import random
from pathlib import Path

import pytest
from support import (
    random_algebra,
    rational_basis,
    reference_ideal_closure,
    reference_is_ideal,
    restrict_scalars,
    spy_on_cache,
    summand_embeddings,
    transport,
    unimodular_basis,
    vec,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, check_axioms, direct_sum
from bolalg.decompose import find_proper_ideal
from bolalg.envelope import envelope
from bolalg.errors import IllDefinedQuotient
from bolalg.fileio import parse_bol_document
from bolalg.lie import lie_radical
from bolalg.linalg import basis_vec, full_space, span, zero_space
from bolalg.radical import _is_simple, is_semisimple, is_simple, radical

FIXTURES = Path(__file__).parent / "fixtures"
# the package exports the function `radical` under the module's name
RADICAL = importlib.import_module("bolalg.radical")
CORE = importlib.import_module("bolalg.core")
SERIES = importlib.import_module("bolalg.series")
LIE = importlib.import_module("bolalg.lie")


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


def rebuilt(B):
    return BolAlgebra.from_tensors(B.n, B.T, B.R, B.labels)


def test_equal_algebras_share_one_simplicity_result():
    for name in ("mixed", "sl2bol", "abelian2"):
        B = catalog(name)
        assert rebuilt(B) is not B
        assert is_simple(rebuilt(B)) is is_simple(B), name


def test_argument_forms_share_one_simplicity_search(monkeypatch):
    computed = spy_on_cache(monkeypatch, RADICAL, "_is_simple")
    B = catalog("so3bol")
    first = is_simple(B)
    assert is_simple(B) is first
    assert find_proper_ideal(B)[1] is first
    assert computed == [(B,)]


def test_other_arguments_get_their_own_simplicity_search(monkeypatch):
    computed = spy_on_cache(monkeypatch, RADICAL, "_is_simple")
    B = catalog("so3bol")
    is_simple(B)
    is_simple(catalog("sl2bol"))
    assert computed == [(B,), (catalog("sl2bol"),)]


@pytest.mark.parametrize("basis", ["natural", "unimodular"])
def test_radical_builds_each_strategy_candidate_once(basis, monkeypatch):
    # the candidate is zero, and B/0 = B: its quotient check is immediate
    B = direct_sum(catalog("sl2bol"), catalog("so3bol"))
    if basis == "unimodular":
        B = transport(B, unimodular_basis(random.Random("sl2bol+so3bol-radical"), B.n))
    built = []
    for name in ("_candidate_form_orthogonal", "_candidate_envelope_intersection"):
        fn = getattr(RADICAL, name)
        monkeypatch.setattr(RADICAL, name, lambda *args, fn=fn, name=name: built.append(name) or fn(*args))
    cert = radical(B)
    assert cert.decided and cert.strategy == "agreement" and cert.radical == zero_space(6)
    assert sorted(built) == ["_candidate_envelope_intersection", "_candidate_form_orthogonal"]


@pytest.mark.parametrize("name", ["sl2bol", "so3bol", "lts_sl2"])
def test_simplicity_search_stops_at_its_first_certificate(name, monkeypatch):
    # by Norton's test a certificate rules out every proper ideal, so no later candidate is tried
    B = catalog(name)
    candidates = len(B.ideal_operators)
    tried = []
    roots = RADICAL.rational_roots
    monkeypatch.setattr(RADICAL, "rational_roots", lambda p: tried.append(p) or roots(p))
    res = _is_simple.__wrapped__(B)
    assert (res.status, res.witness, res.note) == ("yes", None, "dual-kernel criterion")
    assert 0 < len(tried) < candidates


def assert_sound_verdict(B, res):
    # "no" carries a proper def2-ideal (none exists when n = 1); "yes" leaves
    # no proper closure of a basis vector under the dense reference
    n = B.n
    if res.status == "no" and n > 1:
        assert res.witness is not None and 0 < res.witness.dim < n
        assert reference_is_ideal(B, res.witness, "def2")
    elif res.status == "yes":
        assert res.witness is None
        assert all(reference_ideal_closure(B, span([basis_vec(i, n)], n)).dim == n for i in range(n))
    elif res.status == "undecided":
        assert (res.witness, res.note) == (None, "no witness found and no sound certificate available")


@pytest.mark.parametrize("name", catalog_names())
def test_a_unimodular_basis_change_keeps_every_catalog_verdict_decided(name):
    # the closures and the operators decide every catalog entry in any integral basis,
    # so no entry needs a search beyond them
    B = catalog(name)
    Bt = transport(B, unimodular_basis(random.Random(f"{name}-unimodular-simple"), B.n))
    res = is_simple(Bt)
    assert res.status == is_simple(B).status != "undecided"
    assert_sound_verdict(Bt, res)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplicity_verdicts_on_random_algebras_are_sound(n, seed):
    # random constants need not satisfy the Bol identities; the search may end
    # undecided, but it never certifies a direct sum simple
    rng = random.Random(5000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.6, idle_pairs=0.3)
    C = random_algebra(rng, 2, (1, 2, 3), (1, 5, 4), density=0.6, idle_pairs=0.3)
    S = transport(direct_sum(B, C), rational_basis(rng, n + 2))
    assert_sound_verdict(B, is_simple(B))
    res = is_simple(S)
    assert res.status != "yes"
    assert_sound_verdict(S, res)


def test_each_radical_candidate_is_tested_for_an_ideal_once(monkeypatch):
    # mixed = sl2bol + solv2: both strategies find the 2-dimensional solv2
    # summand, and the def2 test runs on it once for both (not again in its
    # derived series or its quotient)
    B = catalog("mixed")
    is_ideal = CORE.is_ideal
    tested = []

    def spy(A, V, mode="def2"):
        if A == B and V.dim == 2:
            tested.append(mode)
        return is_ideal(A, V, mode)

    for module in (CORE, SERIES, RADICAL):
        monkeypatch.setattr(module, "is_ideal", spy)
    cert = radical(B)
    assert cert.decided and cert.strategy == "agreement" and cert.radical.dim == 2
    assert tested == ["def2"]


def test_both_strategies_share_one_quotient_and_recheck_it_each(monkeypatch):
    # mixed: the two strategies agree on the solv2 summand; B/R is built once
    # and each strategy runs its own candidate construction on it
    B = catalog("mixed")
    ideal_quotient = RADICAL.ideal_quotient
    built = []
    monkeypatch.setattr(RADICAL, "ideal_quotient", lambda A, I: built.append(I) or ideal_quotient(A, I))
    cert = radical(B)
    assert cert.decided and cert.strategy == "agreement"
    assert built == [cert.radical]
    assert [s.quotient_semisimple_ok for s in cert.details] == [True, True]


def test_a_failed_quotient_is_reported_by_both_strategies(monkeypatch):
    def fail(A, I):
        raise IllDefinedQuotient("coset products of type x*v leave the ideal")

    monkeypatch.setattr(RADICAL, "ideal_quotient", fail)
    cert = radical(catalog("mixed"))
    assert not cert.decided and cert.strategy == "none"
    for s in cert.details:
        assert (s.is_ideal_ok, s.solvable_ok, s.quotient_semisimple_ok) == (True, True, False)
        assert s.error == "quotient re-check: IllDefinedQuotient: coset products of type x*v leave the ideal"


def test_lie_radical_brackets_its_candidate_with_the_algebra_once(monkeypatch):
    L = envelope(catalog("mixed")).lie
    bracket_span = LIE.bracket_span
    calls = []
    monkeypatch.setattr(LIE, "bracket_span", lambda *args: calls.append(args) or bracket_span(*args))
    rad = lie_radical(L)
    assert rad.dim > 0
    assert sum(1 for _, U, V in calls if U == rad and V.is_full()) == 1


QUADRATIC = [(name, d) for name in ("sl2bol", "so3bol", "lts_sl2") for d in (2, -1, 3)]


@pytest.mark.parametrize("name,d", QUADRATIC, ids=[f"{name}-sqrt{d}" for name, d in QUADRATIC])
def test_a_simple_algebra_over_a_quadratic_field_is_undecided(name, d):
    # simple over Q, but every operator's eigenvalues are irrational or have
    # even-dimensional eigenspaces, so neither a witness nor a certificate is found
    B = restrict_scalars(catalog(name), d)
    assert check_axioms(B).ok
    res = is_simple(B)
    assert (res.status, res.witness, res.note) == ("undecided", None, "no witness found and no sound certificate available")


def test_sl2_over_q_sqrt2_has_a_decided_zero_radical():
    cert = radical(restrict_scalars(catalog("sl2bol"), 2))
    assert cert.decided and cert.radical.is_zero()
