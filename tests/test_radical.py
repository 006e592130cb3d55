import importlib
import random
from math import lcm
from pathlib import Path

import pytest
from support import (
    random_algebra,
    rational_basis,
    reference_random_combinations,
    spy_on_cache,
    summand_embeddings,
    transport,
    unimodular_basis,
)

from bolalg.catalog import catalog, catalog_names
from bolalg.core import BolAlgebra, direct_sum
from bolalg.decompose import find_proper_ideal
from bolalg.envelope import envelope
from bolalg.fileio import parse_bol_document
from bolalg.lie import lie_radical
from bolalg.linalg import full_space, span, vec, zero_space
from bolalg.radical import DEFAULT_SEED, N_RANDOM, _is_simple, _random_combinations, is_semisimple, is_simple, radical

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
    assert is_simple(B, seed=DEFAULT_SEED) is first
    assert is_simple(B, DEFAULT_SEED) is first
    assert find_proper_ideal(B)[1] is first
    assert find_proper_ideal(B, DEFAULT_SEED)[1] is first
    assert computed == [(B, DEFAULT_SEED)]


def test_other_arguments_get_their_own_simplicity_search(monkeypatch):
    computed = spy_on_cache(monkeypatch, RADICAL, "_is_simple")
    B = catalog("so3bol")
    results = [is_simple(B), is_simple(B, seed=7), is_simple(B, 8), is_simple(catalog("sl2bol"))]
    assert computed == [(B, DEFAULT_SEED), (B, 7), (B, 8), (catalog("sl2bol"), DEFAULT_SEED)]
    assert [res.seed for res in results] == [DEFAULT_SEED, 7, 8, DEFAULT_SEED]


def assert_combinations_match(B, rng):
    ops = list(B.ideal_operators)
    for n_random in (0, 5, 32):
        for seed in (DEFAULT_SEED, rng.randrange(10**6)):
            got = list(_random_combinations(ops, B.n, n_random, seed))
            assert got == reference_random_combinations(ops, B.n, n_random, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_combinations_equal_fraction_sums(n, seed):
    rng = random.Random(5000 * n + seed)
    B = random_algebra(rng, n, (1, 2, 3), (1, 5, 4), density=0.6, idle_pairs=0.3)
    assert lcm(*(c.denominator for op in B.ideal_operators for row in op for c in row)) > 1
    assert_combinations_match(B, rng)


@pytest.mark.parametrize("name", catalog_names())
def test_integer_combinations_on_transported_catalog(name):
    rng = random.Random(f"{name}-combinations")
    B = catalog(name)
    assert_combinations_match(B, rng)
    assert_combinations_match(transport(B, rational_basis(rng, B.n)), rng)


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
    ops = list(B.ideal_operators)
    candidates = len(ops) + len(list(_random_combinations(ops, B.n, N_RANDOM, DEFAULT_SEED)))
    tried = []
    roots = RADICAL.rational_roots
    monkeypatch.setattr(RADICAL, "rational_roots", lambda p: tried.append(p) or roots(p))
    res = _is_simple.__wrapped__(B, DEFAULT_SEED)
    assert (res.status, res.witness, res.note) == ("yes", None, "dual-kernel criterion")
    assert 0 < len(tried) < candidates


@pytest.mark.parametrize("name", catalog_names())
def test_the_simplicity_search_draws_random_combinations_only_when_it_needs_them(name, monkeypatch):
    # every catalog entry is decided by a closure or by the operators themselves
    pulled = []
    draw = RADICAL._random_combinations

    def counting(*args):
        for combo in draw(*args):
            pulled.append(combo)
            yield combo

    monkeypatch.setattr(RADICAL, "_random_combinations", counting)
    B = catalog(name)
    res = _is_simple.__wrapped__(B, DEFAULT_SEED)
    assert res == is_simple(B)
    assert pulled == []


def test_each_radical_candidate_is_tested_for_an_ideal_once(monkeypatch):
    # mixed = sl2bol + solv2: both strategies find the 2-dimensional solv2
    # summand, and each runs the def2 test on it once (not again in its
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
    assert tested == ["def2", "def2"]


def test_lie_radical_brackets_its_candidate_with_the_algebra_once(monkeypatch):
    L = envelope(catalog("mixed")).lie
    bracket_span = LIE.bracket_span
    calls = []
    monkeypatch.setattr(LIE, "bracket_span", lambda *args: calls.append(args) or bracket_span(*args))
    rad = lie_radical(L)
    assert rad.dim > 0
    assert sum(1 for _, U, V in calls if U == rad and V.is_full()) == 1
