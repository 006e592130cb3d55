"""Error contracts and degenerate inputs."""

from fractions import Fraction

import pytest

from bolalg.catalog import catalog
from bolalg.core import BolAlgebra, center, check_axioms, is_ideal, quotient, restrict
from bolalg.decompose import structure_report
from bolalg.envelope import envelope
from bolalg.errors import DimensionMismatch, IllDefinedQuotient, NotASubsystem
from bolalg.forms import envelope_form
from bolalg.linalg import full_space, span, vec
from bolalg.radical import is_simple, radical
from bolalg.series import bol_derived_series

F = Fraction


def test_quotient_reports_ill_defined_with_witness():
    # V = span{e0} absorbs first-slot products but (e1, e2, e0) = e1 escapes;
    # such data violates the axioms, and the quotient must say so, not guess
    Z = F(0)
    n = 3
    T = [[[Z] * n for _ in range(n)] for _ in range(n)]
    R = [[[[Z] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    R[1][2][0][1] = F(1)
    R[2][1][0][1] = F(-1)
    B = BolAlgebra.from_tensors(n, T, R)
    V = span([vec([1, 0, 0])], 3)
    assert is_ideal(B, V, "def2")
    assert not check_axioms(B).ok
    with pytest.raises(IllDefinedQuotient) as err:
        quotient(B, V)
    assert err.value.witness is not None


def test_restrict_requires_subsystem():
    # span{e, f} in sl2 is not closed: e*f = h falls outside
    B = catalog("sl2bol")
    with pytest.raises(NotASubsystem):
        restrict(B, span([vec([1, 0, 0]), vec([0, 1, 0])], 3))


def test_dimension_mismatch_paths():
    B = catalog("sl2bol")
    with pytest.raises(DimensionMismatch):
        B.binary(vec([1, 0]), B.basis_vec(0))
    with pytest.raises(DimensionMismatch):
        B.ternary(B.basis_vec(0), B.basis_vec(1), vec([1, 0]))
    with pytest.raises(DimensionMismatch):
        is_ideal(B, span([vec([1, 0])], 2), "def2")


def test_unknown_ideal_mode_rejected():
    B = catalog("sl2bol")
    with pytest.raises(ValueError):
        is_ideal(B, full_space(3), "def9")


def test_dimension_zero_algebra_everywhere():
    # the zero-dimensional algebra flows through the whole pipeline
    B = BolAlgebra.zero(0)
    assert check_axioms(B).ok
    assert center(B).dim == 0
    assert bol_derived_series(B, full_space(0)).solvable
    assert envelope(B).total_dim == 0
    cert = radical(B)
    assert cert.decided and cert.radical.dim == 0
    assert is_simple(B).status == "no"
    assert envelope_form(B).gram == ()
    rep = structure_report(B)
    assert rep.item1_biconditional and rep.item2_biconditional


def test_dimension_one_abelian():
    B = catalog("abelian1")
    assert check_axioms(B).ok
    cert = radical(B)
    assert cert.decided and cert.radical == full_space(1)
    res = is_simple(B)
    assert res.status == "no" and res.witness is None


def test_restrict_names_the_missing_subsystem():
    B = catalog("sl2bol")
    with pytest.raises(NotASubsystem, match="^restriction requires a subsystem$"):
        restrict(B, span([vec([1, 0, 0]), vec([0, 1, 0])], 3))
