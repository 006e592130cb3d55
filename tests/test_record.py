"""The value types: `linalg.Record` construction, equality, hashing, repr and immutability."""

from fractions import Fraction

import pytest

from bolalg.catalog import catalog
from bolalg.core import BolAlgebra, IdentityCheck
from bolalg.envelope import PairEndo
from bolalg.linalg import Subspace, basis_vec, frac, span

F = Fraction


def test_equal_fields_give_equal_records_and_hashes():
    a, b = Subspace(2, ((F(1), F(0)),)), span([basis_vec(0, 2)], 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Subspace(2, ((F(0), F(1)),))
    assert IdentityCheck("A1", True) == IdentityCheck("A1", True, None, None, 0)
    assert IdentityCheck("A1", True) != IdentityCheck("A1", True, failures=1)


def test_records_of_different_classes_or_a_plain_tuple_are_never_equal():
    class Derived(Subspace):
        pass

    s = Subspace(2, ())
    assert s != PairEndo(2, ()) and PairEndo(2, ()) != s
    assert s != Derived(2, ()) and Derived(2, ()) != s
    assert s != (2, ()) and (2, ()) != s
    assert s.__eq__((2, ())) is NotImplemented


def test_repr_names_every_field_in_order():
    assert repr(IdentityCheck("A1", True)) == "IdentityCheck(name='A1', ok=True, witness=None, defect=None, failures=0)"
    assert repr(span([basis_vec(0, 2)], 2)) == "Subspace(ambient=2, basis=((Fraction(1, 1), Fraction(0, 1)),))"


def test_fields_can_be_neither_assigned_nor_deleted():
    s = span([basis_vec(0, 2)], 2)
    with pytest.raises(AttributeError):
        s.ambient = 3
    with pytest.raises(AttributeError):
        s.other = 3
    with pytest.raises(AttributeError):
        del s.basis
    assert (s.ambient, s.dim) == (2, 1)


def test_construction_by_position_keyword_and_default():
    full = IdentityCheck("A4", False, (0, 1, 2, 3), (F(1),), 2)
    assert IdentityCheck(name="A4", ok=False, witness=(0, 1, 2, 3), defect=(F(1),), failures=2) == full
    assert IdentityCheck("A4", False, defect=(F(1),), witness=(0, 1, 2, 3), failures=2) == full
    short = IdentityCheck("A1", ok=True)
    assert (short.witness, short.defect, short.failures) == (None, None, 0)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("A1",), {}, "missing argument 'ok'"),
        (("A1", True), {"nope": 1}, "unexpected keyword argument 'nope'"),
        (("A1", True), {"name": "A2"}, "multiple values for argument 'name'"),
        (("A1", True, None, None, 0, 1), {}, "takes 5 arguments but 6 were given"),
    ],
    ids=["missing", "unknown", "duplicate", "too-many"],
)
def test_a_bad_call_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        IdentityCheck(*args, **kwargs)


def test_bol_algebra_keeps_its_integer_rows_and_hashes_without_labels():
    B = catalog("sl2bol")
    rows = B.integer_rows
    assert B.integer_rows is rows and B.__dict__["integer_rows"] is rows
    relabelled = BolAlgebra(B.n, ("x", "y", "z"), B.integer_rows)
    assert relabelled != B and hash(relabelled) == hash(B)
    assert BolAlgebra.from_tensors(B.n, B.T, B.R, B.labels) == B


def test_frac_keeps_a_fraction_coerces_ints_and_strings_and_rejects_floats():
    x = F(3, 4)
    assert frac(x) is x
    assert (frac(2), frac("-1/3")) == (F(2), F(-1, 3))
    with pytest.raises(TypeError, match="floats"):
        frac(0.5)
