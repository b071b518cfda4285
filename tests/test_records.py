"""The contract of the engine's plain records: construction, equality,
hashing, immutability and copying.

Sl2Poly and PsiTable must not be tuples: a tuple base would let
`Sl2Poly(...) * 2` repeat the fields and let a record equal the plain tuple
of its fields, both silent misreadings.
"""

import copy
import pickle

import pytest

from laxdual.diffpoly import DiffPoly, FieldVar
from laxdual.fnr import PsiTable
from laxdual.loopalg import LaurentMatrix, Sl2Poly
from laxdual.poisson import BracketTable
from laxdual.report import CheckItem, CheckReport
from laxdual.zerocurv import DualityResult, PdeSystem

from conftest import P

B1, C1, B2 = FieldVar("b", 1), FieldVar("c", 1), FieldVar("b", 2)


def _sl2():
    return Sl2Poly(a=P("b1*c1"), bp=P("b1"), cm=P("c1'"))


def _table():
    return PsiTable(k=1, depth=1, rows=(Sl2Poly.sigma3(), Sl2Poly(bp=P("b1"), cm=P("c1"))))


def _system():
    return PdeSystem(k=1, n=2, evolution={B1: P("1/2*b1''"), C1: P("-1/2*c1''")})


def _report():
    report = CheckReport("demo")
    report.add("first", True)
    report.add("second", False, "b1")
    return report


def _brackets():
    return BracketTable(k=1, entries={(B1, C1): P("4"), (C1, B1): P("-4")}, fields=(B1, C1))


def _laurent(floor=-1):
    return LaurentMatrix({1: Sl2Poly.sigma3(), 0: _sl2(), -1: Sl2Poly(bp=P("b1"))}, floor=floor)


# name: (maker, field names in constructor order, a record one field away).
# Each maker builds an equal record from fresh objects on every call.
FROZEN = {
    "Sl2Poly": (_sl2, ("a", "bp", "cm"), lambda: Sl2Poly(a=P("b1*c1"), bp=P("b1"), cm=P("c1"))),
    "PsiTable": (_table, ("k", "depth", "rows"), lambda: PsiTable(k=2, depth=1, rows=_table().rows)),
    "CheckItem": (
        lambda: CheckItem(label="x", ok=False, residual="b1"),
        ("label", "ok", "residual"),
        lambda: CheckItem(label="x", ok=False, residual="b2"),
    ),
    "BracketTable": (
        _brackets,
        ("k", "entries", "fields"),
        lambda: BracketTable(k=1, entries={}, fields=(B1, C1)),
    ),
}
MUTABLE = {
    "PdeSystem": (
        _system,
        ("k", "n", "evolution"),
        lambda: PdeSystem(k=1, n=2, evolution={B1: P("1/2*b1''"), C1: P("1/2*c1''")}),
    ),
    "CheckReport": (_report, ("name", "items"), lambda: CheckReport("demo", _report().items[:1])),
    "DualityResult": (
        lambda: DualityResult(report=_report(), psi={B2: P("1/2*b1'")}),
        ("report", "psi"),
        lambda: DualityResult(report=CheckReport("demo"), psi={B2: P("1/2*b1'")}),
    ),
    "LaurentMatrix": (_laurent, ("coeffs", "floor"), lambda: _laurent(floor=-2)),
}
ALL = {**FROZEN, **MUTABLE}
RECORDS = pytest.mark.parametrize("make, names, changed", ALL.values(), ids=ALL.keys())


@RECORDS
def test_keyword_construction_and_field_order(make, names, changed):
    record = make()
    values = [getattr(record, name) for name in names]
    assert type(record)(**dict(zip(names, values))) == record
    assert type(record)(*values) == record


@RECORDS
def test_equal_by_value_and_survives_copy_and_pickle(make, names, changed):
    record = make()
    assert record == make() and not record != make()
    assert record != changed() and not record == changed()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@RECORDS
def test_never_equal_to_a_tuple_or_a_record_of_another_class(make, names, changed):
    record = make()
    assert record != tuple(getattr(record, name) for name in names)
    assert all(record != other() for other, *_ in ALL.values() if other is not make)


HASHABLE = {name: FROZEN[name][0] for name in ("Sl2Poly", "PsiTable", "CheckItem")}


@pytest.mark.parametrize("make", HASHABLE.values(), ids=HASHABLE.keys())
def test_frozen_records_hash_by_value(make):
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


def test_bracket_table_hash_reaches_its_unhashable_entries():
    with pytest.raises(TypeError):
        hash(_brackets())


@pytest.mark.parametrize("make, names, changed", MUTABLE.values(), ids=MUTABLE.keys())
def test_mutable_records_are_unhashable(make, names, changed):
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("make, names, changed", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_records_reject_assignment_and_deletion(make, names, changed):
    record = make()
    for name in names:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_keyword_defaults():
    zero = DiffPoly.zero()
    assert Sl2Poly() == Sl2Poly(a=zero, bp=zero, cm=zero)
    assert Sl2Poly(bp=P("b1")).a.is_zero() and Sl2Poly(bp=P("b1")).cm.is_zero()
    assert CheckItem(label="x", ok=True).residual is None
    first, second = CheckReport(name="r"), CheckReport(name="r")
    first.add("a", True)
    assert first.items == [CheckItem("a", True)] and second.items == []


def test_repr_names_every_field():
    assert repr(CheckItem("x", True)) == "CheckItem(label='x', ok=True, residual=None)"
    assert repr(Sl2Poly(bp=P("b1"))) == "Sl2Poly(a=DiffPoly(0), bp=DiffPoly(b1), cm=DiffPoly(0))"
    assert repr(LaurentMatrix({0: Sl2Poly(bp=P("b1"))})) == (
        "LaurentMatrix(coeffs={0: Sl2Poly(a=DiffPoly(0), bp=DiffPoly(b1), cm=DiffPoly(0))}, floor=None)"
    )


def test_psi_table_rejects_a_wrong_row_count():
    rows = _table().rows
    with pytest.raises(ValueError, match="depth 2 needs 3 rows, got 2"):
        PsiTable(k=1, depth=2, rows=rows)


def test_sl2poly_and_psi_table_are_not_sequences():
    with pytest.raises(TypeError):
        _sl2() * 2
    with pytest.raises(TypeError):
        2 * _sl2()
    with pytest.raises(TypeError):
        _table() * 2
    with pytest.raises(TypeError):
        len(_sl2())
    assert _sl2() + _sl2() == _sl2().scale(2)
