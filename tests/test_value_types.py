"""The immutable value types of the package, made by ``errors.value_type``:
frozen fields, value or identity equality, construction by position, keyword
or default, and the repr that ``bench/tracer.py`` fingerprints inputs by."""

import numpy as np
import pytest

from mobshift.errors import DefectReport, ParameterError
from mobshift.inductive import AminusOneFit
from mobshift.mobius import GroupPath, MobiusElement
from mobshift.numkernel import BILATERAL, UNILATERAL, OperatorMatrix, TruncationWindow
from mobshift.repn import Realization, RepnParams

W = TruncationWindow(BILATERAL, 4, 1)
P = RepnParams(BILATERAL, 0.3, 0.35 + 0.5j)

#: class, its fields in order, and values of them that construct an instance
BY_VALUE = [
    (DefectReport, ("name", "value", "tolerance", "passed", "context"), ("unitarity", 1e-9, 1e-7, True, {"N": 8})),
    (AminusOneFit, ("a", "b", "residual", "branch", "tie"), (1 + 2j, 3j, 0.5, "T2", True)),
    (MobiusElement, ("alpha", "beta"), (1 + 0j, 0.25j)),
    (GroupPath, ("segments",), ((("L", 0.1), ("h", -0.2)),)),
    (TruncationWindow, ("kind", "N", "padding"), (UNILATERAL, 8, 2)),
    (RepnParams, ("index_set", "lam", "mu"), (BILATERAL, 0.3, 0.35 + 0.5j)),
    (Realization, ("flavor", "params", "r"), ("reducible", RepnParams(BILATERAL, 1.0), 2 + 0j)),
]
#: for each class of BY_VALUE, the index of a field and another value of it
CHANGED = {DefectReport: (1, 2e-9), AminusOneFit: (4, False), MobiusElement: (1, 0.5j), GroupPath: (0, (("L", 0.1),)),
           TruncationWindow: (2, 3), RepnParams: (1, 0.4), Realization: (2, 3 + 0j)}


def _operator():
    return OperatorMatrix(np.eye(W.size), W)


@pytest.mark.parametrize("cls, fields, values", BY_VALUE, ids=[c[0].__name__ for c in BY_VALUE])
def test_fields_are_frozen(cls, fields, values):
    obj = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_operator_keeps_its_constructor_is_frozen_and_compares_by_identity():
    T = _operator()
    assert OperatorMatrix(data=np.eye(W.size), window=W).basis == T.basis == "monomial"
    with pytest.raises(TypeError):
        OperatorMatrix(np.eye(W.size))
    for name in ("window", "basis", "bands", "data"):
        with pytest.raises(AttributeError):
            setattr(T, name, None)
    with pytest.raises(AttributeError):
        del T.window
    assert T == T and T != _operator() and hash(T) == hash(T)


@pytest.mark.parametrize("cls, fields, values", BY_VALUE, ids=[c[0].__name__ for c in BY_VALUE])
def test_value_types_compare_and_hash_by_value(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    if cls is DefectReport:  # its context is a dict, so, as with the dataclass it was, it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    i, value = CHANGED[cls]
    assert a != cls(*values[:i], value, *values[i + 1:])
    assert a != tuple(values) and a.__eq__(tuple(values)) is NotImplemented


@pytest.mark.parametrize("cls, fields, values", BY_VALUE, ids=[c[0].__name__ for c in BY_VALUE])
def test_construction_by_position_keyword_and_default(cls, fields, values):
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    for obj in (keyword, mixed):
        for name in fields:
            assert np.array_equal(getattr(obj, name), getattr(positional, name)), name
    with pytest.raises(TypeError):
        cls(*values, None)  # one argument too many
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})  # given twice
    if cls is not GroupPath:  # its one field has a default
        with pytest.raises(TypeError):
            cls()


def test_defaults_and_missing_fields():
    assert DefectReport("x", 0.0, 1.0, True).context == {}
    assert AminusOneFit(1, 2, 0.0, "T3").tie is False
    assert GroupPath().segments == ()
    assert RepnParams(UNILATERAL, 2).mu == 0j
    assert Realization("plain", P).r is None
    for cls, given in ((DefectReport, ("x", 0.0, 1.0)), (AminusOneFit, (1, 2, 0.0)), (RepnParams, (BILATERAL,)),
                       (TruncationWindow, (BILATERAL, 4)), (Realization, ())):
        with pytest.raises(TypeError, match="missing"):
            cls(*given)


def test_post_init_checks_and_normalizes():
    p = RepnParams(BILATERAL, 1, 0.5)
    assert type(p.lam) is float and type(p.mu) is complex
    assert GroupPath([("L", 0)]).segments == (("L", 0.0),)
    with pytest.raises(ParameterError):
        TruncationWindow(BILATERAL, 4, padding=4)
    with pytest.raises(ParameterError):
        MobiusElement(2.0, 0.0)


def test_reprs_are_those_the_tracer_fingerprints():
    # bench/tracer.py keys along_path and generator_matrix inputs by repr, and mat_exp's by
    # the window's repr: each reads as it did as a dataclass
    w = TruncationWindow(BILATERAL, 8, 2)
    assert repr(P) == "RepnParams(index_set='bilateral', lam=0.3, mu=(0.35+0.5j))"
    assert repr(w) == "TruncationWindow(kind='bilateral', N=8, padding=2)"
    assert repr(GroupPath.parse("L:0.1,M:-0.05")) == "GroupPath(segments=(('L', 0.1), ('M', -0.05)))"
    assert repr(Realization.plain(P)) == (
        "Realization(flavor='plain', params=RepnParams(index_set='bilateral', lam=0.3, mu=(0.35+0.5j)), r=None)"
    )
    assert repr(OperatorMatrix(np.eye(w.size), w)) == (
        "OperatorMatrix(window=TruncationWindow(kind='bilateral', N=8, padding=2), basis='monomial')"
    )
    assert repr(DefectReport("x", 0.5, 1.0, True, {"N": 8})) == (
        "DefectReport(name='x', value=0.5, tolerance=1.0, passed=True, context={'N': 8})"
    )
