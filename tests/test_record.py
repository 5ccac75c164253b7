import pickle

import pytest

from eqkr.coeffs import KCoeff, KRCoeff
from eqkr.groups import GroupSpec
from eqkr.presentation import Generator, RClassIndex, RClassSquareResult
from eqkr.realstruct import FundamentalSplit, IrrepClass
from eqkr.torus import LaurentForm
from eqkr.verifier import CheckResult, VerificationReport

# (class, positional fields, frozen, pinned repr or None)
RECORDS = [
    (KCoeff, ((1, 0, 2, 0),), True, None),
    (KRCoeff, (1, 1, 0, 2), True, "KRCoeff(one=1, eta=1, eta2=0, mu=2)"),
    (GroupSpec, ((("SU", 3), ("U", 2)),), True,
     "GroupSpec(factors=(('SU', 3), ('U', 2)))"),
    (Generator, ("lam", (1, 0), 2, 0), True, None),
    (RClassIndex, ((1, 0), 1, (1, 0), (0, 1)), True,
     "RClassIndex(rho=(1, 0), i=1, eps=(1, 0), nu=(0, 1))"),
    (RClassSquareResult, (None, "mu", -1, 2, None), False, None),
    (IrrepClass, ((1, 0), (0, 1), "C", "rule"), True, None),
    (FundamentalSplit, (((1,),), (), ()), True, None),
    (LaurentForm, (2, {((1, 0), (0,)): 3}), True, None),
    (CheckResult, ("squares[SU2]", "fail", "lhs != rhs", 7, 0.5), False, None),
    (VerificationReport, ("SU2", "trivial", "fast", 7, 50, []), False, None),
]


@pytest.mark.parametrize("cls,fields,frozen,pinned", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, frozen, pinned):
    x = cls(*fields)
    assert tuple(getattr(x, name) for name in cls.__slots__) == fields
    assert x == cls(*fields)
    assert pickle.loads(pickle.dumps(x)) == x
    # a record of another class with the same fields is not equal
    twin = type("Twin", cls.__bases__,
                {"__slots__": cls.__slots__, "__init__": cls.__init__})(*fields)
    assert x != twin and twin != x
    assert x.__eq__(twin) is NotImplemented
    if frozen:
        try:
            expected = hash(fields)
        except TypeError:  # a frozen record with a dict field
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected
        with pytest.raises(AttributeError):
            setattr(x, cls.__slots__[0], None)
        with pytest.raises(AttributeError):
            delattr(x, cls.__slots__[0])
        assert getattr(x, cls.__slots__[0]) == fields[0]
    else:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, cls.__slots__[0], None)
        assert getattr(x, cls.__slots__[0]) is None
    if pinned is not None:
        assert repr(x) == pinned
        assert repr(twin) == "Twin" + pinned[len(cls.__name__):]


def test_record_constructors_keep_their_defaults():
    assert KRCoeff(one=1) == KRCoeff(1, 0, 0, 0)
    assert KRCoeff(**{"eta": 3, "eta2": -1}) == KRCoeff(0, 1, 1, 0)
    assert KCoeff() == KCoeff((0, 0, 0, 0))
    assert Generator("dR", (1,), 0).pair == -1
    assert LaurentForm(1).terms == {}
    assert LaurentForm(1).terms is not LaurentForm(1).terms
    report = VerificationReport("SU2", "trivial", "fast", 7, 50)
    assert report.results == [] and report.results is not VerificationReport(
        "SU2", "trivial", "fast", 7, 50).results
    assert CheckResult("x", "pass") == CheckResult("x", "pass", None, None, 0.0)
