"""The record classes behave as frozen value records: positional and keyword
construction, TypeError naming the class for wrong arguments, equality only
within one class, the hash of the field tuple, the Name(field=value, ...)
repr, refused assignment and deletion, and validation on construction
through __post_init__.  Their fields are declared once, as __slots__, and
Record's constructor is the only one."""

import copy
import pickle

import pytest

from lenspp import (
    ApplicationReport,
    CensusRecord,
    ClassRepresentative,
    EquivalenceWitness,
    FreenessReport,
    HomogeneousForm,
    KInvariant,
    Mat2,
    RotationData,
    TotalClass,
    Verdict,
    forms,
    is_free,
    validate,
)
from lenspp._record import Record

_A = Mat2(5, (0, 1, 1, 0))
_B = Mat2(5, (1, 0, 0, 4))
_F = HomogeneousForm(5, (1, 0, 2))
_G = HomogeneousForm(5, (0, 3, 0))
_W = EquivalenceWitness(_A, _B, "homeomorphism")
_REP = ClassRepresentative(
    (1, 1, 0, 0), (0, 0, 1, 1), ((1, 0, 0), (0, 0, 1)), ((4, (1, 0, 4)),), 48
)

# each class with field values in its parameter order, already in the
# normal form validation leaves (entries reduced, components sorted)
RECORDS = [
    (RotationData, {"p": 5, "n": 2, "R": (1, 2, 0, 0), "Q": (0, 0, 1, 3)}),
    (FreenessReport, {"free": False, "violating_element": (1, 4), "violating_pair": (0, 2)}),
    (
        ClassRepresentative,
        {
            "R": (1, 1, 0, 0),
            "Q": (0, 0, 1, 1),
            "canonical": ((1, 0, 0), (0, 0, 1)),
            "fingerprint": ((4, (1, 0, 4)),),
            "count": 48,
        },
    ),
    (
        CensusRecord,
        {
            "p": 5,
            "n": 2,
            "total_pairs": 390000,
            "free_count": 161280,
            "homotopy_classes": 5,
            "homeomorphism_classes": 15,
            "outside_hypotheses": False,
            "sampled": False,
            "representatives": (_REP,),
        },
    ),
    (
        ApplicationReport,
        {
            "p": 5,
            "quadruples": 256,
            "criterion_true": 128,
            "sufficiency_discrepancies": (),
            "necessity_discrepancies": ((1, 1, 1, 2),),
        },
    ),
    (EquivalenceWitness, {"A": _A, "B": _B, "level": "homeomorphism"}),
    (Verdict, {"equivalent": True, "witness": _W, "checked_pairs": 3, "level": "homeomorphism"}),
    (HomogeneousForm, {"p": 5, "coeffs": (1, 0, 2)}),
    (KInvariant, {"first": _F, "second": _G}),
    (Mat2, {"p": 5, "entries": (1, 2, 3, 4)}),
    (TotalClass, {"p": 5, "truncation": 4, "components": ((4, _F), (8, HomogeneousForm(5, (0,) * 5)))}),
]

_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    x, y = cls(*fields.values()), cls(**fields)
    assert x == y
    assert hash(x) == hash(y)
    assert {name: getattr(x, name) for name in fields} == fields


def _wrong_calls(fields):
    """(args, kwargs, the field the error names) of each wrong call."""
    names, values = list(fields), list(fields.values())
    return {
        "missing positional": ((*values[:-1],), {}, names[-1]),
        "missing keyword": ((), dict(list(fields.items())[1:]), names[0]),
        "extra positional": ((*values, None), {}, None),
        "unknown keyword": ((), {**fields, "extra": None}, "extra"),
        "position and keyword": ((values[0],), fields, names[0]),
    }


_WRONG = [
    pytest.param(cls, kind, *call, id=f"{cls.__name__}-{kind}")
    for cls, fields in RECORDS
    for kind, call in _wrong_calls(fields).items()
]


@pytest.mark.parametrize(("cls", "kind", "args", "kwargs", "field"), _WRONG)
def test_wrong_arguments_raise_type_error_naming_the_class(cls, kind, args, kwargs, field):
    with pytest.raises(TypeError) as raised:
        cls(*args, **kwargs)
    message = str(raised.value)
    assert cls.__qualname__ in message
    if field is not None:
        assert repr(field) in message


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        yield cls
        yield from _record_classes(cls)


def test_records_share_one_constructor():
    classes = [cls for cls in _record_classes() if cls.__module__.startswith("lenspp.")]
    assert sorted(cls.__name__ for cls in classes) == sorted(_IDS)
    assert [cls.__name__ for cls in classes if "__init__" in vars(cls)] == []


@pytest.mark.parametrize("slots", [(), ("only",)], ids=["no field", "one field"])
def test_a_record_needs_two_fields(slots):
    with pytest.raises(TypeError, match="Thin needs at least two fields"):
        type("Thin", (Record,), {"__slots__": slots})


def test_is_free_answers_one_report_for_free_inputs():
    x = is_free(validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1))))
    y = is_free(validate(RotationData(7, 2, (1, 2, 3, 4), (1, 1, 1, 1))))
    assert x == y == FreenessReport(True, None, None)


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=_IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields):
    assert hash(cls(**fields)) == hash(tuple(fields.values()))


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=_IDS)
def test_repr_lists_the_fields_in_order(cls, fields):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=_IDS)
def test_a_record_equals_no_tuple(cls, fields):
    x, values = cls(**fields), tuple(fields.values())
    assert x != values and values != x
    assert not x == values


def test_records_of_different_classes_with_the_same_values_differ():
    form, mat = HomogeneousForm(5, (1, 2, 3, 4)), Mat2(5, (1, 2, 3, 4))
    assert form.p == mat.p and form.coeffs == mat.entries
    assert form != mat and mat != form
    assert len({form, mat}) == 2
    records = [cls(**fields) for cls, fields in RECORDS]
    for i, x in enumerate(records):
        for j, y in enumerate(records):
            assert (x == y) is (i == j)


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=_IDS)
def test_assignment_and_deletion_raise(cls, fields):
    x = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert {name: getattr(x, name) for name in fields} == fields


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=_IDS)
def test_pickle_and_copy_round_trip(cls, fields):
    x = cls(**fields)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x


@pytest.mark.parametrize(
    "build",
    [
        lambda: Mat2(5, (1, 2, 3)),
        lambda: HomogeneousForm(5, ()),
        lambda: EquivalenceWitness(Mat2(5, (1, 2, 2, 4)), _B, "homeomorphism"),
        lambda: TotalClass(5, 4, ((6, HomogeneousForm(5, (1, 0, 0, 0))),)),
    ],
    ids=["Mat2", "HomogeneousForm", "EquivalenceWitness", "TotalClass"],
)
def test_validation_still_raises(build):
    with pytest.raises(ValueError):
        build()


def test_a_patched_post_init_runs_once_per_construction(monkeypatch):
    calls = []
    post_init = HomogeneousForm.__post_init__

    def counting(self):
        calls.append(self.coeffs)
        post_init(self)

    monkeypatch.setattr(HomogeneousForm, "__post_init__", counting)
    HomogeneousForm(5, (6, 7))
    HomogeneousForm(p=5, coeffs=(1,))
    forms.product_of_linear_forms(5, [(1, 2)])
    assert calls[:2] == [(6, 7), (1,)]
    assert len(calls) == 3
