"""The record classes behave as frozen value records: positional and keyword
construction, equality only within one class, the hash of the field tuple,
the Name(field=value, ...) repr, refused assignment and deletion, and
validation on construction through __post_init__."""

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
)

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
