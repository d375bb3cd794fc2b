"""The one-step constructor of the hot frozen records (``repro._records``).

Each record decorated with :func:`~repro._records.dict_init` must be
indistinguishable from the plain frozen dataclass it replaces: the same
``__init__`` signature, equal instances with equal hashes and reprs,
working :func:`dataclasses.replace` and pickling, and assignment still
refused.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
from typing import Optional

import pytest

from repro._records import dict_init
from repro.cache.schedule import CacheInterval, Schedule, Transfer
from repro.core.dp_greedy import GroupReport
from repro.core.online_dpg import StepOutcome
from repro.engine.chaos import FaultPlan
from repro.serve.engine import ServeAnswer


def plain_twin(cls):
    """``cls`` rebuilt as a plain frozen dataclass: the same fields,
    annotations and defaults, with the ``__init__`` dataclasses generates."""
    namespace = {
        "__annotations__": dict(cls.__annotations__),
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


SCHEDULE = Schedule((CacheInterval(0, 0.0, 1.5),), (Transfer(0, 1, 1.5),))

#: Per record: positional argument tuples, all fields given and defaults left.
CASES = {
    ServeAnswer: [
        ("ok", None, None, 1.5, 2.0, 1, 1, 0, 0.004),
        ("rejected", "queue-full", 0.01),
        ("shed",),
    ],
    StepOutcome: [
        (1.6, 1, 0, 1, (frozenset({1, 2}),)),
        (0.0, 2, 0, 0),
    ],
    GroupReport: [
        (frozenset({3}), 2.5, 0.0, 4, 0, ()),
        (
            frozenset({1, 2}), 3.2, 0.8, 2, 1, ((1.4, "transfer", 0.8),),
            SCHEDULE, ((0, "transfer", 1.6),),
        ),
    ],
}

PARAMS = [
    pytest.param(cls, args, id=f"{cls.__name__}-{i}")
    for cls, cases in CASES.items()
    for i, args in enumerate(cases)
]


def plain_instance(cls, args):
    """An instance of ``cls`` itself, filled by the plain dataclass
    ``__init__`` (field by field through ``object.__setattr__``)."""
    obj = object.__new__(cls)
    plain_twin(cls).__init__(obj, *args)
    return obj


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_signature_is_the_dataclass_one(cls):
    twin = plain_twin(cls)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls,args", PARAMS)
def test_instances_match_plain_dataclass_ones(cls, args):
    made = cls(*args)
    plain = plain_instance(cls, args)
    assert made == plain
    assert hash(made) == hash(plain)
    assert repr(made) == repr(plain)
    # the instance dict holds every field, in field order
    assert list(vars(made).items()) == list(vars(plain).items())
    assert list(vars(made)) == [f.name for f in dataclasses.fields(cls)]
    names = [f.name for f in dataclasses.fields(cls)][: len(args)]
    assert cls(**dict(zip(names, args))) == made


@pytest.mark.parametrize("cls,args", PARAMS)
def test_replace_and_pickle(cls, args):
    made = cls(*args)
    first = dataclasses.fields(cls)[0].name
    other = made.__dict__[first]
    changed = dataclasses.replace(made, **{first: other})
    assert changed == made and changed is not made
    back = pickle.loads(pickle.dumps(made))
    assert type(back) is cls
    assert back == made and hash(back) == hash(made)


@pytest.mark.parametrize("cls,args", PARAMS)
def test_assignment_is_refused(cls, args):
    made = cls(*args)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(made, name)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_missing_and_extra_arguments_fail_like_dataclasses(cls):
    with pytest.raises(TypeError):
        cls()
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    with pytest.raises(TypeError):
        cls(*([None] * len(dataclasses.fields(cls))), None)
    with pytest.raises(TypeError):
        cls(*([None] * len(required)), not_a_field=1)


def test_corrupt_report_replaces_the_cost():
    report = GroupReport(frozenset({1, 2}), 3.2, 0.8, 2, 1, ())
    corrupted = FaultPlan.corrupt_report(report)
    assert type(corrupted) is GroupReport
    assert math.isnan(corrupted.package_cost)
    assert dataclasses.replace(corrupted, package_cost=3.2) == report


class TestRefusals:
    def test_post_init(self):
        @dataclasses.dataclass(frozen=True)
        class Checked:
            x: int

            def __post_init__(self) -> None:
                if self.x < 0:
                    raise ValueError("negative")

        with pytest.raises(TypeError, match="__post_init__"):
            dict_init(Checked)

    def test_default_factory(self):
        @dataclasses.dataclass(frozen=True)
        class Listed:
            xs: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="default_factory"):
            dict_init(Listed)

    def test_not_frozen(self):
        @dataclasses.dataclass
        class Mutable:
            x: int

        with pytest.raises(TypeError, match="frozen"):
            dict_init(Mutable)

    def test_slotted(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Slotted:
            x: int

        with pytest.raises(TypeError, match="instance dict"):
            dict_init(Slotted)

    def test_init_false_and_keyword_only_fields(self):
        @dataclasses.dataclass(frozen=True)
        class Hidden:
            x: int
            y: int = dataclasses.field(default=0, init=False)

        @dataclasses.dataclass(frozen=True)
        class KeywordOnly:
            x: int
            y: Optional[int] = dataclasses.field(default=None, kw_only=True)

        for cls in (Hidden, KeywordOnly):
            with pytest.raises(TypeError, match="positional init field"):
                dict_init(cls)
