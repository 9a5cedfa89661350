"""The slotted core-path records keep the frozen-dataclass contract.

``StoredValue``, ``Timestamp`` and the four service results are
``dataclass(frozen=True, slots=True)`` classes whose ``__init__`` comes from
:func:`repro.dht.model.slotted_init`.  Each must still behave as the plain
frozen dataclass it replaced: the same constructor signature, immutable,
and ``replace``/``asdict``/``==``/pickle all working — only without a
``__dict__``.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.core.errors import IncomparableTimestampsError
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, TraceSummary
from repro.dht.model import slotted_init
from repro.dht.storage import StoredValue

TRACE = TraceSummary(0, 0, 0, 128)
TRACE.record(MessageKind.GET_REQUEST, source=1, dest=2)

INSERT = dict(key="k", replicas_written=9, replicas_attempted=10, trace=TRACE,
              timestamp=Timestamp("k", 2), version=None, service="ums")
RETRIEVE = dict(key="k", data={"v": 1}, found=True, is_current=True,
                replicas_inspected=2, trace=TRACE, timestamp=Timestamp("k", 2),
                latest_timestamp=Timestamp("k", 2), version=None, ambiguous=False,
                consistency=Consistency.CURRENT, service="ums")

#: (class, every field by keyword, a field to replace and its new value)
CASES = [
    (StoredValue, dict(key="k", data={"v": 1}, timestamp=Timestamp("k", 2), version=None,
                       hash_name="hr-0", point=17), "point", 18),
    (Timestamp, dict(key="k", value=4), "value", 5),
    (InsertResult, INSERT, "replicas_written", 10),
    (RetrieveResult, RETRIEVE, "data", {"v": 2}),
    (BatchInsertResult, dict(results=(InsertResult(**INSERT),), trace=TRACE),
     "results", ()),
    (BatchRetrieveResult, dict(results=(RetrieveResult(**RETRIEVE),), trace=TRACE,
                               consistency=Consistency.ANY), "consistency", Consistency.CURRENT),
]
IDS = [case[0].__name__ for case in CASES]


def _view(value):
    """``value`` as nested tuples of its fields, a trace's included."""
    if dataclasses.is_dataclass(value):
        return (type(value), tuple(_view(getattr(value, field.name)) for field in fields(value)))
    if isinstance(value, tuple):
        return tuple(map(_view, value))
    return value


@pytest.mark.parametrize("cls, values, name, new", CASES, ids=IDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned_or_added(self, cls, values, name, new):
        record = cls(**values)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, new)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        # No ``__dict__`` to add to: the generated ``__setattr__``'s ``super()``
        # raises TypeError on a slotted class (3.10-3.13).
        with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
            record.extra = 1

    def test_fields_live_in_slots(self, cls, values, name, new):
        assert cls.__slots__ == tuple(field.name for field in fields(cls))
        assert not hasattr(cls(**values), "__dict__")

    def test_the_signature_is_the_frozen_dataclasses(self, cls, values, name, new):
        specs = [(field.name, field.type) if field.default is dataclasses.MISSING
                 else (field.name, field.type, dataclasses.field(default=field.default))
                 for field in fields(cls)]
        plain = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
        assert inspect.signature(cls) == inspect.signature(plain)

    def test_keyword_and_positional_construction_agree(self, cls, values, name, new):
        record = cls(**values)
        assert cls(*[values[field.name] for field in fields(cls)]) == record
        assert [getattr(record, field.name) for field in fields(cls)] == list(values.values())

    def test_replace_asdict_and_equality(self, cls, values, name, new):
        record = cls(**values)
        changed = replace(record, **{name: new})
        assert type(changed) is cls and getattr(changed, name) == new
        assert changed != record and replace(changed, **{name: values[name]}) == record
        assert list(asdict(record)) == [field.name for field in fields(cls)]

    def test_a_pickle_round_trip_rebuilds_the_record(self, cls, values, name, new):
        record = cls(**values)
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is cls
        assert _view(restored) == _view(record)


class TestTimestamp:
    def test_hash_is_the_pairs(self):
        assert hash(Timestamp("k", 3)) == hash(("k", 3))
        assert len({Timestamp("k", 3), Timestamp("k", 3), Timestamp("k", 4)}) == 2

    def test_order_is_per_key(self):
        low, high = Timestamp("k", 1), Timestamp("k", 2)
        assert low < high and low <= high and high > low and high >= low
        assert sorted([high, low]) == [low, high] and low.next() == high
        with pytest.raises(IncomparableTimestampsError):
            assert Timestamp("a", 1) < Timestamp("b", 2)

    def test_a_negative_value_is_refused(self):
        with pytest.raises(ValueError):
            Timestamp("k", -1)
        with pytest.raises(ValueError):
            replace(Timestamp("k", 1), value=-1)


def test_slotted_init_takes_plain_fields_only():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Bag:
        items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="plain fields"):
        slotted_init(Bag)
