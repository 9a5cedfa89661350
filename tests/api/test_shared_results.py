"""Tests of the shared result types and consistency levels (repro.api.results)."""

from __future__ import annotations

import pytest

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.dht.messages import MessageKind, TraceSummary


def _trace(messages: int = 0) -> TraceSummary:
    trace = TraceSummary(0, 0, 0, 128)
    for _ in range(messages):
        trace.record(MessageKind.CONTROL)
    return trace


class TestConsistency:
    def test_levels_are_enumerated(self):
        assert Consistency.ALL == (Consistency.CURRENT, Consistency.ANY,
                                   Consistency.BEST_EFFORT)

    @pytest.mark.parametrize("level", Consistency.ALL)
    def test_validate_accepts_every_level(self, level):
        assert Consistency.validate(level) == level

    def test_validate_rejects_unknown_levels(self):
        with pytest.raises(ValueError, match="linearizable"):
            Consistency.validate("linearizable")


class TestInsertResult:
    def test_message_count_comes_from_the_trace(self):
        result = InsertResult(key="k", replicas_written=3, replicas_attempted=3,
                              trace=_trace(7))
        assert result.message_count == 7

    def test_fully_replicated(self):
        complete = InsertResult(key="k", replicas_written=4, replicas_attempted=4,
                                trace=_trace())
        partial = InsertResult(key="k", replicas_written=2, replicas_attempted=4,
                               trace=_trace())
        assert complete.fully_replicated
        assert not partial.fully_replicated

    def test_carries_either_timestamp_or_version(self):
        ums_style = InsertResult(key="k", replicas_written=1, replicas_attempted=1,
                                 trace=_trace(), timestamp="ts", service="ums")
        brk_style = InsertResult(key="k", replicas_written=1, replicas_attempted=1,
                                 trace=_trace(), version=3, service="brk")
        assert ums_style.timestamp == "ts" and ums_style.version is None
        assert brk_style.version == 3 and brk_style.timestamp is None


class TestRetrieveResult:
    def test_defaults_cover_the_brk_fields(self):
        result = RetrieveResult(key="k", data="v", found=True, is_current=True,
                                replicas_inspected=2, trace=_trace(5))
        assert result.message_count == 5
        assert result.version is None
        assert not result.ambiguous
        assert result.consistency == Consistency.CURRENT


class TestBatchResults:
    def _retrieves(self, trace, count=3, found=True, current=True):
        return tuple(
            RetrieveResult(key=f"k{index}", data=index, found=found,
                           is_current=current, replicas_inspected=1, trace=trace)
            for index in range(count))

    def test_batch_retrieve_aggregates(self):
        trace = _trace(9)
        batch = BatchRetrieveResult(results=self._retrieves(trace), trace=trace)
        assert len(batch) == 3
        assert batch.keys == ("k0", "k1", "k2")
        assert batch.data == (0, 1, 2)
        assert batch.found_count == 3
        assert batch.current_count == 3
        assert batch.message_count == 9
        assert [result.key for result in batch] == ["k0", "k1", "k2"]
        assert batch[1].data == 1

    def test_batch_insert_full_replication(self):
        trace = _trace()
        complete = BatchInsertResult(results=tuple(
            InsertResult(key=f"k{index}", replicas_written=2, replicas_attempted=2,
                         trace=trace) for index in range(2)), trace=trace)
        partial = BatchInsertResult(results=(
            InsertResult(key="k", replicas_written=1, replicas_attempted=2,
                         trace=trace),), trace=trace)
        assert complete.fully_replicated
        assert not partial.fully_replicated


class TestRetiredBricksAliases:
    def test_the_legacy_result_names_are_gone(self):
        import repro.core as core
        import repro.core.baseline as baseline

        for module in (core, baseline):
            for name in ("BricksInsertResult", "BricksRetrieveResult"):
                assert not hasattr(module, name)
                assert name not in module.__all__

    def test_unknown_attributes_still_raise(self):
        import repro.core.baseline as baseline

        with pytest.raises(AttributeError):
            baseline.NoSuchName  # noqa: B018
