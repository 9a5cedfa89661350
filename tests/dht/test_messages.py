"""Unit tests for message traces and message-size accounting."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.messages import Message, MessageKind, MessageSizes, OperationTrace


class TestMessageSizes:
    def test_control_messages_are_small(self):
        sizes = MessageSizes()
        assert sizes.size_of(MessageKind.LOOKUP_HOP) == sizes.control_bytes
        assert sizes.size_of(MessageKind.TSR) == sizes.control_bytes

    def test_data_bearing_messages_are_large(self):
        sizes = MessageSizes()
        assert sizes.size_of(MessageKind.GET_REPLY) == sizes.data_bytes
        assert sizes.size_of(MessageKind.PUT_REQUEST) == sizes.data_bytes
        assert sizes.size_of(MessageKind.DATA_TRANSFER) == sizes.data_bytes

    def test_custom_sizes_respected(self):
        sizes = MessageSizes(control_bytes=10, data_bytes=5000)
        assert sizes.size_of(MessageKind.GET_REQUEST) == 10
        assert sizes.size_of(MessageKind.GET_REPLY) == 5000

    def test_only_data_bearing_kinds_scale_with_the_entries_carried(self):
        sizes = MessageSizes(control_bytes=10, data_bytes=500)
        assert sizes.size_of(MessageKind.PUT_REQUEST, 7) == 3500
        assert sizes.size_of(MessageKind.PUT_ACK, 7) == 10


class TestOperationTrace:
    def test_empty_trace(self):
        trace = OperationTrace()
        assert trace.message_count == 0
        assert trace.total_bytes == 0
        assert trace.timeout_count == 0
        assert len(trace) == 0

    def test_record_defaults_size_from_kind(self):
        trace = OperationTrace()
        assert trace.record(MessageKind.GET_REPLY) is None
        assert trace.messages[-1].size_bytes == trace.sizes.data_bytes
        assert trace.total_bytes == trace.sizes.data_bytes

    def test_record_explicit_size(self):
        trace = OperationTrace()
        trace.record(MessageKind.CONTROL, size_bytes=7)
        assert trace.total_bytes == 7

    def test_record_route_counts_hops(self):
        trace = OperationTrace()
        trace.record_route([1, 2, 3, 4])
        assert trace.message_count == 3
        assert all(message.kind is MessageKind.LOOKUP_HOP for message in trace)

    def test_record_route_single_node_is_free(self):
        trace = OperationTrace()
        trace.record_route([42])
        assert trace.message_count == 0

    def test_record_route_retries_and_timeouts(self):
        trace = OperationTrace()
        trace.record_route([1, 2], retries=3, timeouts=2)
        assert trace.message_count == 1 + 3
        assert trace.timeout_count == 2

    def test_record_request_reply(self):
        trace = OperationTrace()
        trace.record_request_reply(MessageKind.GET_REQUEST, MessageKind.GET_REPLY,
                                   source=1, dest=9)
        assert trace.message_count == 2
        kinds = [message.kind for message in trace]
        assert kinds == [MessageKind.GET_REQUEST, MessageKind.GET_REPLY]
        assert trace.messages[1].source == 9 and trace.messages[1].dest == 1

    def test_merge_appends_other_trace(self):
        first, second = OperationTrace(), OperationTrace()
        first.record(MessageKind.TSR)
        second.record(MessageKind.TSR_REPLY)
        merged = first.merge(second)
        assert merged is first
        assert first.message_count == 2

    def test_count_by_kind(self):
        trace = OperationTrace()
        trace.record(MessageKind.TSR)
        trace.record(MessageKind.TSR)
        trace.record(MessageKind.TSR_REPLY)
        histogram = trace.count_by_kind()
        assert histogram[MessageKind.TSR] == 2
        assert histogram[MessageKind.TSR_REPLY] == 1

    def test_messages_property_is_a_snapshot(self):
        trace = OperationTrace()
        trace.record(MessageKind.TSR)
        snapshot = trace.messages
        trace.record(MessageKind.TSR)
        assert len(snapshot) == 1
        assert trace.message_count == 2

    def test_messages_are_frozen(self):
        message = Message(kind=MessageKind.TSR, size_bytes=10)
        with pytest.raises(AttributeError):
            message.size_bytes = 20  # type: ignore[misc]


# --------------------------------------------------------------------------
# The columns against a list-of-messages model.
# --------------------------------------------------------------------------
SIZES = MessageSizes(control_bytes=10, data_bytes=500)
ids = st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 64))
kinds = st.sampled_from(list(MessageKind))

record_calls = st.tuples(st.just("record"), kinds, ids, ids,
                         st.one_of(st.none(), st.integers(0, 5000)), st.booleans())
route_calls = st.tuples(st.just("route"),
                        st.lists(st.integers(0, 2 ** 64), max_size=6),
                        st.integers(-1, 4), st.integers(-1, 5))
exchange_calls = st.tuples(st.just("exchange"), kinds, kinds, ids, ids,
                           st.integers(1, 9))
calls = st.lists(st.one_of(record_calls, route_calls, exchange_calls), max_size=12)


def play(trace, model, call):
    """Apply one recording call to ``trace`` and to the list ``model``."""
    if call[0] == "record":
        _, kind, source, dest, size, timed_out = call
        trace.record(kind, source=source, dest=dest, size_bytes=size,
                     timed_out=timed_out)
        model.append(Message(kind, SIZES.size_of(kind) if size is None else size,
                             source, dest, timed_out))
    elif call[0] == "route":
        _, path, retries, timeouts = call
        trace.record_route(path, retries=retries, timeouts=timeouts)
        model.extend(Message(MessageKind.LOOKUP_HOP, 10, source, dest)
                     for source, dest in zip(path, path[1:]))
        model.extend(Message(MessageKind.LOOKUP_RETRY, 10, timed_out=index < timeouts)
                     for index in range(retries))
    else:
        _, request, reply, source, dest, entries = call
        trace.record_request_reply(request, reply, source=source, dest=dest,
                                   entries=entries)
        model.append(Message(request, SIZES.size_of(request, entries), source, dest))
        model.append(Message(reply, SIZES.size_of(reply, entries), dest, source))


def assert_trace_equals(trace, model):
    assert trace.messages == tuple(model) == tuple(trace)
    assert trace.message_count == len(trace) == len(model)
    assert trace.total_bytes == sum(message.size_bytes for message in model)
    assert trace.timeout_count == sum(message.timed_out for message in model)
    assert trace.count_by_kind() == Counter(message.kind for message in model)
    assert len(trace.kinds) == len(trace.size_bytes) == len(trace.sources) \
        == len(trace.dests) == len(model)


class TestColumns:
    @given(parts=st.lists(calls, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_tallies_and_views_match_the_model_after_any_mix(self, parts):
        """Each part is recorded into its own trace, then merged into the first."""
        merged, merged_model = OperationTrace(sizes=SIZES), []
        for index, part in enumerate(parts):
            trace, model = OperationTrace(sizes=SIZES), []
            for call in part:
                play(trace, model, call)
            assert_trace_equals(trace, model)
            if index:
                assert merged.merge(trace) is merged
                merged_model.extend(model)
            else:
                merged, merged_model = trace, model
            assert_trace_equals(merged, merged_model)

    def test_merge_offsets_the_timed_out_indices(self):
        first, second = OperationTrace(), OperationTrace()
        first.record_route([1, 2, 3], retries=2, timeouts=1)
        second.record(MessageKind.GET_REQUEST, dest=9, timed_out=True)
        second.record_route([4, 5], retries=1, timeouts=1)
        first.merge(second)
        assert first.timed_out == [2, 4, 6]
        assert second.timed_out == [0, 2]
        assert [message.timed_out for message in first] == \
            [False, False, True, False, True, False, True]
        assert first.total_bytes == 7 * first.sizes.control_bytes

    def test_scripted_operation_materialises_the_golden_messages(self):
        trace = OperationTrace(sizes=SIZES)
        trace.record_route((3, 7, 9), retries=2, timeouts=1)
        trace.record_request_reply(MessageKind.LAST_TS_REQUEST,
                                   MessageKind.LAST_TS_REPLY, dest=9)
        trace.record_route((3, 4))
        trace.record(MessageKind.GET_REQUEST, dest=4, timed_out=True)
        trace.record_request_reply(MessageKind.GET_REQUEST, MessageKind.GET_REPLY,
                                   source=3, dest=8, entries=3)
        hop, retry = MessageKind.LOOKUP_HOP, MessageKind.LOOKUP_RETRY
        assert trace.messages == (
            Message(hop, 10, source=3, dest=7),
            Message(hop, 10, source=7, dest=9),
            Message(retry, 10, timed_out=True),
            Message(retry, 10),
            Message(MessageKind.LAST_TS_REQUEST, 10, source=None, dest=9),
            Message(MessageKind.LAST_TS_REPLY, 10, source=9, dest=None),
            Message(hop, 10, source=3, dest=4),
            Message(MessageKind.GET_REQUEST, 10, dest=4, timed_out=True),
            Message(MessageKind.GET_REQUEST, 10, source=3, dest=8),
            Message(MessageKind.GET_REPLY, 1500, source=8, dest=3))
        assert trace.kinds == bytearray(b"hhrrlLhggG")
        assert trace.timed_out == [2, 7]
        assert (trace.message_count, trace.total_bytes, trace.timeout_count) == \
            (10, 9 * 10 + 1500, 2)

    def test_views_are_built_on_demand_not_stored(self):
        trace = OperationTrace()
        trace.record(MessageKind.TSR, source=1, dest=2)
        first, second = trace.messages[0], trace.messages[0]
        assert first == second == Message(kind=MessageKind.TSR, size_bytes=128,
                                          source=1, dest=2, timed_out=False)
        assert first is not second

    def test_extend_appends_built_messages_as_given(self):
        trace = OperationTrace()
        messages = [Message(MessageKind.CONTROL, 7, source=1),
                    Message(MessageKind.GET_REPLY, 9, dest=2, timed_out=True)]
        trace.extend(messages)
        assert list(trace) == messages
        assert (trace.total_bytes, trace.timeout_count) == (16, 1)
