"""Unit tests for the counting trace, its message hook and message-size accounting."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import Columns, Message

from repro.dht.messages import MessageKind, MessageSizes, OperationTrace, TraceSummary


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


# --------------------------------------------------------------------------
# The hook against a list-of-messages model.
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
hop_calls = st.tuples(st.just("hop"), st.integers(0, 2 ** 64), st.integers(0, 2 ** 64))
calls = st.lists(st.one_of(record_calls, route_calls, exchange_calls, hop_calls),
                 max_size=12)


def new_summary(hook=None):
    return TraceSummary(0, 0, 0, SIZES.control_bytes, SIZES, hook)


def feed(trace, call):
    """Apply one recording call to ``trace``, through the calls the data path makes."""
    if call[0] == "record":
        _, kind, source, dest, size, timed_out = call
        trace.record(kind, source=source, dest=dest, size_bytes=size,
                     timed_out=timed_out)
    elif call[0] == "route":
        _, path, retries, timeouts = call
        trace.record_route(path, retries=retries, timeouts=timeouts)
    elif call[0] == "hop":
        trace.record_hop(call[1], call[2])
    else:
        _, request, reply, source, dest, entries = call
        trace.record_exchange((request, reply), -1 if source is None else source,
                              -1 if dest is None else dest, entries)


def model_of(call):
    """The messages one recording call sends, as a list model."""
    if call[0] == "record":
        _, kind, source, dest, size, timed_out = call
        return [Message(kind, SIZES.size_of(kind) if size is None else size,
                        source, dest, timed_out)]
    if call[0] == "route":
        _, path, retries, timeouts = call
        return ([Message(MessageKind.LOOKUP_HOP, 10, source, dest)
                 for source, dest in zip(path, path[1:])]
                + [Message(MessageKind.LOOKUP_RETRY, 10, timed_out=index < timeouts)
                   for index in range(retries)])
    if call[0] == "hop":
        return [Message(MessageKind.LOOKUP_HOP, 10, call[1], call[2])]
    _, request, reply, source, dest, entries = call
    return [Message(request, SIZES.size_of(request, entries), source, dest),
            Message(reply, SIZES.size_of(reply, entries), dest, source)]


class TestRecordingCalls:
    """Each recording call, one at a time: what it counts and what it hands
    to the hook."""

    def test_empty_trace(self):
        columns = Columns()
        summary = new_summary(columns)
        assert summary == TraceSummary(0, 0, 0, SIZES.control_bytes)
        assert columns.counts() == (0, 0, 0)
        assert len(columns) == 0

    def test_a_summary_built_without_sizes_prices_with_the_defaults(self):
        summary = TraceSummary(0, 0, 0, 3)
        summary.record(MessageKind.GET_REPLY)
        summary.record_hop(1, 2)
        defaults = MessageSizes()
        assert summary.sizes == defaults
        assert summary.total_bytes == defaults.data_bytes + defaults.control_bytes

    def test_record_defaults_size_from_kind(self):
        columns = Columns()
        summary = new_summary(columns)
        assert summary.record(MessageKind.GET_REPLY) is None
        assert columns.messages[-1].size_bytes == SIZES.data_bytes
        assert summary.total_bytes == SIZES.data_bytes

    def test_record_explicit_size(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record(MessageKind.CONTROL, size_bytes=7)
        assert summary.total_bytes == 7
        assert columns.size_bytes == [7]

    def test_record_hop_is_one_control_message(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_hop(5, 6)
        assert summary == TraceSummary(1, SIZES.control_bytes, 0, SIZES.control_bytes)
        assert columns.messages == (Message(MessageKind.LOOKUP_HOP, 10, source=5, dest=6),)

    def test_record_route_counts_hops(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_route([1, 2, 3, 4])
        assert summary.message_count == 3
        assert all(message.kind is MessageKind.LOOKUP_HOP for message in columns)
        assert (columns.sources, columns.dests) == ([1, 2, 3], [2, 3, 4])

    def test_record_route_single_node_is_free(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_route([42])
        summary.record_route(())
        assert summary.message_count == 0
        assert len(columns) == 0

    def test_record_route_retries_and_timeouts(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_route([1, 2], retries=3, timeouts=2)
        assert summary.message_count == 1 + 3
        assert summary.timeout_count == 2
        assert columns.timed_out == [1, 2]
        assert columns.kinds == bytearray(b"hrrr")

    def test_record_route_clamps_timeouts_to_the_retries(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_route((), retries=2, timeouts=5)
        summary.record_route((), retries=-1, timeouts=3)
        summary.record_route((), retries=2, timeouts=-1)
        assert (summary.message_count, summary.timeout_count) == (4, 2)
        assert columns.counts() == (4, 40, 2)
        assert columns.timed_out == [0, 1]

    def test_record_exchange(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_exchange((MessageKind.GET_REQUEST, MessageKind.GET_REPLY), 1, 9)
        assert summary.message_count == 2
        kinds = [message.kind for message in columns]
        assert kinds == [MessageKind.GET_REQUEST, MessageKind.GET_REPLY]
        assert columns.messages[1].source == 9 and columns.messages[1].dest == 1

    def test_record_exchange_scales_the_data_bearing_side_with_the_entries(self):
        columns = Columns()
        summary = new_summary(columns)
        exchange = (MessageKind.PUT_REQUEST, MessageKind.PUT_ACK)
        summary.record_exchange(exchange, 1, 2, entries=4)
        summary.record_exchange(exchange, 1, 2, entries=4)
        assert columns.size_bytes == [2000, 10, 2000, 10]
        assert summary.total_bytes == 2 * SIZES.exchange_row(exchange, 4)[2] == 4020

    def test_count_by_kind(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record(MessageKind.TSR)
        summary.record(MessageKind.TSR)
        summary.record(MessageKind.TSR_REPLY)
        histogram = columns.count_by_kind()
        assert histogram[MessageKind.TSR] == 2
        assert histogram[MessageKind.TSR_REPLY] == 1

    def test_messages_property_is_a_snapshot(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record(MessageKind.TSR)
        snapshot = columns.messages
        summary.record(MessageKind.TSR)
        assert len(snapshot) == 1
        assert summary.message_count == 2 == len(columns.messages)

    def test_views_are_built_on_demand_not_stored(self):
        columns = Columns()
        new_summary(columns).record(MessageKind.TSR, source=1, dest=2)
        first, second = columns.messages[0], columns.messages[0]
        assert first == second == Message(kind=MessageKind.TSR, size_bytes=10,
                                          source=1, dest=2, timed_out=False)
        assert first is not second


class TestTheHook:
    """A summary hands each message it counts to its hook: the hook sees the
    summary's counts, message by message, and changes none of them."""

    @given(part=calls)
    @settings(max_examples=150, deadline=None)
    def test_the_hook_sees_every_message_the_summary_counts(self, part):
        seen = []
        summary = new_summary(lambda *message: seen.append(message))
        for call in part:
            feed(summary, call)
            assert len(seen) == summary.message_count
            assert sum(message[1] for message in seen) == summary.total_bytes
            assert sum(message[4] for message in seen) == summary.timeout_count

    @given(part=calls)
    @settings(max_examples=150, deadline=None)
    def test_setting_a_hook_changes_no_count(self, part):
        hooked, bare = new_summary(Columns()), new_summary()
        for call in part:
            for target in (hooked, bare):
                feed(target, call)
            assert hooked == bare
        assert (hooked.message_count, hooked.total_bytes, hooked.timeout_count) == \
            hooked.on_message.counts()

    @given(part=calls)
    @settings(max_examples=150, deadline=None)
    def test_the_columns_match_the_model_after_any_mix(self, part):
        columns, model = Columns(), []
        summary = new_summary(columns)
        for call in part:
            feed(summary, call)
            model.extend(model_of(call))
            assert columns.messages == tuple(model) == tuple(columns)
            assert columns.count_by_kind() == Counter(message.kind for message in model)
            assert len(columns.kinds) == len(columns.size_bytes) == len(columns.sources) \
                == len(columns.dests) == len(model)

    def test_a_scripted_operation_hands_over_the_golden_messages(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record_route((3, 7, 9), retries=2, timeouts=1)
        summary.record_exchange((MessageKind.LAST_TS_REQUEST, MessageKind.LAST_TS_REPLY),
                                -1, 9)
        summary.record_route((3, 4))
        summary.record(MessageKind.GET_REQUEST, dest=4, timed_out=True)
        summary.record_exchange((MessageKind.GET_REQUEST, MessageKind.GET_REPLY), 3, 8,
                                entries=3)
        hop, retry = MessageKind.LOOKUP_HOP, MessageKind.LOOKUP_RETRY
        assert columns.messages == (
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
        assert columns.kinds == bytearray(b"hhrrlLhggG")
        assert columns.timed_out == [2, 7]
        assert summary == TraceSummary(10, 9 * 10 + 1500, 2, 10)

    def test_a_take_hands_over_one_operation_and_starts_the_next(self):
        columns = Columns()
        summary = new_summary(columns)
        summary.record(MessageKind.TSR, timed_out=True)
        first = columns.take()
        summary.record(MessageKind.TSR_REPLY, timed_out=True)
        assert first.timed_out == columns.timed_out == [0]
        assert first.count_by_kind() == {MessageKind.TSR: 1}
        assert columns.count_by_kind() == {MessageKind.TSR_REPLY: 1}

    def test_messages_are_frozen(self):
        message = Message(kind=MessageKind.TSR, size_bytes=10)
        with pytest.raises(AttributeError):
            message.size_bytes = 20  # type: ignore[misc]


class TestTraceSummary:
    """The client's retries add up as the simulator records its own:
    ``record_route((), retries=r, timeouts=t)``."""

    @given(parts=st.lists(calls, max_size=3),
           retries=st.integers(min_value=-1, max_value=5),
           timeouts=st.integers(min_value=0, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_retries_add_up_as_the_simulators_record_route(self, parts, retries,
                                                          timeouts):
        recorded = new_summary()
        for part in parts:
            for call in part:
                feed(recorded, call)
        # As a client receives it: no sizes travel, so the carried
        # ``retry_bytes`` alone prices the retries.
        received = TraceSummary(recorded.message_count, recorded.total_bytes,
                                recorded.timeout_count, SIZES.control_bytes)
        assert received == recorded
        received.record_route((), retries=retries, timeouts=timeouts)
        recorded.record_route((), retries=retries, timeouts=timeouts)
        assert received == recorded

    def test_the_sizes_and_the_hook_stay_out_of_equality_and_repr(self):
        hooked = TraceSummary(1, 2, 0, 3, SIZES, Columns())
        assert hooked == TraceSummary(1, 2, 0, 3)
        assert "sizes" not in repr(hooked) and "on_message" not in repr(hooked)

    def test_the_retired_column_trace_refuses_to_record(self):
        with pytest.raises(NotImplementedError):
            OperationTrace.record(None, MessageKind.TSR)
