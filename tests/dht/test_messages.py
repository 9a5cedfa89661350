"""Unit tests for message traces and message-size accounting."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.messages import Message, MessageKind, MessageSizes, OperationTrace, TraceSummary


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
hop_calls = st.tuples(st.just("hop"), st.integers(0, 2 ** 64), st.integers(0, 2 ** 64))
calls = st.lists(st.one_of(record_calls, route_calls, exchange_calls, hop_calls),
                 max_size=12)


def feed(trace, call):
    """Apply one recording call to ``trace``, through the calls the data path
    makes: either class of trace takes each of them."""
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


def play(trace, model, call):
    """Apply one recording call to ``trace`` and to the list ``model``."""
    feed(trace, call)
    if call[0] == "record":
        _, kind, source, dest, size, timed_out = call
        model.append(Message(kind, SIZES.size_of(kind) if size is None else size,
                             source, dest, timed_out))
    elif call[0] == "route":
        _, path, retries, timeouts = call
        model.extend(Message(MessageKind.LOOKUP_HOP, 10, source, dest)
                     for source, dest in zip(path, path[1:]))
        model.extend(Message(MessageKind.LOOKUP_RETRY, 10, timed_out=index < timeouts)
                     for index in range(retries))
    elif call[0] == "hop":
        model.append(Message(MessageKind.LOOKUP_HOP, 10, call[1], call[2]))
    else:
        _, request, reply, source, dest, entries = call
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
    @given(part=calls)
    @settings(max_examples=150, deadline=None)
    def test_tallies_and_views_match_the_model_after_any_mix(self, part):
        trace, model = OperationTrace(sizes=SIZES), []
        for call in part:
            play(trace, model, call)
            assert_trace_equals(trace, model)

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


class TestTraceSummary:
    """A summary fed a trace's recording calls answers as the trace does, and
    the client's retries add up as the simulator records its own:
    ``record_route((), retries=r, timeouts=t)``."""

    @given(parts=st.lists(calls, max_size=3),
           retries=st.integers(min_value=-1, max_value=5),
           timeouts=st.integers(min_value=0, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_retries_add_up_as_the_simulators_record_route(self, parts, retries,
                                                          timeouts):
        trace = OperationTrace(sizes=SIZES)
        for part in parts:
            for call in part:
                play(trace, [], call)
        # As a client receives it: no sizes travel, so the carried
        # ``retry_bytes`` alone prices the retries.
        received = TraceSummary(trace.message_count, trace.total_bytes,
                                trace.timeout_count, SIZES.control_bytes)
        assert received == trace.summary()
        received.record_route((), retries=retries, timeouts=timeouts)
        trace.record_route((), retries=retries, timeouts=timeouts)
        assert received == trace.summary()

    @given(part=calls)
    @settings(max_examples=150, deadline=None)
    def test_a_summary_fed_a_traces_calls_equals_its_summary(self, part):
        trace = OperationTrace(sizes=SIZES)
        summary = TraceSummary(0, 0, 0, SIZES.control_bytes, SIZES)
        for call in part:
            for target in (trace, summary):
                feed(target, call)
            assert summary == trace.summary()
        assert summary.sizes is trace.summary().sizes is SIZES

    def test_the_sizes_stay_out_of_equality(self):
        assert TraceSummary(1, 2, 0, 3, SIZES) == TraceSummary(1, 2, 0, 3)
        assert "sizes" not in repr(TraceSummary(1, 2, 0, 3, SIZES))

    def test_a_summary_is_its_own_summary(self):
        summary = OperationTrace().summary()
        assert summary.summary() is summary
        assert summary == TraceSummary(0, 0, 0, MessageSizes().control_bytes)
