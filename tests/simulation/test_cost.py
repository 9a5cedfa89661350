"""Unit tests for the network cost model (Table 1)."""

from __future__ import annotations

import random

import pytest
from trace_columns import Columns

from repro.dht.messages import MessageKind, TraceSummary
from repro.simulation.cost import NetworkCostModel


def new_trace():
    """An empty trace in the default sizes whose hook is a column recorder."""
    return TraceSummary(0, 0, 0, 128, on_message=Columns())


def trace_with(count, kind=MessageKind.LOOKUP_HOP, timeouts=0):
    trace = new_trace()
    for index in range(count):
        trace.record(kind, timed_out=index < timeouts)
    return trace


def duration(model, trace):
    """The sum of ``model``'s delays over the messages ``trace`` recorded, in order."""
    return sum(model.message_delay(*message) for message in trace.on_message)


class TestDefaults:
    def test_wide_area_defaults_match_table1(self):
        model = NetworkCostModel(rng=random.Random(1))
        assert model.latency_mean_s == pytest.approx(0.2)
        assert model.bandwidth_mean_bps == pytest.approx(56_000.0)

    def test_cluster_preset_is_much_faster(self):
        wan = NetworkCostModel(rng=random.Random(1))
        lan = NetworkCostModel.cluster(seed=1)
        assert lan.latency_mean_s < wan.latency_mean_s
        assert lan.bandwidth_mean_bps > wan.bandwidth_mean_bps

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkCostModel(latency_mean_s=-1.0)
        with pytest.raises(ValueError):
            NetworkCostModel(bandwidth_mean_bps=0.0)


class TestDurations:
    def test_empty_trace_costs_nothing(self):
        assert duration(NetworkCostModel(rng=random.Random(1)), new_trace()) == 0.0

    def test_duration_grows_with_message_count(self):
        model = NetworkCostModel(rng=random.Random(2))
        assert duration(model, trace_with(20)) > duration(model, trace_with(2))

    def test_duration_close_to_expectation(self):
        model = NetworkCostModel(rng=random.Random(3))
        trace = trace_with(100)
        size_bytes = trace.on_message.messages[0].size_bytes
        expected = 100 * (model.latency_mean_s + size_bytes * 8 / model.bandwidth_mean_bps)
        assert duration(model, trace) == pytest.approx(expected, rel=0.1)

    def test_timeouts_add_penalty(self):
        model = NetworkCostModel(latency_std_s=0.0, bandwidth_std_bps=0.0,
                                 timeout_s=5.0, rng=random.Random(1))
        without = duration(model, trace_with(4))
        with_timeouts = duration(model, trace_with(4, timeouts=2))
        assert with_timeouts == pytest.approx(without + 10.0)

    def test_data_messages_cost_more_than_control(self):
        model = NetworkCostModel(latency_std_s=0.0, bandwidth_std_bps=0.0,
                                 rng=random.Random(1))
        control = duration(model, trace_with(1, kind=MessageKind.GET_REQUEST))
        data = duration(model, trace_with(1, kind=MessageKind.GET_REPLY))
        assert data > control

    def test_same_seed_same_duration(self):
        trace = trace_with(10)
        first = duration(NetworkCostModel(rng=random.Random(9)), trace)
        second = duration(NetworkCostModel(rng=random.Random(9)), trace)
        assert first == second


class TestSampling:
    def test_latency_samples_are_positive(self):
        model = NetworkCostModel(latency_mean_s=0.001, latency_std_s=0.1,
                                 rng=random.Random(4))
        assert all(model.sample_latency() > 0 for _ in range(200))

    def test_bandwidth_samples_are_floored(self):
        model = NetworkCostModel(bandwidth_mean_bps=2_000.0, bandwidth_std_bps=50_000.0,
                                 rng=random.Random(5))
        assert all(model.sample_bandwidth() >= 1_000.0 for _ in range(200))

    def test_zero_std_bandwidth_is_deterministic(self):
        model = NetworkCostModel(bandwidth_std_bps=0.0, rng=random.Random(6))
        assert model.sample_bandwidth() == model.bandwidth_mean_bps

    def test_expected_message_delay_formula(self):
        model = NetworkCostModel(latency_mean_s=0.2, latency_std_s=0.0,
                                 bandwidth_mean_bps=56_000.0, bandwidth_std_bps=0.0,
                                 rng=random.Random(7))
        trace = new_trace()
        trace.record(MessageKind.GET_REPLY, size_bytes=700)
        assert duration(model, trace) == pytest.approx(0.2 + 5600 / 56_000.0)


class TestGeoLatency:
    def _model(self, **overrides):
        from repro.simulation.cost import GeoLatencyCostModel

        defaults = dict(regions=3, assignment_seed=7, rng=random.Random(9))
        defaults.update(overrides)
        return GeoLatencyCostModel(**defaults)

    def test_default_matrix_is_symmetric_with_table1_diagonal(self):
        model = self._model()
        for row in range(3):
            assert model.rtt_matrix[row][row] == pytest.approx(2 * model.latency_mean_s)
            for column in range(3):
                assert model.rtt_matrix[row][column] == model.rtt_matrix[column][row]
        # Inter-region RTT grows with region distance.
        assert model.rtt_matrix[0][2] > model.rtt_matrix[0][1] > model.rtt_matrix[0][0]

    def test_region_assignment_is_deterministic_and_seeded(self):
        first, second = self._model(), self._model()
        other_seed = self._model(assignment_seed=8)
        regions = [first.region_of(peer) for peer in range(200)]
        assert regions == [second.region_of(peer) for peer in range(200)]
        assert all(0 <= region < 3 for region in regions)
        assert len(set(regions)) == 3  # every region actually gets peers
        assert regions != [other_seed.region_of(peer) for peer in range(200)]
        assert first.region_of(None) == 0

    def test_link_latency_is_half_the_region_pair_rtt(self):
        model = self._model()
        source, dest = 11, 42
        expected = model.rtt_matrix[model.region_of(source)][model.region_of(dest)] / 2.0
        assert model.link_latency_mean_s(source, dest) == expected
        assert model.link_latency_mean_s(source, dest) == \
            model.link_latency_mean_s(dest, source)

    def test_single_region_matrix_degenerates_to_wide_area(self):
        model = self._model(regions=1, latency_std_s=0.0, bandwidth_std_bps=0.0)
        assert model.rtt_matrix == ((pytest.approx(2 * model.latency_mean_s),),)
        wide = NetworkCostModel(latency_std_s=0.0, bandwidth_std_bps=0.0,
                                rng=random.Random(1))
        trace = trace_with(3, kind=MessageKind.GET_REPLY)
        assert duration(model, trace) == pytest.approx(duration(wide, trace))

    def test_message_delay_prices_the_regional_mean(self):
        model = self._model(latency_std_s=0.0, bandwidth_std_bps=0.0)
        trace = new_trace()
        trace.record(MessageKind.LOOKUP_HOP, source=11, dest=42, size_bytes=700)
        expected = (model.link_latency_mean_s(11, 42)
                    + (700 * 8) / model.bandwidth_mean_bps)
        assert duration(model, trace) == pytest.approx(expected)

    def test_degradation_factors_apply_to_geo_pricing(self):
        model = self._model(latency_std_s=0.0, bandwidth_std_bps=0.0)
        trace = new_trace()
        trace.record(MessageKind.LOOKUP_HOP, source=11, dest=42, size_bytes=0)
        base = duration(model, trace)
        model.set_degradation(latency_factor=3.0)
        assert duration(model, trace) == pytest.approx(3.0 * base)
        model.clear_degradation()
        assert duration(model, trace) == pytest.approx(base)

    @pytest.mark.parametrize("bad", [
        dict(regions=0),
        dict(rtt_matrix=((1.0, 2.0),)),                    # wrong shape
        dict(rtt_matrix=((1.0, 2.0), (3.0, 1.0))),          # asymmetric
        dict(regions=2, rtt_matrix=((1.0, -2.0), (-2.0, 1.0))),  # negative
    ])
    def test_invalid_configurations_rejected(self, bad):
        from repro.simulation.cost import GeoLatencyCostModel

        config = dict(regions=2, rng=random.Random(1))
        config.update(bad)
        with pytest.raises(ValueError):
            GeoLatencyCostModel(**config)


class TestTrafficBytes:
    def test_empty_trace_costs_no_bytes(self):
        model = NetworkCostModel(rng=random.Random(1))
        assert model.traffic_bytes(TraceSummary(0, 0, 0, 128)) == 0

    def test_payload_plus_per_message_framing(self):
        model = NetworkCostModel(rng=random.Random(1))
        trace = trace_with(5)
        assert model.traffic_bytes(trace) == \
            trace.total_bytes + 5 * model.frame_overhead_bytes

    def test_frame_overhead_matches_the_wire_codec(self):
        # The constant is duplicated on purpose (the simulation layer must
        # not import upward into repro.net); this pin keeps the two in sync.
        from repro.net.codec import MAX_FRAME_HEADER_BYTES

        assert NetworkCostModel(rng=random.Random(1)).frame_overhead_bytes == \
            MAX_FRAME_HEADER_BYTES == 4

    def test_traffic_bytes_draws_no_randomness(self):
        # message_delay() samples; traffic_bytes must not, or byte accounting
        # would perturb seeded runs.
        reference = NetworkCostModel(rng=random.Random(9))
        probed = NetworkCostModel(rng=random.Random(9))
        trace = trace_with(8)
        for _ in range(3):
            probed.traffic_bytes(trace)
        assert duration(probed, trace) == duration(reference, trace)


class TestDrawOrderIsPinned:
    """The harness prices a retrieve as it is recorded; its RNG draws must not move.

    The digests were taken at 1.8.0, where ``duration`` summed
    ``message_delay`` over ``Message`` objects: one latency then one
    bandwidth draw per message in message order, timeouts included.
    """

    def test_pricing_as_recorded_equals_pricing_the_recorded_messages(self):
        from repro.simulation.cost import GeoLatencyCostModel

        for build in (lambda: NetworkCostModel(rng=random.Random(4)),
                      lambda: GeoLatencyCostModel(regions=3, assignment_seed=7,
                                                  rng=random.Random(4))):
            live, after = build(), build()
            delays, columns = [], Columns()

            def hook(*message, live=live, delays=delays, columns=columns):
                delays.append(live.message_delay(*message))
                columns(*message)

            trace = TraceSummary(0, 0, 0, 128, on_message=hook)
            trace.record_route((3, 7, 9), retries=2, timeouts=1)
            trace.record_exchange((MessageKind.GET_REQUEST, MessageKind.GET_REPLY), -1, 9)
            assert len(delays) == trace.message_count == 6
            assert sum(delays) == sum(after.message_delay(*message) for message in columns)

    @pytest.mark.parametrize("preset,protocol,digest,avg_response_time_s,avg_messages", [
        ("wide-area", "chord", "e51c96cda5b43100", 4.300603953172324, 17.541666666666668),
        ("geo", "chord", "36905275ada6e83b", 6.831853953172325, 17.541666666666668),
        ("wide-area", "kademlia", "f76ade4ee928b0c2", 6.36490195562838, 12.75),
        ("geo", "kademlia", "139c6511cb8b7cdf", 7.414901955628381, 12.75),
    ])
    def test_seeded_figure_point_is_bit_identical(self, preset, protocol, digest,
                                                  avg_response_time_s, avg_messages):
        import hashlib
        import json

        from repro.simulation import SimulationParameters
        from repro.simulation.scenarios import run_scenario

        result = run_scenario("uniform", SimulationParameters.quick(
            seed=2007, protocol=protocol, num_peers=120, num_keys=6,
            num_queries=24, duration_s=900.0, update_rate_per_hour=40.0,
            churn_rate_per_s=0.2, failure_rate=0.5, cost_model_preset=preset))
        queries = result.to_dict()["queries"]
        assert any(query["response_time_s"] > 6 for query in queries)   # timeouts priced
        assert hashlib.sha256(json.dumps(queries, sort_keys=True).encode()
                              ).hexdigest()[:16] == digest
        assert result.avg_response_time_s == avg_response_time_s
        assert result.avg_messages == avg_messages
