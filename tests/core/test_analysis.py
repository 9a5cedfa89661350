"""Unit tests for the probabilistic cost analysis (Section 3.3 / 4.2.2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster
from repro.core import analysis
from repro.core.timestamps import Timestamp
from repro.dht.storage import StoredValue


class TestGeometricDistribution:
    def test_distribution_sums_to_one_over_infinite_support(self):
        pt = 0.3
        total = sum(analysis.geometric_probe_distribution(pt, index)
                    for index in range(1, 500))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_first_probe_probability_is_pt(self):
        assert analysis.geometric_probe_distribution(0.4, 1) == pytest.approx(0.4)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            analysis.geometric_probe_distribution(1.5, 1)
        with pytest.raises(ValueError):
            analysis.geometric_probe_distribution(0.5, 0)


class TestExpectedRetrievals:
    def test_paper_example_pt_035_is_below_3(self):
        # The headline example of Section 3.3 / the abstract.
        assert analysis.expected_retrievals(0.35, 10) < 3.0
        assert analysis.expected_retrievals_upper_bound(0.35) < 3.0

    def test_certain_currency_needs_one_probe(self):
        assert analysis.expected_retrievals(1.0, 10) == pytest.approx(1.0)
        assert analysis.expected_probes(1.0, 10) == pytest.approx(1.0)

    def test_zero_probability_edge_cases(self):
        assert analysis.expected_retrievals(0.0, 10) == 0.0
        assert analysis.expected_probes(0.0, 10) == 10.0
        assert analysis.expected_retrievals_upper_bound(0.0) == float("inf")
        assert analysis.retrieval_bound(0.0, 10) == 10.0

    def test_infinite_sum_equals_inverse_probability(self):
        assert analysis.expected_retrievals(0.25) == pytest.approx(4.0)

    def test_theorem1_bound_holds(self):
        # Strictly below the bound mathematically; allow float rounding slack
        # where the truncated sum is within machine epsilon of 1/pt.
        for pt in (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.99):
            assert analysis.expected_retrievals(pt, 10) <= 1.0 / pt + 1e-12

    def test_equation5_bound_holds(self):
        for pt in (0.05, 0.2, 0.5, 0.9):
            for replicas in (1, 5, 10, 40):
                assert analysis.expected_retrievals(pt, replicas) <= \
                    analysis.retrieval_bound(pt, replicas) + 1e-9

    def test_expected_probes_at_least_paper_expectation(self):
        # The operational probe count also pays for unsuccessful scans.
        for pt in (0.1, 0.3, 0.6):
            assert analysis.expected_probes(pt, 10) >= analysis.expected_retrievals(pt, 10)

    def test_expected_probes_bounded_by_replica_count(self):
        for pt in (0.05, 0.2, 0.5, 1.0):
            assert analysis.expected_probes(pt, 8) <= 8.0 + 1e-9

    def test_expected_retrievals_monotone_in_replicas(self):
        assert analysis.expected_retrievals(0.3, 5) <= analysis.expected_retrievals(0.3, 20)

    def test_expected_probes_decreasing_in_pt(self):
        values = [analysis.expected_probes(pt, 10) for pt in (0.1, 0.3, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            analysis.expected_retrievals(-0.1, 10)
        with pytest.raises(ValueError):
            analysis.expected_retrievals(0.5, 0)
        with pytest.raises(ValueError):
            analysis.expected_probes(0.5, 0)


def measured_probe_count(pt: float, num_replicas: int = 10, queries: int = 300,
                         seed: int = 7) -> float:
    """Average number of replicas UMS probes when a fraction ``pt`` is current.

    Exactly ``(1 - pt)·|Hr|`` replicas of one key are rolled back in place to
    the older timestamp (bypassing reconciliation), so the probability of
    currency and availability equals ``pt``.
    """
    cluster = Cluster.build(peers=64, replicas=num_replicas, seed=seed)
    ums = cluster.service("ums")
    ums.insert("k", "v0")
    ums.insert("k", "v1")
    stale_count = round((1.0 - pt) * num_replicas)
    for hash_fn in random.Random(seed).sample(list(cluster.replication), stale_count):
        responsible = cluster.network.responsible_peer("k", hash_fn)
        stale = StoredValue(key="k", data="v0", timestamp=Timestamp("k", 1),
                            hash_name=hash_fn.name, point=hash_fn("k"))
        cluster.network.peer(responsible).store.put(stale, reconcile=False)
    return sum(ums.retrieve("k").replicas_inspected for _ in range(queries)) / queries


class TestMeasuredProbes:
    @pytest.mark.parametrize("pt", [0.3, 0.5, 0.8, 1.0])
    def test_measured_probes_match_the_geometric_model(self, pt):
        measured = measured_probe_count(pt)
        # Within the theorem's bound and close to the model's expectation.
        assert measured <= min(1.0 / pt, 10.0) + 0.75
        assert measured == pytest.approx(analysis.expected_probes(pt, 10), rel=0.35, abs=0.75)


class TestIndirectSuccessProbability:
    def test_paper_example_30_percent_needs_13_replicas_for_99(self):
        # Section 4.2.2: "if the probability of currency and availability is
        # about 30%, then by using 13 replication hash functions, ps > 99%".
        assert analysis.indirect_success_probability(0.30, 13) > 0.99
        assert analysis.replicas_needed_for_success(0.30, 0.99) == 13

    def test_probability_increases_with_replicas(self):
        values = [analysis.indirect_success_probability(0.3, count) for count in (1, 5, 10, 20)]
        assert values == sorted(values)

    def test_certain_currency_always_succeeds(self):
        assert analysis.indirect_success_probability(1.0, 1) == 1.0

    def test_zero_currency_never_succeeds(self):
        assert analysis.indirect_success_probability(0.0, 50) == 0.0
        with pytest.raises(ValueError):
            analysis.replicas_needed_for_success(0.0, 0.9)

    def test_replicas_needed_validates_target(self):
        with pytest.raises(ValueError):
            analysis.replicas_needed_for_success(0.5, 1.5)


class TestHelpers:
    def test_empirical_expected_probes(self):
        assert analysis.empirical_expected_probes([1, 2, 3]) == pytest.approx(2.0)
        assert analysis.empirical_expected_probes([]) == 0.0

    def test_theory_table_rows(self):
        rows = analysis.theory_table((0.2, 0.5), 10)
        assert len(rows) == 2
        assert set(rows[0]) == {"pt", "expected_retrievals", "expected_probes",
                                "upper_bound", "bounded", "indirect_success"}
        assert rows[1]["pt"] == 0.5


class TestAnalysisProperties:
    @given(pt=st.floats(min_value=0.01, max_value=1.0),
           replicas=st.integers(min_value=1, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_theorem1_bound_always_holds(self, pt, replicas):
        assert analysis.expected_retrievals(pt, replicas) <= 1.0 / pt + 1e-9

    @given(pt=st.floats(min_value=0.0, max_value=1.0),
           replicas=st.integers(min_value=1, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_indirect_success_probability_is_a_probability(self, pt, replicas):
        value = analysis.indirect_success_probability(pt, replicas)
        assert 0.0 <= value <= 1.0
