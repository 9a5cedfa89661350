"""The attack grid: table shape, CLI report and the degradation guarantee.

The acceptance property lives here: per overlay, the measured certified
currency equals the analytical guarantee (the honest fraction-0 baseline)
at every fraction *below* the reported byzantine threshold and falls
strictly below it at the threshold itself — the curve degrades only past a
reported point, never before.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.execution import Executor
from repro.experiments.figures import (EXPERIMENTS, SCALE_PROFILES, degradation_thresholds,
                                       run_experiments)
from repro.simulation import run_scenario

IDS = ["attack-degradation", "attack-detected-lies"]
OVERLAYS = ["chord", "can", "kademlia"]
FRACTIONS = [0.0, 0.2, 0.5]


@pytest.fixture(scope="module")
def tables():
    """The tiny grid at its calibration seed (serial executor)."""
    return run_experiments(IDS, "tiny", seed=3, executor=Executor(jobs=1))


class TestTableShape:
    def test_grid_is_fractions_by_overlays(self, tables):
        for table in tables:
            assert table.x_values() == FRACTIONS == list(SCALE_PROFILES["tiny"]["attack_fractions"])
            assert table.series == OVERLAYS

    def test_every_point_runs_a_byzantine_scenario(self):
        points = EXPERIMENTS["attack-degradation"].points(SCALE_PROFILES["tiny"], seed=3,
                                                          protocol="chord")
        assert len(points) == len(FRACTIONS) * len(OVERLAYS)
        for (fraction, _), point in points.items():
            (fault,) = point.scenario.faults
            assert fault["kind"] == "byzantine-timestamps"
            assert fault["fraction"] == fraction
            assert point.parameters.num_peers == 100
            assert point.parameters.num_queries == 40


class TestDegradationGuarantee:
    def test_baseline_point_meets_the_guarantee_exactly(self, tables):
        # The guarantee is the certified currency of honest responsibles on
        # the same workload: the fraction-0 row must be exactly that rate.
        currency, lies = tables
        assert currency.x_values()[0] == 0.0
        points = EXPERIMENTS["attack-degradation"].points(SCALE_PROFILES["tiny"], seed=3,
                                                          protocol="chord")
        for protocol in OVERLAYS:
            honest = run_scenario("uniform", points[0.0, protocol].parameters)
            assert currency.series_values(protocol)[0] == honest.currency_rate
            assert lies.series_values(protocol)[0] == 0

    def test_currency_falls_below_the_guarantee_only_past_the_threshold(self, tables):
        currency, _ = tables
        thresholds = degradation_thresholds(currency)
        for protocol in OVERLAYS:
            threshold = thresholds[protocol]
            guarantee, *_ = values = currency.series_values(protocol)
            for fraction, value in zip(currency.x_values(), values):
                if threshold is None or fraction < threshold:
                    assert value >= guarantee
                elif fraction == threshold:
                    assert value < guarantee

    def test_the_attack_lands_on_every_overlay_at_this_seed(self, tables):
        # Calibrated: seed 3 with 40 repetitive queries degrades certified
        # currency on all three overlays by fraction 0.5.
        currency, lies = tables
        thresholds = degradation_thresholds(currency)
        assert currency.x_values()[-1] == 0.5
        for protocol in OVERLAYS:
            assert thresholds[protocol] is not None
            values = currency.series_values(protocol)
            assert values[-1] < values[0]
            assert lies.series_values(protocol)[-1] > 0


class TestExecutionLayerIntegration:
    def test_parallel_run_is_bit_identical_to_serial(self, tables):
        parallel = run_experiments(IDS, "tiny", seed=3, executor=Executor(2))
        assert [table.to_markdown(float_format="%r") for table in parallel] \
            == [table.to_markdown(float_format="%r") for table in tables]

    def test_cli_writes_the_report(self, tmp_path):
        report = tmp_path / "attack-degradation.md"
        code = cli_main(["experiments", "--scale", "tiny", "--seed", "3", "--only", "attack",
                         "--jobs", "2", "--output", str(report)])
        assert code == 0
        content = report.read_text()
        for experiment_id in IDS:
            assert f"### {experiment_id}:" in content
        assert "figure-7" not in content
        assert "chord 0.5, can 0.5, kademlia 0.2." in content
