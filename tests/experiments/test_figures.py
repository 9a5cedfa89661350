"""Tests of the experiment table and its one-plan runner.

These tests run the full tiny-scale report once, pin its bytes and count its
simulations, and pin the points and values of the attack grid and the
scenario comparison.  They also run the figures, ablations and scenario
comparison once at ``quick`` scale (seed 2007, Chord, plus Kademlia for
Figures 7 and 8) and pin those tables' bytes too.  The *qualitative* claims
of the paper (who wins, how curves trend) are written once and asserted at
both scales, rather than absolute values.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import pytest

import repro.execution.executor as executor_module
from repro.dht.registry import OVERLAYS
from repro.execution import Executor
from repro.experiments import figures
from repro.experiments.figures import (EXPERIMENTS, SCALE_PROFILES, STABILIZATION_INTERVALS_S,
                                       degradation_thresholds, run_experiments)
from repro.experiments.runner import (run_all_experiments, select_experiments,
                                      write_experiments_report)
from repro.simulation import SimulationParameters
from repro.simulation.config import Algorithm
from repro.simulation.harness import SimulationHarness
from repro.simulation.results import RunResult
from repro.simulation.scenarios import run_scenario

SEED = 424242
#: The quick-scale report's seed (the paper's year).
QUICK_SEED = 2007
#: The quick-scale records (the whole report minus the attack grid), and the
#: figures whose sweep also runs on Kademlia.
QUICK_ONLY = ("figure", "ablation", "scenario-compare")
KADEMLIA_IDS = ["figure-7", "figure-8", "figure-8-bytes"]

#: Report order of the paper's tables, figures and ablations.
PAPER_IDS = ["table-1", "theorem-1", "figure-6", "figure-7", "figure-8", "figure-8-bytes",
             "figure-9", "figure-10", "figure-10-bytes", "figure-11", "figure-12",
             "ablation-probe-order", "ablation-stabilization", "ablation-overlay",
             "ablation-consistency"]
ATTACK_IDS = ["attack-degradation", "attack-detected-lies"]
COMPARISON_IDS = ["scenario-compare-currency-rate", "scenario-compare-avg-response-time-s",
                  "scenario-compare-avg-messages"]
#: Report order of the full run (``run_all_experiments``).
REPORT_IDS = PAPER_IDS + ATTACK_IDS + COMPARISON_IDS


def digest(tables) -> str:
    """SHA-1 of every table rendered with exact (``%r``) floats."""
    text = "\n\n".join(table.to_markdown(float_format="%r") for table in tables)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def point_identity(ids, scale, seed) -> str:
    """SHA-1 of the sorted content hashes of the distinct points of ``ids``."""
    hashes = {point.content_hash for experiment_id in ids
              for point in EXPERIMENTS[experiment_id].points(
                  SCALE_PROFILES[scale], seed=seed, protocol="chord").values()}
    return hashlib.sha1("\n".join(sorted(hashes)).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def report():
    """The full tiny-scale Chord report, and the simulations it ran."""
    simulated = []
    original = executor_module.run_point

    def counting(point):
        simulated.append(point)
        return original(point)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "run_point", counting)
        tables = run_all_experiments("tiny", seed=SEED, executor=Executor(jobs=1))
    return tables, simulated


@pytest.fixture(scope="module")
def tables(report):
    return {table.experiment_id: table for table in report[0]}


@pytest.fixture(scope="module")
def quick_report():
    """The quick-scale Chord figures, ablations and comparison, then Kademlia's
    Figures 7 and 8 (~15 s serially)."""
    return (run_all_experiments("quick", seed=QUICK_SEED, only=QUICK_ONLY)
            + run_experiments(KADEMLIA_IDS, "quick", seed=QUICK_SEED, protocol="kademlia"))


class Scaled(NamedTuple):
    """One scale's tables by id, with the scale and seed that made them."""

    scale: str
    seed: int
    tables: dict

    def overlay_tables(self, experiment_id):
        """The Chord table of ``experiment_id`` and any other overlay's twin."""
        return [self.tables[table_id] for table_id in
                (experiment_id, f"{experiment_id}-kademlia") if table_id in self.tables]


@pytest.fixture(scope="module", params=["tiny", "quick"])
def scaled(request):
    """Each claim below runs once on the tiny report and once on the quick one."""
    if request.param == "tiny":
        report = request.getfixturevalue("report")[0]
        return Scaled("tiny", SEED, {table.experiment_id: table for table in report})
    report = request.getfixturevalue("quick_report")
    return Scaled("quick", QUICK_SEED, {table.experiment_id: table for table in report})


def mean(values):
    return sum(values) / len(values)


class PlanRecorder:
    """An executor that records the plan it is given and simulates nothing."""

    def run(self, plan):
        self.plan = plan
        return [RunResult(point.parameters.algorithm, point.parameters.num_peers,
                          point.parameters.num_replicas) for point in plan]


class TestReportIdentity:
    def test_report_lists_every_declared_experiment(self, report):
        assert [table.experiment_id for table in report[0]] == REPORT_IDS
        assert REPORT_IDS[2:] == list(EXPERIMENTS)

    def test_chord_report_bytes_are_pinned(self, report):
        tables = [table for table in report[0] if table.experiment_id in PAPER_IDS]
        assert digest(tables) == "d884924274653d320a6629a7f47b970503251e25"
        # Every table but Figure 6 is byte-identical to the per-figure
        # generators this table replaced (Figure 6's churn now scales by its
        # runs' own duration).
        assert digest([table for table in tables if table.experiment_id != "figure-6"]) \
            == "d3cfd1127c4f363f9de1f843b55e59e84346142b"

    def test_kademlia_report_bytes_are_pinned(self):
        tables = run_all_experiments("tiny", seed=SEED, protocol="kademlia",
                                     only=("figure", "ablation"))
        assert [table.experiment_id for table in tables][2:5] == [
            "figure-6-kademlia", "figure-7-kademlia", "figure-8-kademlia"]
        assert digest(tables) == "ef33817daf73ccb28b2fee9c3acbd072baefa701"
        assert digest([table for table in tables
                       if table.experiment_id != "figure-6-kademlia"]) \
            == "a7831158e30d5e9f4f286379bf4f1318e26d38db"

    def test_quick_report_bytes_are_pinned(self, quick_report):
        # Every quick table byte for byte: the Figure 8 and 10 cost curves
        # with their byte twins, Kademlia's sweep and the comparison tables.
        assert [table.experiment_id for table in quick_report] == (
            ["table-1", "theorem-1"] + select_experiments(QUICK_ONLY)
            + [f"{experiment_id}-kademlia" for experiment_id in KADEMLIA_IDS])
        assert digest(quick_report) == "ff32e4471acf8b92af4f65ba237bdbea93b7dde2"


class TestOnePlan:
    def test_each_distinct_point_of_the_report_runs_once(self, report):
        simulated = report[1]
        # 40 runs when every figure ran its own sweep: the Table 1 base point
        # recurs in Figures 11 and 12 and two ablations.  The attack grid
        # adds 3 x 3 points and the scenario comparison 4 x 4.
        assert len(simulated) == 36 + 9 + 16
        assert len({point.content_hash for point in simulated}) == 36 + 9 + 16

    @pytest.mark.parametrize("scale, points", [("tiny", 36 + 9 + 16), ("quick", 78 + 15 + 16),
                                               ("paper", 102 + 15 + 16)])
    def test_the_full_report_is_one_plan_of_distinct_points(self, scale, points):
        # Per-figure sweeps ran 40, 88 and 113 simulations; the attack grid
        # has 3 or 5 fractions x 3 overlays, the comparison 4 x 2 x 2 points.
        recorder = PlanRecorder()
        run_all_experiments(scale, seed=SEED, executor=recorder)
        assert len(recorder.plan) == points
        assert len({point.content_hash for point in recorder.plan}) == points

    def test_byte_twins_add_no_runs(self):
        alone, with_twins = PlanRecorder(), PlanRecorder()
        run_experiments(["figure-8", "figure-10"], "tiny", seed=SEED, executor=alone)
        run_experiments(["figure-8", "figure-8-bytes", "figure-10", "figure-10-bytes"],
                        "tiny", seed=SEED, executor=with_twins)
        assert with_twins.plan.plan_hash == alone.plan.plan_hash

    def test_tables_come_back_in_the_requested_order(self):
        recorder = PlanRecorder()
        tables = run_experiments(["figure-12", "figure-6"], "tiny", seed=SEED,
                                 executor=recorder)
        assert [table.experiment_id for table in tables] == ["figure-12", "figure-6"]

    def test_unknown_scale_or_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(["figure-7"], "gigantic")
        with pytest.raises(ValueError):
            run_experiments(["figure-13"], "tiny")


class TestGrids:
    """The attack grid and the scenario comparison, pinned to their retired drivers.

    The pins were taken with ``attack_grid.build_attack_plan`` and
    ``bench_scenarios.grid_plan`` before both grids became records.
    """

    @pytest.mark.parametrize("ids, scale, seed, pin", [
        (ATTACK_IDS, "tiny", 3, "746fed6ec1f84697e3e45df87e86130d22cc9195"),
        (ATTACK_IDS, "quick", 2007, "b3832cbde33631a41a2d9d6be9b755569a9b8d9c"),
        (COMPARISON_IDS, "tiny", 2007, "27eab722a97dddf5959f4d9fb8548a9131150099"),
        (COMPARISON_IDS, "quick", 2007, "1b793f1df042265f4692ba61cf13d9cf19a5ff8c"),
        (COMPARISON_IDS, "paper", 2007, "5bc096fe9b94e2db6633b32b1f504c93577dac0c"),
    ])
    def test_points_keep_their_content_hashes(self, ids, scale, seed, pin):
        assert point_identity(ids, scale, seed) == pin

    def test_the_attack_records_share_every_point(self):
        alone, both = PlanRecorder(), PlanRecorder()
        run_experiments(ATTACK_IDS[:1], "tiny", seed=3, executor=alone)
        run_experiments(ATTACK_IDS, "tiny", seed=3, executor=both)
        assert len(both.plan) == 9
        assert both.plan.plan_hash == alone.plan.plan_hash

    def test_the_comparison_tables_are_pinned(self):
        tables = run_experiments(COMPARISON_IDS, "tiny", seed=2007)
        assert digest(tables) == "3bfe55e12f45d57a519fc9955a38fa2414e52456"
        assert all(len(table.rows) == 4 and len(table.series) == 4 for table in tables)

    def test_the_attack_thresholds_are_pinned(self):
        currency, _ = run_experiments(ATTACK_IDS, "tiny", seed=3)
        thresholds = {"chord": 0.5, "can": 0.5, "kademlia": 0.2}
        assert degradation_thresholds(currency) == thresholds
        assert currency.notes.endswith(
            "Threshold (first fraction below the guarantee): chord 0.5, can 0.5, "
            "kademlia 0.2.")

    def test_a_threshold_is_none_when_the_column_never_falls(self, tables):
        table = tables["scenario-compare-currency-rate"]
        assert degradation_thresholds(table)["ums@chord"] is None

    def test_the_grids_ignore_the_requested_overlay(self):
        for experiment_id in ATTACK_IDS + COMPARISON_IDS:
            experiment = EXPERIMENTS[experiment_id]
            assert experiment.table_id("kademlia") == experiment_id
            chord, kademlia = (experiment.points(SCALE_PROFILES["tiny"], seed=SEED,
                                                 protocol=protocol)
                               for protocol in ("chord", "kademlia"))
            assert [point.content_hash for point in chord.values()] \
                == [point.content_hash for point in kademlia.values()]


class TestDeclaredSweeps:
    @pytest.mark.parametrize("scale", sorted(SCALE_PROFILES))
    def test_simulated_churn_keeps_table1_intensity(self, scale):
        # Table 1: 1 departure/s over 10,000 peers for 3 h, 1.08 per peer.
        # Figure 6's cluster runs last 1,800 s whatever the profile's duration.
        for experiment in EXPERIMENTS.values():
            if experiment.preset == "quick" or experiment.workload is not None:
                continue  # the quick preset and the comparison set their own churn
            for point in experiment.points(SCALE_PROFILES[scale], seed=SEED,
                                           protocol="chord").values():
                parameters = point.parameters
                intensity = (parameters.churn_rate_per_s * parameters.duration_s
                             / parameters.num_peers)
                assert intensity == pytest.approx(1.08), (experiment.id, point.label)

    def test_the_comparison_keeps_its_explicit_churn(self):
        for scale, profile in SCALE_PROFILES.items():
            churn = profile["compare_workload"]["churn_rate_per_s"]
            for point in EXPERIMENTS[COMPARISON_IDS[0]].points(
                    profile, seed=SEED, protocol="chord").values():
                assert point.parameters.churn_rate_per_s == churn, (scale, point.label)

    def test_the_attack_fractions_start_at_the_honest_baseline(self):
        for profile in SCALE_PROFILES.values():
            fractions = profile["attack_fractions"]
            assert fractions[0] == 0.0 and list(fractions) == sorted(set(fractions))

    def test_non_chord_ids_are_suffixed_unless_the_overlay_is_pinned(self):
        experiments = [EXPERIMENTS[name] for name in
                       ("figure-7", "ablation-stabilization", "ablation-overlay")]
        assert [experiment.table_id("can") for experiment in experiments] == [
            "figure-7-can", "ablation-stabilization", "ablation-overlay"]
        assert [experiment.table_id("chord") for experiment in experiments] == [
            "figure-7", "ablation-stabilization", "ablation-overlay"]


class TestStaticTables:
    def test_table1_lists_the_paper_parameters(self):
        table = figures.table1_parameters("paper")
        rows = dict(zip(table.x_values(), table.series_values("value")))
        assert rows["number of peers"] == 10000
        assert rows["|Hr| (replicas per data)"] == 10
        assert rows["latency (ms, mean)"] == pytest.approx(200.0)
        assert rows["bandwidth (kbps, mean)"] == pytest.approx(56.0)
        assert rows["failure rate (% of departures)"] == pytest.approx(5.0)

    def test_table1_setup_builds_the_profiles_base_point(self, scaled):
        profile = SCALE_PROFILES[scaled.scale]
        parameters = SimulationParameters.table1(
            num_peers=int(profile["base_peers"]), num_keys=int(profile["num_keys"]),
            duration_s=float(profile["duration_s"]), algorithm=Algorithm.UMS_DIRECT,
            seed=scaled.seed)
        harness = SimulationHarness(parameters)
        harness.setup()
        assert harness.network.size == parameters.num_peers
        assert harness.replication.factor == parameters.num_replicas
        table = scaled.tables["table-1"]
        rows = dict(zip(table.x_values(), table.series_values("value")))
        assert rows["peer departure rate (1/s)"] == 1.0
        assert rows["failure rate (% of departures)"] == 5.0

    def test_theorem1_table_reproduces_the_headline_example_and_bound(self):
        table = figures.expected_retrievals_table()
        row = {x: dict(zip(["E[X] (Eq. 1)", "E[probes]", "1/pt bound", "min(1/pt, |Hr|)"],
                           [table.rows[index][name] for name in table.series]))
               for index, x in enumerate(table.x_values())}
        assert row[0.35]["E[X] (Eq. 1)"] < 3.0
        assert row[0.35]["1/pt bound"] < 3.0
        assert row[1.0]["E[X] (Eq. 1)"] == pytest.approx(1.0)
        for pt, values in row.items():
            if pt > 0:
                assert values["E[X] (Eq. 1)"] <= 1.0 / pt + 1e-9, pt


class TestFigureShapes:
    """The paper's claim per figure, at tiny and at quick scale.

    A check that needs a wider sweep than the tiny profile's two points is
    guarded by the sweep it needs.
    """

    def test_figure6_ums_direct_beats_brk_on_the_cluster(self, scaled):
        table = scaled.tables["figure-6"]
        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        indirect = table.series_values("UMS-Indirect")
        assert all(d < b for d, b in zip(direct, brk))
        if scaled.scale != "tiny":
            # Two points x 8 queries are too few samples for the mean
            # ordering (UMS-Indirect's variance spans BRK).
            assert mean(indirect) < mean(brk)
            assert mean(direct) <= mean(indirect)
        # Response times on the cluster stay in the paper's low-seconds range.
        assert max(brk) < 10.0

    def test_figure7_ordering_matches_the_paper(self, scaled):
        for table in scaled.overlay_tables("figure-7"):
            for row in table.rows:
                assert row["UMS-Direct"] <= row["UMS-Indirect"] < row["BRK"], table.experiment_id
            assert mean(table.series_values("UMS-Direct")) \
                <= mean(table.series_values("UMS-Indirect")), table.experiment_id
            self.assert_sublinear_growth(table)

    def test_figure8_brk_sends_many_more_messages(self, scaled):
        for table in scaled.overlay_tables("figure-8"):
            for row in table.rows:
                # BRK retrieves every replica: several times UMS-Direct's traffic.
                assert row["BRK"] > 2.5 * row["UMS-Direct"], table.experiment_id
                assert row["UMS-Indirect"] <= row["BRK"], table.experiment_id
            self.assert_sublinear_growth(table)
        for table in scaled.overlay_tables("figure-8-bytes"):
            assert all(row["BRK"] > row["UMS-Direct"] > 0 for row in table.rows), \
                table.experiment_id

    @staticmethod
    def assert_sublinear_growth(table):
        """Logarithmic routing: BRK grows far less than the population, on
        every overlay, once the sweep spans at least 4x in peers."""
        peers = table.x_values()
        brk = table.series_values("BRK")
        if peers[-1] / peers[0] >= 4:
            assert brk[-1] / brk[0] < 2.0, table.experiment_id

    def test_byte_twins_share_their_figures_rows(self, scaled):
        for figure in ("figure-8", "figure-10"):
            twin = scaled.tables[f"{figure}-bytes"]
            assert twin.x_values() == scaled.tables[figure].x_values()
            assert all(row["BRK"] > row["UMS-Direct"] > 0 for row in twin.rows)

    def test_figure9_replicas_strongly_affect_brk_not_ums_direct(self, scaled):
        table = scaled.tables["figure-9"]
        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        span = table.x_values()[-1] / table.x_values()[0]
        # BRK's response time grows roughly linearly with the replica count
        # (it retrieves every replica); UMS-Direct stays comparatively flat.
        assert brk[-1] > brk[0] * 1.5
        assert brk[-1] / brk[0] > 0.4 * span
        assert direct[-1] / direct[0] < 0.5 * (brk[-1] / brk[0])
        if span <= 3:
            # An absolute bound only over the tiny sweep's 3x span: quick's
            # 30-query points read 3.7, 4.8, 4.7, 3.6 and then 8.7 s at 40
            # replicas, noise rather than a trend, but 2.4x the first.
            assert direct[-1] < direct[0] * 2.0
        assert all(d < b for d, b in zip(direct, brk))

    def test_figure10_brk_messages_scale_with_replicas(self, scaled):
        table = scaled.tables["figure-10"]
        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        replicas = table.x_values()
        span = replicas[-1] / replicas[0]
        assert brk[-1] / brk[0] == pytest.approx(span, rel=0.5)
        assert brk[-1] / brk[0] > 0.5 * span
        # UMS-Direct's traffic is the KTS lookup plus a couple of probes.
        assert direct[-1] / direct[0] < 0.5 * (brk[-1] / brk[0])
        assert all(d < b for d, b in zip(direct, brk))
        # Each extra replica costs BRK a data-sized reply.
        brk_bytes = scaled.tables["figure-10-bytes"].series_values("BRK")
        direct_bytes = scaled.tables["figure-10-bytes"].series_values("UMS-Direct")
        assert brk_bytes[-1] > brk_bytes[0]
        assert all(d < b for d, b in zip(direct_bytes, brk_bytes))

    def test_figure11_failures_hurt_response_time(self, scaled):
        table = scaled.tables["figure-11"]
        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        indirect = table.series_values("UMS-Indirect")
        assert direct[-1] > direct[0]
        assert all(d < b for d, b in zip(direct, brk))
        # At high failure rates UMS-Direct approaches UMS-Indirect: there is
        # no counter left to transfer directly.
        low_gap = (indirect[0] - direct[0]) / max(indirect[0], 1e-9)
        high_gap = (indirect[-1] - direct[-1]) / max(indirect[-1], 1e-9)
        assert high_gap <= low_gap + 0.15

    def test_figure12_only_reports_the_two_ums_variants(self, scaled):
        table = scaled.tables["figure-12"]
        assert set(table.series) == {"UMS-Direct", "UMS-Indirect"}
        assert len(table.rows) == len(SCALE_PROFILES[scaled.scale]["update_rates_per_hour"])
        direct = table.series_values("UMS-Direct")
        indirect = table.series_values("UMS-Indirect")
        # More frequent updates do not slow retrieval down.
        assert direct[-1] <= direct[0] * 1.15
        assert indirect[-1] <= indirect[0] * 1.15
        assert mean(direct) <= mean(indirect) * 1.05


class TestAblationsAndScenarios:
    def test_ablation_probe_order_stays_near_one_probe(self, scaled):
        table = scaled.tables["ablation-probe-order"]
        assert table.x_values() == ["random", "fixed"]
        for row in table.rows:
            assert 1.0 <= row["replicas inspected"] < 3.0
            assert row["response time (s)"] > 0.0

    def test_ablation_overlay_compares_every_registered_overlay(self, scaled):
        table = scaled.tables["ablation-overlay"]
        assert table.x_values() == ["can", "chord", "kademlia"] == sorted(OVERLAYS)
        assert table.title == "Overlay ablation (can vs chord vs kademlia)"
        for row in table.rows:
            assert row["messages"] > 0
            assert row["response time (s)"] > 0
            assert row["currency rate"] >= 0.8

    def test_ablation_stabilization_fresh_routing_is_no_slower(self, scaled):
        table = scaled.tables["ablation-stabilization"]
        assert table.x_values() == list(STABILIZATION_INTERVALS_S) == [0.0, 30.0, 120.0, 600.0]
        response_times = table.series_values("response time (s)")
        messages = table.series_values("messages")
        assert response_times[0] <= response_times[-1]
        assert messages[0] <= messages[-1] * 1.05

    def test_scenario_comparison_claims(self, scaled):
        currency, response_time, messages = (scaled.tables[table_id]
                                             for table_id in COMPARISON_IDS)
        for protocol in ("chord", "kademlia"):
            ums, brk = f"ums@{protocol}", f"brk@{protocol}"
            # UMS certifies currency on every scenario; BRK never can.
            assert all(rate > 0.8 for rate in currency.series_values(ums))
            assert all(rate == 0.0 for rate in currency.series_values(brk))
            # The lossy window covers half of each run.
            by_scenario = dict(zip(response_time.x_values(),
                                   response_time.series_values(ums)))
            assert by_scenario["lossy-network"] > by_scenario["uniform"]
            # Retrieve-all pays more messages than probe-until-current.
            assert all(b > u for u, b in zip(messages.series_values(ums),
                                             messages.series_values(brk)))

    def test_correlated_failures_fire_and_land_in_churn_accounting(self, scaled):
        workload = SCALE_PROFILES[scaled.scale]["compare_workload"]
        burst = run_scenario("correlated-failures",
                             SimulationParameters(seed=scaled.seed, **workload))
        control = run_scenario("uniform", SimulationParameters(seed=scaled.seed, **workload))
        assert burst.fault_events == 2
        assert burst.failures > control.failures


class TestRunner:
    def test_only_selects_ids_and_id_prefixes_in_table_order(self):
        assert select_experiments(()) == list(EXPERIMENTS)
        assert select_experiments(["scenario-compare", "attack"]) \
            == ATTACK_IDS + COMPARISON_IDS
        assert select_experiments(["figure-8"]) == ["figure-8"]
        assert select_experiments(["figure-1"]) == [
            "figure-10", "figure-10-bytes", "figure-11", "figure-12"]
        with pytest.raises(ValueError, match="names no experiment"):
            select_experiments(["figure-13"])

    def test_runner_with_only_figures_writes_the_report(self, tmp_path):
        tables = run_all_experiments("tiny", seed=SEED, only=["figure"])
        identifiers = [table.experiment_id for table in tables]
        assert identifiers == [name for name in PAPER_IDS
                               if not name.startswith("ablation-")]
        report = tmp_path / "report.md"
        with open(report, "w", encoding="utf-8") as handle:
            write_experiments_report(tables, handle, scale="tiny", elapsed_s=1.0)
        content = report.read_text()
        assert "figure-7" in content and "Scale profile" in content
