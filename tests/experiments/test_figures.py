"""Tests of the experiment table and its one-plan runner (tiny scale).

These tests run the full tiny-scale report once, pin its bytes and count its
simulations, pin the points and values of the attack grid and the scenario
comparison, and assert the *qualitative* claims of the paper (who wins, how
curves trend) rather than absolute values.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.execution.executor as executor_module
from repro.execution import Executor
from repro.experiments import figures
from repro.experiments.figures import (EXPERIMENTS, SCALE_PROFILES, STABILIZATION_INTERVALS_S,
                                       degradation_thresholds, run_experiments)
from repro.experiments.runner import (run_all_experiments, select_experiments,
                                      write_experiments_report)
from repro.simulation.results import RunResult

SEED = 424242

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

    def test_theorem1_table_reproduces_the_headline_example(self):
        table = figures.expected_retrievals_table()
        row = {x: dict(zip(["E[X] (Eq. 1)", "E[probes]", "1/pt bound", "min(1/pt, |Hr|)"],
                           [table.rows[index][name] for name in table.series]))
               for index, x in enumerate(table.x_values())}
        assert row[0.35]["E[X] (Eq. 1)"] < 3.0
        assert row[0.35]["1/pt bound"] < 3.0
        assert row[1.0]["E[X] (Eq. 1)"] == pytest.approx(1.0)


class TestFigureShapes:
    def test_figure6_ums_direct_beats_brk_on_the_cluster(self, tables):
        table = tables["figure-6"]
        for brk, direct in zip(table.series_values("BRK"), table.series_values("UMS-Direct")):
            assert direct < brk

    def test_figure7_ordering_matches_the_paper(self, tables):
        for row in tables["figure-7"].rows:
            assert row["UMS-Direct"] <= row["UMS-Indirect"]
            assert row["UMS-Direct"] < row["BRK"]

    def test_figure8_brk_sends_many_more_messages(self, tables):
        for row in tables["figure-8"].rows:
            assert row["BRK"] > 2 * row["UMS-Direct"]

    def test_byte_twins_share_their_figures_rows(self, tables):
        for figure in ("figure-8", "figure-10"):
            twin = tables[f"{figure}-bytes"]
            assert twin.x_values() == tables[figure].x_values()
            assert all(row["BRK"] > row["UMS-Direct"] > 0 for row in twin.rows)

    def test_figure9_replicas_strongly_affect_brk_not_ums_direct(self, tables):
        table = tables["figure-9"]
        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        # BRK's response time grows roughly linearly with the replica count;
        # UMS-Direct stays in the same ballpark.
        assert brk[-1] > brk[0] * 1.5
        assert direct[-1] < direct[0] * 2.0

    def test_figure10_brk_messages_scale_with_replicas(self, tables):
        table = tables["figure-10"]
        brk = table.series_values("BRK")
        replicas = table.x_values()
        assert brk[-1] / brk[0] == pytest.approx(replicas[-1] / replicas[0], rel=0.5)

    def test_figure11_failures_hurt_response_time(self, tables):
        direct = tables["figure-11"].series_values("UMS-Direct")
        assert direct[-1] > direct[0]

    def test_figure12_only_reports_the_two_ums_variants(self, tables):
        table = tables["figure-12"]
        assert set(table.series) == {"UMS-Direct", "UMS-Indirect"}
        assert len(table.rows) == len(SCALE_PROFILES["tiny"]["update_rates_per_hour"])


class TestAblationsAndRunner:
    def test_ablation_probe_order_has_both_rows(self, tables):
        assert tables["ablation-probe-order"].x_values() == ["random", "fixed"]

    def test_ablation_overlay_compares_every_registered_overlay(self, tables):
        table = tables["ablation-overlay"]
        assert table.x_values() == ["can", "chord", "kademlia"]
        assert table.title == "Overlay ablation (can vs chord vs kademlia)"
        assert all(value > 0 for value in table.series_values("messages"))

    def test_ablation_stabilization_rows_are_the_declared_intervals(self, tables):
        assert tables["ablation-stabilization"].x_values() \
            == list(STABILIZATION_INTERVALS_S) == [0.0, 30.0, 120.0, 600.0]

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
