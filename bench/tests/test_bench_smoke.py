"""Smoke test of the benchmark itself (``--scale smoke``, well under 30 s).

Not collected by the tier-1 run (``pyproject.toml`` pins ``testpaths`` to
``tests/``); run it with ``python -m pytest bench/tests -q`` from the root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench import layers  # noqa: E402
from bench.aa_check import EXACT  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.spans import Patches, Recorder  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


def run(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """Run the manifest's command at smoke scale; parse its last line."""
    done = subprocess.run(
        [*MANIFEST["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> Dict[str, Dict[str, Any]]:
    return {workload: run(workload, 1, 0) for workload in WORKLOADS}


def _declared(section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in MANIFEST[section]}


def _emitted(result: Dict[str, Any]) -> Dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_manifest_repeats_the_metric_tables():
    assert MANIFEST["end_to_end"] == [metric.as_json() for metric in END_TO_END]
    assert MANIFEST["per_layer"] == [metric.as_json() for metric in PER_LAYER]
    assert MANIFEST["paths"] == ["bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_and_units(untraced, workload):
    result = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _emitted(result) == _declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert result["metrics"]["ok_op_share"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["tcp_point", "sim_churn"])
def test_per_layer_names_and_units(workload):
    result = run(workload, 1, 1)
    assert result["correct"] is True
    assert _emitted(result) == _declared("per_layer")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["env.layer_sum_share"] >= 0.9
    if workload == "tcp_point":
        assert values["server.handle_us_per_op"] > 0
        assert values["client.wire_wait_us_per_op"] > 0
    else:
        assert values["network.churn_event_us"] > 0
        assert values["codec.encode_us_per_frame"] == 0


def test_exact_counters_repeat_for_one_seed_and_move_with_the_seed(untraced):
    def exact(result: Dict[str, Any]) -> Dict[str, float]:
        return {name: result["metrics"][name]["value"] for name in EXACT}

    again, other = run("sim_point", 1, 0), run("sim_point", 2, 0)
    assert exact(again) == exact(untraced["sim_point"])
    assert again["attempted"] == untraced["sim_point"]["attempted"]
    assert exact(other) != exact(untraced["sim_point"])
    # One op stream, two substrates: the same messages either way.
    assert (untraced["tcp_point"]["metrics"]["messages_per_key_op"]
            == untraced["sim_point"]["metrics"]["messages_per_key_op"])


def test_wrappers_leave_every_patched_attribute_restored():
    from repro.dht.columnar import ColumnarChordRing

    targets = layers._targets(ColumnarChordRing)
    before = [(attribute in vars(owner), vars(owner).get(attribute))
              for _name, owner, attribute in targets]
    patches = Patches()
    layers.install(patches, Recorder(), ColumnarChordRing)
    assert len(patches.patched()) == len(targets)
    assert all(vars(owner)[attribute] is not old
               for (_name, owner, attribute), (_own, old) in zip(targets, before))
    patches.restore()
    after = [(attribute in vars(owner), vars(owner).get(attribute))
             for _name, owner, attribute in targets]
    assert all(now[0] == then[0] and now[1] is then[1]
               for now, then in zip(after, before))
    assert patches.patched() == []
