"""Table 1 — simulation parameters and the cost of standing up the simulated testbed.

The benchmark measures how long it takes to build the full simulation
substrate at the profile's base population (network construction, replication
scheme, services and the initial data placement), and records the Table 1
parameter values actually used.
"""

from __future__ import annotations

from repro.experiments.figures import SCALE_PROFILES, table1_parameters
from repro.simulation.config import Algorithm, SimulationParameters
from repro.simulation.harness import SimulationHarness


def test_table1_parameters_and_setup_cost(benchmark, bench_scale, bench_seed, record_table):
    profile = SCALE_PROFILES[bench_scale]
    parameters = SimulationParameters.table1(
        num_peers=int(profile["base_peers"]), num_keys=int(profile["num_keys"]),
        duration_s=float(profile["duration_s"]), algorithm=Algorithm.UMS_DIRECT,
        seed=bench_seed)

    def build():
        harness = SimulationHarness(parameters)
        harness.setup()
        return harness

    harness = benchmark.pedantic(build, rounds=1, iterations=1)
    table = table1_parameters(bench_scale)
    record_table(table, benchmark)

    assert harness.network.size == parameters.num_peers
    assert harness.replication.factor == parameters.num_replicas
    rows = dict(zip(table.x_values(), table.series_values("value")))
    assert rows["peer departure rate (1/s)"] == 1.0
    assert rows["failure rate (% of departures)"] == 5.0
