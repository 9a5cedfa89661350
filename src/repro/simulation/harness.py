"""The simulation harness: one run = one parameter point for one algorithm.

A run proceeds exactly as described in Section 5.1:

1. build a cluster of ``num_peers`` peers through the client API
   (:meth:`repro.api.Cluster.build` — overlay and currency service both
   resolved through their registries);
2. insert the initial version of every data item;
3. schedule the churn (Poisson departures, 5 % failures, compensated by
   joins, each departure scheduling the next) and the per-key Poisson update
   workload as simulator callbacks;
4. issue ``num_queries`` retrieve operations at uniformly distributed times
   through a :class:`repro.api.Session` and record, for each, the response
   time (via the network cost model) and the number of messages;
5. report the averages.

Steps 3 and 4 are the ``uniform`` scenario's schedules; any other
:class:`~repro.simulation.scenarios.Scenario` reshapes them and may add
fault profiles on top of the churn.

The same harness runs UMS-Direct, UMS-Indirect and BRK — and any currency
service registered in :mod:`repro.api.services` — so the algorithms face
identical workloads (and, with the same seed, identical churn and update
schedules).  Because every service returns the shared result types, no
per-algorithm normalisation is needed anywhere.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Union

from repro.api.cluster import Cluster, Session
from repro.api.results import RetrieveResult
from repro.core.detector import CrossCheckDetector
from repro.core.kts import KeyBasedTimestampService
from repro.core.replication import ReplicationScheme
from repro.dht.network import DHTNetwork
from repro.simulation.cost import NetworkCostModel
from repro.simulation.engine import Simulator
from repro.simulation.metrics import TimeSeries
from repro.simulation.churn import ChurnProcess
from repro.simulation.config import Algorithm, SimulationParameters
from repro.simulation.results import QueryObservation, RunResult
from repro.simulation.scenarios.engine import Scenario
from repro.simulation.scenarios.registry import UNIFORM_SCENARIO
from repro.simulation.scenarios.spec import ScenarioSpec
from repro.simulation.workload import default_keys, payload_for

__all__ = ["SimulationHarness"]


class SimulationHarness:
    """Builds and runs one simulation described by :class:`SimulationParameters`.

    ``scenario`` (a :class:`~repro.simulation.scenarios.ScenarioSpec` or a
    built :class:`~repro.simulation.scenarios.Scenario`) supplies the update
    and query schedules (popularity × arrivals × profile) and installs its
    fault profiles on top of the background churn.  It defaults to the
    ``uniform`` scenario, which is the Section 5.1 setup described above.
    """

    def __init__(self, parameters: SimulationParameters,
                 scenario: Union[ScenarioSpec, Scenario] = UNIFORM_SCENARIO) -> None:
        self.parameters = parameters
        self.scenario = (scenario if isinstance(scenario, Scenario)
                         else Scenario(scenario))
        self._master_rng = random.Random(parameters.seed)
        self.cluster: Optional[Cluster] = None
        self.session: Optional[Session] = None
        self.network: Optional[DHTNetwork] = None
        self.replication: Optional[ReplicationScheme] = None
        self.kts: Optional[KeyBasedTimestampService] = None
        self.cost_model: Optional[NetworkCostModel] = None
        self.sim: Optional[Simulator] = None
        self.churn: Optional[ChurnProcess] = None
        #: Passive timestamp cross-check detector attached to the UMS; it
        #: sends no messages and draws no randomness, so attaching it keeps
        #: seeded runs bit-identical to earlier releases.
        self.detector = CrossCheckDetector(window=parameters.cross_check_window)
        self.keys: List[str] = []
        self._update_sequence: Dict[str, int] = {}
        self._result: Optional[RunResult] = None
        self._is_setup = False

    # ------------------------------------------------------------------- setup
    def setup(self) -> None:
        """Build the cluster, the session and the initial data population."""
        parameters = self.parameters
        self.cluster = Cluster.build(
            parameters.num_peers, protocol=parameters.protocol,
            service=Algorithm.service_name(parameters.algorithm),
            replicas=parameters.num_replicas, bits=parameters.bits,
            initialization=Algorithm.initialization(parameters.algorithm),
            probe_order=parameters.probe_order,
            stabilization_interval=parameters.stabilization_interval_s,
            rng=self._master_rng,
            service_options={"ums": {"detector": self.detector}})
        self.network = self.cluster.network
        self.replication = self.cluster.replication
        self.kts = self.cluster.kts
        # A floating session: every operation starts at a fresh random origin,
        # matching the paper's query model.
        self.session = self.cluster.session(consistency=parameters.consistency)
        self.cost_model = parameters.build_cost_model(
            rng=random.Random(self._master_rng.getrandbits(64)))
        self.keys = default_keys(parameters.num_keys)
        self._update_sequence = {key: 0 for key in self.keys}
        for key in self.keys:
            self._insert(key)
        self._result = RunResult(algorithm=parameters.algorithm,
                                 num_peers=parameters.num_peers,
                                 num_replicas=parameters.num_replicas,
                                 parameters=parameters.describe())
        self._is_setup = True

    # --------------------------------------------------------------- operations
    def _insert(self, key: str) -> None:
        """Write the next version of ``key`` through the session."""
        sequence = self._update_sequence[key]
        payload = payload_for(key, sequence)
        self._update_sequence[key] = sequence + 1
        self.session.insert(key, payload)

    def _retrieve(self, key: str) -> RetrieveResult:
        """Read ``key`` through the session (shared result type, no normalising)."""
        return self.session.retrieve(key)

    # --------------------------------------------------------------------- run
    def run(self) -> RunResult:
        """Execute the workload and return the aggregated result."""
        if not self._is_setup:
            self.setup()
        parameters = self.parameters
        result = self._result
        self.sim = Simulator()
        self.network.now = 0.0

        # Churn: Poisson departures compensated by joins.
        self.churn = ChurnProcess(self.sim, self.network,
                                  rate_per_s=parameters.churn_rate_per_s,
                                  failure_rate=parameters.failure_rate,
                                  rng=random.Random(self._master_rng.getrandbits(64)),
                                  until=parameters.duration_s)

        # Updates: per-key Poisson processes, shaped by the scenario's
        # profile and popularity, materialised as a schedule.
        update_rng = random.Random(self._master_rng.getrandbits(64))
        for event in self.scenario.update_schedule(
                self.keys, parameters.update_rate_per_hour,
                parameters.duration_s, update_rng):
            self.sim.schedule(event.time, self._make_update_callback(event.key))

        # Queries: the scenario's arrival times, each for a popularity-chosen key.
        query_rng = random.Random(self._master_rng.getrandbits(64))
        for event in self.scenario.query_schedule(
                self.keys, parameters.num_queries, parameters.duration_s,
                query_rng):
            self.sim.schedule(event.time, self._make_query_callback(event.key))

        # Fault profiles (correlated bursts, partitions, lossy windows) ride
        # on a dedicated RNG stream drawn *after* the workload streams, so
        # they never move the workload's draws.
        self.scenario.install_faults(self.sim, network=self.network,
                                     cost_model=self.cost_model,
                                     rng=random.Random(self._master_rng.getrandbits(64)),
                                     duration_s=parameters.duration_s,
                                     churn=self.churn, cluster=self.cluster)

        # Optional maintenance / instrumentation loops.
        if parameters.inspection_interval_s > 0 and parameters.algorithm != Algorithm.BRK:
            self._every(parameters.inspection_interval_s, self._inspect)
        if parameters.currency_sample_interval_s > 0:
            result.currency_series = TimeSeries("p_t")
            self._every(parameters.currency_sample_interval_s, self._sample_currency)

        self.sim.run(until=parameters.duration_s)

        result.updates_performed = sum(self._update_sequence.values()) - len(self.keys)
        result.churn_events = self.churn.event_count
        result.failures = self.churn.failure_count
        result.scenario = self.scenario.name
        result.fault_events = len(self.scenario.fault_log)
        return result

    def _every(self, interval_s: float, action: Callable[[], None]) -> None:
        """Run ``action`` every ``interval_s`` seconds, first at ``interval_s``."""
        def tick() -> None:
            self.network.now = self.sim.now
            action()
            self.sim.schedule(interval_s, tick)
        self.sim.schedule(interval_s, tick)

    def _inspect(self) -> None:
        """Periodic inspection (Section 4.2.2): responsibles re-check their counters."""
        corrections = self.kts.inspect_counters()
        self._result.inspections_performed += 1
        self._result.counter_corrections += corrections

    def _sample_currency(self) -> None:
        """Sample the mean probability of currency and availability over all keys."""
        probabilities = [self.cluster.currency_probability(key) for key in self.keys]
        self._result.currency_series.record(
            self.sim.now, sum(probabilities) / len(probabilities))

    def _make_update_callback(self, key: str) -> Callable[[], None]:
        def callback() -> None:
            self.network.now = self.sim.now
            self._insert(key)
        return callback

    def _make_query_callback(self, key: str) -> Callable[[], None]:
        def callback() -> None:
            self.network.now = self.sim.now
            flags_before = self.detector.flag_count
            # The cost model prices each message of the retrieve as it is recorded.
            delays: List[float] = []
            price = self.cost_model.message_delay
            self.network.on_message = lambda *message: delays.append(price(*message))
            try:
                outcome = self._retrieve(key)
            finally:
                self.network.on_message = None
            response_time = sum(delays)
            # Ground truth only the harness knows: the latest committed
            # version of the key (the adversary can falsify timestamps, but
            # not the update sequence the harness itself drove).
            latest_payload = payload_for(key, self._update_sequence[key] - 1)
            stale = outcome.found and outcome.data != latest_payload
            self._result.record_query(QueryObservation(
                time=self.sim.now, key=key, response_time_s=response_time,
                messages=outcome.trace.message_count,
                replicas_inspected=outcome.replicas_inspected,
                found=outcome.found, is_current=outcome.is_current,
                stale=stale,
                flagged=self.detector.flag_count > flags_before,
                bytes_sent=self.cost_model.traffic_bytes(outcome.trace)))
        return callback
