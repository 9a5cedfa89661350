"""End-to-end simulation harness reproducing the paper's evaluation setup.

The harness wires together the DHT substrate, the UMS/KTS/BRK services, the
discrete-event engine and the Table 1 workload model (churn, per-key updates,
uniformly spread queries), and produces per-query response times and message
counts — the two metrics reported in Figures 6–12.

Every run is a declarative scenario of :mod:`repro.simulation.scenarios`.
The paper's workload is the ``uniform`` scenario; the others reshape it —
skewed/shifting key popularity, bursty/diurnal arrivals, application
read/write mixes and correlated fault profiles — registered by name and
replayable from recorded specs (``repro scenario run`` and ``list`` on the
CLI).

The discrete-event substrate (the SimJava substitute) lives here too:
:mod:`repro.simulation.engine` (event heap + generator processes),
:mod:`repro.simulation.processes` (Poisson arrivals),
:mod:`repro.simulation.cost` (the Table 1 network cost model) and
:mod:`repro.simulation.metrics` (the sampled ``p_t`` time series).  The stack
reads engine → workload/scenarios → harness → :mod:`repro.execution`.
"""

from repro.simulation.config import Algorithm, SimulationParameters
from repro.simulation.churn import ChurnEvent, ChurnProcess
from repro.simulation.cost import GeoLatencyCostModel, NetworkCostModel
from repro.simulation.engine import Event, Process, SimulationError, Simulator, Timeout
from repro.simulation.metrics import TimeSeries
from repro.simulation.processes import PoissonProcess, poisson_arrival_times
from repro.simulation.harness import SimulationHarness, run_simulation
from repro.simulation.results import QueryObservation, RunResult
from repro.simulation.scenarios import SCENARIOS, Scenario, ScenarioSpec, run_scenario
from repro.simulation.workload import ScheduledEvent, payload_for

__all__ = [
    "Algorithm",
    "ChurnEvent",
    "ChurnProcess",
    "Event",
    "GeoLatencyCostModel",
    "NetworkCostModel",
    "PoissonProcess",
    "Process",
    "QueryObservation",
    "RunResult",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "ScheduledEvent",
    "SimulationError",
    "SimulationHarness",
    "SimulationParameters",
    "Simulator",
    "TimeSeries",
    "Timeout",
    "payload_for",
    "run_scenario",
    "run_simulation",
]
