#!/usr/bin/env python
"""Failures, lost counters, and the paper's repair strategies (Section 4.2.2).

This example walks through the hardest scenario the paper handles:

1. the responsible of timestamping for a key *fails* (its counter is lost);
2. the next responsible rebuilds the counter with the **indirect algorithm**
   from the timestamps stored with the replicas;
3. a timestamp that was generated but never committed is repaired by the
   **recovery** strategy when the failed peer comes back;
4. a simulation run with the **periodic inspection** process enabled shows the
   probability of currency and availability (p_t) staying high under heavy
   failure churn.

Run with::

    python examples/failure_and_recovery.py
"""

from __future__ import annotations

from repro.api import Cluster
from repro.simulation import Algorithm, SimulationParameters, run_scenario


def lost_counter_walkthrough() -> None:
    print("== 1-3. losing and repairing the timestamping counter ==")
    cluster = Cluster.build(peers=96, replicas=10, seed=5)
    network, kts = cluster.network, cluster.kts
    session = cluster.session()

    session.insert("ledger", {"balance": 100})
    session.insert("ledger", {"balance": 120})
    responsible = kts.responsible_of_timestamping("ledger")
    print(f"responsible of timestamping: peer {responsible}")
    print(f"last timestamp before the failure: {kts.last_ts('ledger').value}")

    # A timestamp is generated but the requester crashes before committing it.
    orphan = kts.gen_ts("ledger")
    print(f"orphan timestamp generated but never committed: {orphan.value}")

    network.fail_peer(responsible)
    network.join_peer()
    print(f"peer {responsible} failed; new responsible: "
          f"{kts.responsible_of_timestamping('ledger')}")

    # The indirect algorithm rebuilds the counter from the replicas, which only
    # know about the committed timestamps.
    rebuilt = kts.last_ts("ledger")
    print(f"last timestamp known after indirect initialisation: {rebuilt.value} "
          f"(the orphan {orphan.value} is invisible)")

    # The failed peer restarts and reports its counters: recovery strategy.
    corrected = kts.recover("ledger", orphan.value)
    print(f"recovery applied a correction: {corrected}; "
          f"last timestamp now {kts.last_ts('ledger').value}")

    next_update = session.insert("ledger", {"balance": 150})
    print(f"next update obtained timestamp {next_update.timestamp.value} "
          f"(> {orphan.value}, monotonicity preserved)")
    outcome = session.retrieve("ledger")
    print(f"retrieve returns {outcome.data} — certified current: {outcome.is_current}")
    session.close()
    print()


def inspection_under_heavy_failures() -> None:
    print("== 4. periodic inspection under heavy failure churn (simulation) ==")
    parameters = SimulationParameters(
        num_peers=300, num_keys=12, duration_s=1200.0, num_queries=20,
        churn_rate_per_s=0.25, failure_rate=0.6, algorithm=Algorithm.UMS_DIRECT,
        inspection_interval_s=120.0, currency_sample_interval_s=60.0, seed=9)
    result = run_scenario("uniform", parameters)
    print(f"churn events: {result.churn_events} ({result.failures} failures)")
    print(f"periodic inspections: {result.inspections_performed} "
          f"(corrections applied: {result.counter_corrections})")
    print(f"average p_t over the run: {result.avg_currency_probability:.2f}")
    print(f"queries answered with a certified-current replica: {result.currency_rate:.0%}")
    print(f"average response time: {result.avg_response_time_s:.2f} s, "
          f"average messages: {result.avg_messages:.1f}")


def main() -> None:
    lost_counter_walkthrough()
    inspection_under_heavy_failures()


if __name__ == "__main__":
    main()
