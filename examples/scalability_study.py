#!/usr/bin/env python
"""Scalability study: regenerate the paper's headline comparison from the CLI.

Runs the simulation harness (Table 1 workload: Poisson churn with failures,
per-key Poisson updates, queries at uniformly distributed times) for the three
algorithms over a sweep of network sizes, and prints response time and
communication cost — i.e. a small-scale Figures 7 and 8 — plus the Theorem 1
theory table for reference.

Run with::

    python examples/scalability_study.py            # quick sweep (seconds)
    python examples/scalability_study.py --paper    # full 10,000-peer sweep
"""

from __future__ import annotations

import argparse
import time

from repro.core import analysis
from repro.experiments import expected_retrievals_table, run_experiments


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="run the full Table 1 scale (2,000–10,000 peers)")
    parser.add_argument("--seed", type=int, default=2007)
    arguments = parser.parse_args()
    scale = "paper" if arguments.paper else "quick"

    print(f"scale profile: {scale}")
    started = time.time()
    # Figures 7 and 8 share one sweep, which the single plan runs once.
    response_time, messages = run_experiments(["figure-7", "figure-8"], scale,
                                              seed=arguments.seed)
    elapsed = time.time() - started

    print()
    print(response_time.to_text())
    print()
    print(messages.to_text())
    print()
    print(expected_retrievals_table().to_text())
    print()
    print(f"paper example check: with p_t = 0.35, E[X] = "
          f"{analysis.expected_retrievals(0.35, 10):.2f} < 3 "
          f"(bound 1/p_t = {analysis.expected_retrievals_upper_bound(0.35):.2f})")
    print(f"sweep wall-clock time: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
