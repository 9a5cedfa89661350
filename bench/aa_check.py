"""A/A check: does the benchmark agree with itself on one checkout?

::

    python3 bench/aa_check.py [--runs 10] [--seed-base 1] [--workloads a,b]

Runs the command of ``BENCHMARK.json`` ``--runs`` times per workload, each
time with another seed, then does the same again with the same seeds, and
prints per workload x end-to-end metric: the two medians, how much worse the
second is than the first, each set's spread (interquartile range over
median, ``statistics.quantiles(values, n=4)``) and the declared bound.

Exits non-zero when

* a second median is worse than the first by more than the bound,
* a spread other than ``setup_s``'s exceeds the bound, or
* a run failed, or a counter-derived metric differs between the two runs
  of one seed (those must repeat *exactly*).

A spread above a third of its bound is flagged ``wide`` but does not fail.
Standard library only: it must run where ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Metrics made of counters only: identical for every run of one seed.
EXACT = ("messages_per_key_op", "wire_bytes_per_key_op", "current_rate",
         "ok_op_share")


def run_once(manifest: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    """One end-to-end run; returns the JSON object of its last stdout line."""
    command = [*manifest["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (negative: better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("::")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs (seeds) per set; at least 2")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--output", help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in manifest["workloads"]]
    if args.workloads:
        workloads = [name for name in workloads if name in args.workloads.split(",")]
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    failures: List[str] = []
    results: Dict[str, List[List[Dict[str, Any]]]] = {}
    for workload in workloads:
        sets = results[workload] = [[], []]
        for runs in sets:
            for seed in seeds:
                run = run_once(manifest, workload, seed)
                runs.append(run)
                if not run["correct"] or run["failed"]:
                    failures.append(f"{workload} seed {seed}: run not correct")
        for seed, first, second in zip(seeds, *sets):
            for name in EXACT:
                one, two = (run["metrics"][name]["value"] for run in (first, second))
                if one != two:
                    failures.append(f"{workload} seed {seed}: {name} not exact "
                                    f"({one!r} != {two!r})")
        print(f"\n{workload}: {args.runs} seeds x 2 sets")
        print(f"  {'metric':<24}{'median A':>14}{'median B':>14}{'B worse by':>12}"
              f"{'spread A':>10}{'spread B':>10}{'bound':>8}")
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
            medians = [statistics.median(column) for column in values]
            spreads = [spread(column) for column in values]
            gap = worsening(medians[0], medians[1], metric["better"])
            notes = []
            if gap > bound:
                notes.append("GAP")
                failures.append(f"{workload} {name}: second median worse by "
                                f"{gap:.4f} > bound {bound}")
            if name != "setup_s" and max(spreads) > bound:
                notes.append("SPREAD")
                failures.append(f"{workload} {name}: spread {max(spreads):.4f} "
                                f"> bound {bound}")
            elif name != "setup_s" and max(spreads) > bound / 3:
                notes.append("wide")
            print(f"  {name:<24}{medians[0]:>14.5f}{medians[1]:>14.5f}{gap:>12.4f}"
                  f"{spreads[0]:>10.4f}{spreads[1]:>10.4f}{bound:>8} {' '.join(notes)}")
    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=1))
    print()
    for failure in failures:
        print(f"FAIL {failure}")
    print("A/A check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
