"""Run every reproduced experiment and render a Markdown report.

Usage::

    python -m repro.experiments.runner --scale quick
    python -m repro.experiments.runner --scale paper --output results.md
    python -m repro.experiments.runner --scale paper --jobs 4 --cache-dir .repro-cache
    python -m repro.experiments.runner --scale tiny --only figure --charts --progress
    python -m repro.experiments.runner --scale tiny --seed 3 --only attack

``repro experiments`` takes the same flags.

All sweeps execute as one plan through the unified execution layer
(:mod:`repro.execution`): ``--jobs N`` fans the grid out over a process pool
(bit-identical results to a serial run for the same seed) and ``--cache-dir``
skips any parameter point that was already executed and cached there
(``--no-cache`` forces re-execution while refreshing the cache).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, TextIO

from repro.dht.registry import overlay_names
from repro.execution import Executor
from repro.experiments import figures
from repro.experiments.reporting import ExperimentTable

__all__ = ["add_arguments", "add_executor_arguments", "executor_from_arguments",
           "main", "run_all_experiments", "run_command", "select_experiments",
           "write_experiments_report"]


def select_experiments(only: Sequence[str] = ()) -> List[str]:
    """The ids of :data:`~repro.experiments.figures.EXPERIMENTS` that ``only`` names.

    Each entry selects the id it names or, naming none, every id it
    prefixes (``figure``, ``attack``, ``scenario-compare``); an empty
    ``only`` selects every id.  Ids keep their table order.
    """
    selected = set()
    for entry in only:
        matches = ([entry] if entry in figures.EXPERIMENTS else
                   [name for name in figures.EXPERIMENTS if name.startswith(entry)])
        if not matches:
            raise ValueError(f"{entry!r} names no experiment; expected an id or id "
                             f"prefix of {list(figures.EXPERIMENTS)}")
        selected.update(matches)
    return [name for name in figures.EXPERIMENTS if not only or name in selected]


def run_all_experiments(scale: str = "quick", *, seed: int = 2007,
                        protocol: str = "chord", only: Sequence[str] = (),
                        executor: Optional[Executor] = None) -> List[ExperimentTable]:
    """Regenerate every table/figure of the paper, the ablations and the grids.

    Table 1 and Theorem 1, then the declared experiments of
    :data:`~repro.experiments.figures.EXPERIMENTS` that ``only`` selects
    (:func:`select_experiments`; default all), run by
    :func:`~repro.experiments.figures.run_experiments` as one plan.
    ``protocol`` selects the overlay the simulated sweeps run on (any name
    registered in :mod:`repro.dht.registry`); the stabilisation ablation
    stays on Chord (it ablates a Chord-specific knob), and the overlay
    ablation, the attack grid and the scenario comparison choose their
    overlays themselves.
    """
    return [figures.table1_parameters(scale), figures.expected_retrievals_table(),
            *figures.run_experiments(select_experiments(only), scale, seed=seed,
                                     protocol=protocol, executor=executor)]


def write_experiments_report(tables: List[ExperimentTable], stream: TextIO, *,
                             scale: str, elapsed_s: Optional[float] = None,
                             charts: bool = False) -> None:
    """Render the tables (and optionally ASCII charts) as Markdown to ``stream``."""
    from repro.experiments.plots import ascii_chart

    stream.write("# Reproduced experiments — measured results\n\n")
    stream.write(f"Scale profile: `{scale}`.\n")
    if elapsed_s is not None:
        stream.write(f"Total wall-clock time: {elapsed_s:.1f} s.\n")
    stream.write("\n")
    for table in tables:
        stream.write(table.to_markdown())
        stream.write("\n\n")
        if charts and table.experiment_id.startswith("figure"):
            stream.write("```\n" + ascii_chart(table) + "\n```\n\n")


def _progress_printer(stream=None):
    """A per-run progress callback writing one status line per completion."""
    stream = stream if stream is not None else sys.stderr

    def progress(completed: int, total: int, point) -> None:
        label = point.label or point.content_hash[:12]
        stream.write(f"  [{completed}/{total}] {label}\n")
        stream.flush()

    return progress


def add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """``--jobs``, ``--cache-dir`` and ``--no-cache``: how a grid executes."""
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes per grid (default: serial, or "
                             "the REPRO_EXECUTOR_JOBS environment variable); "
                             "results are bit-identical to a serial run")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk run cache: points already executed "
                             "under DIR are skipped")
    parser.add_argument("--no-cache", action="store_true",
                        help="re-execute every point even when cached "
                             "(refreshing the cache entries)")


def executor_from_arguments(arguments: argparse.Namespace, *,
                            progress=None) -> Executor:
    """The :class:`Executor` the :func:`add_executor_arguments` flags describe."""
    return Executor(arguments.jobs, cache_dir=arguments.cache_dir,
                    use_cache=not arguments.no_cache, progress=progress)


def _experiment_ids(value: str) -> List[str]:
    """Parse ``--only``: comma-separated ids or id prefixes, checked against the table."""
    entries = [entry.strip() for entry in value.split(",") if entry.strip()]
    if not entries:
        raise argparse.ArgumentTypeError("needs at least one id or id prefix")
    try:
        select_experiments(entries)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return entries


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The runner's flags, shared by this module's ``main`` and ``repro experiments``."""
    parser.add_argument("--scale", choices=sorted(figures.SCALE_PROFILES), default="quick",
                        help="sweep scale: 'tiny' (tests), 'quick' (seconds) or "
                             "'paper' (full Table 1 scale)")
    parser.add_argument("--seed", type=int, default=2007, help="master random seed")
    parser.add_argument("--output", default=None,
                        help="write the Markdown report to this file (default: stdout)")
    parser.add_argument("--protocol", choices=overlay_names(), default="chord",
                        help="DHT overlay for every experiment except the "
                             "stabilisation ablation (Chord-specific) and those "
                             "that choose their overlays (the overlay ablation, "
                             "the attack grid, the scenario comparison)")
    add_executor_arguments(parser)
    parser.add_argument("--progress", action="store_true",
                        help="print per-run completions to stderr")
    parser.add_argument("--only", type=_experiment_ids, default=(), metavar="ID[,ID...]",
                        help="run only these experiments: ids or id prefixes "
                             "such as 'figure', 'ablation', 'attack' or "
                             "'scenario-compare' (Table 1 and Theorem 1 are "
                             "always reported)")
    parser.add_argument("--charts", action="store_true",
                        help="append an ASCII chart under every figure table")


def run_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run every experiment the :func:`add_arguments` flags select; write the report."""
    executor = executor_from_arguments(
        arguments, progress=_progress_printer() if arguments.progress else None)
    # reprolint: allow[REP001] reason=report-only elapsed metadata; experiment values are seed-determined (tests/experiments/test_reporting.py)
    started = time.time()
    tables = run_all_experiments(arguments.scale, seed=arguments.seed,
                                 protocol=arguments.protocol, only=arguments.only,
                                 executor=executor)
    # reprolint: allow[REP001] reason=report-only elapsed metadata; experiment values are seed-determined (tests/experiments/test_reporting.py)
    elapsed = time.time() - started
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            write_experiments_report(tables, handle, scale=arguments.scale,
                                     elapsed_s=elapsed, charts=arguments.charts)
    else:
        write_experiments_report(tables, stream if stream is not None else sys.stdout,
                                 scale=arguments.scale, elapsed_s=elapsed,
                                 charts=arguments.charts)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.experiments.runner``."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    return run_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
