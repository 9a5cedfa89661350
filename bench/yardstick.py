"""The machine-speed yardstick every timing in ``bench/`` is divided by.

Raw wall-clock on a shared two-vCPU VM swings 26-39 % between identical
runs, mostly because the CPU the process gets is not the same CPU from one
second to the next.  So no timing is reported raw: a fixed kernel that
touches no repo code runs before and after every measured segment, and every
latency of the segment is multiplied by ``mean(rate_before, rate_after) /
CAL_REF``.  The product reads as "time on a machine that runs the kernel at
``CAL_REF`` rounds per second" and is called *norm* time throughout.

The kernel is a copy of the idea in ``benchmarks/bench_hotpath._calibrate``
(SHA-1 of a short message + one 521-bit multiply-and-reduce per round, about
one third hashing, one third big-int arithmetic, one third interpreter loop).
It is copied, not imported, so that no later change to the repo can move it:
the yardstick must stay frozen for ledger rows of different PRs to compare.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, List, Tuple, TypeVar

__all__ = ["CAL_REF", "Bracket", "kernel_rate", "timed"]

#: Kernel rounds per second on the reference machine (the VM the benchmark
#: was defined on).  A constant: changing it rescales every norm figure.
CAL_REF = 1_400_000.0

#: One yardstick reading is the best of ``_REPEATS`` kernel runs of
#: ``_ROUNDS`` rounds (~2 ms each): best-of discards a preempted run the same
#: way the per-segment medians discard a preempted operation.
_ROUNDS = 3000
_REPEATS = 3
_PRIME = (1 << 521) - 1

T = TypeVar("T")


def _kernel(rounds: int) -> int:
    accumulator = 0
    sha1 = hashlib.sha1
    for index in range(rounds):
        digest = int.from_bytes(sha1(b"cal-%d" % index).digest(), "big")
        accumulator = (accumulator + digest * 31) % _PRIME
    return accumulator


def kernel_rate() -> float:
    """One yardstick reading: kernel rounds per second, best of a few runs."""
    best = 0.0
    for _ in range(_REPEATS):
        start = time.perf_counter_ns()
        _kernel(_ROUNDS)
        elapsed = time.perf_counter_ns() - start
        best = max(best, _ROUNDS * 1e9 / elapsed)
    return best


class Bracket:
    """Yardstick readings taken around consecutive measured segments.

    ``open()`` takes the first reading; each ``close()`` takes the next one
    and returns the factor of the segment that just ended (the reading is
    reused as the opening one of the following segment, so ``n`` segments
    cost ``n + 1`` readings).
    """

    def __init__(self) -> None:
        self.rates: List[float] = []

    def open(self) -> None:
        """Take the reading that precedes the first segment."""
        self.rates.append(kernel_rate())

    def close(self) -> float:
        """Take the reading that ends a segment; return the segment's factor."""
        before = self.rates[-1]
        after = kernel_rate()
        self.rates.append(after)
        return (before + after) / 2.0 / CAL_REF


def timed(action: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``action`` once between two readings.

    Returns ``(result, raw seconds, norm seconds)``.
    """
    bracket = Bracket()
    bracket.open()
    start = time.perf_counter_ns()
    result = action()
    raw = (time.perf_counter_ns() - start) / 1e9
    return result, raw, raw * bracket.close()
