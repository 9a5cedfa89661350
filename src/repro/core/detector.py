"""Timestamp cross-check detection for the UMS retrieval path.

The paper's retrieval (Figure 2) trusts the responsible of timestamping: the
``last_ts`` reply is taken as the truth the probed replicas are compared
against.  A byzantine responsible can therefore freeze a key's visible
currency by replaying an old value (see
:mod:`repro.simulation.adversary`).  The cross-check exploits the one
invariant an adversary answering *below* the truth cannot fake: **no replica
can carry a timestamp newer than the KTS counter that generated it**, so a
probed replica stamped beyond the claimed ``last_ts`` proves the claim was a
lie (or, beyond an explicit ``window``, that the counter regressed — which
the paper's recovery rules exclude).

:class:`CrossCheckDetector` is deliberately passive instrumentation: the UMS
hands it the claimed value and the timestamp values it observed while
probing replicas it was contacting *anyway* — the detector sends no
messages, draws no randomness and never changes a retrieval's outcome, so
attaching one keeps seeded runs bit-identical to undetected twins.  Flags
surface as the ``detected_lies`` / ``undetected_stale_rate`` metrics of
:class:`repro.simulation.results.RunResult`.

The asymmetry matters: a claim *ahead* of every observed replica is the
paper's legitimate staleness phenomenon (the current replicas were simply
not probed, or were lost) and is never flagged — only claim-behind
divergence is provable from one retrieval's evidence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

__all__ = ["CrossCheckDetector"]


class CrossCheckDetector:
    """Flags ``last_ts`` claims that provably trail the probed replicas.

    Parameters
    ----------
    window:
        Tolerated claim-behind divergence (in timestamp increments) before a
        retrieval is flagged.  The default ``0`` is sound under the paper's
        recovery rules (an indirect counter re-initialises at or above the
        highest observed replica timestamp), which is what the zero-false-
        positive property in ``tests/adversary/test_detector.py`` pins
        across the honest scenario registry.
    """

    def __init__(self, window: int = 0) -> None:
        if window < 0:
            raise ValueError("window must be >= 0")
        self.window = window
        #: Number of retrievals cross-checked (claims with >= 1 observation).
        self.checks = 0
        #: One record per flagged retrieval, in detection order.
        self.flags: List[Dict[str, Any]] = []

    def observe(self, key: Any, claimed: Optional[int],
                observed: Sequence[int]) -> bool:
        """Cross-check one retrieval; returns whether it was flagged.

        ``claimed`` is the ``last_ts`` reply value (``None`` when the
        responsible claimed no timestamp was ever generated) and
        ``observed`` the timestamp values seen on the probed replicas.
        With no observations there is no evidence and nothing to check.
        """
        if not observed:
            return False
        self.checks += 1
        # A "no timestamp was ever generated" claim is contradicted by any
        # stamped replica, exactly like a claim of 0.
        claim = claimed if claimed is not None else 0
        divergence = max(observed) - claim
        if divergence <= self.window:
            return False
        self.flags.append({"key": key, "claimed": claimed,
                           "observed_max": max(observed),
                           "divergence": divergence})
        return True

    @property
    def flag_count(self) -> int:
        """Number of flagged retrievals so far."""
        return len(self.flags)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CrossCheckDetector(window={self.window}, "
                f"checks={self.checks}, flags={self.flag_count})")
