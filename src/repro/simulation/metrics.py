"""The time-series collector of the simulation harness (sampled ``p_t``)."""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["TimeSeries"]


class TimeSeries:
    """A sequence of ``(time, value)`` samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._samples and time < self._samples[-1][0]:
            raise ValueError("time series samples must be recorded in time order")
        self._samples.append((float(time), float(value)))

    def samples(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(self._samples)

    def values(self) -> Tuple[float, ...]:
        return tuple(value for _, value in self._samples)

    def times(self) -> Tuple[float, ...]:
        return tuple(time for time, _ in self._samples)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot (used by the execution-layer run cache)."""
        return {"name": self.name,
                "samples": [[time, value] for time, value in self._samples]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TimeSeries":
        """Rebuild a series recorded by :meth:`to_dict`."""
        series = cls(str(payload.get("name", "")))
        for time, value in payload.get("samples", []):
            series.record(float(time), float(value))
        return series

    def __len__(self) -> int:
        return len(self._samples)
