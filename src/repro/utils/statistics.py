"""Lightweight counters and derived statistics for simulator components.

Every component (cache, controller, core, energy model) keeps a
:class:`StatGroup` so the harness can dump a uniform, named set of
counters per run without each component inventing its own reporting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


class StatGroup:
    """A named group of integer counters with safe ratio helpers.

    The counters live in a plain ``dict``: ``add`` runs on every
    simulated access, and a ``Counter`` costs over twice as much per
    increment. A key exists once it has been added to (even by 0);
    reads never create one.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: dict[str, int] = {}

    def add(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        counters = self._counters
        counters[key] = counters.get(key, 0) + amount

    def get(self, key: str) -> int:
        """Current value of counter ``key`` (0 if never incremented)."""
        return self._counters.get(key, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` as a float; 0.0 when denominator is 0."""
        denom = self._counters.get(denominator, 0)
        if denom == 0:
            return 0.0
        return self._counters.get(numerator, 0) / denom

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all counters, sorted by name."""
        return dict(sorted(self._counters.items()))

    def merge(self, other: "StatGroup") -> None:
        """Fold another group's counters into this one."""
        for key, amount in other._counters.items():
            self.add(key, amount)

    def reset(self) -> None:
        """Zero all counters."""
        self._counters.clear()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatGroup({self.name}: {body})"


@dataclass
class Histogram:
    """A tiny integer histogram, used e.g. for queueing-delay profiles."""

    bucket_width: int = 1
    _buckets: Counter[int] = field(default_factory=Counter)
    _count: int = 0
    _total: int = 0
    _maximum: int | None = None

    def observe(self, value: int) -> None:
        """Record one observation.

        Only ``int`` values are accepted: a float would silently create
        fractional bucket keys (``value // bucket_width`` stays a float)
        that never merge with their integer neighbours.
        """
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(
                f"Histogram.observe expects an int, got "
                f"{type(value).__name__}: {value!r}"
            )
        self._buckets[value // self.bucket_width] += 1
        self._count += 1
        self._total += value
        if self._maximum is None or value > self._maximum:
            self._maximum = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Exact: buckets, count and total add, and the larger maximum
        wins, so the merged mean and maximum equal those of observing
        every value into one histogram.
        """
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"cannot merge a histogram of bucket width "
                f"{other.bucket_width} into one of width {self.bucket_width}"
            )
        self._buckets.update(other._buckets)
        self._count += other._count
        self._total += other._total
        if other._maximum is not None and (
            self._maximum is None or other._maximum > self._maximum
        ):
            self._maximum = other._maximum

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def maximum(self) -> int:
        """Largest observed value (0 when nothing has been observed)."""
        return self._maximum if self._maximum is not None else 0

    def summary(self) -> dict:
        """JSON-able digest: count, mean, maximum, and bucket counts."""
        return {
            "count": self._count,
            "mean": self.mean,
            "maximum": self.maximum,
            "bucket_width": self.bucket_width,
            "buckets": {str(k): v for k, v in self.buckets().items()},
        }

    def buckets(self) -> dict[int, int]:
        """Mapping of bucket lower bound -> observation count."""
        return {
            bucket * self.bucket_width: count
            for bucket, count in sorted(self._buckets.items())
        }


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (speedup summaries)."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
        product *= value
    return product ** (1.0 / len(values))
