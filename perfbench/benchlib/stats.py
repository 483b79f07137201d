"""Summary statistics with the benchmark's reporting rules.

Percentile rule: a tail percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so p95 needs 200 samples and p99
needs 1000.  The median is always reported (it is the centre, not a
tail).  Percentiles use linear interpolation between order statistics.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = [
    "MIN_BEYOND",
    "Tally",
    "mean",
    "percentile",
    "quartiles",
    "reportable",
]

#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10


def reportable(q: float, n: int) -> bool:
    """Whether percentile ``q`` (0-100) of ``n`` samples may be reported."""
    if n < 1:
        return False
    if q <= 50:
        return True
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9


def percentile(values: Iterable[float], q: float) -> float | None:
    """Percentile ``q`` of ``values``, or ``None`` when the rule forbids it."""
    data = sorted(values)
    n = len(data)
    if not reportable(q, n):
        return None
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics

    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q1, med, q3)


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


class Tally:
    """Attempted/failed bookkeeping for one timed phase.

    Every task the benchmark submits is attempted once.  It fails when
    the program answers with an error, a timeout or a refusal, or when
    the answer breaks the correctness gate; ``kinds`` counts each cause.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.kinds: dict[str, int] = {}
        self.examples: list[str] = []

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, kind: str, detail: str = "") -> None:
        """Count one attempted task whose outcome is ``kind`` (``"ok"`` or a cause)."""
        self.attempted += 1
        if kind == "ok":
            self.ok += 1
            return
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {detail}"[:300])

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        for kind, count in other.kinds.items():
            self.kinds[kind] = self.kinds.get(kind, 0) + count
        self.examples.extend(other.examples[: 5 - len(self.examples)])
