"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.obs.metrics import percentile


@dataclass
class Summary:
    count: int
    mean: float
    stddev: float
    minimum: float
    p50: float
    p99: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"n={self.count} mean={self.mean:.2f} sd={self.stddev:.2f} "
                f"min={self.minimum:.2f} p50={self.p50:.2f} "
                f"p99={self.p99:.2f} max={self.maximum:.2f}")


def summarize(samples: Sequence[float]) -> Summary:
    """Full summary of a sample list (empty lists allowed)."""
    if not samples:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(samples)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((x - mean) ** 2 for x in ordered) / max(1, n - 1)
    return Summary(
        count=n,
        mean=mean,
        stddev=math.sqrt(variance),
        minimum=ordered[0],
        p50=percentile(ordered, 50),
        p99=percentile(ordered, 99),
        maximum=ordered[-1],
    )
