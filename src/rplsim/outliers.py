"""Quartiles and the upper Tukey fence used by the DIO-count outlier detector.

Quartiles follow the classic Tukey convention: the sample is sorted, the
median is the middle value (mean of the two middle values for even length),
and Q1/Q3 are the medians of the lower and upper halves with the overall
median excluded from both halves when the length is odd.  The upper fence is
``Q3 + delta * IQR``; ``ids.check_malicious`` treats values strictly above it
as outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class QuartileSummary:
    """Median, quartiles, IQR and the upper fence for a given delta."""

    median: float
    q1: float
    q3: float
    iqr: float
    upper_limit: float


def _median_sorted(values: Sequence[float]) -> float:
    n = len(values)
    mid = n // 2
    if n % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def compute_quartiles(values: Iterable[float], delta: float = 1.0) -> QuartileSummary:
    """Compute median, quartiles, IQR and the upper Tukey fence of a sample.

    ``delta`` scales the fence (1.5 gives the classic Tukey rule).  Raises
    ``ValueError`` on an empty sample.  A single-element sample degenerates to
    median == Q1 == Q3 == value with IQR 0.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("empty sample")
    n = len(data)
    half = n // 2
    med = _median_sorted(data)
    if half == 0:
        q1 = q3 = med
    else:
        q1 = _median_sorted(data[:half])
        q3 = _median_sorted(data[n - half:])
    iqr = q3 - q1
    return QuartileSummary(
        median=med,
        q1=q1,
        q3=q3,
        iqr=iqr,
        upper_limit=q3 + delta * iqr,
    )

