"""Reference feature extraction: the per-record code `features.feature_matrix` replaced.

It builds one record's features with ``min`` and ``max`` over Python floats and
sums them one value at a time from 0, which is what builtin ``sum`` does on
Python 3.11. The sums are spelled out because ``sum`` compensates rounding
from Python 3.12 on. It stays here as the oracle that the differential tests
compare the matrix path against, bit for bit.
"""

from __future__ import annotations

from rakelgen.domain import FactorId, StudentRecord


def _sum(values) -> float:
    total = 0
    for v in values:
        total += v
    return total


def reference_ols_slope(values) -> float:
    """Least-squares slope of values against week index 1..W (0.0 for W == 1)."""
    n = len(values)
    if n == 1:
        return 0.0
    x_mean = (n + 1) / 2.0
    y_mean = _sum(values) / n
    num = _sum((i + 1 - x_mean) * (v - y_mean) for i, v in enumerate(values))
    den = _sum((i + 1 - x_mean) ** 2 for i in range(n))
    return num / den


def reference_features(record: StudentRecord, mode: str = "both") -> tuple[float, ...]:
    """Feature values of one record, in schema order."""
    values: list[float] = []
    for factor in FactorId:
        series = record.series[factor - 1].tolist()
        if mode in ("derived", "both"):
            values.append(_sum(series) / len(series))
            values.append(reference_ols_slope(series))
            values.append(min(series))
            values.append(max(series))
            values.append(series[-1])
        if mode in ("raw", "both"):
            values.extend(series)
    return tuple(values)
