"""Feature extraction: turns a student's weekly series into a flat numeric vector.

Per factor the derived features are (mean, slope, min, max, last), followed by
the raw weekly values when raw mode is enabled. Factors appear in code order,
so the schema is fully determined by the week count and the mode.

``feature_matrix`` computes the features of a whole (n, 9, W) series stack at
once, one week column at a time. Sums run left to right in week order,
starting from the first week, as a plain Python ``sum`` over the series does
(Python 3.11 adds floats one by one). That order is part of the output: a
pairwise or compensated sum (``np.sum``, or ``sum`` from Python 3.12 on) can
round the mean and the slope differently in the last bit, and a tree threshold
can fall between the two. ``min`` and ``max`` keep the first of equal values,
as the builtins do. Rendering and the synthetic labeling policy use
``mean_and_slope`` too, so no mean or slope depends on the Python version.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .domain import FactorId
from .errors import ValidationError

DERIVED_FEATURES = ("mean", "slope", "min", "max", "last")
FEATURE_MODES = ("raw", "derived", "both")

#: Default |slope| below which a series counts as stable, in native units/week.
DEFAULT_TREND_TOLERANCE = 0.05


@lru_cache(maxsize=64)
def _week_offsets(weeks: int) -> tuple[tuple[float, ...], float]:
    """Week indices 1..W minus their mean, and the sum of their squares
    (multiples of 0.25, so the sum is exact in any order)."""
    x_mean = (weeks + 1) / 2.0
    offsets = tuple(i + 1 - x_mean for i in range(weeks))
    return offsets, sum(offset**2 for offset in offsets)


def feature_schema(weeks: int, mode: str = "both") -> tuple[tuple[FactorId, str], ...]:
    """The ordered (factor, feature-name) schema for a given week count and mode."""
    if mode not in FEATURE_MODES:
        raise ValidationError(f"unknown feature mode {mode!r}; expected one of {FEATURE_MODES}")
    schema = []
    for factor in FactorId:
        if mode in ("derived", "both"):
            schema.extend((factor, name) for name in DERIVED_FEATURES)
        if mode in ("raw", "both"):
            schema.extend((factor, f"week_{w}") for w in range(1, weeks + 1))
    return tuple(schema)


def feature_count(weeks: int, mode: str) -> int:
    """``len(feature_schema(weeks, mode))``, without building the schema."""
    per_factor = len(DERIVED_FEATURES) * (mode != "raw") + weeks * (mode != "derived")
    return len(FactorId) * per_factor


def feature_matrix(series: np.ndarray, mode: str = "both", ids=None) -> np.ndarray:
    """Feature rows of an (n, 9, W) series stack (``Dataset.series``), as an
    (n, d) array whose columns follow ``feature_schema(W, mode)``. Row i
    depends on ``series[i]`` alone.

    Finite values near the float limit can overflow a sum. A non-finite
    feature raises a ``ValidationError`` naming its factor and its record,
    ``ids[i]`` (row i if ``ids`` is None).
    """
    if mode not in FEATURE_MODES:
        raise ValidationError(f"unknown feature mode {mode!r}; expected one of {FEATURE_MODES}")
    S = series
    if not len(S):
        return np.empty((0, 0))
    blocks = []
    if mode in ("derived", "both"):
        low, high = S[..., 0], S[..., 0]
        for w in range(1, S.shape[-1]):
            low = np.where(S[..., w] < low, S[..., w], low)
            high = np.where(S[..., w] > high, S[..., w], high)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, slope = mean_and_slope(S)
        blocks.append(np.stack([mean, slope, low, high, S[..., -1]], axis=-1))
    if mode in ("raw", "both"):
        blocks.append(S)
    X = np.concatenate(blocks, axis=-1)  # (n, 9, features per factor)
    if not np.isfinite(X).all():
        row, factor = np.argwhere(~np.isfinite(X).all(axis=-1))[0].tolist()
        record = f"row {row}" if ids is None else f"record {ids[row]}"
        raise ValidationError(
            f"{record}: series {FactorId(factor + 1).key} gives non-finite features"
        )
    return X.reshape(len(S), -1)


def check_features(series: np.ndarray, mode: str, ids) -> None:
    """Raise the ``ValidationError`` that ``feature_matrix(series, mode, ids)``
    would raise, building features only for the records whose values could
    overflow a sum.

    With every |value| at most M and W weeks, the mean's partial sums stay
    within W M, and the slope's numerator adds W terms below W M (offsets
    below W / 2, deviations from the mean within 2 M) and is divided by at
    least 1/2, so the slope stays within 2 W^2 M. So M <= max / (4 W^2)
    overflows nothing.
    """
    bound = np.finfo(float).max / (4 * series.shape[-1] ** 2)
    rows = np.flatnonzero(
        (series.max(axis=(1, 2)) > bound) | (series.min(axis=(1, 2)) < -bound)
    )
    if rows.size:
        feature_matrix(series[rows], mode, [ids[i] for i in rows.tolist()])


def mean_and_slope(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and least-squares slope against week index 1..W of every series
    in S (..., W), each sum running left to right from the first week."""
    W = S.shape[-1]
    total = S[..., 0] + 0.0  # sum() starts from 0, so -0.0 becomes 0.0
    for w in range(1, W):
        total = total + S[..., w]
    mean = total / W
    if W == 1:
        return mean, np.zeros(S.shape[:-1])
    offsets, den = _week_offsets(W)
    num = offsets[0] * (S[..., 0] - mean) + 0.0
    for i in range(1, W):
        num = num + offsets[i] * (S[..., i] - mean)
    return mean, num / den


def trend_word(slope: float, tolerance: float = DEFAULT_TREND_TOLERANCE) -> str:
    """Map a slope to "increased" / "decreased" / "remained stable"."""
    if not tolerance >= 0:  # NaN fails this too
        raise ValidationError(f"trend tolerance must be >= 0, got {tolerance}")
    if abs(slope) <= tolerance:
        return "remained stable"
    return "increased" if slope > 0 else "decreased"
