"""Synthetic student cohorts with rule-based expert annotations.

Each student gets one latent level per factor, drawn from a joint Gaussian
whose correlation matrix is assembled from configured factor pairs. Weekly
values add a per-student linear trend (centered, so it never shifts the
weekly mean) and independent noise, then are clipped and quantized to the
factor's units.

The order of the standard normal draws is part of the output: per student, in
id order, 9 latent normals (factors in code order, multiplied by the Cholesky
factor one student at a time), then per factor in code order 1 trend-slope
normal and W weekly noise normals, 9 * (W + 2) in all. A normal of std ``s``
is ``0.0 + s * z`` of the standard draw ``z``, as ``Generator.normal`` forms
it, so a zero std still consumes its draw. ``generate_dataset`` draws
``CHUNK_STUDENTS`` students' normals in one call and works on the chunk with
array arithmetic, in place in the cohort's preallocated (n, 9, W) stack,
which becomes the dataset; the chunk size does not change the stream or any
value.

Labels come from a deterministic threshold policy applied per factor to the
stored series, in fixed priority order: a strong trend first, then a wide
week-to-week spread, then an extreme average, then a moderate deviation.
Each rule is skipped when the registry has no template for that factor and
reference type. Means and slopes are ``features.mean_and_slope``'s left to
right sums, the same on every Python version. An optional noise rate redraws
individual factor decisions uniformly, emulating disagreeing annotators.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Set
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .domain import (
    FACTOR_UNITS,
    Dataset,
    FactorId,
    ReferenceType,
    TemplateRegistry,
    read_json,
)
from .errors import ValidationError
from .features import mean_and_slope

#: The factors in code order (iterating the enum itself is slow in a hot loop).
FACTORS = tuple(FactorId)
N_FACTORS = len(FACTORS)

#: Students synthesized per pass of ``generate_dataset``. A chunk's arrays
#: take about 0.4 MB at 10 weeks, so they do not raise a caller's peak
#: memory; 128 or 512 students per chunk run no faster.
CHUNK_STUDENTS = 256

#: Decision order of the annotation policy.
RULE_ORDER = (
    ReferenceType.TREND,
    ReferenceType.WEEKS,
    ReferenceType.AVERAGE,
    ReferenceType.OTHER,
)


@dataclass(frozen=True)
class FactorParams:
    """Latent distribution of one factor: between-student mean and std, weekly
    noise std, and the std of the per-student trend slope."""

    mean: float
    std: float
    noise_std: float
    trend_std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValidationError("std must be positive")
        if self.noise_std < 0 or self.trend_std < 0:
            raise ValidationError("noise_std and trend_std must be non-negative")


@dataclass(frozen=True)
class PolicyThresholds:
    """Cutoffs for one factor's annotation rules.

    The trend rule fires on |slope| > slope; the weeks rule on
    max - min > spread; the average rule outside [avg_low, avg_high]; the
    fallback rule outside [other_low, other_high].
    """

    slope: float
    spread: float
    avg_low: float
    avg_high: float
    other_low: float
    other_high: float

    def __post_init__(self):
        if self.slope < 0 or self.spread < 0:
            raise ValidationError("slope and spread thresholds must be non-negative")
        if self.avg_low > self.avg_high:
            raise ValidationError("avg_low must not exceed avg_high")
        if self.other_low > self.other_high:
            raise ValidationError("other_low must not exceed other_high")


@dataclass(frozen=True)
class SynthConfig:
    n_students: int = 100
    weeks: int = 10
    seed: int = 0
    expert_noise: float = 0.0
    expert_count: int = 1
    correlation_pairs: tuple[tuple[FactorId, FactorId, float], ...] = ()
    factors: dict[FactorId, FactorParams] = field(default_factory=dict)
    policy: dict[FactorId, PolicyThresholds] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_students < 1:
            raise ValidationError("n_students must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.weeks < 2:
            raise ValidationError("weeks must be >= 2")
        if not 0.0 <= self.expert_noise < 1.0:
            raise ValidationError("expert_noise must be in [0, 1)")
        if self.expert_count < 1:
            raise ValidationError("expert_count must be >= 1")
        missing = [f.key for f in FactorId if f not in self.factors]
        if missing:
            raise ValidationError(f"missing factor params for: {missing}")
        missing = [f.key for f in FactorId if f not in self.policy]
        if missing:
            raise ValidationError(f"missing policy thresholds for: {missing}")
        for section, entries in (("factors", self.factors), ("policy", self.policy)):
            for factor, params in entries.items():
                for name, value in asdict(params).items():
                    if not math.isfinite(value):
                        raise ValidationError(
                            f"{section} {factor.key}: {name} must be finite, got {value}"
                        )


#: The scalar fields of ``SynthConfig``, each with the type a config file's
#: value is read as.
SCALAR_FIELDS = {
    "n_students": int,
    "weeks": int,
    "seed": int,
    "expert_noise": float,
    "expert_count": int,
}


def build_correlation_matrix(
    pairs: tuple[tuple[FactorId, FactorId, float], ...],
) -> np.ndarray:
    """Identity plus the configured symmetric off-diagonal entries."""
    matrix = np.eye(N_FACTORS)
    seen: set[frozenset[FactorId]] = set()
    for a, b, r in pairs:
        if a == b:
            raise ValidationError(f"correlation pair repeats factor {a.key}")
        key = frozenset((a, b))
        if key in seen:
            raise ValidationError(f"duplicate correlation pair {a.key}/{b.key}")
        seen.add(key)
        if not -1.0 < r < 1.0:
            raise ValidationError(f"correlation for {a.key}/{b.key} must be in (-1, 1)")
        matrix[a - 1, b - 1] = matrix[b - 1, a - 1] = r
    return matrix


def _cholesky_or_error(
    matrix: np.ndarray, pairs: tuple[tuple[FactorId, FactorId, float], ...]
) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        described = ", ".join(f"{a.key}/{b.key}={r}" for a, b, r in pairs)
        raise ValidationError(
            f"correlation matrix is not positive definite (pairs: {described})"
        ) from None


def _quantize(values: np.ndarray, factor: FactorId) -> np.ndarray:
    units = FACTOR_UNITS[factor]
    hi = np.inf if units.hi is None else units.hi
    values = np.clip(values, units.lo, hi)
    if units.integer:
        return np.rint(values)
    return np.round(values, 1)


def _rule_picks(
    S: np.ndarray, thresholds: PolicyThresholds, available: Set[ReferenceType]
) -> np.ndarray:
    """Per series of S (n, W), the position in ``RULE_ORDER`` of the first
    rule that fires and has a template available, ``len(RULE_ORDER)`` if none."""
    mean, slope = mean_and_slope(S)
    spread = S.max(axis=-1) - S.min(axis=-1)
    fired = (
        np.abs(slope) > thresholds.slope,
        spread > thresholds.spread,
        (mean < thresholds.avg_low) | (mean > thresholds.avg_high),
        (mean < thresholds.other_low) | (mean > thresholds.other_high),
    )
    picks = np.full(len(S), len(RULE_ORDER))
    for position in reversed(range(len(RULE_ORDER))):
        if RULE_ORDER[position] in available:
            picks[fired[position]] = position
    return picks


def _factor_templates(registry: TemplateRegistry) -> dict[FactorId, dict[ReferenceType, int]]:
    """Per factor, its template ids by reference type, in registry order."""
    return {
        factor: {t.reference: t.id for t in registry.templates if t.factor == factor}
        for factor in FactorId
    }


def _annotate(
    S: np.ndarray,
    templates: dict[FactorId, dict[ReferenceType, int]],
    config: SynthConfig,
    first_index: int,
) -> list[frozenset[int]]:
    """Labels of the records whose series are the (n, 9, W) stack S, row i
    annotated as record ``first_index + i`` by expert ``(first_index + i) %
    expert_count``: the policy decision per factor, each independently
    redrawn uniformly (template or no template) with probability
    ``expert_noise``. ``templates`` is ``_factor_templates`` of the registry."""
    columns = []
    for j, factor in enumerate(FACTORS):
        ids = templates[factor]
        by_position = [ids.get(reference) for reference in RULE_ORDER] + [None]
        picks = _rule_picks(S[:, j], config.policy[factor], ids.keys())
        columns.append([by_position[pick] for pick in picks.tolist()])
    redraws = [[*templates[factor].values(), None] for factor in FACTORS]
    labels = []
    for i, row in enumerate(zip(*columns), first_index):
        if config.expert_noise > 0.0:
            expert_index = i % config.expert_count
            rng = random.Random(config.seed * 1_000_003 + expert_index * 9973 + i)
            row = [
                rng.choice(options) if rng.random() < config.expert_noise else pick
                for options, pick in zip(redraws, row)
            ]
        labels.append(frozenset(pick for pick in row if pick is not None))
    return labels


def generate_dataset(config: SynthConfig, registry: TemplateRegistry) -> Dataset:
    """Deterministic cohort for (config, registry): series then labels,
    ``CHUNK_STUDENTS`` students at a time."""
    matrix = build_correlation_matrix(config.correlation_pairs)
    chol = _cholesky_or_error(matrix, config.correlation_pairs)
    rng = np.random.default_rng(config.seed)
    weeks = config.weeks
    offsets = np.arange(1, weeks + 1) - (weeks + 1) / 2.0
    params = [config.factors[factor] for factor in FACTORS]
    mean = np.array([p.mean for p in params])
    std = np.array([p.std for p in params])
    trend_std = np.array([p.trend_std for p in params])
    noise_std = np.array([[p.noise_std] for p in params])
    templates = _factor_templates(registry)
    series = np.empty((config.n_students, N_FACTORS, weeks))
    labels = []
    for first in range(0, config.n_students, CHUNK_STUDENTS):
        n = min(CHUNK_STUDENTS, config.n_students - first)
        Z = rng.standard_normal((n, N_FACTORS * (weeks + 2)))
        # One matrix-vector product per student, as when drawn one by one: a
        # matrix product over the chunk may sum in another order.
        latent = np.array([chol @ z for z in Z[:, :N_FACTORS]])
        draws = Z[:, N_FACTORS:].reshape(n, N_FACTORS, weeks + 1)
        level = mean + std * latent
        slope = 0.0 + trend_std * draws[:, :, 0]
        # Built in place in the cohort's stack, so that a chunk holds no
        # (n, 9, W) array beside its draws.
        S = series[first : first + n]
        np.add(level[:, :, None], slope[:, :, None] * offsets, out=S)
        S += 0.0 + noise_std * draws[:, :, 1:]
        for j, factor in enumerate(FACTORS):
            S[:, j] = _quantize(S[:, j], factor)
        labels += _annotate(S, templates, config, first)
    student_ids = [f"s{i:04d}" for i in range(config.n_students)]
    return Dataset.from_series(registry, student_ids, series, labels)


def pearson(xs, ys) -> float:
    """Sample correlation coefficient of two equal-length sequences."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValidationError("pearson needs two equal-length 1-D sequences")
    if xs.size < 2:
        raise ValidationError("pearson needs at least 2 points")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValidationError("pearson is undefined for a zero-variance sequence")
    return float((dx * dy).sum() / (sx * sy))


def achieved_correlations(
    ds: Dataset, pairs: tuple[tuple[FactorId, FactorId, float], ...]
) -> list[tuple[str, str, float, float | None]]:
    """(factor_a, factor_b, target, achieved) per configured pair, where
    achieved correlates the per-student series means across the cohort. It is
    None where ``pearson`` finds it undefined: fewer than 2 students, or a
    factor mean of zero variance."""
    means = mean_and_slope(ds.series)[0]

    def achieved(a: FactorId, b: FactorId) -> float | None:
        try:
            return pearson(means[:, a - 1], means[:, b - 1])
        except ValidationError:
            return None

    return [(a.key, b.key, r, achieved(a, b)) for a, b, r in pairs]


def config_to_dict(config: SynthConfig) -> dict:
    return {name: getattr(config, name) for name in SCALAR_FIELDS} | {
        "correlation_pairs": [[a.key, b.key, r] for a, b, r in config.correlation_pairs],
        "factors": {f.key: asdict(p) for f, p in config.factors.items()},
        "policy": {f.key: asdict(t) for f, t in config.policy.items()},
    }


def config_from_dict(data: dict) -> SynthConfig:
    """A config from ``config_to_dict`` output; a missing field takes
    ``SynthConfig``'s default. The pairs, factors and policy are read before
    the scalar fields, so their errors win."""
    if not isinstance(data, dict):
        raise ValidationError("synth config must be a JSON object")
    try:
        factors = {
            FactorId.from_key(key): FactorParams(**params)
            for key, params in data.get("factors", {}).items()
        }
        policy = {
            FactorId.from_key(key): PolicyThresholds(**thresholds)
            for key, thresholds in data.get("policy", {}).items()
        }
        pairs = tuple(
            (FactorId.from_key(a), FactorId.from_key(b), float(r))
            for a, b, r in data.get("correlation_pairs", [])
        )
        scalars = {name: kind(data[name]) for name, kind in SCALAR_FIELDS.items() if name in data}
        return SynthConfig(**scalars, correlation_pairs=pairs, factors=factors, policy=policy)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed synth config: {exc}") from exc


def load_synth_config(path: str | Path) -> SynthConfig:
    return config_from_dict(read_json(path))


def save_synth_config(config: SynthConfig, path: str | Path) -> None:
    payload = json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(payload, encoding="utf-8")


def default_synth_config(**overrides) -> SynthConfig:
    """The packaged configuration, with keyword overrides for its scalar
    fields (``SCALAR_FIELDS``)."""
    text = (
        resources.files("rakelgen.data")
        .joinpath("default_synth_config.json")
        .read_text(encoding="utf-8")
    )
    data = json.loads(text)
    unknown = set(overrides) - set(SCALAR_FIELDS)
    if unknown:
        raise ValidationError(f"unknown synth config overrides: {sorted(unknown)}")
    data.update(overrides)
    return config_from_dict(data)
