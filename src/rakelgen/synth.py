"""Synthetic student cohorts with rule-based expert annotations.

Each student gets one latent level per factor, drawn from a joint Gaussian
whose correlation matrix is assembled from configured factor pairs. Weekly
values add a per-student linear trend (centered, so it never shifts the
weekly mean) and independent noise, then are clipped and quantized to the
factor's units.

Labels come from a deterministic threshold policy applied per factor to the
stored series, in fixed priority order: a strong trend first, then a wide
week-to-week spread, then an extreme average, then a moderate deviation.
Each rule is skipped when the registry has no template for that factor and
reference type. An optional noise rate redraws individual factor decisions
uniformly, emulating disagreeing annotators.
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
    StudentRecord,
    TemplateRegistry,
    read_json,
)
from .errors import ValidationError
from .features import ols_slope

N_FACTORS = len(FactorId)

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


def decide_reference(
    series: tuple[float, ...],
    thresholds: PolicyThresholds,
    available: Set[ReferenceType],
) -> ReferenceType | None:
    """First rule that fires and has a template available, else None."""
    slope = ols_slope(series)
    spread = max(series) - min(series)
    mean = sum(series) / len(series)
    fired = {
        ReferenceType.TREND: abs(slope) > thresholds.slope,
        ReferenceType.WEEKS: spread > thresholds.spread,
        ReferenceType.AVERAGE: mean < thresholds.avg_low or mean > thresholds.avg_high,
        ReferenceType.OTHER: mean < thresholds.other_low or mean > thresholds.other_high,
    }
    for reference in RULE_ORDER:
        if fired[reference] and reference in available:
            return reference
    return None


def policy_labels(
    record: StudentRecord, registry: TemplateRegistry, config: SynthConfig
) -> frozenset[int]:
    """Noiseless annotation: the policy decision per factor, as template ids."""
    return _annotate(record.series, _factor_templates(registry), config)


def label_record(
    record: StudentRecord,
    record_index: int,
    registry: TemplateRegistry,
    config: SynthConfig,
) -> frozenset[int]:
    """Annotation by expert ``record_index % expert_count``: the policy
    decision per factor, each independently redrawn uniformly (template or
    no-template) with probability ``expert_noise``."""
    return _annotate(record.series, _factor_templates(registry), config, record_index)


def _factor_templates(registry: TemplateRegistry) -> dict[FactorId, dict[ReferenceType, int]]:
    """Per factor, its template ids by reference type, in registry order."""
    return {
        factor: {t.reference: t.id for t in registry.templates if t.factor == factor}
        for factor in FactorId
    }


def _annotate(
    series: dict[FactorId, tuple[float, ...]],
    templates: dict[FactorId, dict[ReferenceType, int]],
    config: SynthConfig,
    record_index: int | None = None,
) -> frozenset[int]:
    """``label_record`` of a record's series, or ``policy_labels`` without a
    record index; ``templates`` is ``_factor_templates`` of the registry."""
    rng = None
    if record_index is not None and config.expert_noise > 0.0:
        expert_index = record_index % config.expert_count
        rng = random.Random(config.seed * 1_000_003 + expert_index * 9973 + record_index)
    chosen = []
    for factor in FactorId:
        ids = templates[factor]
        pick = ids.get(decide_reference(series[factor], config.policy[factor], ids.keys()))
        if rng is not None and rng.random() < config.expert_noise:
            pick = rng.choice([*ids.values(), None])
        if pick is not None:
            chosen.append(pick)
    return frozenset(chosen)


def generate_dataset(config: SynthConfig, registry: TemplateRegistry) -> Dataset:
    """Deterministic cohort for (config, registry): series then labels."""
    matrix = build_correlation_matrix(config.correlation_pairs)
    chol = _cholesky_or_error(matrix, config.correlation_pairs)
    rng = np.random.default_rng(config.seed)
    weeks = config.weeks
    offsets = np.arange(1, weeks + 1) - (weeks + 1) / 2.0
    templates = _factor_templates(registry)
    records = []
    for i in range(config.n_students):
        latent = chol @ rng.standard_normal(N_FACTORS)
        series = {}
        for j, factor in enumerate(FactorId):
            params = config.factors[factor]
            level = params.mean + params.std * latent[j]
            slope = rng.normal(0.0, params.trend_std)
            noise = rng.normal(0.0, params.noise_std, weeks)
            values = _quantize(level + slope * offsets + noise, factor)
            series[factor] = tuple(values.tolist())
        labels = _annotate(series, templates, config, i)
        records.append(StudentRecord(f"s{i:04d}", weeks, series, labels))
    return Dataset(registry=registry, records=records)


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
) -> list[tuple[str, str, float, float]]:
    """(factor_a, factor_b, target, achieved) per configured pair, where
    achieved correlates the per-student series means across the cohort."""
    means = {
        factor: [sum(r.series[factor]) / r.weeks for r in ds.records]
        for factor in FactorId
    }
    return [
        (a.key, b.key, r, pearson(means[a], means[b])) for a, b, r in pairs
    ]


def config_to_dict(config: SynthConfig) -> dict:
    return {
        "n_students": config.n_students,
        "weeks": config.weeks,
        "seed": config.seed,
        "expert_noise": config.expert_noise,
        "expert_count": config.expert_count,
        "correlation_pairs": [
            [a.key, b.key, r] for a, b, r in config.correlation_pairs
        ],
        "factors": {
            f.key: {
                "mean": p.mean,
                "std": p.std,
                "noise_std": p.noise_std,
                "trend_std": p.trend_std,
            }
            for f, p in config.factors.items()
        },
        "policy": {
            f.key: {
                "slope": t.slope,
                "spread": t.spread,
                "avg_low": t.avg_low,
                "avg_high": t.avg_high,
                "other_low": t.other_low,
                "other_high": t.other_high,
            }
            for f, t in config.policy.items()
        },
    }


def config_from_dict(data: dict) -> SynthConfig:
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
        return SynthConfig(
            n_students=int(data.get("n_students", 100)),
            weeks=int(data.get("weeks", 10)),
            seed=int(data.get("seed", 0)),
            expert_noise=float(data.get("expert_noise", 0.0)),
            expert_count=int(data.get("expert_count", 1)),
            correlation_pairs=pairs,
            factors=factors,
            policy=policy,
        )
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
    fields (n_students, weeks, seed, expert_noise, expert_count)."""
    text = (
        resources.files("rakelgen.data")
        .joinpath("default_synth_config.json")
        .read_text(encoding="utf-8")
    )
    data = json.loads(text)
    allowed = {"n_students", "weeks", "seed", "expert_noise", "expert_count"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ValidationError(f"unknown synth config overrides: {sorted(unknown)}")
    data.update(overrides)
    return config_from_dict(data)
