"""Reference synthesis: the per-student loop `synth.generate_dataset` replaced.

It draws each student's normals one call at a time (9 latent normals, then per
factor one slope normal and W noise normals), quantizes each factor's series
on its own and decides each factor's label with Python scalars. The sums are
spelled out left to right (``_reference_features``), because ``sum``
compensates rounding from Python 3.12 on. It stays here as the oracle that the
differential tests compare the chunked generator against, bit for bit.
"""

from __future__ import annotations

import random

import numpy as np
from _reference_features import _sum, reference_ols_slope

from rakelgen.domain import FACTOR_UNITS, Dataset, FactorId, ReferenceType
from rakelgen.synth import N_FACTORS, RULE_ORDER, _cholesky_or_error, build_correlation_matrix


def _quantize(values, factor):
    units = FACTOR_UNITS[factor]
    hi = np.inf if units.hi is None else units.hi
    values = np.clip(values, units.lo, hi)
    if units.integer:
        return np.rint(values)
    return np.round(values, 1)


def reference_decide_reference(series, thresholds, available):
    slope = reference_ols_slope(series)
    spread = max(series) - min(series)
    mean = _sum(series) / len(series)
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


def _factor_templates(registry):
    return {
        factor: {t.reference: t.id for t in registry.templates if t.factor == factor}
        for factor in FactorId
    }


def reference_annotate(series, registry, config, record_index=None):
    """The labels of one record's series (nine rows, row j factor j + 1) as
    record ``record_index`` of a cohort; without an index, the noiseless
    policy decision."""
    templates = _factor_templates(registry)
    rng = None
    if record_index is not None and config.expert_noise > 0.0:
        expert_index = record_index % config.expert_count
        rng = random.Random(config.seed * 1_000_003 + expert_index * 9973 + record_index)
    chosen = []
    for factor in FactorId:
        ids = templates[factor]
        values = [float(v) for v in series[factor - 1]]
        reference = reference_decide_reference(values, config.policy[factor], ids.keys())
        pick = ids.get(reference)
        if rng is not None and rng.random() < config.expert_noise:
            pick = rng.choice([*ids.values(), None])
        if pick is not None:
            chosen.append(pick)
    return frozenset(chosen)


def reference_generate_dataset(config, registry) -> Dataset:
    matrix = build_correlation_matrix(config.correlation_pairs)
    chol = _cholesky_or_error(matrix, config.correlation_pairs)
    rng = np.random.default_rng(config.seed)
    weeks = config.weeks
    offsets = np.arange(1, weeks + 1) - (weeks + 1) / 2.0
    records = []
    for i in range(config.n_students):
        latent = chol @ rng.standard_normal(N_FACTORS)
        series = []
        for j, factor in enumerate(FactorId):
            params = config.factors[factor]
            level = params.mean + params.std * latent[j]
            slope = rng.normal(0.0, params.trend_std)
            noise = rng.normal(0.0, params.noise_std, weeks)
            values = _quantize(level + slope * offsets + noise, factor)
            series.append(values.tolist())
        labels = reference_annotate(series, registry, config, i)
        records.append((f"s{i:04d}", series, labels))
    return Dataset(registry=registry, records=records)
