"""Differential tests of the chunked generator against the per-student loop.

``generate_dataset`` draws a chunk of students' normals in one call and
quantizes and labels the chunk with array arithmetic. It must give the
cohort that ``_reference_synth`` builds one student at a time, bit for bit,
whatever the chunk boundaries, and hold no more than one chunk's arrays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_synth
from _builders import dataset_rows
from _reference_features import _sum
from _reference_synth import (
    reference_annotate,
    reference_decide_reference,
    reference_generate_dataset,
)
from rakelgen import synth
from rakelgen.cli import main
from rakelgen.domain import (
    FactorId,
    ReferenceType,
    TemplateRegistry,
    default_registry,
    load_dataset,
    save_dataset,
)
from rakelgen.synth import (
    CHUNK_STUDENTS,
    RULE_ORDER,
    PolicyThresholds,
    _annotate,
    _factor_templates,
    _rule_picks,
    achieved_correlations,
    default_synth_config,
    generate_dataset,
    pearson,
)


def _assert_matches_reference(config, registry):
    ds = generate_dataset(config, registry)
    _assert_same_cohort(ds, reference_generate_dataset(config, registry))


def _assert_same_cohort(ds, ref):
    assert ds.student_ids == ref.student_ids
    assert ds.expert_labels == ref.expert_labels
    # tobytes tells -0.0 from 0.0 and every last bit
    assert ds.series.tobytes() == ref.series.tobytes()
    assert ds == ref


def _zero_std(config, name):
    """``config`` with ``name`` ("trend_std" or "noise_std") 0 for every factor."""
    factors = {f: dataclasses.replace(p, **{name: 0.0}) for f, p in config.factors.items()}
    return dataclasses.replace(config, factors=factors)


@pytest.mark.parametrize("n", [CHUNK_STUDENTS - 1, CHUNK_STUDENTS, CHUNK_STUDENTS + 1])
@pytest.mark.parametrize("weeks", [2, 10])
def test_chunk_boundaries_match_reference(registry, n, weeks):
    config = default_synth_config(n_students=n, weeks=weeks, seed=11)
    assert config.correlation_pairs  # the packaged pair shapes the latent draw
    _assert_matches_reference(config, registry)


@pytest.mark.parametrize("name", ["trend_std", "noise_std"])
def test_zero_std_still_consumes_draws(registry, name):
    config = _zero_std(default_synth_config(n_students=CHUNK_STUDENTS + 3, seed=2), name)
    _assert_matches_reference(config, registry)


def test_expert_noise_matches_reference(registry):
    config = default_synth_config(
        n_students=CHUNK_STUDENTS + 40, seed=5, expert_noise=0.2, expert_count=3
    )
    _assert_matches_reference(config, registry)


def test_missing_templates_fall_through_as_reference(registry):
    """With no trend or notable-week template, the policy falls to later rules."""
    early = (ReferenceType.TREND, ReferenceType.WEEKS)
    kept = tuple(
        t for t in registry.templates if t.reference not in early or t.factor == FactorId.MARKS
    )
    partial = TemplateRegistry(templates=kept, version="partial")
    config = default_synth_config(
        n_students=300, weeks=3, seed=8, expert_noise=0.3, expert_count=2
    )
    _assert_matches_reference(config, partial)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    chunk=st.integers(1, 9),
    weeks=st.integers(2, 6),
    noise=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    experts=st.integers(1, 4),
)
def test_any_chunk_size_matches_reference(seed, n, chunk, weeks, noise, experts):
    registry = default_registry()
    config = default_synth_config(
        n_students=n, weeks=weeks, seed=seed, expert_noise=noise, expert_count=experts
    )
    with mock.patch.object(synth, "CHUNK_STUDENTS", chunk):
        ds = generate_dataset(config, registry)
    _assert_same_cohort(ds, reference_generate_dataset(config, registry))


def test_one_row_annotation_equals_batch(registry):
    """A record annotated alone, with or without noise, gets the labels the
    chunk gives it and the reference's."""
    config = default_synth_config(n_students=60, seed=3, expert_noise=0.4, expert_count=3)
    ds = generate_dataset(config, registry)
    quiet = dataclasses.replace(config, expert_noise=0.0)
    templates = _factor_templates(registry)
    for i, (_, series, labels) in enumerate(ds.records):
        alone = ds.series[i : i + 1]
        assert _annotate(alone, templates, config, i) == [labels]
        assert _annotate(alone, templates, config, i) == [
            reference_annotate(series, registry, config, i)
        ]
        assert _annotate(alone, templates, quiet, i) == [
            reference_annotate(series, registry, quiet)
        ]


series_values = st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: round(v, 1))


@given(
    series=st.integers(2, 12).flatmap(
        lambda w: st.lists(series_values, min_size=w, max_size=w).map(tuple)
    ),
    available=st.sets(st.sampled_from(list(ReferenceType))),
)
def test_decide_reference_matches_reference(series, available):
    thresholds = PolicyThresholds(
        slope=0.5, spread=4.0, avg_low=2.0, avg_high=8.0, other_low=3.0, other_high=7.0
    )
    expected = reference_decide_reference(series, thresholds, available)
    pick = len(RULE_ORDER) if expected is None else RULE_ORDER.index(expected)
    assert _rule_picks(np.array([series]), thresholds, available).tolist() == [pick]


@pytest.mark.parametrize("seed", range(3))
def test_latent_draw_is_per_student(registry, monkeypatch, seed):
    """Without quantization every value shows the latent draw's last bit:
    ``chol @ z`` per student, which a matrix product over the chunk can round
    differently."""
    for module in (synth, _reference_synth):
        monkeypatch.setattr(module, "_quantize", lambda values, factor: values)
    config = default_synth_config(n_students=600, seed=seed)
    ref = reference_generate_dataset(config, registry)
    assert generate_dataset(config, registry).series.tobytes() == ref.series.tobytes()


def test_achieved_correlations_match_per_record_means(registry):
    config = default_synth_config(n_students=2 * CHUNK_STUDENTS + 5, seed=6)
    ds = generate_dataset(config, registry)
    pairs = config.correlation_pairs
    means = {
        factor: [_sum(series[factor - 1].tolist()) / ds.weeks for series in ds.series]
        for factor in FactorId
    }
    expected = [(a.key, b.key, r, pearson(means[a], means[b])) for a, b, r in pairs]
    assert achieved_correlations(ds, pairs) == expected


def test_generate_golden_digest(tmp_path, capsys):
    """The output file of one noisy multi-expert cohort, pinned before the
    generator was chunked."""
    out = tmp_path / "cohort.jsonl"
    argv = ["generate", "--out", str(out), "--count", "300", "--seed", "1",
            "--expert-noise", "0.2", "--experts", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"wrote 300 records to {out}\n"
        "correlation lectures_attended/understandability: target 0.6, achieved 0.571\n"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bcb6772b8751e143fc95df7d421b05ba7494c7def2a0dfc230316c3d142696b0"
    )


def test_transient_memory_is_one_chunk(registry):
    """Beyond the dataset it returns, generation holds about one chunk's
    arrays (0.4 MB at 256 students of 10 weeks); the arrays of a whole
    5,000-student cohort at once would take over 7 MB. The dataset itself is
    its 3.6 MB stack and the ids and labels; records of float tuples took
    over 20 MB."""
    generate_dataset(default_synth_config(n_students=3, seed=4), registry)  # warm caches
    tracemalloc.start()
    try:
        ds = generate_dataset(default_synth_config(n_students=5000, seed=4), registry)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 5000
    assert peak - kept < 2 * 2**20
    assert kept < 8 * 2**20


def test_records_of_a_loaded_cohort_are_views(registry, tmp_path):
    """``records`` of a loaded 5,000-student dataset copies no series: its
    records are row views of the stack (float tuples took over 20 MB)."""
    path = tmp_path / "cohort.jsonl"
    save_dataset(generate_dataset(default_synth_config(n_students=5000, seed=4), registry), path)
    ds = load_dataset(path, registry)
    dataset_rows(ds, [0]).records  # warm caches
    tracemalloc.start()
    try:
        records = ds.records
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 5000
    assert np.shares_memory(records[-1][1], ds.series)
    assert peak < 6 * 2**20
