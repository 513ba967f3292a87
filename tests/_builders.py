"""Shared construction helpers for the test suite."""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from importlib import resources

import numpy as np

from rakelgen.domain import (
    Dataset,
    FactorId,
    ReferenceType,
    Template,
    TemplateRegistry,
)
from rakelgen.evaluation import EvalOptions, train_method
from rakelgen.mlc import TrainedModel
from rakelgen.tree import DecisionTree, TreeConfig, descend, train_trees

# A constant baseline value that is legal for every factor's units
# (marks 0..100, hours >= 0, Likert 1..5, counts >= 0).
FILL = 3.0


def make_record(
    student_id: str = "s000",
    weeks: int = 4,
    series: dict | None = None,
    labels: Iterable[int] | None = None,
    fill: float = FILL,
) -> tuple:
    """A ``(student_id, series, expert_labels)`` record triple with constant
    series, overriding selected factors (keyed by ``FactorId`` or factor
    name); the series is a (9, W) float array, which ``Dataset`` checks."""
    rows = [[float(fill)] * weeks for _ in FactorId]
    for key, values in (series or {}).items():
        factor = key if isinstance(key, FactorId) else FactorId.from_key(key)
        rows[factor - 1] = [float(v) for v in values]
    expert = None if labels is None else frozenset(labels)
    return student_id, np.array(rows, dtype=float), expert


def marks_record(
    student_id: str,
    marks: Sequence[float] | float,
    labels: Iterable[int] | None,
    weeks: int = 4,
) -> tuple:
    """Record whose only varying factor is marks; a scalar means a flat series."""
    if isinstance(marks, (int, float)):
        marks = [float(marks)] * weeks
    return make_record(
        student_id=student_id,
        weeks=weeks,
        series={FactorId.MARKS: marks},
        labels=labels,
    )


def marks_dataset(
    registry: TemplateRegistry,
    rows: Sequence[tuple[Sequence[float] | float, Iterable[int] | None]],
    weeks: int = 4,
) -> Dataset:
    """Dataset of marks-only records: rows of (marks series or flat value, labels)."""
    records = tuple(
        marks_record(f"s{i:03d}", marks, labels, weeks=weeks)
        for i, (marks, labels) in enumerate(rows)
    )
    return Dataset(registry, records)


def template_for(
    registry: TemplateRegistry, factor: FactorId, reference: ReferenceType
) -> Template | None:
    """The registry's template for a (factor, reference) pair, or None."""
    for template in registry.templates:
        if (template.factor, template.reference) == (factor, reference):
            return template
    return None


def synth_config_dict(**overrides) -> dict:
    """The packaged synthesis config file's JSON object, with the given
    top-level fields replaced."""
    path = resources.files("rakelgen.data").joinpath("default_synth_config.json")
    return json.loads(path.read_text(encoding="utf-8")) | overrides


def tiny_registry(n_labels: int, version: str = "tiny") -> TemplateRegistry:
    """Registry of n_labels slot-free templates with ids 1..n_labels.

    Pairs are assigned (factor, reference) in a fixed grid so they stay unique.
    """
    references = list(ReferenceType)
    templates = []
    for i in range(n_labels):
        factor = list(FactorId)[i % 9]
        reference = references[(i // 9) % len(references)]
        templates.append(
            Template(
                id=i + 1,
                factor=factor,
                reference=reference,
                surface_text=f"Plain sentence number {i + 1}.",
            )
        )
    return TemplateRegistry(templates=tuple(templates), version=version)


def train(method: str, ds: Dataset, **options) -> TrainedModel:
    """``method`` trained on ds by ``train_method``, with ``EvalOptions(**options)``."""
    return train_method(method, ds, EvalOptions(**options))


def fit_tree(X, y, cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """One tree grown on feature rows X and integer labels y."""
    return train_trees(X, [y], cfg)[0]


def leaf_label(tree: DecisionTree, x) -> int:
    """The label of the leaf one feature row x reaches in a one-root tree."""
    return int(tree.label[descend(tree, np.asarray(x, dtype=float)[None])[0, 0]])


def dataset_rows(ds: Dataset, rows: Sequence[int]) -> Dataset:
    """The dataset of the given row indices of ds, in that order."""
    rows = list(rows)
    return Dataset.from_series(
        ds.registry,
        [ds.student_ids[i] for i in rows],
        ds.series[rows],
        [ds.expert_labels[i] for i in rows],
    )
