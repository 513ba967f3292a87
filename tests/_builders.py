"""Shared construction helpers for the test suite."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from rakelgen.domain import (
    Dataset,
    FactorId,
    ReferenceType,
    StudentRecord,
    Template,
    TemplateRegistry,
)
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
) -> StudentRecord:
    """Build a record with constant series, overriding selected factors
    (keyed by ``FactorId`` or factor name)."""
    rows = [[float(fill)] * weeks for _ in FactorId]
    for key, values in (series or {}).items():
        factor = key if isinstance(key, FactorId) else FactorId.from_key(key)
        rows[factor - 1] = [float(v) for v in values]
    expert = None if labels is None else frozenset(labels)
    return StudentRecord(student_id=student_id, series=rows, expert_labels=expert)


def marks_record(
    student_id: str,
    marks: Sequence[float] | float,
    labels: Iterable[int] | None,
    weeks: int = 4,
) -> StudentRecord:
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


def fit_tree(X, y, cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """One tree grown on feature rows X and integer labels y."""
    return train_trees(X, [y], cfg)[0]


def leaf_label(tree: DecisionTree, x) -> int:
    """The label of the leaf one feature row x reaches in a one-root tree."""
    return int(tree.label[descend(tree, np.asarray(x, dtype=float)[None])[0, 0]])
