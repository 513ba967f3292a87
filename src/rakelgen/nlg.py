"""Turning selected templates into feedback text.

A predicted label vector may set several templates for the same factor; a
summary keeps at most one per factor (highest vote, ties broken by reference
type: trend, then weeks, then average, then the fallback). Kept templates are
rendered in factor code order, with slots filled from the student's series.

``feedback_for_records`` selects and renders a chunk of records at a time:
``choose`` picks every row's winners at once, and the slots read the chunk's
per-factor means and slopes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .domain import Dataset, FactorId, ReferenceType, TemplateRegistry
from .errors import ValidationError
from .features import (
    DEFAULT_TREND_TOLERANCE, check_features, feature_matrix, mean_and_slope, trend_word,
)
from .mlc import TrainedModel, gold_matrix, predict_batch

REFERENCE_PRIORITY = {
    ReferenceType.TREND: 0,
    ReferenceType.WEEKS: 1,
    ReferenceType.AVERAGE: 2,
    ReferenceType.OTHER: 3,
}

#: ``feedback_for_records`` predicts this many records at a time, so it never
#: holds the feature or vote rows of more than one chunk.
_CHUNK_ROWS = 256

#: A factor's position on the factor axis of a series stack.
_FACTOR_AXIS = {factor: axis for axis, factor in enumerate(FactorId)}


@dataclass(frozen=True)
class Summary:
    student_id: str
    sentences: tuple[str, ...]
    template_ids: tuple[int, ...]


def factor_columns(registry: TemplateRegistry) -> np.ndarray:
    """(9, P) label indices of each factor's templates, factors in code order
    and each factor's templates in reference priority order, padded with
    ``len(registry)``, a column that ``choose`` never sets."""
    columns = [
        sorted(
            (i for i, t in enumerate(registry.templates) if t.factor == factor),
            key=lambda i: REFERENCE_PRIORITY[registry.templates[i].reference],
        )
        for factor in FactorId
    ]
    width = max(map(len, columns))
    return np.array([c + [len(registry)] * (width - len(c)) for c in columns])


def choose(bits: np.ndarray, votes: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The label index each factor keeps in each row of bits and votes
    (rows, L), as (rows, 9); -1 where the factor has no set bit.

    The winner is the first argmax of the factor's votes, set bits only,
    over its ``factor_columns`` in priority order. Votes must be finite.
    """
    pad = ((0, 0), (0, 1))  # the padding column: never set
    is_set = np.pad(bits != 0, pad)[:, columns]  # (rows, 9, P)
    ranked = np.where(is_set, np.pad(votes, pad)[:, columns], -np.inf)
    winners = columns[np.arange(len(columns)), ranked.argmax(axis=-1)]
    return np.where(is_set.any(axis=-1), winners, -1)


def format_number(value: float) -> str:
    """Slot numbers render with one decimal place (round-half-even)."""
    return f"{value:.1f}"


#: Slot text from one factor's weekly values (an array), mean, slope and the
#: trend tolerance.
_SLOT_FORMATTERS = {
    "average": lambda values, mean, slope, tolerance: format_number(mean),
    "trend_word": lambda values, mean, slope, tolerance: trend_word(slope, tolerance),
    "first_week_value": lambda values, mean, slope, tolerance: format_number(float(values[0])),
    "last_week_value": lambda values, mean, slope, tolerance: format_number(float(values[-1])),
    "per_week_list": lambda values, mean, slope, tolerance: ", ".join(
        map("{:.1f}".format, values.tolist())  # format_number of each value
    ),
}


def _render(student_id, templates, series, means, slopes, tolerance) -> Summary:
    """One record's summary: its series (9, W) and its per-factor means and
    slopes, all in factor code order, fill the slots of ``templates``."""
    sentences = []
    for template in templates:
        axis = _FACTOR_AXIS[template.factor]
        values = {
            slot: _SLOT_FORMATTERS[slot](series[axis], means[axis], slopes[axis], tolerance)
            for slot in template.slots()
        }
        sentences.append(template.surface_text.format(**values))
    return Summary(student_id, tuple(sentences), tuple(t.id for t in templates))


def feedback_for_records(
    model: TrainedModel,
    ds: Dataset,
    trend_tolerance: float = DEFAULT_TREND_TOLERANCE,
) -> Iterator[Summary]:
    """Predict, resolve conflicts, render: one summary per student, in order.

    The tolerance, the gold labels a chain-real model needs and every
    record's features (``check_features``) are checked here, so a bad record
    fails before the first summary; the summaries are then yielded as they
    are rendered. Records are handled ``_CHUNK_ROWS`` at a time, one feature
    matrix each.
    """
    if not trend_tolerance >= 0:  # NaN fails this too
        raise ValidationError(f"trend tolerance must be >= 0, got {trend_tolerance}")
    gold = gold_matrix(model, ds)
    check_features(ds.series, model.feature_mode, ds.student_ids)
    return _summaries(model, ds, gold, trend_tolerance)


def _summaries(model, ds, gold, trend_tolerance) -> Iterator[Summary]:
    for head in range(0, len(ds), _CHUNK_ROWS):
        rows = slice(head, head + _CHUNK_ROWS)
        S = ds.series[rows]
        X = feature_matrix(S, model.feature_mode, ds.student_ids[rows])
        bits, votes = predict_batch(model, X, None if gold is None else gold[rows])
        yield from chunk_summaries(
            ds.student_ids[rows], S, bits, votes, ds.registry, trend_tolerance
        )


def chunk_summaries(
    student_ids: Sequence[str],
    series: np.ndarray,
    bits: np.ndarray,
    votes: np.ndarray,
    registry: TemplateRegistry,
    trend_tolerance: float = DEFAULT_TREND_TOLERANCE,
) -> Iterator[Summary]:
    """The summaries of a chunk of records: their series (rows, 9, W) and
    their predicted bits and finite votes (rows, L)."""
    templates = registry.templates
    winners = choose(bits, votes, factor_columns(registry))
    means, slopes = mean_and_slope(series)
    for student_id, row_winners, *row in zip(
        student_ids, winners.tolist(), series, means.tolist(), slopes.tolist()
    ):
        chosen = [templates[j] for j in row_winners if j >= 0]
        yield _render(student_id, chosen, *row, trend_tolerance)


def render_text(summary: Summary) -> str:
    """Student id header plus one indented sentence per line."""
    lines = [f"{summary.student_id}:"]
    if summary.sentences:
        lines.extend(f"  {sentence}" for sentence in summary.sentences)
    else:
        lines.append("  (no feedback selected)")
    return "\n".join(lines)


def summary_to_json(summary: Summary) -> dict:
    return {
        "student_id": summary.student_id,
        "feedback": [
            {"template_id": tid, "sentence": sentence}
            for tid, sentence in zip(summary.template_ids, summary.sentences)
        ],
    }
