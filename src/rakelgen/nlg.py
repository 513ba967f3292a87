"""Turning selected templates into feedback text.

A predicted label vector may set several templates for the same factor; a
summary keeps at most one per factor (highest vote, ties broken by reference
type: trend, then weeks, then average, then the fallback). Kept templates are
rendered in factor code order, with slots filled from the student's series.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .domain import (
    FactorId,
    ReferenceType,
    StudentRecord,
    Template,
    TemplateRegistry,
)
from .errors import ValidationError
from .features import DEFAULT_TREND_TOLERANCE, feature_matrix, ols_slope, trend_word
from .mlc import TrainedModel, gold_matrix, predict_batch

REFERENCE_PRIORITY = {
    ReferenceType.TREND: 0,
    ReferenceType.WEEKS: 1,
    ReferenceType.AVERAGE: 2,
    ReferenceType.OTHER: 3,
}

DROP_REASON_CONFLICT = "factor-conflict"

#: ``feedback_for_records`` predicts this many records at a time, so it never
#: holds the feature or vote rows of more than one chunk.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class SelectionResult:
    """Templates kept for rendering (with their vote strength) and templates
    dropped with a reason, both in factor code order."""

    chosen: tuple[tuple[Template, float], ...]
    dropped: tuple[tuple[Template, str], ...]


@dataclass(frozen=True)
class Summary:
    student_id: str
    sentences: tuple[str, ...]
    template_ids: tuple[int, ...]


def select_templates(
    prediction: Sequence[int],
    registry: TemplateRegistry,
    votes: Sequence[float] | None = None,
) -> SelectionResult:
    """Resolve per-factor conflicts among the predicted templates.

    ``prediction`` holds one 0/1 bit per registry template, as a sequence or a
    ``LabelVector``. Without explicit votes every set bit counts 1.0, so ties
    fall to the reference-type priority.
    """
    if len(prediction) != len(registry):
        raise ValidationError(
            f"prediction length {len(prediction)} != registry size {len(registry)}"
        )
    if votes is None:
        votes = [float(b) for b in prediction]
    elif len(votes) != len(registry):
        raise ValidationError(
            f"votes length {len(votes)} != registry size {len(registry)}"
        )
    by_factor: dict[FactorId, list[tuple[Template, float]]] = {}
    for index, bit in enumerate(prediction):
        if not bit:
            continue
        template = registry.template_at(index)
        by_factor.setdefault(template.factor, []).append((template, votes[index]))
    chosen = []
    dropped = []
    for factor in FactorId:
        candidates = by_factor.get(factor)
        if not candidates:
            continue
        winner = min(
            candidates,
            key=lambda pair: (-pair[1], REFERENCE_PRIORITY[pair[0].reference]),
        )
        chosen.append(winner)
        for template, _ in candidates:
            if template is not winner[0]:
                dropped.append((template, DROP_REASON_CONFLICT))
    return SelectionResult(chosen=tuple(chosen), dropped=tuple(dropped))


def format_number(value: float) -> str:
    """Slot numbers render with one decimal place (round-half-even)."""
    return f"{value:.1f}"


_SLOT_FORMATTERS = {
    "average": lambda series, tolerance: format_number(sum(series) / len(series)),
    "trend_word": lambda series, tolerance: trend_word(ols_slope(series), tolerance),
    "first_week_value": lambda series, tolerance: format_number(series[0]),
    "last_week_value": lambda series, tolerance: format_number(series[-1]),
    "per_week_list": lambda series, tolerance: ", ".join(format_number(v) for v in series),
}


def _slot_values(
    template: Template, series: tuple[float, ...], tolerance: float
) -> dict[str, str]:
    """The text of each slot the template uses."""
    return {slot: _SLOT_FORMATTERS[slot](series, tolerance) for slot in template.slots()}


def render_summary(
    selection: SelectionResult,
    record: StudentRecord,
    trend_tolerance: float = DEFAULT_TREND_TOLERANCE,
) -> Summary:
    """Fill each chosen template's slots from the record's series."""
    sentences = []
    template_ids = []
    for template, _ in selection.chosen:
        values = _slot_values(template, record.series[template.factor], trend_tolerance)
        sentences.append(template.surface_text.format(**values))
        template_ids.append(template.id)
    return Summary(
        student_id=record.student_id,
        sentences=tuple(sentences),
        template_ids=tuple(template_ids),
    )


def feedback_for_records(
    model: TrainedModel,
    records,
    registry: TemplateRegistry,
    trend_tolerance: float = DEFAULT_TREND_TOLERANCE,
) -> Iterator[Summary]:
    """Predict, resolve conflicts, render: one summary per student, in order.

    The tolerance and the gold labels a chain-real model needs are checked
    here; the summaries are then yielded as they are rendered. Records are
    predicted ``_CHUNK_ROWS`` at a time, one feature matrix each.
    """
    if not trend_tolerance >= 0:  # NaN fails this too
        raise ValidationError(f"trend tolerance must be >= 0, got {trend_tolerance}")
    gold = gold_matrix(model, records, registry)
    return _summaries(model, records, registry, gold, trend_tolerance)


def _summaries(model, records, registry, gold, trend_tolerance) -> Iterator[Summary]:
    for head in range(0, len(records), _CHUNK_ROWS):
        chunk = records[head : head + _CHUNK_ROWS]
        X = feature_matrix(chunk, model.feature_mode)
        chunk_gold = None if gold is None else gold[head : head + _CHUNK_ROWS]
        bits, votes = predict_batch(model, X, chunk_gold)
        for record, row_bits, row_votes in zip(chunk, bits.tolist(), votes.tolist()):
            selection = select_templates(row_bits, registry, row_votes)
            yield render_summary(selection, record, trend_tolerance)


def feedback_for_record(
    model: TrainedModel,
    record: StudentRecord,
    registry: TemplateRegistry,
    trend_tolerance: float = DEFAULT_TREND_TOLERANCE,
) -> Summary:
    """Predict, resolve conflicts, render: one summary for one student."""
    return next(feedback_for_records(model, [record], registry, trend_tolerance))


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
