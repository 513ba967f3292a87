"""Reference selection and slot filling: the per-record code that
``nlg.chunk_summaries`` and ``nlg.choose`` replaced.

``reference_select`` keeps, per factor, the set template with the highest
vote, ties broken by reference priority, with one ``min`` per factor over a
record's candidates. ``reference_render`` fills each slot from the record's
own series with Python arithmetic, summing left to right as ``sum`` does on
Python 3.11. Both stay here as the oracle that the
differential tests compare the chunk path against.
"""

from __future__ import annotations

from typing import NamedTuple

from _reference_features import reference_ols_slope
from rakelgen.domain import FactorId, StudentRecord, TemplateRegistry
from rakelgen.features import trend_word
from rakelgen.nlg import REFERENCE_PRIORITY, Summary, format_number

DROP_REASON_CONFLICT = "factor-conflict"


class Selection(NamedTuple):
    """Templates kept for rendering, with their votes, and templates dropped
    with a reason, both in factor code order."""

    chosen: tuple
    dropped: tuple


def reference_select(prediction, registry: TemplateRegistry, votes=None) -> Selection:
    if votes is None:
        votes = [float(b) for b in prediction]
    by_factor = {}
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
    return Selection(chosen=tuple(chosen), dropped=tuple(dropped))


def _mean(series) -> float:
    total = 0
    for value in series:
        total += value
    return total / len(series)


_SLOT_FORMATTERS = {
    "average": lambda series, tolerance: format_number(_mean(series)),
    "trend_word": lambda series, tolerance: trend_word(reference_ols_slope(series), tolerance),
    "first_week_value": lambda series, tolerance: format_number(series[0]),
    "last_week_value": lambda series, tolerance: format_number(series[-1]),
    "per_week_list": lambda series, tolerance: ", ".join(format_number(v) for v in series),
}


def reference_render(
    selection: Selection, record: StudentRecord, trend_tolerance: float
) -> Summary:
    sentences = []
    template_ids = []
    for template, _ in selection.chosen:
        series = record.series[template.factor - 1].tolist()
        values = {
            slot: _SLOT_FORMATTERS[slot](series, trend_tolerance) for slot in template.slots()
        }
        sentences.append(template.surface_text.format(**values))
        template_ids.append(template.id)
    return Summary(
        student_id=record.student_id,
        sentences=tuple(sentences),
        template_ids=tuple(template_ids),
    )
