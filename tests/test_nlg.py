"""Template selection, slot filling, and summary rendering."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _builders import (
    dataset_rows, make_record, marks_dataset, template_for, tiny_registry, train,
)
from rakelgen.domain import Dataset, FactorId, ReferenceType, default_registry, series_stack
from rakelgen.errors import ValidationError
from rakelgen.features import DEFAULT_TREND_TOLERANCE
from rakelgen.nlg import (
    REFERENCE_PRIORITY,
    choose,
    chunk_summaries,
    factor_columns,
    feedback_for_records,
    format_number,
    render_text,
    summary_to_json,
)


def _bits(ids, registry):
    """One row of predicted bits with the given template ids set."""
    bits = np.zeros((1, len(registry)), dtype=int)
    bits[0, [registry.label_index(i) for i in ids]] = 1
    return bits


def _chosen(bits, registry, votes=None):
    """The templates ``choose`` keeps for one row of bits, in factor code
    order; without votes every set bit votes 1.0."""
    votes = bits.astype(float) if votes is None else np.array([votes])
    winners = choose(bits, votes, factor_columns(registry))[0]
    return [registry.templates[j] for j in winners if j >= 0]


def _dropped(bits, registry, votes=None):
    """The set templates that ``choose`` does not keep, in label order."""
    kept = {t.id for t in _chosen(bits, registry, votes)}
    set_templates = [registry.templates[j] for j in np.flatnonzero(bits[0])]
    return [t for t in set_templates if t.id not in kept]


def _summary(ids, record, registry, trend_tolerance=DEFAULT_TREND_TOLERANCE):
    """The summary of one record whose predicted bits set the given template ids."""
    student_id, series, _ = record
    bits = _bits(ids, registry)
    (summary,) = chunk_summaries(
        [student_id], series_stack([series]), bits, bits.astype(float), registry,
        trend_tolerance,
    )
    return summary


class TestFormatNumber:
    def test_one_decimal_place(self):
        assert format_number(5.0) == "5.0"
        assert format_number(61.27) == "61.3"

    def test_round_half_even_on_exact_halves(self):
        assert format_number(0.25) == "0.2"
        assert format_number(0.75) == "0.8"
        assert format_number(61.25) == "61.2"
        assert format_number(61.75) == "61.8"


class TestSelection:
    def test_single_bit_chosen_without_drops(self, registry):
        marks_trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        bits = _bits({marks_trend.id}, registry)
        assert [t.id for t in _chosen(bits, registry)] == [marks_trend.id]
        assert _dropped(bits, registry) == []

    def test_all_zero_selects_nothing(self, registry):
        bits = np.zeros((1, 29), dtype=int)
        assert _chosen(bits, registry) == []
        assert _dropped(bits, registry) == []

    def test_conflict_resolved_by_votes(self, registry):
        trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        average = template_for(registry, FactorId.MARKS, ReferenceType.AVERAGE)
        bits = _bits({trend.id, average.id}, registry)
        votes = [0.0] * 29
        votes[registry.label_index(trend.id)] = 0.6
        votes[registry.label_index(average.id)] = 0.8
        assert [t.id for t in _chosen(bits, registry, votes)] == [average.id]
        assert _dropped(bits, registry, votes) == [trend]

    def test_vote_tie_falls_to_reference_priority(self, registry):
        trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        average = template_for(registry, FactorId.MARKS, ReferenceType.AVERAGE)
        bits = _bits({trend.id, average.id}, registry)
        assert [t.id for t in _chosen(bits, registry)] == [trend.id]
        assert REFERENCE_PRIORITY[ReferenceType.TREND] < REFERENCE_PRIORITY[
            ReferenceType.AVERAGE
        ]

    def test_chosen_ordered_by_factor_code(self, registry):
        revision_other = template_for(registry, FactorId.REVISION, ReferenceType.OTHER)
        marks_trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        hours_other = template_for(registry, FactorId.HOURS_STUDIED, ReferenceType.OTHER)
        bits = _bits({revision_other.id, marks_trend.id, hours_other.id}, registry)
        assert [t.factor for t in _chosen(bits, registry)] == [
            FactorId.MARKS,
            FactorId.HOURS_STUDIED,
            FactorId.REVISION,
        ]

    @given(st.lists(st.integers(0, 1), min_size=29, max_size=29))
    def test_at_most_one_template_per_factor(self, bits):
        registry = default_registry()
        row = np.array([bits])
        chosen = _chosen(row, registry)
        factors = [t.factor for t in chosen]
        assert len(factors) == len(set(factors))
        chosen_ids = {t.id for t in chosen}
        dropped_ids = {t.id for t in _dropped(row, registry)}
        set_ids = {
            registry.templates[j].id for j, b in enumerate(bits) if b
        }
        assert chosen_ids | dropped_ids == set_ids
        assert not chosen_ids & dropped_ids
        # every factor with a set bit keeps one of its templates
        assert set(factors) == {registry.templates[registry.label_index(i)].factor for i in set_ids}


class TestRendering:
    def test_average_slot_filled(self, registry):
        average = template_for(registry, FactorId.MARKS, ReferenceType.AVERAGE)
        record = make_record(series={FactorId.MARKS: [5.0, 5.0, 5.0, 5.0]})
        summary = _summary({average.id}, record, registry)
        assert len(summary.sentences) == 1
        assert "5.0" in summary.sentences[0]
        assert summary.template_ids == (average.id,)

    def test_trend_slot_uses_trend_word(self, registry):
        trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        record = make_record(series={FactorId.MARKS: [1.0, 2.0, 3.0, 4.0]})
        summary = _summary({trend.id}, record, registry)
        assert "increased" in summary.sentences[0]

    def test_trend_tolerance_changes_word(self, registry):
        trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        record = make_record(series={FactorId.MARKS: [1.0, 2.0, 3.0, 4.0]})
        summary = _summary({trend.id}, record, registry, trend_tolerance=2.0)
        assert "remained stable" in summary.sentences[0]

    def test_slots_read_the_templates_factor(self, registry):
        average = template_for(registry, FactorId.MARKS, ReferenceType.AVERAGE)
        record = make_record(
            series={
                FactorId.MARKS: [60.0, 60.0, 60.0, 60.0],
                FactorId.HOURS_STUDIED: [1.0, 2.0, 3.0, 4.0],
            }
        )
        summary = _summary({average.id}, record, registry)
        assert "60.0" in summary.sentences[0]
        assert "2.5" not in summary.sentences[0]

    def test_empty_selection_renders_nothing(self, registry):
        summary = _summary((), make_record(), registry)
        assert summary.sentences == ()
        assert summary.template_ids == ()

    def test_every_number_is_recomputable(self, registry):
        # Faithfulness: each number in the output must round-trip against a
        # statistic recomputed from the record's own series.
        record = make_record(
            series={
                FactorId.MARKS: [52.5, 61.0, 48.5, 70.0],
                FactorId.HOURS_STUDIED: [1.0, 2.0, 3.5, 4.0],
            }
        )
        ids = set()
        for factor in (FactorId.MARKS, FactorId.HOURS_STUDIED):
            for reference in ReferenceType:
                template = template_for(registry, factor, reference)
                if template is not None:
                    ids.add(template.id)
        # One per factor survives selection; set all candidates and let the
        # priority rule pick.
        summary = _summary(ids, record, registry)
        for sentence, template_id in zip(summary.sentences, summary.template_ids):
            factor = registry.templates[registry.label_index(template_id)].factor
            series = record[1][factor - 1].tolist()
            stats = {
                format_number(sum(series) / len(series)),
                format_number(series[0]),
                format_number(series[-1]),
            } | {format_number(v) for v in series}
            for number in re.findall(r"\d+\.\d", sentence):
                assert number in stats

    def test_rendering_is_pure(self, registry):
        trend = template_for(registry, FactorId.REVISION, ReferenceType.TREND)
        record = make_record(series={FactorId.REVISION: [1.0, 1.0, 2.0, 3.0]})
        assert _summary({trend.id}, record, registry) == _summary({trend.id}, record, registry)


class TestTextAndJson:
    def _summary(self, registry):
        trend = template_for(registry, FactorId.MARKS, ReferenceType.TREND)
        record = make_record(
            student_id="s0042", series={FactorId.MARKS: [1.0, 2.0, 3.0, 4.0]}
        )
        return _summary({trend.id}, record, registry)

    def test_render_text_layout(self, registry):
        summary = self._summary(registry)
        text = render_text(summary)
        lines = text.splitlines()
        assert lines[0] == "s0042:"
        assert all(line.startswith("  ") for line in lines[1:])
        assert len(lines) == 2

    def test_render_text_empty_placeholder(self, registry):
        summary = _summary((), make_record(student_id="s0001"), registry)
        text = render_text(summary)
        assert text == "s0001:\n  (no feedback selected)"

    def test_json_pairs_ids_with_sentences(self, registry):
        summary = self._summary(registry)
        data = summary_to_json(summary)
        assert set(data) == {"student_id", "feedback"}
        assert data["student_id"] == "s0042"
        assert len(data["feedback"]) == 1
        entry = data["feedback"][0]
        assert set(entry) == {"template_id", "sentence"}
        assert entry["sentence"] == summary.sentences[0]
        template_id = entry["template_id"]
        assert registry.templates[registry.label_index(template_id)].id == template_id


class TestFeedbackForRecord:
    def test_majority_gives_identical_output_for_everyone(self):
        registry = tiny_registry(1)
        rows = [(float(i), [1]) for i in range(6)] + [(9.0, []), (9.5, [])]
        ds = marks_dataset(registry, rows)
        model = train("majority", ds)
        summaries = list(feedback_for_records(model, ds))
        assert {s.sentences for s in summaries} == {("Plain sentence number 1.",)}
        assert {s.template_ids for s in summaries} == {(1,)}

    def test_chain_real_requires_labels(self, ds37, registry):
        model = train("chain-real", ds37)
        unlabeled = make_record(weeks=10)
        with pytest.raises(ValidationError, match="label"):
            feedback_for_records(model, Dataset(registry, (unlabeled,)))

    def test_chain_real_renders_from_gold_history(self, ds37, registry):
        model = train("chain-real", ds37)
        (summary,) = feedback_for_records(model, dataset_rows(ds37, [0]))
        for template_id in summary.template_ids:
            assert registry.templates[registry.label_index(template_id)].id == template_id
