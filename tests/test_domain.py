"""Domain model: factors, templates, registries, records, datasets."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _builders import make_record, tiny_registry
from rakelgen.cli import main
from rakelgen.domain import (
    Dataset,
    FactorId,
    ReferenceType,
    StudentRecord,
    Template,
    TemplateRegistry,
    default_registry,
    load_dataset,
    load_registry,
    record_from_dict,
    record_to_dict,
    registry_to_dict,
    save_dataset,
    save_registry,
)
from rakelgen.errors import ValidationError

EXPECTED_FACTOR_KEYS = (
    "marks",
    "hours_studied",
    "understandability",
    "difficulty",
    "deadlines",
    "health_issues",
    "personal_issues",
    "lectures_attended",
    "revision",
)


class TestFactors:
    def test_nine_factors_in_code_order(self):
        assert tuple(f.key for f in FactorId) == EXPECTED_FACTOR_KEYS
        assert tuple(f.value for f in FactorId) == tuple(range(1, 10))

    def test_from_key_round_trip(self):
        for factor in FactorId:
            assert FactorId.from_key(factor.key) is factor

    def test_from_key_unknown(self):
        with pytest.raises(ValidationError):
            FactorId.from_key("attendance")

    def test_four_reference_types(self):
        assert {r.value for r in ReferenceType} == {
            "trend",
            "weeks",
            "average",
            "other",
        }
        for reference in ReferenceType:
            assert ReferenceType.from_key(reference.value) is reference


class TestTemplates:
    def test_slots_parsed(self):
        t = Template(
            id=1,
            factor=FactorId.MARKS,
            reference=ReferenceType.AVERAGE,
            surface_text="Your average mark was {average}.",
        )
        assert t.slots() == ("average",)

    def test_unknown_slot_rejected(self):
        with pytest.raises(ValidationError, match="unknown slot"):
            Template(
                id=1,
                factor=FactorId.MARKS,
                reference=ReferenceType.AVERAGE,
                surface_text="Bad {median} slot.",
            )

    def test_slot_free_text_allowed(self):
        t = Template(
            id=2,
            factor=FactorId.REVISION,
            reference=ReferenceType.OTHER,
            surface_text="You should revise more often.",
        )
        assert t.slots() == ()


class TestRegistry:
    def test_default_has_29_templates(self, registry):
        assert len(registry) == 29
        assert registry.ids() == tuple(range(1, 30))

    def test_default_pair_coverage(self, registry):
        counts = {r: 0 for r in ReferenceType}
        for t in registry.templates:
            counts[t.reference] += 1
        assert counts[ReferenceType.TREND] == 9
        assert counts[ReferenceType.OTHER] == 9
        assert counts[ReferenceType.AVERAGE] == 7
        assert counts[ReferenceType.WEEKS] == 4
        pairs = {(t.factor, t.reference) for t in registry.templates}
        assert len(pairs) == 29

    def test_label_index_is_position(self, registry):
        for position, template in enumerate(registry.templates):
            assert registry.label_index(template.id) == position
            assert registry.template_at(position) is template

    def test_find_returns_none_for_missing_pair(self, registry):
        assert (
            registry.find(FactorId.HEALTH_ISSUES, ReferenceType.AVERAGE) is None
        )
        assert (
            registry.find(FactorId.MARKS, ReferenceType.TREND) is not None
        )

    def test_get_unknown_id(self, registry):
        with pytest.raises(ValidationError):
            registry.get(999)
        with pytest.raises(ValidationError):
            registry.label_index(999)

    def test_duplicate_id_rejected(self):
        t = Template(
            id=1,
            factor=FactorId.MARKS,
            reference=ReferenceType.TREND,
            surface_text="a",
        )
        u = Template(
            id=1,
            factor=FactorId.MARKS,
            reference=ReferenceType.AVERAGE,
            surface_text="b",
        )
        with pytest.raises(ValidationError, match="duplicate template id"):
            TemplateRegistry(templates=(t, u))

    def test_duplicate_pair_rejected(self):
        t = Template(
            id=1,
            factor=FactorId.MARKS,
            reference=ReferenceType.TREND,
            surface_text="a",
        )
        u = Template(
            id=2,
            factor=FactorId.MARKS,
            reference=ReferenceType.TREND,
            surface_text="b",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            TemplateRegistry(templates=(t, u))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TemplateRegistry(templates=())

    def test_file_round_trip(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        loaded = load_registry(path)
        assert registry_to_dict(loaded) == registry_to_dict(registry)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON"):
            load_registry(path)

    def test_load_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_registry(tmp_path / "nope.json")

    @pytest.mark.parametrize("bad", [1.5, True], ids=["float", "boolean"])
    def test_template_id_must_be_an_integer(self, registry, tmp_path, capsys, bad):
        # int() would read either as template id 1
        data = registry_to_dict(registry)
        data["templates"][0]["id"] = bad
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        message = f"template entry 0: 'id' must be an integer, got {json.dumps(bad)}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_registry(path)
        argv = ["generate", "--registry", str(path), "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def _label_row(ids, registry):
    """The ``label_matrix`` row of one record labeled with the template ids."""
    return Dataset(registry, (make_record(labels=ids),)).label_matrix()[0]


def _set_ids(row, registry) -> frozenset[int]:
    """The template ids of the row's set bits."""
    return frozenset(registry.template_at(j).id for j, bit in enumerate(row) if bit)


class TestLabelVectors:
    def test_round_trip_fixed(self, registry):
        ids = frozenset({1, 5, 29})
        row = _label_row(ids, registry)
        assert len(row) == 29
        assert row.sum() == 3
        assert _set_ids(row, registry) == ids

    @given(
        st.sets(st.integers(min_value=1, max_value=29), max_size=29)
    )
    def test_round_trip_property(self, ids):
        registry = default_registry()
        row = _label_row(frozenset(ids), registry)
        assert _set_ids(row, registry) == frozenset(ids)

    def test_unknown_id_rejected(self, registry):
        with pytest.raises(ValidationError, match="999"):
            _label_row({1, 999}, registry)


class TestRecords:
    def test_series_normalized_to_read_only_floats(self):
        record = make_record(series={FactorId.MARKS: [50, 60, 70, 80]})
        assert record.series.dtype == np.float64 and record.series.shape == (9, 4)
        assert not record.series.flags.writeable
        # row j is factor j + 1: indexing by the factor itself would read the next row
        assert record.series[FactorId.MARKS - 1].tolist() == [50.0, 60.0, 70.0, 80.0]
        assert record.weeks == 4

    def test_float_series_kept_without_a_copy(self):
        rows = np.arange(18.0).reshape(9, 2)
        record = StudentRecord("s0", rows)
        assert np.shares_memory(record.series, rows)
        assert rows.flags.writeable  # the caller's array is left as it was

    def test_labels_normalized_to_frozenset(self):
        record = make_record(labels=[3, 1, 3])
        assert record.expert_labels == frozenset({1, 3})

    def test_unlabeled_record(self):
        record = make_record()
        assert record.expert_labels is None

    def test_missing_factor_rejected(self):
        with pytest.raises(ValidationError, match=r"s0: series must be a \(9, W\) array"):
            StudentRecord(student_id="s0", series=[(1.0, 1.0)] * 8)

    def test_wrong_length_rejected(self):
        data = record_to_dict(make_record("s0", weeks=2))
        data["series"]["marks"] = [1.0, 1.0, 1.0]
        with pytest.raises(ValidationError, match="s0: series marks has 3 values, expected 2"):
            record_from_dict(data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="s007: series hours_studied"):
            make_record(
                student_id="s007", series={FactorId.HOURS_STUDIED: [1.0, bad, 2.0, 3.0]}
            )

    def test_weeks_must_be_positive(self):
        with pytest.raises(ValidationError):
            StudentRecord(student_id="s0", series=np.empty((9, 0)))

    def test_json_round_trip_labeled(self):
        record = make_record(
            series={FactorId.MARKS: [50.5, 60.0, 70.5, 80.0]}, labels=[2, 9]
        )
        data = record_to_dict(record)
        assert record_from_dict(data) == record

    def test_json_round_trip_unlabeled(self):
        record = make_record()
        data = record_to_dict(record)
        assert "expert_labels" not in data
        assert record_from_dict(data) == record


class TestDatasets:
    def test_mixed_weeks_rejected(self, registry):
        a = make_record("s0", weeks=4)
        b = make_record("s1", weeks=5)
        with pytest.raises(ValidationError):
            Dataset(registry, (a, b))

    def test_unknown_label_ids_rejected(self, registry):
        record = make_record(labels=[999])
        with pytest.raises(ValidationError):
            Dataset(registry, (record,))

    def test_require_labeled(self, registry):
        labeled = make_record("s0", labels=[1])
        unlabeled = make_record("s1")
        ds = Dataset(registry, (labeled, unlabeled))
        with pytest.raises(ValidationError):
            ds.require_labeled()
        Dataset(registry, (labeled,)).require_labeled()

    def test_labels_fit_small_registry(self):
        registry = tiny_registry(2)
        record = make_record(labels=[1, 2])
        ds = Dataset(registry, (record,))
        assert len(ds) == 1

    def test_records_are_read_only_views_of_the_stack(self, registry, ds37):
        for i, record in enumerate(ds37.records):
            assert not record.series.flags.writeable
            assert np.shares_memory(record.series, ds37.series)
            assert np.array_equal(record.series, ds37.series[i])
        ds = Dataset(registry, ds37.records)
        assert ds == ds37
        assert not ds.series.flags.writeable
        subset = ds.take([2, 0])
        assert subset.records == (ds.records[2], ds.records[0])

    def test_file_round_trip_byte_identical(self, registry, tmp_path, ds37):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_dataset(ds37, first)
        loaded = load_dataset(first, registry)
        save_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert len(loaded) == len(ds37)

    def test_load_missing_file_is_validation_error(self, registry, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_dataset(tmp_path / "nope.jsonl", registry)

    def test_load_reports_bad_line(self, registry, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(record_to_dict(make_record())) + "\n{oops\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match=":2"):
            load_dataset(path, registry)
