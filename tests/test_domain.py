"""Domain model: factors, templates, registries, records, datasets."""

from __future__ import annotations

import json
import random
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
    Template,
    TemplateRegistry,
    _checked_series,
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

    @pytest.mark.parametrize("text", ["Marks } dropped", "Marks { dropped", "Bad {average"])
    def test_unmatched_brace_rejected(self, text):
        with pytest.raises(ValidationError, match=r"^template 1: malformed surface text: "):
            Template(id=1, factor=FactorId.MARKS, reference=ReferenceType.AVERAGE, surface_text=text)

    @pytest.mark.parametrize("slot", ["average!r", "average:.2f", "average!s:>4", "", "0"])
    def test_slot_shown_as_written(self, slot):
        text = f"Your {{{slot}}} mark."
        with pytest.raises(ValidationError, match=re.escape(f"unknown slot {{{slot}}} in")):
            Template(id=1, factor=FactorId.MARKS, reference=ReferenceType.AVERAGE, surface_text=text)

    def test_escaped_braces_are_text(self):
        t = Template(
            id=1,
            factor=FactorId.MARKS,
            reference=ReferenceType.AVERAGE,
            surface_text="Marks {{average}} were {average}}}.",
        )
        assert t.slots() == ("average",)
        assert t.surface_text.format(average="7") == "Marks {average} were 7}."

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
        assert tuple(t.id for t in registry.templates) == tuple(range(1, 30))

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
            assert registry.templates[registry.label_index(template.id)] is template

    def test_missing_pair_has_no_template(self, registry):
        pairs = {(t.factor, t.reference) for t in registry.templates}
        assert (FactorId.HEALTH_ISSUES, ReferenceType.AVERAGE) not in pairs
        assert (FactorId.MARKS, ReferenceType.TREND) in pairs

    def test_get_unknown_id(self, registry):
        with pytest.raises(ValidationError, match="unknown template id 999"):
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


    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.__setitem__("version", 3), "'version' must be a string, got 3"),
            (lambda d: d.__setitem__("version", None), "'version' must be a string, got null"),
            (
                lambda d: d["templates"][0].__setitem__("surface_text", 5),
                "template entry 0: 'surface_text' must be a string, got 5",
            ),
            (lambda d: d.__setitem__("notes", ["x"]), "'notes' must be a string, got an array"),
            (lambda d: d.__setitem__("extra", 1), 'registry has an unknown key "extra"'),
            (lambda d: d.pop("templates"), 'registry has no key "templates"'),
            (
                lambda d: d.__setitem__("templates", {}),
                "'templates' must be an array, got an object",
            ),
            (
                lambda d: d["templates"][2].pop("reference"),
                'template entry 2: template has no key "reference"',
            ),
            (
                lambda d: d["templates"][1].__setitem__("weight", 2),
                'template entry 1: template has an unknown key "weight"',
            ),
            (
                lambda d: d["templates"].__setitem__(1, None),
                "template entry 1: template must be an object, got null",
            ),
        ],
        ids=[
            "version-3", "version-null", "surface-text-5", "notes-array", "extra-key",
            "no-templates", "templates-object", "entry-no-reference", "entry-extra-key",
            "entry-null",
        ],
    )
    def test_fields_are_read_by_json_type(self, registry, tmp_path, capsys, mutate, message):
        """``str()`` would load version 3 as "3", null as "None" and a
        surface text 5 as "5"; each exits 2, naming the file and the field."""
        data = registry_to_dict(registry)
        mutate(data)
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError) as caught:
            load_registry(path)
        assert str(caught.value) == f"{path}: {message}"
        argv = ["generate", "--registry", str(path), "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"rakelgen: validation error: {path}: {message}\n"

    def test_notes_are_a_comment(self, registry, tmp_path):
        data = registry_to_dict(registry) | {"notes": "stand-in texts"}
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert load_registry(path) == registry


def _label_row(ids, registry):
    """The ``label_matrix`` row of one record labeled with the template ids."""
    return Dataset(registry, (make_record(labels=ids),)).label_matrix()[0]


def _set_ids(row, registry) -> frozenset[int]:
    """The template ids of the row's set bits."""
    return frozenset(registry.templates[j].id for j, bit in enumerate(row) if bit)


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


def _same_record(a, b) -> bool:
    """Whether two record triples hold the same id, values and labels."""
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]


class TestRecords:
    def test_series_normalized_to_read_only_floats(self, registry):
        rows = [[50, 60, 70, 80]] + [[3, 3, 3, 3]] * 8
        ds = Dataset(registry, [("s0", rows, None)])
        (_, series, _), = ds.records
        assert series.dtype == np.float64 and series.shape == (9, 4)
        assert not series.flags.writeable
        # row j is factor j + 1: indexing by the factor itself would read the next row
        assert series[FactorId.MARKS - 1].tolist() == [50.0, 60.0, 70.0, 80.0]
        assert ds.weeks == 4

    def test_float_series_kept_without_a_copy(self):
        rows = np.arange(18.0).reshape(9, 2)
        series = _checked_series("s0", rows)
        assert np.shares_memory(series, rows)
        assert not series.flags.writeable
        assert rows.flags.writeable  # the caller's array is left as it was

    def test_labels_normalized_to_frozenset(self):
        _, _, labels = make_record(labels=[3, 1, 3])
        assert labels == frozenset({1, 3})

    def test_unlabeled_record(self):
        _, _, labels = make_record()
        assert labels is None

    def test_missing_factor_rejected(self, registry):
        with pytest.raises(ValidationError, match=r"s0: series must be a \(9, W\) array"):
            Dataset(registry, [("s0", [(1.0, 1.0)] * 8, None)])

    def test_wrong_length_rejected(self):
        data = record_to_dict(*make_record("s0", weeks=2))
        data["series"]["marks"] = [1.0, 1.0, 1.0]
        with pytest.raises(ValidationError, match="s0: series marks has 3 values, expected 2"):
            record_from_dict(data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, registry, bad):
        record = make_record(
            student_id="s007", series={FactorId.HOURS_STUDIED: [1.0, bad, 2.0, 3.0]}
        )
        with pytest.raises(ValidationError, match="s007: series hours_studied"):
            Dataset(registry, [record])
        data = record_to_dict(*record)
        with pytest.raises(ValidationError, match="s007: series hours_studied"):
            record_from_dict(data)

    def test_weeks_must_be_positive(self, registry):
        with pytest.raises(ValidationError, match=r"got shape \(9, 0\)"):
            Dataset(registry, [("s0", np.empty((9, 0)), None)])

    def test_json_round_trip_labeled(self):
        record = make_record(
            series={FactorId.MARKS: [50.5, 60.0, 70.5, 80.0]}, labels=[2, 9]
        )
        data = record_to_dict(*record)
        assert _same_record(record_from_dict(data), record)

    def test_json_round_trip_unlabeled(self):
        record = make_record()
        data = record_to_dict(*record)
        assert "expert_labels" not in data
        assert _same_record(record_from_dict(data), record)


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

    def test_repeated_student_id_rejected(self, registry):
        records = [make_record("s0"), make_record("s1"), make_record("s0"), make_record("s1")]
        message = re.escape("records 1 and 3 share student id 's0'")
        with pytest.raises(ValidationError, match=message):
            Dataset(registry, records)
        ids, series, labels = zip(*records)
        with pytest.raises(ValidationError, match=message):
            Dataset.from_series(registry, ids, np.stack(series), labels)

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

    @pytest.mark.parametrize(
        "ids, rows, labels",
        [(["a"], 2, [None]), (["a", "b"], 2, [None]), (["a", "b"], 1, [None, None])],
    )
    def test_from_series_lengths_must_match(self, registry, ids, rows, labels):
        message = (
            f"dataset has {len(ids)} student ids, {rows} series rows and "
            f"{len(labels)} label sets; they must be equal"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            Dataset.from_series(registry, ids, np.zeros((rows, 9, 3)), labels)

    def test_records_are_read_only_views_of_the_stack(self, registry, ds37):
        for i, (student_id, series, labels) in enumerate(ds37.records):
            assert not series.flags.writeable
            assert np.shares_memory(series, ds37.series)
            assert np.array_equal(series, ds37.series[i])
            assert (student_id, labels) == (ds37.student_ids[i], ds37.expert_labels[i])
        # the benchmark's set-up rebuilds a dataset from its (shuffled) records
        ds = Dataset(registry, ds37.records)
        assert ds == ds37
        assert Dataset(registry, iter(ds37.records)) == ds37
        assert not ds.series.flags.writeable
        subset = Dataset(registry, (ds.records[2], ds.records[0]))
        assert subset.student_ids == (ds.student_ids[2], ds.student_ids[0])
        assert np.array_equal(subset.series, ds.series[[2, 0]])
        assert subset.expert_labels == (ds.expert_labels[2], ds.expert_labels[0])

    def test_saved_permuted_records_are_the_permuted_lines(self, tmp_path, ds37):
        """``save_dataset`` of shuffled records, as the benchmark writes its
        cohorts, writes the same lines as the dataset in that order."""
        order = list(range(len(ds37)))
        random.Random(3).shuffle(order)
        records = ds37.records
        save_dataset(ds37, tmp_path / "plain.jsonl")
        save_dataset(Dataset(ds37.registry, [records[i] for i in order]), tmp_path / "perm.jsonl")
        lines = (tmp_path / "plain.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert order != sorted(order)
        assert (tmp_path / "perm.jsonl").read_text(encoding="utf-8") == "".join(
            lines[i] for i in order
        )

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
            json.dumps(record_to_dict(*make_record())) + "\n{oops\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match=":2"):
            load_dataset(path, registry)
