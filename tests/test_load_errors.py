"""What ``load_dataset`` reports for a bad file, word for word.

``load_dataset`` reads a file once, in blocks of lines; a block that fails a
bulk check is checked again line by line. ``PINNED`` holds the messages of
the record-by-record reader that the bulk loader replaced, so the line check
must find the same first bad line and say the same thing about it.
``TYPE_RULES`` holds the field type rules: inputs that used to fail with an
internal error, or to load as something else, and now fail naming the line
and the field. Each case also runs after ``LEAD`` good lines, so that its bad
line falls in a later block than the first.
"""

from __future__ import annotations

import contextlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from _builders import make_record
from rakelgen.cli import main
from rakelgen.domain import FactorId, default_registry, load_dataset, record_to_dict
from rakelgen.errors import ValidationError


def _record(student_id="s1", length=3, **changes) -> dict:
    """A record object with ``length`` weeks and its fields or series replaced."""
    data = record_to_dict(make_record(student_id, weeks=length, labels=[1, 9]))
    for key, value in changes.items():
        if key in data["series"]:
            data["series"][key] = value
        else:
            data[key] = value
    return data


def _without(key, data=None) -> dict:
    data = dict(data or _record())
    data.pop(key)
    return data


def _series(**changes) -> dict:
    series = dict(_record()["series"])
    series.update(changes)
    return {key: value for key, value in series.items() if value is not None}


GOOD = json.dumps(_record("s0"))

#: (case, file lines, message with the file's path as {path})
PINNED = [
    ("missing factor", [json.dumps(_record(series=_series(revision=None)))],
     "record s1: missing factors: revision"),
    ("unknown factor", [json.dumps(_record(series=_series(attendance=[1, 2, 3])))],
     "unknown factor name: 'attendance'"),
    ("wrong length", [GOOD, json.dumps(_record("s2", marks=[1.0, 2.0, 3.0, 4.0]))],
     "record s2: series marks has 4 values, expected 3"),
    ("nan", ['{"student_id": "s1", "weeks": 2, "series": {'
             + ", ".join(f'"{f.key}": [1.0, NaN]' for f in FactorId) + "}}"],
     "record s1: series marks has a non-finite value: [1.0, nan]"),
    ("inf", [json.dumps(_record(hours_studied=[1.0, float("inf"), 2.0]))],
     "record s1: series hours_studied has a non-finite value: [1.0, inf, 2.0]"),
    ("array line", [GOOD, "[1, 2]"],
     "{path}:2: malformed record: list indices must be integers or slices, not str"),
    ("string line", ['"abc"'], "{path}:1: malformed record: string indices must be integers, not 'str'"),
    ("number line", ["42"], "{path}:1: malformed record: 'int' object is not subscriptable"),
    ("null line", ["null"], "{path}:1: malformed record: 'NoneType' object is not subscriptable"),
    ("bad json", [GOOD, "{oops"],
     "{path}:2: not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("blank lines count", ["", GOOD, "   ", "{oops"],
     "{path}:4: not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("bad record before bad json",
     [GOOD, json.dumps(_record(series=_series(revision=None))), "{oops"],
     "record s1: missing factors: revision"),
    ("bad json before bad record",
     [GOOD, "{oops", json.dumps(_record(series=_series(revision=None)))],
     "{path}:2: not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("no student_id", [json.dumps(_without("student_id"))], "{path}:1: malformed record: 'student_id'"),
    ("no weeks", [json.dumps(_without("weeks"))], "{path}:1: malformed record: 'weeks'"),
    ("no series", [json.dumps(_without("series"))], "{path}:1: malformed record: 'series'"),
    ("zero weeks", [json.dumps(_record(weeks=0))], "record s1: weeks must be >= 1"),
    ("null value", [json.dumps(_record(marks=[1.0, None, 2.0]))],
     "{path}:1: malformed record: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    ("number as series", [json.dumps(_record(marks=5))],
     "{path}:1: malformed record: 'int' object is not iterable"),
    ("null label", [json.dumps(_record(expert_labels=[None]))],
     "{path}:1: malformed record: int() argument must be a string, a bytes-like object "
     "or a real number, not 'NoneType'"),
    ("number as labels", [json.dumps(_record(expert_labels=5))],
     "{path}:1: malformed record: 'int' object is not iterable"),
    ("label not in registry", [GOOD, json.dumps(_record(expert_labels=[999]))],
     "record s1: expert labels [999] not in registry"),
    ("weeks disagree", [GOOD, json.dumps(_record("s2", length=4))],
     "records disagree on week count: [3, 4]"),
]

#: The same table for inputs that the record reader did not report as bad data.
TYPE_RULES = [
    ("series array", [GOOD, json.dumps(_record(series=[1, 2]))],
     "{path}:2: malformed record: series must be an object, got an array"),
    ("series string", [json.dumps(_record(marks="123"))],
     '{path}:1: malformed record: series marks must be an array, got "123"'),
    ("string value", [json.dumps(_record(marks=[1.0, "abc", 2.0]))],
     '{path}:1: malformed record: series marks[1] must be a number, got "abc"'),
    ("numeric string value", [json.dumps(_record(marks=[1.0, "1.5", 2.0]))],
     '{path}:1: malformed record: series marks[1] must be a number, got "1.5"'),
    ("boolean value", [json.dumps(_record(revision=[True, 1.0, 2.0]))],
     "{path}:1: malformed record: series revision[0] must be a number, got true"),
    ("string weeks", [json.dumps(_record(weeks="abc"))],
     '{path}:1: malformed record: weeks must be an integer, got "abc"'),
    ("numeric string weeks", [json.dumps(_record(weeks="3"))],
     '{path}:1: malformed record: weeks must be an integer, got "3"'),
    ("fractional weeks", [json.dumps(_record(weeks=3.7))],
     "{path}:1: malformed record: weeks must be an integer, got 3.7"),
    ("infinite weeks", [json.dumps(_record(weeks=float("inf")))],
     "{path}:1: malformed record: weeks must be an integer, got Infinity"),
    ("boolean weeks", [json.dumps(_record(length=1, weeks=True))],
     "{path}:1: malformed record: weeks must be an integer, got true"),
    ("string label", [json.dumps(_record(expert_labels=["a"]))],
     '{path}:1: malformed record: expert_labels[0] must be an integer, got "a"'),
    ("fractional label", [json.dumps(_record(expert_labels=[1.7]))],
     "{path}:1: malformed record: expert_labels[0] must be an integer, got 1.7"),
    ("boolean label", [json.dumps(_record(expert_labels=[2, True]))],
     "{path}:1: malformed record: expert_labels[1] must be an integer, got true"),
    ("string labels", [json.dumps(_record(expert_labels="12"))],
     '{path}:1: malformed record: expert_labels must be an array, got "12"'),
    ("null student_id", [json.dumps(_record(student_id=None))],
     "{path}:1: malformed record: student_id must be a string, got null"),
    ("number student_id", [GOOD, json.dumps(_record(student_id=7))],
     "{path}:2: malformed record: student_id must be a string, got 7"),
    ("lone surrogate student_id", [GOOD, json.dumps(_record(student_id="s\udc80"))],
     '{path}:2: malformed record: student_id must be valid Unicode, got "s\\udc80"'),
    ("type rule before bad json", [GOOD, json.dumps(_record(weeks=3.0)), "{oops"],
     "{path}:2: malformed record: weeks must be an integer, got 3.0"),
]


#: Good lines put before each case's lines in its second run: more than one
#: block of ``load_dataset``'s bulk reader.
LEAD = 600


def _cases(table) -> list:
    """Each case of a table as it is, and after ``LEAD`` good lines."""
    def shifted(expected):
        return re.sub(r"\{path\}:(\d+):", lambda m: f"{{path}}:{int(m[1]) + LEAD}:", expected)

    return [pytest.param(lines, expected, id=case) for case, lines, expected in table] + [
        pytest.param([GOOD] * LEAD + lines, shifted(expected), id=f"{case} after {LEAD} lines")
        for case, lines, expected in table
    ]


def _write(tmp_path, lines) -> str:
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _message(tmp_path, lines) -> str:
    path = _write(tmp_path, lines)
    with pytest.raises(ValidationError) as caught:
        load_dataset(path, default_registry())
    return str(caught.value).replace(path, "{path}")


@pytest.mark.parametrize("lines, expected", _cases(PINNED))
def test_record_errors_are_worded_as_before(tmp_path, lines, expected):
    assert _message(tmp_path, lines) == expected


@pytest.mark.parametrize("lines, expected", _cases(TYPE_RULES))
def test_type_rules_name_the_line_and_the_field(tmp_path, lines, expected):
    assert _message(tmp_path, lines) == expected


def test_integer_too_large_for_a_float(tmp_path):
    line = json.dumps(_record(marks=[1.0, 2.0, 10**400]))
    assert _message(tmp_path, [line]).startswith(
        "{path}:1: malformed record: series marks[2] must be a number, got 1000"
    )


@pytest.mark.parametrize("case", ["string weeks", "boolean value", "null student_id"])
def test_cli_exits_2_on_a_type_rule(tmp_path, capsys, case):
    lines, expected = next(c[1:] for c in TYPE_RULES if c[0] == case)
    path = _write(tmp_path, lines)
    assert main(["inspect-features", "--data", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rakelgen: validation error: {expected.replace('{path}', path)}\n"


def test_dataset_not_utf8_names_the_line(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"x\xff\n")
    assert main(["inspect-features", "--data", str(path)]) == 2
    assert capsys.readouterr().err == f"rakelgen: validation error: {path}:1: not valid UTF-8\n"
    bad = GOOD.encode().replace(b"s0", b"s\xff") + b"\n"
    path.write_bytes(GOOD.encode() + b"\n" + bad)
    with pytest.raises(ValidationError, match=r"data\.jsonl:2: not valid UTF-8$"):
        load_dataset(path, default_registry())
    path.write_bytes((GOOD.encode() + b"\n") * 699 + bad)
    with pytest.raises(ValidationError, match=r"data\.jsonl:700: not valid UTF-8$"):
        load_dataset(path, default_registry())


def test_non_utf8_line_after_a_bad_record_is_not_reached(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(json.dumps(_record(weeks="3")).encode() + b"\nx\xff\n")
    with pytest.raises(ValidationError, match=r":1: malformed record: weeks"):
        load_dataset(path, default_registry())


@pytest.mark.parametrize("option", ["--registry", "--model", "--config"])
def test_json_file_not_utf8_exits_2_naming_it(tmp_path, capsys, option):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": "\xff"}')
    data = _write(tmp_path, [GOOD])
    argv = {
        "--registry": ["inspect-features", "--data", data, "--registry", str(bad)],
        "--model": ["feedback", "--data", data, "--model", str(bad)],
        "--config": ["generate", "--out", str(tmp_path / "out.jsonl"), "--config", str(bad)],
    }[option]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rakelgen: validation error: {bad}: not valid UTF-8 at byte 7\n"


def _upper_case_keys() -> str:
    """A record line that passes the record checks but not the bulk ones."""
    upper = _record()
    upper["series"] = {key.upper(): values for key, values in upper["series"].items()}
    return json.dumps(upper)


def test_records_the_bulk_checks_refuse_load_record_by_record(tmp_path):
    """Factor keys in upper case pass the record checks but not the bulk ones;
    such a record loads through the line check, with the same values, in the
    first block or a later one."""
    for lead in ([GOOD], [GOOD] * LEAD):
        plain = load_dataset(_write(tmp_path, lead + [json.dumps(_record())]), default_registry())
        loaded = load_dataset(_write(tmp_path, lead + [_upper_case_keys()]), default_registry())
        assert loaded == plain
        assert loaded.records == plain.records


def test_a_bad_line_in_a_later_block_wins_over_the_week_counts(tmp_path):
    lines = [GOOD, json.dumps(_record("s2", length=4))] + [GOOD] * 597 + ["{oops"]
    assert _message(tmp_path, lines) == (
        "{path}:600: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"
    )


@pytest.mark.parametrize(
    "last, fails",
    [(GOOD, False), (_upper_case_keys(), False), ("{oops", True)],
    ids=["clean", "upper", "bad"],
)
def test_the_file_is_opened_once(tmp_path, monkeypatch, last, fails):
    path = _write(tmp_path, [GOOD] * LEAD + [last])
    registry = default_registry()
    opened = []
    path_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(str(self))
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    with pytest.raises(ValidationError) if fails else contextlib.nullcontext():
        load_dataset(path, registry)
    assert opened == [path]


def test_loaded_series_are_one_read_only_stack(tmp_path):
    ds = load_dataset(_write(tmp_path, [GOOD, json.dumps(_record("s2", marks=[4, 5.5, -0.0]))]),
                      default_registry())
    assert ds.series.shape == (2, 9, 3) and ds.series.dtype == np.float64
    assert not ds.series.flags.writeable
    assert ds.series[1, 0].tolist() == [4.0, 5.5, -0.0]
    assert np.signbit(ds.series[1, 0, 2])
    assert ds.records[1].series[FactorId.MARKS - 1].tolist() == [4.0, 5.5, -0.0]
    assert ds.student_ids == ("s0", "s2")
    assert ds.expert_labels == (frozenset({1, 9}),) * 2


def test_row_j_of_a_loaded_record_is_factor_j_plus_1(tmp_path):
    """Whatever the key order in the file, and through the bulk reader or the
    line check (upper-case keys), row j of a record's series is factor j + 1."""
    data = _record()
    data["series"] = {f.key: [float(f), 10.0 * f, -float(f)] for f in reversed(FactorId)}
    upper = dict(data, series={key.upper(): values for key, values in data["series"].items()})
    for line in (json.dumps(data), json.dumps(upper)):
        for lead in ([], [GOOD] * LEAD):
            ds = load_dataset(_write(tmp_path, lead + [line]), default_registry())
            rows = ds.records[-1].series.tolist()
            assert rows == [data["series"][FactorId(j + 1).key] for j in range(9)]
