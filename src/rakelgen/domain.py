"""Task vocabulary: learning factors, reference types, templates, records and datasets.

All types here are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from importlib import resources
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ValidationError

#: Slot names a template surface text may reference.
SLOT_NAMES = frozenset(
    {"average", "trend_word", "first_week_value", "last_week_value", "per_week_list"}
)

_SLOT_RE = re.compile(r"\{([^{}]*)\}")


class FactorId(IntEnum):
    """The nine weekly learning factors, with stable codes 1..9."""

    MARKS = 1
    HOURS_STUDIED = 2
    UNDERSTANDABILITY = 3
    DIFFICULTY = 4
    DEADLINES = 5
    HEALTH_ISSUES = 6
    PERSONAL_ISSUES = 7
    LECTURES_ATTENDED = 8
    REVISION = 9

    @property
    def key(self) -> str:
        """Lowercase name used in JSON files."""
        return self.name.lower()

    @classmethod
    def from_key(cls, key: str) -> "FactorId":
        try:
            return _FACTOR_BY_NAME[key.upper()]
        except (KeyError, AttributeError):  # AttributeError: not a string
            raise ValidationError(f"unknown factor name: {key!r}") from None


_FACTOR_BY_NAME = {factor.name: factor for factor in FactorId}
_ALL_FACTORS = frozenset(FactorId)


class ReferenceType(Enum):
    """The four ways a factor can be described in feedback."""

    TREND = "trend"
    WEEKS = "weeks"
    AVERAGE = "average"
    OTHER = "other"

    @classmethod
    def from_key(cls, key: str) -> "ReferenceType":
        try:
            return cls(key)
        except ValueError:
            raise ValidationError(f"unknown reference type: {key!r}") from None


@dataclass(frozen=True)
class FactorUnits:
    """Value range of a factor's weekly measurements."""

    lo: float
    hi: float | None
    integer: bool


#: Native units per factor: marks are percentages, the five self-reported
#: factors are 1..5 Likert scores, attendance and revision are weekly counts.
FACTOR_UNITS: dict[FactorId, FactorUnits] = {
    FactorId.MARKS: FactorUnits(0.0, 100.0, False),
    FactorId.HOURS_STUDIED: FactorUnits(0.0, None, False),
    FactorId.UNDERSTANDABILITY: FactorUnits(1.0, 5.0, True),
    FactorId.DIFFICULTY: FactorUnits(1.0, 5.0, True),
    FactorId.DEADLINES: FactorUnits(1.0, 5.0, True),
    FactorId.HEALTH_ISSUES: FactorUnits(1.0, 5.0, True),
    FactorId.PERSONAL_ISSUES: FactorUnits(1.0, 5.0, True),
    FactorId.LECTURES_ATTENDED: FactorUnits(0.0, None, True),
    FactorId.REVISION: FactorUnits(0.0, None, True),
}


@dataclass(frozen=True)
class Template:
    """One selectable unit of feedback content.

    The surface text may contain named slots (e.g. ``{average}``) that are
    filled from the student's statistics at rendering time.
    """

    id: int
    factor: FactorId
    reference: ReferenceType
    surface_text: str
    _slots: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = tuple(_SLOT_RE.findall(self.surface_text))
        for slot in slots:
            if slot not in SLOT_NAMES:
                raise ValidationError(
                    f"template {self.id}: unknown slot {{{slot}}} in surface text"
                )
        object.__setattr__(self, "_slots", slots)

    def slots(self) -> tuple[str, ...]:
        """The slot names in the surface text, in order (found once, at construction)."""
        return self._slots


@dataclass(frozen=True)
class TemplateRegistry:
    """Ordered collection of templates; a template's label index is its position."""

    templates: tuple[Template, ...]
    version: str = "custom"
    _index_of: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.templates:
            raise ValidationError("registry must contain at least one template")
        id_of_pair = {}
        for position, template in enumerate(self.templates):
            if template.id in self._index_of:
                raise ValidationError(f"duplicate template id {template.id}")
            pair = (template.factor, template.reference)
            if pair in id_of_pair:
                raise ValidationError(
                    f"duplicate (factor, reference) pair "
                    f"({template.factor.key}, {template.reference.value}) "
                    f"in templates {id_of_pair[pair]} and {template.id}"
                )
            self._index_of[template.id] = position
            id_of_pair[pair] = template.id

    def __len__(self) -> int:
        return len(self.templates)

    def label_index(self, template_id: int) -> int:
        try:
            return self._index_of[template_id]
        except KeyError:
            raise ValidationError(f"unknown template id {template_id}") from None


def _checked_series(student_id: str, series) -> np.ndarray:
    """A record's series as a read-only (9, W) float64 array, W >= 1, of
    finite values; a float64 input is kept without a copy."""
    series = np.asarray(series, dtype=float).view()
    series.flags.writeable = False
    if series.ndim != 2 or series.shape[0] != len(_ALL_FACTORS) or series.shape[1] < 1:
        raise ValidationError(
            f"record {student_id}: series must be a (9, W) array with W >= 1, "
            f"got shape {series.shape}"
        )
    if not np.isfinite(series).all():
        row = int(np.isfinite(series).all(axis=1).argmin())
        raise ValidationError(
            f"record {student_id}: series {FactorId(row + 1).key} has a "
            f"non-finite value: {series[row].tolist()}"
        )
    return series


class Dataset:
    """A registry plus the student records labeled against it.

    A record is a ``(student_id, series, expert_labels)`` triple: ``series``
    is the student's (9, W) values, row j factor ``FactorId(j + 1)``, and
    ``expert_labels`` the template ids an annotator chose, or ``None`` for an
    unlabeled record. The dataset checks each record's series in order and
    keeps them as one read-only (n, 9, W) float64 stack, ``series``.
    Attributes are not to be reassigned.
    """

    def __init__(self, registry: TemplateRegistry, records: Iterable[tuple]):
        student_ids, series, labels = tuple(zip(*records)) or ((), (), ())
        series = series_stack(list(map(_checked_series, student_ids, series)))
        self._init(registry, student_ids, series, labels)

    @classmethod
    def from_series(
        cls,
        registry: TemplateRegistry,
        student_ids: Sequence[str],
        series: np.ndarray,
        expert_labels: Sequence[frozenset[int] | None],
    ) -> "Dataset":
        """A dataset over an (n, 9, W) float64 stack, which it makes read-only."""
        student_ids, expert_labels = tuple(student_ids), tuple(expert_labels)
        if not len(student_ids) == len(series) == len(expert_labels):
            raise ValidationError(
                f"dataset has {len(student_ids)} student ids, {len(series)} series rows "
                f"and {len(expert_labels)} label sets; they must be equal"
            )
        ds = cls.__new__(cls)
        ds._init(registry, student_ids, series, expert_labels)
        return ds

    def _init(self, registry, student_ids, series, expert_labels) -> None:
        series.flags.writeable = False
        self.registry = registry
        self.student_ids = student_ids
        self.series = series
        self.expert_labels = expert_labels
        valid_ids = {template.id for template in registry.templates}
        for student_id, labels in zip(student_ids, expert_labels):
            if labels is None:
                continue
            unknown = labels - valid_ids
            if unknown:
                raise ValidationError(
                    f"record {student_id}: expert labels {sorted(unknown)} not in registry"
                )

    def __len__(self) -> int:
        return len(self.student_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.registry == other.registry
            and self.student_ids == other.student_ids
            and self.expert_labels == other.expert_labels
            and np.array_equal(self.series, other.series)
        )

    __hash__ = None

    @property
    def records(self) -> tuple[tuple, ...]:
        """The record triples, each series a read-only row view of the stack."""
        return tuple(zip(self.student_ids, self.series, self.expert_labels))

    @property
    def weeks(self) -> int:
        if not len(self):
            raise ValidationError("dataset has no records")
        return self.series.shape[2]

    def label_matrix(self) -> np.ndarray:
        """Expert labels as an (n, n_labels) 0/1 int array, in registry order."""
        Y = np.zeros((len(self), len(self.registry)), dtype=int)
        for i, labels in enumerate(self.expert_labels):
            for template_id in labels:
                Y[i, self.registry.label_index(template_id)] = 1
        return Y

    def require_labeled(self) -> None:
        unlabeled = [
            student_id
            for student_id, labels in zip(self.student_ids, self.expert_labels)
            if labels is None
        ]
        if unlabeled:
            raise ValidationError(f"records without expert labels: {unlabeled[:5]}")


def series_stack(series: Sequence[np.ndarray]) -> np.ndarray:
    """(9, W) series arrays with a common week count as one (n, 9, W) float64
    array, factors in code order."""
    weeks = _common_weeks(rows.shape[1] for rows in series)
    return np.array(series, dtype=float).reshape(len(series), len(FactorId), weeks or 0)


def _common_weeks(weeks: Iterable[int]) -> int | None:
    """The one week count of records with ``weeks``, None if there are none."""
    distinct = set(weeks)
    if len(distinct) > 1:
        raise ValidationError(f"records disagree on week count: {sorted(distinct)}")
    return distinct.pop() if distinct else None


def _parse_registry(data, source: str) -> TemplateRegistry:
    try:
        data = json_object(data, "registry", {"version", "notes", "templates"}, {"templates"})
        json_str(data.get("notes", ""), "'notes'")  # a comment, which loading drops
        version = json_str(data.get("version", "custom"), "'version'")
        entries = json_list(data["templates"], "'templates'")
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None
    templates = []
    for n, entry in enumerate(entries):
        try:
            entry = json_object(entry, "template", {"id", "factor", "reference", "surface_text"})
            template = Template(
                id=json_int(entry["id"], "'id'"),
                factor=FactorId.from_key(entry["factor"]),
                reference=ReferenceType.from_key(entry["reference"]),
                surface_text=json_str(entry["surface_text"], "'surface_text'"),
            )
        except ValidationError as exc:
            raise ValidationError(f"{source}: template entry {n}: {exc}") from None
        templates.append(template)
    return TemplateRegistry(templates=tuple(templates), version=version)


def read_json(path: str | Path):
    """The JSON value in a UTF-8 file; a file that cannot be read, is not
    UTF-8 or is not JSON raises a ValidationError that names it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None


def load_registry(path: str | Path) -> TemplateRegistry:
    """Load and validate a template registry file; label indices follow file order."""
    return _parse_registry(read_json(path), str(path))


def default_registry() -> TemplateRegistry:
    """The shipped 29-template registry. The surface texts and the exact
    (factor, reference) coverage are stand-ins; see the registry file notes."""
    text = resources.files("rakelgen.data").joinpath("default_registry.json").read_text("utf-8")
    return _parse_registry(json.loads(text), "default_registry.json")


def registry_to_dict(registry: TemplateRegistry) -> dict:
    return {
        "version": registry.version,
        "templates": [
            {
                "id": t.id,
                "factor": t.factor.key,
                "reference": t.reference.value,
                "surface_text": t.surface_text,
            }
            for t in registry.templates
        ],
    }


def save_registry(registry: TemplateRegistry, path: str | Path) -> None:
    payload = json.dumps(registry_to_dict(registry), indent=2) + "\n"
    Path(path).write_text(payload, encoding="utf-8")


def record_to_dict(student_id: str, series: np.ndarray, expert_labels) -> dict:
    """A record's object in a dataset file."""
    out: dict = {
        "student_id": student_id,
        "weeks": series.shape[1],
        "series": dict(zip(_FACTOR_KEYS, series.tolist())),
    }
    if expert_labels is not None:
        out["expert_labels"] = sorted(expert_labels)
    return out


def record_from_dict(data, source: str = "record") -> tuple:
    """One record object of a dataset file as a record triple, each field read
    by its JSON type, then checked (series lengths in the file's key order)."""
    try:
        data = json_object(data, "record")
        by_key = {
            name: json_list(values, f"series {name}", json_number)
            for name, values in json_object(data["series"], "series").items()
        }
        student_id = json_str(data["student_id"], "student_id")
        weeks = json_int(data["weeks"], "weeks")
        labels = data.get("expert_labels")
        labels = None if labels is None else frozenset(json_list(labels, "expert_labels", json_int))
    except (KeyError, ValidationError) as exc:
        raise ValidationError(f"{source}: malformed record: {exc}") from None
    series = {}
    for name, values in by_key.items():
        factor = FactorId.from_key(name)
        if factor in series:  # keys are case-insensitive
            raise ValidationError(
                f"record {student_id}: series {json.dumps(name)} repeats factor {factor.key}"
            )
        series[factor] = values
    if weeks < 1:
        raise ValidationError(f"record {student_id}: weeks must be >= 1")
    missing = _ALL_FACTORS - series.keys()
    if missing:
        names = ", ".join(sorted(f.key for f in missing))
        raise ValidationError(f"record {student_id}: missing factors: {names}")
    for factor, values in series.items():
        if len(values) != weeks:
            raise ValidationError(
                f"record {student_id}: series {factor.key} has "
                f"{len(values)} values, expected {weeks}"
            )
    return student_id, _checked_series(student_id, [series[f] for f in FactorId]), labels


def _is_unicode(text: str) -> bool:
    """Whether a string encodes as UTF-8: a JSON escape such as ``\\udc80``
    reads as a lone surrogate, which no output can write."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# The JSON field readers return ``value`` if it has the field's JSON type, else
# raise "<name> must be <type>, got <value as JSON>"; ``int()`` takes 1.5 and true.


def json_int(value, name: str) -> int:
    """A JSON integer (a boolean is not one)."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    return value


def json_number(value, name: str) -> int | float:
    """A JSON number that fits a float (a boolean is not one): ``float()``
    rounds an integer from 2**1024 - 2**970 up past the largest float."""
    if type(value) is float or type(value) is int and abs(value) < 2**1024 - 2**970:
        return value
    raise ValidationError(f"{name} must be a number, got {_shown(value)}")


def json_str(value, name: str) -> str:
    """A JSON string that is valid Unicode."""
    if type(value) is not str:
        raise ValidationError(f"{name} must be a string, got {_shown(value)}")
    if not _is_unicode(value):
        raise ValidationError(f"{name} must be valid Unicode, got {_shown(value)}")
    return value


#: The readers whose arrays pass unread when every entry is of one Python type.
_PLAIN_TYPES = {json_int: int, json_number: float}


def json_list(value, name: str, read=None) -> list:
    """A JSON array, each entry read by ``read(entry, f"{name}[{i}]")`` if given."""
    if type(value) is not list:
        raise ValidationError(f"{name} must be an array, got {_shown(value)}")
    if read is None or {*map(type, value)} <= {_PLAIN_TYPES.get(read)}:
        return value
    return [read(entry, f"{name}[{i}]") for i, entry in enumerate(value)]


def json_object(value, name: str, keys=None, required=None) -> dict:
    """A JSON object with no key outside the set ``keys`` and every key of
    ``required`` (all of ``keys`` if None); any keys if ``keys`` is None."""
    if type(value) is not dict:
        raise ValidationError(f"{name} must be an object, got {_shown(value)}")
    if keys is not None:
        unknown = sorted(value.keys() - keys)
        if unknown:
            raise ValidationError(f"{name} has an unknown key {json.dumps(unknown[0])}")
        missing = sorted((keys if required is None else required) - value.keys())
        if missing:
            raise ValidationError(f"{name} has no key {json.dumps(missing[0])}")
    return value


def _shown(value) -> str:
    """A bad value as an error message shows it: JSON text, or the kind of container."""
    if isinstance(value, list):
        return "an array"
    if isinstance(value, dict):
        return "an object"
    return json.dumps(value)


def load_dataset(path: str | Path, registry: TemplateRegistry) -> Dataset:
    """Read a JSON Lines dataset (one record object per line).

    The file is read once, ``_BLOCK_LINES`` lines at a time. A block whose
    lines all pass the bulk checks goes into the (n, 9, W) series stack as
    it is; any other block is checked again line by line
    (``record_from_dict``), which raises the first bad line's error, and the
    rare records that the bulk checks refuse but the record checks accept
    (factor keys in upper case, say) load from there. The week counts and the
    expert labels are checked across the file after its last line, so a bad
    line anywhere wins over them.
    """
    path = Path(path)
    student_ids, weeks, labels, blocks = [], [], [], []
    try:  # bytes that are not UTF-8 read as lone surrogates, which do not encode back
        handle = path.open(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    with handle:
        lineno = 1
        while block := list(islice(handle, _BLOCK_LINES)):
            ids, block_weeks, block_labels, values = _bulk_block(block) or _checked_block(
                block, path, lineno
            )
            lineno += len(block)
            student_ids += ids
            weeks += block_weeks
            labels += block_labels
            if values is not None:
                blocks.append(values)
    _common_weeks(weeks)
    if not blocks:
        return Dataset(registry, ())
    return Dataset.from_series(registry, student_ids, np.concatenate(blocks), labels)


_FACTOR_KEYS = tuple(factor.key for factor in FactorId)
_FACTOR_KEY_SET = frozenset(_FACTOR_KEYS)
_factor_lists = itemgetter(*_FACTOR_KEYS)

#: ``load_dataset`` moves the values of this many lines at a time from JSON
#: lists into an array, so the file's values are never all held twice.
_BLOCK_LINES = 512


def _bulk_block(block: list[str]) -> tuple | None:
    """The student ids, week counts, expert labels and (b, 9, W) values of a
    block of lines that is valid UTF-8 and whose records all pass the bulk
    checks, else None."""
    if not _is_unicode("".join(block)):
        return None
    student_ids, weeks, labels, rows = [], [], [], []
    for line in filter(None, map(str.strip, block)):
        try:
            data = json.loads(line)
            series = data["series"]
            if series.keys() != _FACTOR_KEY_SET:
                return None
            rows.append(_factor_lists(series))
            student_ids.append(data["student_id"])
            weeks.append(data["weeks"])
            labels.append(data.get("expert_labels"))
        except (ValueError, KeyError, TypeError, AttributeError):
            return None
    if {*map(type, student_ids)} != {str} or {*map(type, weeks)} != {int}:
        return None
    if not _is_unicode("".join(student_ids)):
        return None
    if weeks[0] < 1 or weeks.count(weeks[0]) != len(weeks):
        return None
    values = _as_floats(rows)
    if values is None or values.shape[1:] != (len(_FACTOR_KEYS), weeks[0]):
        return None
    if not np.isfinite(values).all():
        return None
    if not all(entry is None or type(entry) is list for entry in labels):
        return None
    if not {*map(type, chain.from_iterable(filter(None, labels)))} <= {int}:
        return None
    labels = [None if entry is None else frozenset(entry) for entry in labels]
    return student_ids, weeks, labels, values


def _as_floats(rows: list) -> np.ndarray | None:
    """Lists of value lists as a float array, or None unless every value is a
    JSON number (not a boolean) and the lists are of one length."""
    try:  # iterating the value lists also checks that they are lists
        if not {*map(type, chain.from_iterable(chain.from_iterable(rows)))} <= {float, int}:
            return None
        return np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _checked_block(block: list[str], path: Path, first_lineno: int) -> tuple:
    """``_bulk_block``'s fields for a block read one line at a time, raising
    the first bad line's error. The values are None if the week counts differ,
    which the file then fails on."""
    records = []
    for lineno, line in enumerate(block, start=first_lineno):
        if not _is_unicode(line):
            raise ValidationError(f"{path}:{lineno}: not valid UTF-8")
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        records.append(record_from_dict(data, f"{path}:{lineno}"))
    student_ids, series, labels = map(list, zip(*records)) if records else ([], [], [])
    weeks = [rows.shape[1] for rows in series]
    return student_ids, weeks, labels, series_stack(series) if len(set(weeks)) == 1 else None


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as JSON Lines, deterministically."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in dataset.records:
            handle.write(json.dumps(record_to_dict(*record)) + "\n")
