"""Report / annotation data model, schema validation, and corpus file I/O.

A corpus is a UTF-8 JSON-lines file, one document per line:

    {"id": "colon-0007", "cancer": "colon", "lines": ["...", "..."],
     "annotations": [{"attribute": "grade", "values": ["grade 2"],
                      "lines": [14], "scheme": "minimal"}]}

Line indices are 0-based into ``lines``.  "not reported" is an ordinary
schema value, and it is the only label permitted to carry an empty
highlight set (nothing in the report supports it).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints

CANCERS = ("colon", "kidney")
SCHEMES = ("minimal", "full")
NOT_REPORTED = "not reported"

_SCHEMA_RESOURCE = "data/schema.json"


class CorpusError(ValueError):
    """Raised for malformed corpus files or violated data invariants."""


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One de-identified free-text report, kept as its original lines."""

    id: str
    cancer: str
    lines: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("report id must be non-empty")
        if self.cancer not in CANCERS:
            raise CorpusError(f"unknown cancer {self.cancer!r} (expected one of {CANCERS})")
        object.__setattr__(self, "lines", tuple(self.lines))
        if len(self.lines) < 1:
            raise CorpusError(f"report {self.id}: must have at least one line")
        for i, line in enumerate(self.lines):
            if "\n" in line or "\r" in line:
                raise CorpusError(f"report {self.id}: line {i} contains a newline")


@dataclass(frozen=True)
class EnrichedAnnotation:
    """A gold label for one attribute plus the lines that support it.

    ``scheme`` records how the highlights were produced: "minimal" keeps
    only the first supporting line per value (synoptic section preferred),
    "full" keeps every supporting line.
    """

    attribute: str
    values: tuple[str, ...]
    line_indices: tuple[int, ...]
    scheme: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "line_indices", tuple(sorted(set(self.line_indices))))
        if not self.attribute:
            raise CorpusError("annotation attribute must be non-empty")
        if not self.values:
            raise CorpusError(f"annotation {self.attribute}: values must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise CorpusError(f"annotation {self.attribute}: duplicate values {self.values}")
        if self.scheme not in SCHEMES:
            raise CorpusError(f"annotation {self.attribute}: unknown scheme {self.scheme!r}")
        if any(i < 0 for i in self.line_indices):
            raise CorpusError(f"annotation {self.attribute}: negative line index")


@dataclass(frozen=True)
class AttributeSchema:
    """The closed set of values an attribute may take for one cancer."""

    cancer: str
    attribute: str
    allowed_values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_values", tuple(self.allowed_values))
        if self.cancer not in CANCERS:
            raise CorpusError(f"schema {self.attribute}: unknown cancer {self.cancer!r}")
        if not self.allowed_values:
            raise CorpusError(f"schema {self.attribute}: allowed_values must be non-empty")
        if len(set(self.allowed_values)) != len(self.allowed_values):
            raise CorpusError(f"schema {self.attribute}: duplicate allowed values")


@dataclass(frozen=True)
class LabeledDocument:
    """A report together with its per-attribute annotations."""

    report: Report
    annotations: Mapping[str, EnrichedAnnotation]

    def __post_init__(self) -> None:
        object.__setattr__(self, "annotations", dict(self.annotations))
        n = len(self.report.lines)
        for attr, ann in self.annotations.items():
            if attr != ann.attribute:
                raise CorpusError(
                    f"doc {self.report.id}: annotation keyed {attr!r} names {ann.attribute!r}"
                )
            if any(i >= n for i in ann.line_indices):
                raise CorpusError(
                    f"doc {self.report.id}: annotation {attr} references line "
                    f"{max(ann.line_indices)} but report has {n} lines"
                )
            if not ann.line_indices and tuple(ann.values) != (NOT_REPORTED,):
                raise CorpusError(
                    f"doc {self.report.id}: annotation {attr} has no highlighted lines "
                    f"but its label is not {NOT_REPORTED!r}"
                )


@dataclass(frozen=True)
class Split:
    """A deterministic train/test partition of a corpus by document id."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class Violation:
    doc_id: str
    attribute: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default=())

    def ok(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)


# ---------------------------------------------------------------------------
# label composition
# ---------------------------------------------------------------------------


def compose_label(values: Sequence[str], schema_order: Sequence[str] | None = None) -> str:
    """Collapse an annotation's value set into a single classification label.

    A single value is returned verbatim.  Multiple values are sorted into
    schema declaration order (lexicographic when no schema is supplied)
    and joined with " and ", e.g. {"grade 2", "grade 1"} -> "grade 1 and
    grade 2".  The result is what the final-stage classifier predicts.
    """
    vals = list(dict.fromkeys(values))
    if not vals:
        raise CorpusError("cannot compose a label from zero values")
    if len(vals) == 1:
        return vals[0]
    if schema_order is not None:
        rank = {v: i for i, v in enumerate(schema_order)}
        vals.sort(key=lambda v: (rank.get(v, len(rank)), v))
    else:
        vals.sort()
    return " and ".join(vals)


# ---------------------------------------------------------------------------
# schema handling
# ---------------------------------------------------------------------------


def load_schemas(path: str | None = None) -> dict[tuple[str, str], AttributeSchema]:
    """Load attribute schemas, keyed by (cancer, attribute).

    Without a path this returns the packaged default schema covering both
    cancers.  Attributes that do not apply to a cancer (laterality for
    colon, perineural invasion for kidney) are simply absent from that
    cancer's mapping.
    """
    what = path or _SCHEMA_RESOURCE
    source = resources.files(__package__).joinpath(_SCHEMA_RESOURCE) if path is None else Path(path)
    payload = read_json(json.loads(source.read_text("utf-8")), dict, what)
    cancers = read_json(
        payload.get("cancers"), dict[str, dict[str, tuple[str, ...]]], f"{what} key 'cancers'"
    )
    return {
        (cancer, attribute): AttributeSchema(cancer, attribute, values)
        for cancer, attrs in cancers.items() for attribute, values in attrs.items()
    }


def schema_value_order(
    schemas: Mapping[tuple[str, str], AttributeSchema] | None, cancer: str, attribute: str
) -> tuple[str, ...] | None:
    """Allowed-value declaration order for composing labels, if known."""
    if schemas is None:
        return None
    schema = schemas.get((cancer, attribute))
    return schema.allowed_values if schema is not None else None


def annotated_documents(
    docs: Iterable[LabeledDocument], attribute: str, at_least: int, purpose: str
) -> list[LabeledDocument]:
    """The documents of ``docs`` annotated for ``attribute``, in order; a
    ValueError naming ``purpose`` if there are fewer than ``at_least``."""
    annotated = [d for d in docs if attribute in d.annotations]
    if len(annotated) < at_least:
        raise ValueError(
            f"{purpose} needs at least {at_least} document{'s' * (at_least != 1)}"
            f" annotated for {attribute!r}, got {len(annotated)}"
        )
    return annotated


def gold_label(
    doc: LabeledDocument,
    attribute: str,
    schemas: Mapping[tuple[str, str], AttributeSchema] | None = None,
) -> str:
    """The classification label of ``doc``'s annotation for ``attribute``,
    composed in the schema's value order when one is known."""
    return compose_label(
        doc.annotations[attribute].values,
        schema_value_order(schemas, doc.report.cancer, attribute),
    )


def validate_against_schema(
    docs: Iterable[LabeledDocument],
    schemas: Mapping[tuple[str, str], AttributeSchema],
) -> ValidationReport:
    """Check every annotation's attribute and values against the schemas."""
    known_attrs = {attr for (_, attr) in schemas}
    violations: list[Violation] = []
    for doc in docs:
        cancer = doc.report.cancer
        for attr, ann in sorted(doc.annotations.items()):
            schema = schemas.get((cancer, attr))
            if schema is None:
                if attr in known_attrs:
                    msg = f"attribute not applicable to {cancer} cancer"
                else:
                    msg = "unknown attribute"
                violations.append(Violation(doc.report.id, attr, msg))
                continue
            for value in ann.values:
                if value not in schema.allowed_values:
                    violations.append(
                        Violation(doc.report.id, attr, f"value {value!r} not in schema")
                    )
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


# per scalar kind: its name, and the exact Python types that json.load gives
# for it (a bool is neither an integer nor a number)
_JSON_KINDS = {
    dict: ("a JSON object", {dict}),
    list: ("a JSON array", {list}),
    str: ("a string", {str}),
    int: ("an integer", {int}),
    float: ("a number", {int, float}),
    bool: ("true or false", {bool}),
}


@cache
def _field_kinds(cls) -> dict:
    """The type of each field of the dataclass ``cls`` that its constructor takes."""
    return {f.name: get_type_hints(cls)[f.name] for f in fields(cls) if f.init}


def _all_finite(numbers: Sequence) -> bool:
    """Whether each of ``numbers`` is a finite float or an integer that a
    float can hold, checked at C speed."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:
        return False


def read_json(value, kind, what: str, optional: Iterable[str] = ()):
    """``value``, as ``json.load`` gives it, read as the type ``kind``:
    ``dict``, ``list``, ``str``, ``int``, ``float`` (any number), ``bool``,
    ``X | None``, ``tuple[X, ...]``, ``tuple[X, Y]``, ``dict[str, X]``, or
    a dataclass, built from a JSON object of its fields, each read by its
    annotation.  A key that is not a field, a field without its key that
    ``optional`` does not name (at any depth), a value of another type, or
    a float that is NaN or infinite (``json.load`` reads them) or an
    integer too large for one is a ValueError naming ``what`` and the path
    to the value.  Numbers are kept as given: an integer read as a float
    stays an integer."""
    scalar = _JSON_KINDS.get(kind)
    if scalar is not None:
        if type(value) not in scalar[1]:
            raise ValueError(f"{what} must be {scalar[0]}, got {type(value).__name__}")
        if kind is float and not _all_finite((value,)):
            raise ValueError(f"{what} must be a finite number, got {value}")
        return value
    if isinstance(kind, type) and is_dataclass(kind):
        payload = read_json(value, dict, what)
        kinds = _field_kinds(kind)
        unknown = sorted(set(payload) - set(kinds))
        if unknown:
            raise ValueError(f"{what}: unknown keys: {', '.join(unknown)}")
        missing = sorted(set(kinds) - set(payload) - set(optional))
        if missing:
            raise ValueError(f"{what}: missing keys: {', '.join(missing)}")
        return kind(**{
            key: read_json(item, kinds[key], f"{what} key {key!r}", optional)
            for key, item in payload.items()
        })
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict:
        return {
            key: read_json(item, args[1], f"{what} key {key!r}", optional)
            for key, item in read_json(value, dict, what).items()
        }
    if origin is tuple:
        items = read_json(value, list, what)
        if args[1:] == (...,):
            # an array of scalars is checked at C speed when it is right
            if set(map(type, items)) <= _JSON_KINDS.get(args[0], ("", set()))[1] and (
                args[0] is not float or _all_finite(items)
            ):
                return tuple(items)
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ValueError(f"{what} must be a JSON array of {len(args)} items, got {len(items)}")
        return tuple(
            read_json(item, arg, f"{what}[{i}]", optional)
            for i, (item, arg) in enumerate(zip(items, args))
        )
    if value is None and type(None) in args:
        return None
    (inner,) = set(args) - {type(None)}  # X | None
    return read_json(value, inner, what, optional)


# the sla and the baseline model bundles share one format version
_BUNDLE_VERSION = 1


def bundle_header(kind: str) -> dict:
    """The first keys of a model bundle of ``kind``."""
    return {"version": _BUNDLE_VERSION, "kind": kind}


def read_key(payload: Mapping, key: str, kind, what: str):
    """``read_json`` of ``payload[key]``, named ``what`` key ``key``; a
    missing key is a ValueError naming ``what`` and the key."""
    if key not in payload:
        raise ValueError(f"{what} has no key {key!r}")
    return read_json(payload[key], kind, f"{what} key {key!r}")


def check_bundle(payload: Mapping, what: str, keys: Iterable[str]) -> None:
    """A ValueError unless the bundle ``payload``, named ``what``, has this
    version and, besides the header's, each key of ``keys`` and no other."""
    if payload.get("version") != _BUNDLE_VERSION:
        raise ValueError(
            f"unsupported {what} version {payload.get('version')!r} (expected {_BUNDLE_VERSION})"
        )
    unknown = sorted(set(payload) - set(bundle_header("")) - set(keys))
    if unknown:
        raise ValueError(f"{what}: unknown keys: {', '.join(unknown)}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{what} has no key {key!r}")


def doc_to_record(doc: LabeledDocument) -> dict:
    return {
        "id": doc.report.id,
        "cancer": doc.report.cancer,
        "lines": list(doc.report.lines),
        "annotations": [
            {
                "attribute": ann.attribute,
                "values": list(ann.values),
                "lines": list(ann.line_indices),
                "scheme": ann.scheme,
            }
            for _, ann in sorted(doc.annotations.items())
        ],
    }


def record_to_doc(record: Mapping) -> LabeledDocument:
    """The document a corpus record holds; a missing field is a CorpusError
    and a field of the wrong JSON type a ValueError, each naming it."""

    def read(payload, key: str, kind, what: str = "field"):
        return read_json(payload[key], kind, f"{what} {key!r}")

    try:
        read_json(record, dict, "the record")
        report = Report(
            read(record, "id", str), read(record, "cancer", str),
            read(record, "lines", tuple[str, ...]),
        )
        annotations = {}
        raws = read_json(record.get("annotations", []), list, "field 'annotations'")
        for i, raw in enumerate(raws):
            what = f"annotation {i} field"
            read_json(raw, dict, f"annotation {i}")
            ann = EnrichedAnnotation(
                attribute=read(raw, "attribute", str, what),
                values=read(raw, "values", tuple[str, ...], what),
                line_indices=read(raw, "lines", tuple[int, ...], what),
                scheme=read(raw, "scheme", str, what),
            )
            if ann.attribute in annotations:
                raise CorpusError(f"duplicate annotation for attribute {ann.attribute!r}")
            annotations[ann.attribute] = ann
        return LabeledDocument(report=report, annotations=annotations)
    except KeyError as exc:
        raise CorpusError(f"missing field {exc}") from exc


def load_corpus(path: str) -> list[LabeledDocument]:
    """Read a JSON-lines corpus.  Raises CorpusError naming the bad record."""
    docs: list[LabeledDocument] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: record {lineno}: invalid JSON ({exc})") from exc
            try:
                doc = record_to_doc(record)
            except ValueError as exc:
                raise CorpusError(f"{path}: record {lineno}: {exc}") from exc
            if doc.report.id in seen:
                raise CorpusError(f"{path}: record {lineno}: duplicate id {doc.report.id!r}")
            seen.add(doc.report.id)
            docs.append(doc)
    return docs


def corpus_to_jsonl(docs: Iterable[LabeledDocument]) -> str:
    """Canonical JSON-lines serialization (round-trips byte-exactly)."""
    return "".join(
        json.dumps(doc_to_record(doc), ensure_ascii=False) + "\n" for doc in docs
    )


def save_corpus(docs: Iterable[LabeledDocument], path: str) -> None:
    """Write a corpus in canonical JSON-lines form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_jsonl(docs))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def split_corpus(docs: Sequence[LabeledDocument], train_size: int, seed: int) -> Split:
    """Deterministically partition a corpus into train/test by document id.

    The same (document order, train_size, seed) always yields the same
    split.  Both sides keep the corpus's original document order.
    """
    ids = [doc.report.id for doc in docs]
    if not 1 <= train_size <= len(ids) - 1:
        raise ValueError(
            f"train_size must be in [1, {len(ids) - 1}] for {len(ids)} documents, "
            f"got {train_size}"
        )
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    chosen = set(shuffled[:train_size])
    train = tuple(i for i in ids if i in chosen)
    test = tuple(i for i in ids if i not in chosen)
    return Split(train_ids=train, test_ids=test, seed=seed)


def select_documents(
    docs: Sequence[LabeledDocument], ids: Iterable[str]
) -> list[LabeledDocument]:
    by_id = {doc.report.id: doc for doc in docs}
    return [by_id[i] for i in ids]
