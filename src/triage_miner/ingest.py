"""Parse bug-report CSV exports and encode the five categorical attributes.

Severity and priority use fixed integer scales (1..7 and 1..5). Component,
operating system and assignee get codes 1..n in first-appearance order, so a
single pass over the input fully determines every codebook.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import (
    DuplicateIdError,
    ParameterError,
    RowError,
    SchemaError,
    UnknownCategoryError,
)

UNSPECIFIED = "Unspecified"

#: Cell contents treated as "no value" (Bugzilla exports blank cells as "--").
BLANK_CELLS = frozenset({"", "--"})


class Attribute(enum.IntEnum):
    """The five encoded bug attributes, in canonical (itemset) order."""

    SEVERITY = 0
    PRIORITY = 1
    COMPONENT = 2
    OPERATING_SYSTEM = 3
    ASSIGNEE = 4

    @property
    def display(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    Attribute.SEVERITY: "Severity",
    Attribute.PRIORITY: "Priority",
    Attribute.COMPONENT: "Component",
    Attribute.OPERATING_SYSTEM: "OperatingSystem",
    Attribute.ASSIGNEE: "Assignee",
}

SEVERITY_LABELS = ("Blocker", "Critical", "Major", "Normal", "Minor", "Trivial", "Enhancement")
PRIORITY_LABELS = ("P1", "P2", "P3", "P4", "P5")

#: Logical field names accepted in a column map, in record order.
LOGICAL_FIELDS = ("bug_id", "severity", "priority", "component", "operating_system", "assignee")

ATTRIBUTE_FIELDS = LOGICAL_FIELDS[1:]


@dataclass(frozen=True)
class RawBugRow:
    """One input row after normalization, labels still unencoded."""

    bug_id: str
    severity: str
    priority: str
    component: str
    operating_system: str
    assignee: str


@dataclass(frozen=True)
class Codebook:
    """Bijective label<->code mapping for one attribute.

    Lookups trim whitespace and ignore case; stored labels keep the casing
    they were defined with (first-seen casing for learned codebooks).
    """

    attribute: Attribute
    forward: Mapping[str, int]
    reverse: Mapping[int, str]

    @cached_property
    def _folded(self) -> Mapping[str, int]:
        return {label.casefold(): code for label, code in self.forward.items()}

    def encode(self, label: str) -> int:
        code = self._folded.get(label.strip().casefold())
        if code is None:
            raise UnknownCategoryError(self.attribute.display, label)
        return code

    def decode(self, code: int) -> str:
        label = self.reverse.get(code)
        if label is None:
            raise UnknownCategoryError(self.attribute.display, f"code {code}")
        return label

    def __len__(self) -> int:
        return len(self.forward)

    @classmethod
    def fixed(cls, attribute: Attribute, labels: Iterable[str]) -> "Codebook":
        forward = {label: i for i, label in enumerate(labels, start=1)}
        return cls(attribute, forward, {c: l for l, c in forward.items()})


SEVERITY_CODEBOOK = Codebook.fixed(Attribute.SEVERITY, SEVERITY_LABELS)
PRIORITY_CODEBOOK = Codebook.fixed(Attribute.PRIORITY, PRIORITY_LABELS)


def encode_severity(label: str) -> int:
    """Map a severity label to its fixed 1..7 code (1 = most severe)."""
    return SEVERITY_CODEBOOK.encode(label)


def encode_priority(label: str) -> int:
    """Map a priority label P1..P5 to its fixed 1..5 code."""
    return PRIORITY_CODEBOOK.encode(label)


def _normalize_cell(value: str | None) -> str:
    value = (value or "").strip()
    return UNSPECIFIED if value in BLANK_CELLS else value


def parse_csv(source: IO[bytes], column_map: Mapping[str, str]) -> list[RawBugRow]:
    """Read a UTF-8 CSV with a header row into RawBugRows, in file order.

    ``column_map`` maps each logical field (see LOGICAL_FIELDS) to the header
    name that carries it; each mapped header must appear exactly once. A
    leading UTF-8 byte-order mark is skipped. Blank attribute cells become
    "Unspecified".
    """
    missing_fields = [f for f in LOGICAL_FIELDS if f not in column_map]
    if missing_fields:
        raise SchemaError(f"column_map lacks logical fields: {', '.join(missing_fields)}")

    text = io.TextIOWrapper(source, encoding="utf-8-sig")
    try:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise RowError(f"unreadable header row: {exc}") from exc
        if header is None:
            raise SchemaError("input CSV has no header row")

        positions = {}
        for field in LOGICAL_FIELDS:
            column = column_map[field]
            occurrences = header.count(column)
            if occurrences == 0:
                raise SchemaError(f"missing column {column!r} (mapped from {field!r})")
            if occurrences > 1:
                raise SchemaError(
                    f"column {column!r} (mapped from {field!r}) appears {occurrences} times"
                    " in the header"
                )
            positions[field] = header.index(column)

        rows: list[RawBugRow] = []
        seen_ids: set[str] = set()
        width = len(header)
        while True:
            try:
                cells = next(reader, None)
            except (csv.Error, UnicodeDecodeError) as exc:
                raise RowError(f"unreadable row at line {reader.line_num}: {exc}") from exc
            if cells is None:
                break
            if not cells:
                continue  # fully blank line
            if len(cells) != width:
                raise RowError(
                    f"row at line {reader.line_num} has {len(cells)} cells, header has {width}"
                )
            bug_id = cells[positions["bug_id"]].strip()
            if not bug_id:
                raise RowError(f"row at line {reader.line_num} has an empty bug_id")
            if bug_id in seen_ids:
                raise DuplicateIdError(f"duplicate bug_id: {bug_id!r}")
            seen_ids.add(bug_id)
            rows.append(
                RawBugRow(
                    bug_id=bug_id,
                    severity=_normalize_cell(cells[positions["severity"]]),
                    priority=_normalize_cell(cells[positions["priority"]]),
                    component=_normalize_cell(cells[positions["component"]]),
                    operating_system=_normalize_cell(cells[positions["operating_system"]]),
                    assignee=_normalize_cell(cells[positions["assignee"]]),
                )
            )
        return rows
    finally:
        text.detach()  # leave ownership of the byte stream with the caller


class _LearnedCodebookBuilder:
    """Assigns codes 1..n in first-appearance order, case-insensitively."""

    def __init__(self, attribute: Attribute):
        self.attribute = attribute
        self._forward: dict[str, int] = {}
        self._folded: dict[str, int] = {}

    def code_for(self, label: str) -> int:
        label = label.strip()
        key = label.casefold()
        code = self._folded.get(key)
        if code is None:
            code = len(self._forward) + 1
            self._forward[label] = code
            self._folded[key] = code
        return code

    def build(self) -> Codebook:
        reverse = {code: label for label, code in self._forward.items()}
        return Codebook(self.attribute, dict(self._forward), reverse)


def build_codebooks_and_encode(
    rows: list[RawBugRow],
) -> tuple[dict[Attribute, Codebook], np.ndarray]:
    """Encode rows into an ``(n, 5)`` int64 code array, one row per input row
    and one column per Attribute, and return all five codebooks.

    Severity/priority use the fixed scales (unknown labels raise); the other
    three codebooks are learned from the input.
    """
    if not rows:
        raise ParameterError("cannot encode an empty row list")

    component = _LearnedCodebookBuilder(Attribute.COMPONENT)
    operating_system = _LearnedCodebookBuilder(Attribute.OPERATING_SYSTEM)
    assignee = _LearnedCodebookBuilder(Attribute.ASSIGNEE)

    codes = np.array(
        [
            (
                encode_severity(row.severity),
                encode_priority(row.priority),
                component.code_for(row.component),
                operating_system.code_for(row.operating_system),
                assignee.code_for(row.assignee),
            )
            for row in rows
        ],
        dtype=np.int64,
    )
    codebooks = {
        Attribute.SEVERITY: SEVERITY_CODEBOOK,
        Attribute.PRIORITY: PRIORITY_CODEBOOK,
        Attribute.COMPONENT: component.build(),
        Attribute.OPERATING_SYSTEM: operating_system.build(),
        Attribute.ASSIGNEE: assignee.build(),
    }
    return codebooks, codes


def codebooks_to_json(codebooks: Mapping[Attribute, Codebook]) -> dict[str, dict[str, int]]:
    """JSON-ready view: attribute display name -> {label: code}."""
    return {
        attribute.display: dict(codebooks[attribute].forward)
        for attribute in Attribute
        if attribute in codebooks
    }
