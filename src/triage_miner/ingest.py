"""Read bug-report CSV exports and encode the five categorical attributes,
in one pass from the CSV bytes to bug ids, codebooks and the records as a
table of distinct code rows plus one table index per record.

Severity and priority use fixed integer scales (1..7 and 1..5). Component,
operating system and assignee get codes 1..n in first-appearance order, so a
single pass over the input fully determines every codebook.
"""

from __future__ import annotations

import csv
import enum
import io
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import (
    DuplicateIdError,
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
        """The name in CamelCase, as in "OperatingSystem"."""
        return self.name.title().replace("_", "")

SEVERITY_LABELS = ("Blocker", "Critical", "Major", "Normal", "Minor", "Trivial", "Enhancement")
PRIORITY_LABELS = ("P1", "P2", "P3", "P4", "P5")

#: Logical field names accepted in a column map, in record order.
LOGICAL_FIELDS = ("bug_id", "severity", "priority", "component", "operating_system", "assignee")


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

    def decode(self, code: int) -> str:
        label = self.reverse.get(code)
        if label is None:
            raise UnknownCategoryError(self.attribute.display, f"code {code}")
        return label

    @classmethod
    def from_labels(cls, attribute: Attribute, labels: Iterable[str]) -> "Codebook":
        """Codes 1..n in the order of ``labels``."""
        forward = {label: i for i, label in enumerate(labels, start=1)}
        return cls(attribute, forward, {c: l for l, c in forward.items()})


SEVERITY_CODEBOOK = Codebook.from_labels(Attribute.SEVERITY, SEVERITY_LABELS)
PRIORITY_CODEBOOK = Codebook.from_labels(Attribute.PRIORITY, PRIORITY_LABELS)


def read_bug_csv(
    source: IO[bytes], column_map: Mapping[str, str]
) -> tuple[list[str], dict[Attribute, Codebook], np.ndarray, np.ndarray]:
    """Read a UTF-8 CSV with a header row in one pass: the bug ids in file
    order, all five codebooks, the distinct code ``rows`` in first-appearance
    order (an ``(m, 5)`` int64 array, one column per Attribute) and each
    record's int32 row ``index``, so the records are ``rows[index]``.

    ``column_map`` maps each logical field (see LOGICAL_FIELDS) to the header
    name that carries it; each mapped header must appear exactly once. A
    leading UTF-8 byte-order mark is skipped. Cells are trimmed, blank and
    "--" attribute cells become "Unspecified", and labels compare without
    case. Rows are checked in file order, so the first bad row is the one
    reported.
    """
    missing_fields = [f for f in LOGICAL_FIELDS if f not in column_map]
    if missing_fields:
        raise SchemaError(f"column_map lacks logical fields: {', '.join(missing_fields)}")

    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise RowError(f"unreadable header row: {exc}") from exc
        if header is None:
            raise SchemaError("input CSV has no header row")

        positions = []
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
            positions.append(header.index(column))
        id_position = positions[0]
        pick_attributes = operator.itemgetter(*positions[1:])

        # per attribute: folded label -> code; the learned attributes also
        # keep their labels in code order, each in its first-seen casing
        folded = [SEVERITY_CODEBOOK._folded, PRIORITY_CODEBOOK._folded, {}, {}, {}]
        learned: dict[Attribute, list[str]] = {
            Attribute.COMPONENT: [],
            Attribute.OPERATING_SYSTEM: [],
            Attribute.ASSIGNEE: [],
        }
        # per attribute: raw cell -> code, so a repeated cell skips normalising
        cell_codes: list[dict[str, int]] = [{} for _ in Attribute]

        def code_of(attribute: Attribute, cell: str) -> int:
            label = cell.strip()
            if label in BLANK_CELLS:
                label = UNSPECIFIED
            key = label.casefold()
            code = folded[attribute].get(key)
            if code is None:
                labels = learned.get(attribute)
                if labels is None:
                    raise UnknownCategoryError(attribute.display, label, reader.line_num)
                labels.append(label)
                code = folded[attribute][key] = len(labels)
            cell_codes[attribute][cell] = code
            return code

        bug_ids: list[str] = []
        seen_ids: set[str] = set()
        row_of: dict[tuple[int, ...], int] = {}  # code row -> its row in ``rows``
        index: list[int] = []
        width = len(header)
        try:
            for cells in reader:
                if not cells:
                    continue  # fully blank line
                if len(cells) != width:
                    raise RowError(
                        f"row at line {reader.line_num} has {len(cells)} cells, header has {width}"
                    )
                bug_id = cells[id_position].strip()
                if not bug_id:
                    raise RowError(f"row at line {reader.line_num} has an empty bug_id")
                if bug_id in seen_ids:
                    raise DuplicateIdError(f"duplicate bug_id: {bug_id!r}")
                seen_ids.add(bug_id)
                bug_ids.append(bug_id)
                row = pick_attributes(cells)
                codes = (*map(dict.get, cell_codes, row),)
                if None in codes:
                    codes = (*map(code_of, Attribute, row),)
                index.append(row_of.setdefault(codes, len(row_of)))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise RowError(f"unreadable row at line {reader.line_num}: {exc}") from exc
    finally:
        text.detach()  # leave ownership of the byte stream with the caller

    codebooks = {Attribute.SEVERITY: SEVERITY_CODEBOOK, Attribute.PRIORITY: PRIORITY_CODEBOOK}
    for attribute, labels in learned.items():
        codebooks[attribute] = Codebook.from_labels(attribute, labels)
    rows = np.array(list(row_of), dtype=np.int64).reshape(-1, len(Attribute))
    return bug_ids, codebooks, rows, np.array(index, dtype=np.int32)


def codebooks_to_json(codebooks: Mapping[Attribute, Codebook]) -> dict[str, dict[str, int]]:
    """JSON-ready view: attribute display name -> {label: code}."""
    return {attribute.display: dict(codebooks[attribute].forward) for attribute in Attribute}
