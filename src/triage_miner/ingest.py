"""Read bug-report CSV exports and encode the five categorical attributes,
in one pass from the CSV bytes to bug ids, codebooks and the records as a
table of distinct code rows plus one table index per record.

An attribute's codebook is the tuple of its labels in code order: code c
is ``labels[c - 1]``. Severity and priority use the fixed scales
SEVERITY_LABELS and PRIORITY_LABELS (codes 1..7 and 1..5); component,
operating system and assignee get codes 1..n in first-appearance order, so
a single pass over the input fully determines every codebook.
"""

from __future__ import annotations

import csv
import enum
import io
import operator
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
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


def decode(labels: Sequence[str], codes: Iterable[int]) -> list[str]:
    """The label of each code in a codebook. Every code ingest hands out lies
    in 1..len(labels), so one outside it is an internal fault."""
    decoded = []
    for code in codes:
        if not 1 <= code <= len(labels):
            raise ConsistencyError(f"code {code} is outside its codebook of {len(labels)} labels")
        decoded.append(labels[code - 1])
    return decoded


def read_bug_csv(
    source: IO[bytes], column_map: Mapping[str, str]
) -> tuple[list[str], dict[Attribute, tuple[str, ...]], np.ndarray, np.ndarray]:
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

        # per attribute: its labels in code order, each learned one in its
        # first-seen casing, and folded label -> code
        labels = [list(SEVERITY_LABELS), list(PRIORITY_LABELS), [], [], []]
        folded = [{label.casefold(): code for code, label in enumerate(book, 1)} for book in labels]
        # per attribute: raw cell -> code, so a repeated cell skips normalising
        cell_codes: list[dict[str, int]] = [{} for _ in Attribute]

        def code_of(attribute: Attribute, cell: str) -> int:
            label = cell.strip()
            if label in BLANK_CELLS:
                label = UNSPECIFIED
            key = label.casefold()
            code = folded[attribute].get(key)
            if code is None:
                if attribute in (Attribute.SEVERITY, Attribute.PRIORITY):
                    raise UnknownCategoryError(attribute.display, label, reader.line_num)
                labels[attribute].append(label)
                code = folded[attribute][key] = len(labels[attribute])
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

    codebooks = {attribute: tuple(labels[attribute]) for attribute in Attribute}
    rows = np.array(list(row_of), dtype=np.int64).reshape(-1, len(Attribute))
    return bug_ids, codebooks, rows, np.array(index, dtype=np.int32)


def codebooks_to_json(codebooks: Mapping[Attribute, Sequence[str]]) -> dict[str, dict[str, int]]:
    """JSON-ready view: attribute display name -> {label: code}."""
    return {
        attribute.display: {label: code for code, label in enumerate(codebooks[attribute], 1)}
        for attribute in Attribute
    }
