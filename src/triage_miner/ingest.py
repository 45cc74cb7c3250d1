"""Read bug-report CSV exports and encode the five categorical attributes,
in one pass from the CSV bytes to bug ids, codebooks and the records as a
table of distinct code rows plus one table index per record. The ids are
held as BugIds, and a repeated id is found after the pass from sorted hashes.

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
import itertools
import operator
from typing import IO, Iterable, Iterator, Mapping, Sequence

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
ID_CHUNK = 1 << 13  # bug ids per chunk of BugIds


class BugIds:
    """Bug ids in file order, ID_CHUNK to a chunk: each chunk's ids joined into
    one string, with an int64 array of each id's end offset in it."""

    def __init__(self) -> None:
        self.joined: list[tuple[str, np.ndarray]] = []  # each chunk's text and end offsets

    def add_chunk(self, ids: Sequence[str]) -> np.ndarray:
        """Join ``ids`` into the next chunk; returns their hashes as int64."""
        self.joined.append(("".join(ids), np.fromiter(map(len, ids), np.int64, len(ids)).cumsum()))
        return np.fromiter(map(hash, ids), np.int64, len(ids))

    def __len__(self) -> int:
        return sum(len(ends) for _, ends in self.joined)

    def __getitem__(self, row: int) -> str:
        chunk, at = divmod(row, ID_CHUNK)
        text, ends = self.joined[chunk]
        return text[ends[at - 1] if at else 0 : ends[at]]

    def chunks(self) -> Iterator[tuple[int, list[str]]]:
        """Each chunk's first record number and its ids."""
        for chunk, (text, ends) in enumerate(self.joined):
            yield chunk * ID_CHUNK, [text[a:b] for a, b in itertools.pairwise([0, *ends.tolist()])]

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(ids for _, ids in self.chunks())


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
) -> tuple[BugIds, dict[Attribute, tuple[str, ...]], np.ndarray, np.ndarray]:
    """Read a UTF-8 CSV with a header row in one pass: the bug ids in file
    order as BugIds, all five codebooks, the distinct code ``rows`` in order
    of first appearance (an ``(m, 5)`` int64 array, one column per Attribute)
    and each record's int32 row ``index``, so the records are ``rows[index]``.

    ``column_map`` maps each logical field (see LOGICAL_FIELDS) to the header
    name that carries it; each mapped header must appear exactly once. A
    leading UTF-8 byte-order mark is skipped. Cells are trimmed, blank and
    "--" attribute cells become "Unspecified", and labels compare without
    case. The first bad row in file order is the one reported: a fault
    found in the pass first checks the rows read so far for a repeated id.
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
                    raise UnknownCategoryError(
                        f"unknown {attribute.display} label: {label!r} at line {reader.line_num}"
                    )
                labels[attribute].append(label)
                code = folded[attribute][key] = len(labels[attribute])
            cell_codes[attribute][cell] = code
            return code

        bug_ids, pending, hashes = BugIds(), [], [np.empty(0, np.int64)]  # pending: not in a chunk

        def check_ids() -> None:  # only ids that share a hash are compared, as strings
            if pending:
                hashes.append(bug_ids.add_chunk(pending))
            ordered = np.sort(joined := np.concatenate(hashes))
            first_row: dict[str, int] = {}  # each compared id's first row
            for row in np.flatnonzero(np.isin(joined, ordered[1:][ordered[1:] == ordered[:-1]])):
                if first_row.setdefault(bug_ids[row], row) != row:  # the first repeat in file order
                    raise DuplicateIdError(f"duplicate bug_id: {bug_ids[row]!r}")

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
                pending.append(bug_id)
                if len(pending) == ID_CHUNK:
                    hashes.append(bug_ids.add_chunk(pending))
                    pending = []
                row = pick_attributes(cells)
                codes = (*map(dict.get, cell_codes, row),)
                if None in codes:
                    codes = (*map(code_of, Attribute, row),)
                index.append(row_of.setdefault(codes, len(row_of)))
        except (csv.Error, UnicodeDecodeError, RowError, UnknownCategoryError) as exc:
            check_ids()  # a repeated id on an earlier row is the first fault
            if isinstance(exc, (RowError, UnknownCategoryError)):
                raise
            raise RowError(f"unreadable row at line {reader.line_num}: {exc}") from exc
        check_ids()
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
