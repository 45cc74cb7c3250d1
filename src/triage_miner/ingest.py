"""Read bug-report CSV exports and encode the five categorical attributes,
in one pass from the CSV bytes to bug ids, codebooks and the records as a
table of distinct code rows plus one table index per record. The ids are
held as BugIds. A repeated id is found after the pass from one buffer of the
ids' hashes, sorted in place; only if some hash repeats are the ids decoded,
a chunk at a time, and hashed again to find those that share it.

A line is read in full only the first time its text, less its id cell,
appears: a cache of up to LINE_CACHE such texts gives each one's table row,
so a repeated line costs one split and one lookup. A line holding a double
quote or a NUL is read by ``csv.reader``, which defines every quoted line.
Each line read in full is checked for undecodable bytes, so one is reported
at its own line.

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
import json
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
READ_BATCH = 1 << 16  # characters of whole lines read at a time, past which a batch ends
LINE_CACHE = 1 << 16  # line texts whose table row is cached, at most; cleared when full


class BugIds:
    """Bug ids in file order, ID_CHUNK to a chunk. A chunk is its ids' JSON
    encodings joined by newlines, which an encoded string never holds, so
    ``clusters.json`` copies the encodings and an id is decoded only when
    it is read."""

    def __init__(self) -> None:
        self.encoded: list[str] = []  # each chunk's JSON text
        self.count = 0

    def add_chunk(self, ids: Sequence[str]) -> np.ndarray:
        """Encode ``ids`` as the next chunk; returns their hashes as int64."""
        self.encoded.append(json.dumps(ids, ensure_ascii=False, separators=("\n", ":"))[1:-1])
        self.count += len(ids)
        return np.fromiter(map(hash, ids), np.int64, len(ids))

    def __len__(self) -> int:
        return self.count

    def chunks(self) -> Iterator[tuple[int, list[str]]]:
        """Each chunk's first record number and its ids' JSON encodings."""
        for chunk, text in enumerate(self.encoded):
            yield chunk * ID_CHUNK, text.split("\n")

    def __iter__(self) -> Iterator[str]:
        for text in self.encoded:
            yield from json.loads("[" + text.replace("\n", ",") + "]")


def decode(labels: Sequence[str], codes: Iterable[int]) -> list[str]:
    """The label of each code in a codebook. Every code ingest hands out lies
    in 1..len(labels), so one outside it is an internal fault."""
    decoded = []
    for code in codes:
        if not 1 <= code <= len(labels):
            raise ConsistencyError(f"code {code} is outside its codebook of {len(labels)} labels")
        decoded.append(labels[code - 1])
    return decoded


def _decoded(line: str) -> str:
    """``line``, read with ``errors="surrogateescape"``; raises the strict
    decoder's UnicodeDecodeError if it holds an undecodable byte."""
    if not line.isascii():
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    return line


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

    Lines end at CRLF, LF or a bare CR, and are read READ_BATCH characters
    at a time. A line with no double quote, no NUL and no cell longer than
    ``csv.field_size_limit()`` is split at commas, as ``csv.reader`` would
    split it, and the line with its id cell cut out keys a cache of table
    rows (LINE_CACHE lines at most), so a repeated line skips every
    per-cell step. Any other line, and the lines a quoted cell continues
    on, go through ``csv.reader``. The bytes are decoded with
    ``surrogateescape`` and a line is checked when it is read in full, so
    an undecodable byte is reported at its own line; a cached text was
    checked when it was read, and a line whose id is not ASCII is read in
    full.
    """
    missing_fields = [f for f in LOGICAL_FIELDS if f not in column_map]
    if missing_fields:
        raise SchemaError(f"column_map lacks logical fields: {', '.join(missing_fields)}")

    text = io.TextIOWrapper(source, encoding="utf-8-sig", errors="surrogateescape", newline="")
    try:
        header_reader = csv.reader(map(_decoded, text))
        try:
            header = next(header_reader, None)
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
        # a line's text less its id cell decides its row, unless the id is an attribute too
        cacheable = id_position not in positions[1:]
        width, limit = len(header), csv.field_size_limit()

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
                        f"unknown {attribute.display} label: {label!r} at line {line_now()}"
                    )
                labels[attribute].append(label)
                code = folded[attribute][key] = len(labels[attribute])
            cell_codes[attribute][cell] = code
            return code

        # pending: ids not yet in a chunk; hashes: the int64 hash of each id in a chunk
        bug_ids, pending, hashes = BugIds(), [], bytearray()

        def add_chunks(whole_only: bool) -> None:  # pending ids to BugIds, ID_CHUNK a chunk
            nonlocal hashes
            while len(pending) >= ID_CHUNK or (pending and not whole_only):
                hashes += memoryview(bug_ids.add_chunk(pending[:ID_CHUNK]))
                del pending[:ID_CHUNK]

        def check_ids() -> None:  # only ids that share a hash are compared, as strings
            add_chunks(whole_only=False)
            ordered = np.frombuffer(hashes, np.int64)
            ordered.sort()  # in place, so the ids are hashed again for their file order
            shared = set(ordered[1:][ordered[1:] == ordered[:-1]].tolist())
            if not shared:
                return
            seen: set[str] = set()  # each compared id, in file order
            for bug_id in bug_ids:
                if hash(bug_id) in shared:
                    if bug_id in seen:  # the first repeat in file order
                        raise DuplicateIdError(f"duplicate bug_id: {bug_id!r}")
                    seen.add(bug_id)

        row_of: dict[tuple[int, ...], int] = {}  # code row -> its row in ``rows``
        cache: dict[str, int] = {}  # a split line, its id cell cut out -> its row in ``rows``
        # each record's row in ``rows``, as int32; a batch's rows are moved there as a batch ends
        index, batch_index = bytearray(), []
        skipped = header_reader.line_num  # lines that are no record: header, blanks, continuations

        def line_now() -> int:  # the line of the record being read (its last, if quoted)
            return skipped + len(index) // 4 + len(batch_index) + 1

        def read_row(line: str, key: str, batch_lines: Iterator[str]) -> int | None:
            """Read ``line`` in full: its row in ``rows``, or None if it is
            blank. A quoted cell continues on the batch's lines, then the file's."""
            nonlocal skipped
            if '"' not in line and "\0" not in line and len(line) <= limit:
                if not line.isascii():
                    try:
                        _decoded(line)
                    except UnicodeDecodeError as exc:
                        raise RowError(f"unreadable row at line {line_now()}: {exc}") from exc
                # a blank line starts with its line end; a last cell keeps
                # the line end, which stripping a cell removes
                cells = [] if line[0] in "\r\n" else line.split(",")
            else:
                reader = csv.reader(map(_decoded, itertools.chain((line,), batch_lines, text)))
                try:
                    cells = next(reader)
                except csv.Error as exc:
                    at = line_now() + reader.line_num - 1
                    raise RowError(f"unreadable row at line {at}: {exc}") from exc
                except UnicodeDecodeError as exc:  # on the line after those the reader took
                    at = line_now() + reader.line_num
                    raise RowError(f"unreadable row at line {at}: {exc}") from exc
                skipped += reader.line_num - 1
                key = ""  # a line csv.reader reads is never cached
            if not cells:
                skipped += 1  # fully blank line
                return None
            if len(cells) != width:
                raise RowError(
                    f"row at line {line_now()} has {len(cells)} cells, header has {width}"
                )
            bug_id = cells[id_position].strip()
            if not bug_id:
                raise RowError(f"row at line {line_now()} has an empty bug_id")
            pending.append(bug_id)
            row = pick_attributes(cells)
            try:
                codes = (*map(operator.getitem, cell_codes, row),)
            except KeyError:
                codes = (*map(code_of, Attribute, row),)
            table_row = row_of.setdefault(codes, len(row_of))
            if key and cacheable:
                if len(cache) == LINE_CACHE:
                    cache.clear()
                cache[key] = table_row
            return table_row

        if id_position == 0:
            split_id = str.partition
        else:

            def split_id(line: str, comma: str) -> tuple[str, str, str]:
                """The id cell, a comma, and the line with the id cell emptied."""
                cells = line.split(comma, id_position)
                if len(cells) <= id_position:
                    return "", "", ""  # too few cells: read in full, never cached
                raw_id, after, rest = cells[-1].partition(comma)
                return raw_id, comma, line[: len(line) - len(cells[-1])] + after + rest

        try:
            while batch := text.readlines(READ_BATCH):
                batch_lines = iter(batch)
                for line in batch_lines:
                    raw_id, _, key = split_id(line, ",")
                    row = cache.get(key)
                    # a cached text was split as csv.reader splits it and
                    # is decodable, so only the id cell is left to check
                    if (
                        row is None
                        or not raw_id.isascii()
                        or '"' in raw_id
                        or "\0" in raw_id
                        or len(raw_id) > limit
                    ):
                        row = read_row(line, key, batch_lines)
                        if row is None:
                            continue
                    else:
                        bug_id = raw_id.strip()
                        if not bug_id:
                            raise RowError(f"row at line {line_now()} has an empty bug_id")
                        pending.append(bug_id)
                    batch_index.append(row)
                index += memoryview(np.fromiter(batch_index, np.int32, len(batch_index)))
                batch_index.clear()
                add_chunks(whole_only=True)
            cache.clear()  # dead once the lines are read, so not held while ids and rows are
        except (RowError, UnknownCategoryError):
            check_ids()  # a repeated id on an earlier row is the first fault
            raise
        check_ids()
    finally:
        text.detach()  # leave ownership of the byte stream with the caller

    codebooks = {attribute: tuple(labels[attribute]) for attribute in Attribute}
    rows = np.fromiter(itertools.chain.from_iterable(row_of), np.int64, len(row_of) * len(Attribute))
    return bug_ids, codebooks, rows.reshape(-1, len(Attribute)), np.frombuffer(index, np.int32)


def codebooks_to_json(codebooks: Mapping[Attribute, Sequence[str]]) -> dict[str, dict[str, int]]:
    """JSON-ready view: attribute display name -> {label: code}."""
    return {
        attribute.display: {label: code for code, label in enumerate(codebooks[attribute], 1)}
        for attribute in Attribute
    }
