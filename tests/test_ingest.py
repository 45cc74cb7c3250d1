import csv
import io
import itertools
import json
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from triage_miner import ingest
from triage_miner.cluster import ClusterModel
from triage_miner.config import PipelineConfig
from triage_miner.errors import (
    ConsistencyError,
    DuplicateIdError,
    InputError,
    RowError,
    SchemaError,
    UnknownCategoryError,
)
from triage_miner.ingest import (
    LOGICAL_FIELDS,
    PRIORITY_LABELS,
    SEVERITY_LABELS,
    Attribute,
    BugIds,
    codebooks_to_json,
    decode,
    read_bug_csv,
)
from triage_miner.pipeline import execute
from triage_miner.report import write_clusters_json

COLUMN_MAP = {
    "bug_id": "id",
    "severity": "sev",
    "priority": "pri",
    "component": "comp",
    "operating_system": "os",
    "assignee": "who",
}
_HEADER = ["id", "sev", "pri", "comp", "os", "who"]
LEARNED = (Attribute.COMPONENT, Attribute.OPERATING_SYSTEM, Attribute.ASSIGNEE)


def _csv(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def _records(payload: bytes):
    """read_bug_csv's bug ids, codebooks and each record's code row
    ``rows[index]``, after checking the table: int64 rows, one int32 index
    entry per record, each row distinct and used, in first-appearance order."""
    bug_ids, codebooks, rows, index = read_bug_csv(io.BytesIO(payload), COLUMN_MAP)
    assert isinstance(bug_ids, BugIds)
    assert rows.dtype == np.int64 and rows.shape == (len(rows), 5)
    assert index.dtype == np.int32 and index.shape == (len(bug_ids),)
    assert len(np.unique(rows, axis=0)) == len(rows)
    used, first = np.unique(index, return_index=True)
    assert used.tolist() == list(range(len(rows)))
    assert (np.diff(first) > 0).all()
    return list(bug_ids), codebooks, rows[index]


# a row fault of each kind, as bytes, with its line in a file that starts
# with it; the undecodable byte follows rows enough to put it past the first
# block of bytes a decoder reads
_LATER_FAULTS = (
    (b"9,normal,P3\n", 2),
    (b",normal,P3,General,Linux,a\n", 2),
    (b"9,normal,P9,General,Linux,a\n", 2),
    (b"".join(b"f%d,normal,P3,General,Linux,a\n" % i for i in range(1000)) + b"9,\xff\n", 1002),
)


def _read(text: str):
    return _records(text.encode("utf-8"))


def _row(bug_id="1", severity="Normal", priority="P3", component="General",
         operating_system="Linux", assignee="alice") -> tuple[str, ...]:
    return (bug_id, severity, priority, component, operating_system, assignee)


def _read_rows(rows):
    """Write rows (in _HEADER order) as a CSV and read them back."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows([_HEADER, *rows])
    return _read(buffer.getvalue())


def _codes_of(**labels) -> list[int]:
    """The code row ingest gives a one-row file holding ``labels`` (see _row)."""
    return _read_rows([_row(**labels)])[2][0].tolist()


class TestParseCsv:
    def test_direct_field_mapping(self):
        payload = "id,sev,pri,comp,os,who\n42,normal,P3,General,Linux,alice\n"
        bug_ids, codebooks, codes = _read(payload)
        assert bug_ids == ["42"]
        assert codes.tolist() == [[4, 3, 1, 1, 1]]
        assert codebooks[Attribute.COMPONENT] == ("General",)
        assert codebooks[Attribute.OPERATING_SYSTEM] == ("Linux",)
        assert codebooks[Attribute.ASSIGNEE] == ("alice",)

    def test_missing_mapped_column_names_it(self):
        bad_map = dict(COLUMN_MAP, severity="severity")
        payload = "id,sev,pri,comp,os,who\n42,normal,P3,General,Linux,alice\n"
        with pytest.raises(SchemaError, match="severity"):
            read_bug_csv(_csv(payload), bad_map)

    def test_blank_cell_becomes_unspecified(self):
        _, codebooks, _ = _read("id,sev,pri,comp,os,who\n42,normal,P3,General,,alice\n")
        assert codebooks[Attribute.OPERATING_SYSTEM] == ("Unspecified",)

    def test_double_dash_cell_becomes_unspecified(self):
        _, codebooks, _ = _read("id,sev,pri,comp,os,who\n42,normal,P3,--,Linux,alice\n")
        assert codebooks[Attribute.COMPONENT] == ("Unspecified",)
        # on a fixed scale "Unspecified" is no level, so the row is rejected
        with pytest.raises(UnknownCategoryError, match="'Unspecified' at line 2"):
            _read("id,sev,pri,comp,os,who\n42,normal,--,General,Linux,alice\n")

    def test_duplicate_bug_id_names_the_id(self):
        payload = "id,sev,pri,comp,os,who\n7,normal,P3,General,Linux,a\n7,major,P2,Sync,All,b\n"
        with pytest.raises(DuplicateIdError, match="7"):
            _read(payload)

    def test_short_row_reports_line_number(self):
        payload = "id,sev,pri,comp,os,who\n1,normal,P3,General,Linux,a\n2,normal,P3\n"
        with pytest.raises(RowError, match="line 3"):
            _read(payload)

    def test_empty_bug_id_is_a_row_error(self):
        with pytest.raises(RowError, match="line 2"):
            _read("id,sev,pri,comp,os,who\n,normal,P3,General,Linux,a\n")

    def test_first_bad_row_in_file_order_is_reported(self):
        unknown_then_duplicate = (
            "id,sev,pri,comp,os,who\n7,S1,P3,General,Linux,a\n7,normal,P3,General,Linux,b\n"
        )
        with pytest.raises(UnknownCategoryError, match="'S1' at line 2"):
            _read(unknown_then_duplicate)
        duplicate_then_unknown = (
            "id,sev,pri,comp,os,who\n7,normal,P3,General,Linux,a\n7,S1,P3,General,Linux,b\n"
        )
        with pytest.raises(DuplicateIdError, match="7"):
            _read(duplicate_then_unknown)

        header, duplicate = b"id,sev,pri,comp,os,who\n", b"7,normal,P3,General,Linux,a\n" * 2
        for fault, line in _LATER_FAULTS:
            with pytest.raises(DuplicateIdError, match="'7'"):
                _records(header + duplicate + fault)
            # the fault alone, and then followed by a duplicate, is reported alike
            with pytest.raises(InputError, match=rf"line {line}\b") as alone:
                _records(header + fault)
            with pytest.raises(type(alone.value)) as first:
                _records(header + fault + duplicate)
            assert str(first.value) == str(alone.value)

        # an undecodable byte is named at its own line, after the rows before it
        # are checked, whatever the line ends and with or without a BOM
        good = [b"f%d,normal,P3,General,Linux,a" % i for i in range(1000)]
        for bom, newline in itertools.product([b"", b"\xef\xbb\xbf"], [b"\n", b"\r\n", b"\r"]):
            head = bom + newline.join([header.rstrip(b"\n"), *good]) + newline
            with pytest.raises(RowError, match="^unreadable row at line 1002: .*0xff"):
                _records(head + b"9,\xff" + newline)
            with pytest.raises(DuplicateIdError, match="'f7'"):
                _records(head + good[7] + newline + b"9,\xff" + newline)

    def test_ids_of_equal_hash_are_compared_as_strings(self, monkeypatch):
        monkeypatch.setattr(ingest, "hash", lambda bug_id: 0, raising=False)
        distinct = [f"b{i}" for i in range(40)]
        assert _read_rows([_row(bug_id) for bug_id in distinct])[0] == distinct
        with pytest.raises(DuplicateIdError, match="'b'"):
            _read_rows([_row(bug_id) for bug_id in ["a", "b", "c", "b", "a"]])

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_ids_are_joined_in_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "ID_CHUNK", chunk)
        distinct = [f"id {i}" for i in range(10)]
        assert _read_rows([_row(bug_id) for bug_id in distinct])[0] == distinct
        # the repeat's pair straddles a chunk boundary
        repeated = [*distinct[: chunk + 1], distinct[chunk - 1]]
        with pytest.raises(DuplicateIdError, match=f"'{distinct[chunk - 1]}'"):
            _read_rows([_row(bug_id) for bug_id in repeated])
        # and is found when a later row of the same batch of lines fails,
        # with more than a chunk of ids not yet in a chunk
        with pytest.raises(DuplicateIdError, match=f"'{distinct[chunk - 1]}'"):
            _read_rows([_row(bug_id) for bug_id in [*repeated, *distinct[-3:]]] + [("x",)])

    def test_unknown_priority_names_its_line(self):
        payload = (
            "id,sev,pri,comp,os,who\n1,normal,P3,General,Linux,a\n2,normal,P9,General,Linux,a\n"
        )
        with pytest.raises(UnknownCategoryError, match="'P9' at line 3") as err:
            _read(payload)
        assert err.value.exit_code == 2

    def test_duplicate_mapped_header_names_the_column(self):
        payload = "id,sev,pri,comp,os,who,comp\n42,normal,P3,General,Linux,alice,Sync\n"
        with pytest.raises(SchemaError, match="'comp'.*2 times"):
            _read(payload)

    def test_duplicate_unmapped_header_is_allowed(self):
        payload = "id,sev,pri,comp,os,who,note,note\n42,normal,P3,General,Linux,alice,x,y\n"
        bug_ids, codebooks, codes = _read(payload)
        assert bug_ids == ["42"]
        assert codes.tolist() == [[4, 3, 1, 1, 1]]
        assert codebooks[Attribute.COMPONENT] == ("General",)

    def test_incomplete_column_map_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="assignee"):
            read_bug_csv(_csv("id\n1\n"), {"bug_id": "id"})

    def test_rows_keep_file_order(self):
        payload = "id,sev,pri,comp,os,who\n" + "".join(
            f"b{i},normal,P3,C{i % 3},Linux,a\n" for i in range(20)
        )
        bug_ids, _, codes = _read(payload)
        assert bug_ids == [f"b{i}" for i in range(20)]
        assert codes[:, Attribute.COMPONENT].tolist() == [i % 3 + 1 for i in range(20)]

    def test_quoted_line_breaks_are_kept_as_written(self):
        # a "\r\n" inside a quoted cell must not be turned into "\n"
        payload = (
            'id,sev,pri,comp,os,who\r\n'
            '1,normal,P3,"Build\r\nConfig",Linux,a\r\n'
            '2,normal,P3,"Build\nConfig",Linux,a\r\n'
        )
        _, codebooks, codes = _read(payload)
        assert codes[:, Attribute.COMPONENT].tolist() == [1, 2]
        assert codebooks[Attribute.COMPONENT] == ("Build\r\nConfig", "Build\nConfig")

    def test_an_id_column_mapped_as_an_attribute_too_is_read_per_line(self):
        # the lines differ only in the id cell, which is also the assignee's
        column_map = dict(COLUMN_MAP, assignee="id")
        payload = "id,sev,pri,comp,os,who\n" + "".join(
            f"a{i},normal,P3,General,Linux,x\n" for i in range(3)
        )
        _, codebooks, rows, index = read_bug_csv(_csv(payload), column_map)
        assert codebooks[Attribute.ASSIGNEE] == ("a0", "a1", "a2")
        assert rows[index][:, Attribute.ASSIGNEE].tolist() == [1, 2, 3]

    def test_does_not_close_the_source_stream(self):
        stream = _csv("id,sev,pri,comp,os,who\n1,normal,P3,General,Linux,a\n")
        read_bug_csv(stream, COLUMN_MAP)
        assert not stream.closed


class TestFixedScales:
    """The fixed severity and priority scales, read through ingest."""

    def test_blocker_is_level_one(self):
        assert _codes_of(severity="blocker")[Attribute.SEVERITY] == 1

    def test_enhancement_is_level_seven(self):
        assert _codes_of(severity="enhancement")[Attribute.SEVERITY] == 7

    def test_severity_lookup_ignores_case(self):
        assert _codes_of(severity="Normal")[Attribute.SEVERITY] == 4
        assert _codes_of(severity="  CRITICAL  ")[Attribute.SEVERITY] == 2

    def test_priority_endpoints(self):
        assert _codes_of(priority="P1")[Attribute.PRIORITY] == 1
        assert _codes_of(priority="P5")[Attribute.PRIORITY] == 5

    def test_priority_lookup_ignores_case(self):
        assert _codes_of(priority="p3")[Attribute.PRIORITY] == 3

    def test_unknown_severity_carries_the_label(self):
        with pytest.raises(UnknownCategoryError, match="S1"):
            _codes_of(severity="S1")

    def test_unknown_priority_rejected(self):
        with pytest.raises(UnknownCategoryError, match="P6"):
            _codes_of(priority="P6")

    @pytest.mark.parametrize(
        "label,code",
        [("blocker", 1), ("critical", 2), ("major", 3), ("normal", 4),
         ("minor", 5), ("trivial", 6), ("enhancement", 7)],
    )
    def test_full_severity_scale(self, label, code):
        assert _codes_of(severity=label)[Attribute.SEVERITY] == code


class TestBuildCodebooks:
    def test_first_appearance_order(self):
        rows = [_row("1", component="General"), _row("2", component="Sync"),
                _row("3", component="General")]
        _, codebooks, _ = _read_rows(rows)
        assert codebooks[Attribute.COMPONENT] == ("General", "Sync")

    def test_singleton_learned_codebooks(self):
        _, codebooks, codes = _read_rows([_row()])
        for attribute in LEARNED:
            assert len(codebooks[attribute]) == 1
        assert codes.shape == (1, 5) and codes.dtype == np.int64
        assert codes[0, 2] == codes[0, 3] == codes[0, 4] == 1

    def test_assignee_codes_round_trip(self):
        names = ["ann", "bob", "cal", "dee"]
        rows = [_row(str(i), assignee=names[i % 4]) for i in range(10)]
        _, codebooks, codes = _read_rows(rows)
        book = codebooks[Attribute.ASSIGNEE]
        assert book == tuple(names)
        # every record decodes to its original label
        assert decode(book, codes[:, Attribute.ASSIGNEE].tolist()) == [row[5] for row in rows]

    @pytest.mark.parametrize("code", [0, -1, 3])
    def test_decode_rejects_a_code_outside_the_codebook(self, code):
        # ingest hands out codes 1..len only, so any other is an internal
        # fault (exit 3); code 0 must not wrap round to the last label
        with pytest.raises(ConsistencyError, match=f"code {code} ") as err:
            decode(("a", "b"), [1, code])
        assert err.value.exit_code == 3

    def test_empty_input_rejected(self, tmp_path):
        # a header alone reads as zero rows, and a run rejects it as bad input
        bug_ids, _, codes = _read_rows([])
        assert bug_ids == [] and codes.shape == (0, 5)
        path = tmp_path / "empty.csv"
        path.write_text(",".join(LOGICAL_FIELDS) + "\n")
        with pytest.raises(InputError, match="no data rows"):
            execute(PipelineConfig(input_path=str(path)))

    def test_unknown_severity_propagates(self):
        with pytest.raises(UnknownCategoryError, match="'catastrophic' at line 2"):
            _read_rows([_row(severity="catastrophic")])

    def test_case_insensitive_learned_labels_keep_first_casing(self):
        rows = [_row("1", component="General"), _row("2", component="GENERAL")]
        _, codebooks, codes = _read_rows(rows)
        assert codebooks[Attribute.COMPONENT] == ("General",)
        assert codes[:, Attribute.COMPONENT].tolist() == [1, 1]

    def test_codebooks_json_shape(self):
        _, codebooks, _ = _read_rows([_row()])
        assert codebooks[Attribute.SEVERITY] == SEVERITY_LABELS
        assert codebooks[Attribute.PRIORITY] == PRIORITY_LABELS
        payload = codebooks_to_json(codebooks)
        assert payload["Severity"]["Blocker"] == 1
        assert list(payload["Severity"].values()) == list(range(1, 8))
        assert payload["Priority"] == {"P1": 1, "P2": 2, "P3": 3, "P4": 4, "P5": 5}
        assert payload["Component"] == {"General": 1}
        assert set(payload) == {"Severity", "Priority", "Component", "OperatingSystem", "Assignee"}


_label = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x24F),
    min_size=1,
    max_size=8,
).map(str.strip).filter(bool)


@given(
    components=st.lists(_label, min_size=1, max_size=20),
    oses=st.lists(_label, min_size=1, max_size=20),
    assignees=st.lists(_label, min_size=1, max_size=20),
)
def test_round_trip_and_contiguous_codes(components, oses, assignees):
    n = max(len(components), len(oses), len(assignees))
    rows = [
        _row(
            str(i),
            component=components[i % len(components)],
            operating_system=oses[i % len(oses)],
            assignee=assignees[i % len(assignees)],
        )
        for i in range(n)
    ]
    _, codebooks, codes = _read_rows(rows)
    assert codes.shape == (n, 5)
    for attribute in LEARNED:
        book = codebooks[attribute]
        # labels distinct up to case, each in its first-seen casing, in the
        # order they first appear, and codes first appear as 1, 2, ..., n
        first_seen: dict[str, str] = {}
        for row in rows:
            first_seen.setdefault(row[1 + attribute].casefold(), row[1 + attribute])
        assert len({label.casefold() for label in book}) == len(book)
        assert book == tuple(first_seen.values())
        assert list(dict.fromkeys(codes[:, attribute].tolist())) == list(range(1, len(book) + 1))
    # round-trip through every record: each code decodes to its label, up to case
    for (_, *labels), row_codes in zip(rows, codes.tolist()):
        for attribute, label, code in zip(Attribute, labels, row_codes):
            [decoded] = decode(codebooks[attribute], [code])
            assert decoded.casefold() == label.casefold()


@given(st.integers(0, 2**32))
def test_parse_and_encode_are_deterministic(seed):
    import random

    rnd = random.Random(seed)
    lines = ["id,sev,pri,comp,os,who"]
    for i in range(rnd.randint(1, 30)):
        lines.append(
            f"b{i},normal,P{rnd.randint(1, 5)},C{rnd.randint(0, 5)},O{rnd.randint(0, 3)},A{rnd.randint(0, 6)}"
        )
    payload = ("\n".join(lines) + "\n").encode()
    ids1, books1, codes1 = _records(payload)
    ids2, books2, codes2 = _records(payload)
    assert ids1 == ids2
    assert np.array_equal(codes1, codes2)
    assert books1 == books2


def _reference_read(payload: bytes, column_map):
    """The reader's result on input with valid labels, computed the slow way:
    csv.reader, then normalise each cell, then first-appearance dicts
    searched by casefolded comparison. Returns bug ids, per-attribute forward
    maps and the code rows. The first fault in file order raises the
    reader's error: a row that csv.reader cannot read or that has the wrong
    width, or an id seen on an earlier row."""
    reader = csv.reader(io.StringIO(payload.decode("utf-8-sig"), newline=""))
    header, rows = next(reader), []
    positions = [header.index(column_map[field]) for field in LOGICAL_FIELDS]
    seen_ids = set()
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise RowError(
                    f"row at line {reader.line_num} has {len(row)} cells, header has {len(header)}"
                )
            bug_id = row[positions[0]].strip()
            if bug_id in seen_ids:
                raise DuplicateIdError(f"duplicate bug_id: {bug_id!r}")
            seen_ids.add(bug_id)
            rows.append(row)
    except csv.Error as exc:  # NUL before Python 3.11
        raise RowError(f"unreadable row at line {reader.line_num}: {exc}") from exc
    forwards = [
        dict(zip(SEVERITY_LABELS, itertools.count(1))),
        dict(zip(PRIORITY_LABELS, itertools.count(1))),
        {},
        {},
        {},
    ]
    code_rows = []
    for row in rows:
        code_row = []
        for forward, position in zip(forwards, positions[1:]):
            label = row[position].strip()
            if label in ("", "--"):
                label = "Unspecified"
            known = [code for seen, code in forward.items() if seen.casefold() == label.casefold()]
            if not known:
                forward[label] = len(forward) + 1
                known = [forward[label]]
            code_row.append(known[0])
        code_rows.append(code_row)
    return [row[positions[0]].strip() for row in rows], forwards, code_rows


_padding = st.sampled_from(["", " ", "  ", "\t"])
_casing = st.sampled_from([str, str.upper, str.lower, str.swapcase])


def _cells(labels):
    return st.tuples(_padding, _casing, st.sampled_from(labels), _padding).map(
        lambda parts: parts[0] + parts[1](parts[2]) + parts[3]
    )


@given(
    rows=st.lists(
        st.tuples(
            _cells(SEVERITY_LABELS),
            _cells(PRIORITY_LABELS),
            _cells(
                [
                    "General", "Build Config", "Sync", "Straße", "", "--", "Unspecified",
                    "Build\r\nConfig", "Build\nConfig", "Build\rConfig",
                ]
            ),
            _cells(["Linux", "macOS", "All", "", "--"]),
            _cells(["Ada Riley", "ben okafor", "Çelik", "--", ""]),
            _cells(["note", "", "x"]),
        ),
        min_size=1,
        max_size=25,
    ),
    column_order=st.permutations(range(7)),
    bom=st.sampled_from(["", "\ufeff"]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
@settings(max_examples=150, deadline=None)
def test_reader_matches_reference(rows, column_order, bom, newline):
    # column 0 is the bug id (padded, so its trimming shows), column 6 is unmapped
    columns = [*_HEADER, "note"]
    table = [[f" b{i} ", *row] for i, row in enumerate(rows)]
    lines = []
    for line in [columns, *table]:
        buffer = io.StringIO()
        # written with "\r\n", so every cell holding "\r" or "\n" is quoted
        csv.writer(buffer, lineterminator="\r\n").writerow([line[j] for j in column_order])
        lines.append(buffer.getvalue()[:-2] + newline)
    payload = (bom + "".join(lines)).encode("utf-8")

    _assert_reads_as_reference(payload)


def _assert_reads_as_reference(payload: bytes) -> None:
    """read_bug_csv gives _reference_read's records and codebooks, or its
    error."""
    try:
        expected_ids, expected_forwards, expected_codes = _reference_read(payload, COLUMN_MAP)
    except (RowError, DuplicateIdError) as expected:
        with pytest.raises(type(expected)) as got:
            _records(payload)
        assert str(got.value) == str(expected)
        return
    bug_ids, codebooks, codes = _records(payload)
    assert bug_ids == expected_ids
    assert codes.dtype == np.int64 and codes.tolist() == expected_codes
    for attribute, forward in zip(Attribute, expected_forwards):
        assert codebooks[attribute] == tuple(forward)
        assert list(codebooks_to_json(codebooks)[attribute.display].items()) == list(forward.items())


# attribute texts for both parse paths: plain ones, and ones that csv.writer
# quotes (a comma, a double quote, a line break inside a cell)
_shared_rows = st.tuples(
    _cells(SEVERITY_LABELS),
    _cells(PRIORITY_LABELS),
    _cells(
        ["General", "Sync", "Straße", "", "--", "Build, Config", 'Say "hi"', "Build\r\nConfig"]
    ),
    _cells(["Linux", "All", "--"]),
    _cells(["Ada Riley", "Çelik", "", "x\ry"]),
    _cells(["note", ""]),
)


@given(
    shared=st.lists(_shared_rows, min_size=1, max_size=4),
    records=st.lists(
        st.tuples(
            st.integers(0, 3),  # which shared attribute text the record repeats
            st.sampled_from(["b", "ü", 'q"', "n\1"]),  # its id's stem; \1 stands for NUL
            st.booleans(),  # written with every cell quoted
            st.sampled_from(["\n", "\r\n", "\r"]),  # its line end
            st.sampled_from(["", "", "", "\n", "\r\n", "\r"]),  # a blank line before it
        ),
        min_size=1,
        max_size=30,
    ),
    spaces_before=st.one_of(st.none(), st.integers(0, 29)),  # a line of spaces before a record
    id_cycle=st.sampled_from([30, 30, 5]),  # ids repeat after this many records
    column_order=st.permutations(range(7)),
    bom=st.sampled_from(["", "\ufeff"]),
    bound=st.sampled_from([1, 3, ingest.LINE_CACHE]),
    chunk=st.sampled_from([1, 2, 3, ingest.ID_CHUNK]),
    batch=st.sampled_from([1, 60, ingest.READ_BATCH]),
)
@settings(max_examples=300, deadline=None)
def test_both_parse_paths_match_the_reference(
    shared, records, spaces_before, id_cycle, column_order, bom, bound, chunk, batch
):
    """Lines split at commas and lines read by csv.reader give the reference's
    records, whichever column holds the id, for repeated attribute texts
    (cached, or read again once a small cache is cleared), one text written
    quoted and unquoted, blank lines, lines of spaces, repeated ids and every
    line end, with quoted cells that continue past a batch of lines."""
    columns = [*_HEADER, "note"]
    lines = [",".join(columns[j] for j in column_order) + "\n"]
    for i, (which, stem, quoted, newline, before) in enumerate(records):
        buffer = io.StringIO()
        writer = csv.writer(
            buffer, quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL, lineterminator="\r\n"
        )
        line = [f" {stem}{i % id_cycle} ", *shared[which % len(shared)]]
        writer.writerow([line[j] for j in column_order])
        spaces = "  \n" if i == spaces_before else ""
        lines += [before, spaces, buffer.getvalue()[:-2] + newline]
    # csv.writer before Python 3.11 cannot write a NUL, so it is put in after
    payload = (bom + "".join(lines)).replace("\1", "\0").encode("utf-8")
    with (
        mock.patch.object(ingest, "LINE_CACHE", bound),
        mock.patch.object(ingest, "ID_CHUNK", chunk),
        mock.patch.object(ingest, "READ_BATCH", batch),
    ):
        _assert_reads_as_reference(payload)


@pytest.mark.parametrize("column", [0, 3], ids=["id", "component"])
@pytest.mark.parametrize("cell", ["past-limit", "at-limit", "nul"])
@pytest.mark.parametrize("other", ["Sync", "Straße"], ids=["ascii", "non-ascii"])
def test_a_long_cell_or_a_nul_reads_as_csv_reader_reads_it(column, cell, other):
    """A cell longer than csv.field_size_limit() fails as csv.reader fails, at
    its line, and one at the limit or holding a NUL reads as csv.reader reads
    it; the id's cell follows a line whose text is cached."""
    limit = csv.field_size_limit()
    value = {"past-limit": "x" * (limit + 1), "at-limit": "x" * limit, "nul": "a\1b"}[cell]
    rows = [_row("1"), _row("2", component=other), _row("3")]
    rows[2] = (*rows[2][:column], value, *rows[2][column + 1 :])
    buffer = io.StringIO()
    csv.writer(buffer).writerows([_HEADER, *rows])
    text = buffer.getvalue().replace("\1", "\0")  # csv.writer before Python 3.11 writes no NUL
    payload = text.encode("utf-8")
    try:
        list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as expected:
        with pytest.raises(RowError) as got:
            _records(payload)
        assert str(got.value) == f"unreadable row at line 4: {expected}"
    else:
        assert cell != "past-limit"
        _assert_reads_as_reference(payload)


class TestBugIds:
    _IDS = ['say "hi"', "back\\slash", "two\nlines", "tab\tbed", '", "', "Ünïcødé 😀", "b7"]

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_every_view_gives_each_id_back(self, tmp_path, monkeypatch, chunk):
        """Iteration and clusters.json give back each id, whatever JSON
        escapes in it, across chunk boundaries."""
        monkeypatch.setattr(ingest, "ID_CHUNK", chunk)
        held = BugIds()
        for start in range(0, len(self._IDS), chunk):
            held.add_chunk(self._IDS[start : start + chunk])
        assert len(held) == len(self._IDS)
        assert list(held) == self._IDS
        assert [ids for _, ids in held.chunks()] == [
            [json.dumps(i, ensure_ascii=False) for i in self._IDS[start : start + chunk]]
            for start in range(0, len(self._IDS), chunk)
        ]
        model = ClusterModel(1, ((0.0,) * 4,), np.zeros(1, dtype=int), (len(held),), 0.0, 0, 1, (0.0,))
        index = np.zeros(len(held), dtype=np.int32)
        write_clusters_json(tmp_path / "clusters.json", model, held, index)
        with open(tmp_path / "clusters.json", encoding="utf-8") as fh:
            assert list(json.load(fh)["assignments"]) == self._IDS

    def test_ingest_holds_about_22_bytes_per_record(self, monkeypatch):
        """Ingest's traced peak grows per record by the id's JSON text (10
        bytes here), one int32 row number and one int64 hash: a list entry
        per record, or a second copy of the hashes, adds 8 bytes. Encoding a
        chunk of ids holds about 120 bytes per id at once, so chunks are made
        small enough that a copy made after the pass shows too."""
        monkeypatch.setattr(ingest, "ID_CHUNK", 1024)

        def peak(rows: int) -> int:
            lines = (f"{1_000_000 + i},Normal,P3,General,Linux,a\n" for i in range(rows))
            source = io.BytesIO(("id,sev,pri,comp,os,who\n" + "".join(lines)).encode())
            tracemalloc.start()
            try:
                bug_ids = read_bug_csv(source, COLUMN_MAP)[0]
                assert len(bug_ids) == rows
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_record = (peak(150_000) - peak(50_000)) / 100_000
        assert per_record < 27, per_record

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_ids_read_from_a_csv_come_back_whole(self, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "ID_CHUNK", chunk)
        assert _read_rows([_row(bug_id) for bug_id in self._IDS])[0] == self._IDS


@given(
    st.lists(
        st.tuples(
            _cells(["Normal", "major"]),
            _cells(["P3", "p1"]),
            _cells(["General", "Sync", "", "--"]),
            _cells(["Linux", "", "--"]),
            _cells(["Ada Riley", "ben okafor"]),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_records_equal_up_to_case_padding_and_blanks_share_a_table_row(cells):
    """Cells that differ only in case, padding, or "" against "--" encode to
    one table row: ``rows[index]`` is the reference encoding, with no
    duplicate row and one row per distinct encoded record."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows([_HEADER, *([f"b{i}", *row] for i, row in enumerate(cells))])
    payload = buffer.getvalue().encode("utf-8")
    _, _, rows, index = read_bug_csv(io.BytesIO(payload), COLUMN_MAP)
    _, _, expected_codes = _reference_read(payload, COLUMN_MAP)
    assert rows[index].tolist() == expected_codes
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert len(rows) == len({tuple(row) for row in expected_codes})


_cell = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["Normal", " major ", "P1", "p5", "--", "", "Unspecified", "x\r\ny"]),
)


def _read_or_input_error(payload: bytes) -> None:
    """The ingest path of a run: only InputError subclasses may escape, so
    bad input exits with code 2, never 3."""
    try:
        bug_ids, _, codes = _records(payload)
        assert codes.shape == (len(bug_ids), 5)
    except InputError:
        pass


@given(st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_raise_only_input_errors(payload):
    _read_or_input_error(payload)
    _read_or_input_error(",".join(_HEADER).encode() + b"\n" + payload)


# rows of the header's width with mostly valid scales, so that many inputs
# reach the encoding, mixed with rows of any width
_csv_row = st.tuples(
    _cell,
    st.one_of(st.sampled_from(SEVERITY_LABELS), _cell),
    st.one_of(st.sampled_from(PRIORITY_LABELS), _cell),
    _cell,
    _cell,
    _cell,
).map(list)


@given(
    st.lists(st.one_of(_csv_row, _csv_row, st.lists(_cell, max_size=8)), max_size=12),
    st.sampled_from(["", "\ufeff"]),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
@settings(max_examples=150, deadline=None)
def test_arbitrary_rows_raise_only_input_errors(rows, bom, newline):
    # csv.writer before Python 3.11 cannot write a NUL, so a drawn NUL is
    # written as "\1" and put back after
    rows = [[cell.replace("\0", "\1") for cell in row] for row in rows]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=newline).writerows([_HEADER, *rows])
    text = buffer.getvalue().replace("\1", "\0")
    _read_or_input_error((bom + text).encode("utf-8", "surrogatepass"))
