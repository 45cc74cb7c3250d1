import csv
import io
import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from triage_miner.config import PipelineConfig
from triage_miner.errors import (
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
    codebooks_to_json,
    read_bug_csv,
)
from triage_miner.pipeline import execute

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


def _read(text: str):
    return read_bug_csv(_csv(text), COLUMN_MAP)


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
        assert codebooks[Attribute.COMPONENT].forward == {"General": 1}
        assert codebooks[Attribute.OPERATING_SYSTEM].forward == {"Linux": 1}
        assert codebooks[Attribute.ASSIGNEE].forward == {"alice": 1}

    def test_missing_mapped_column_names_it(self):
        bad_map = dict(COLUMN_MAP, severity="severity")
        payload = "id,sev,pri,comp,os,who\n42,normal,P3,General,Linux,alice\n"
        with pytest.raises(SchemaError, match="severity"):
            read_bug_csv(_csv(payload), bad_map)

    def test_blank_cell_becomes_unspecified(self):
        _, codebooks, _ = _read("id,sev,pri,comp,os,who\n42,normal,P3,General,,alice\n")
        assert codebooks[Attribute.OPERATING_SYSTEM].forward == {"Unspecified": 1}

    def test_double_dash_cell_becomes_unspecified(self):
        _, codebooks, _ = _read("id,sev,pri,comp,os,who\n42,normal,P3,--,Linux,alice\n")
        assert codebooks[Attribute.COMPONENT].forward == {"Unspecified": 1}
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
        assert codebooks[Attribute.COMPONENT].forward == {"General": 1}

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
        assert list(codebooks[Attribute.COMPONENT].forward) == ["Build\r\nConfig", "Build\nConfig"]

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
        assert codebooks[Attribute.COMPONENT].forward == {"General": 1, "Sync": 2}

    def test_singleton_learned_codebooks(self):
        _, codebooks, codes = _read_rows([_row()])
        for attribute in LEARNED:
            assert codebooks[attribute].forward == {list(codebooks[attribute].forward)[0]: 1}
        assert codes.shape == (1, 5) and codes.dtype == np.int64
        assert codes[0, 2] == codes[0, 3] == codes[0, 4] == 1

    def test_assignee_codes_round_trip(self):
        names = ["ann", "bob", "cal", "dee"]
        rows = [_row(str(i), assignee=names[i % 4]) for i in range(10)]
        _, codebooks, codes = _read_rows(rows)
        book = codebooks[Attribute.ASSIGNEE]
        assert sorted(book.reverse) == [1, 2, 3, 4]
        # independent decode pass: every record decodes to its original label
        for row, code in zip(rows, codes[:, Attribute.ASSIGNEE].tolist()):
            assert book.decode(code) == row[5]

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
        assert codebooks[Attribute.COMPONENT].forward == {"General": 1}
        assert codes[:, Attribute.COMPONENT].tolist() == [1, 1]

    def test_codebooks_json_shape(self):
        _, codebooks, _ = _read_rows([_row()])
        payload = codebooks_to_json(codebooks)
        assert payload["Severity"]["Blocker"] == 1
        assert payload["Priority"]["P5"] == 5
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
        # bijection between forward and reverse
        assert {book.decode(code) for code in book.reverse} == set(book.forward)
        assert {code: label for label, code in book.forward.items()} == book.reverse
        # codes are exactly 1..n
        assert sorted(book.reverse) == list(range(1, len(book.forward) + 1))
    # round-trip through every record: each code decodes to its label, up to case
    for (_, *labels), row_codes in zip(rows, codes.tolist()):
        for attribute, label, code in zip(Attribute, labels, row_codes):
            assert codebooks[attribute].decode(code).casefold() == label.casefold()


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
    ids1, books1, codes1 = read_bug_csv(io.BytesIO(payload), COLUMN_MAP)
    ids2, books2, codes2 = read_bug_csv(io.BytesIO(payload), COLUMN_MAP)
    assert ids1 == ids2
    assert np.array_equal(codes1, codes2)
    assert all(books1[a].forward == books2[a].forward for a in Attribute)


def _reference_read(payload: bytes, column_map):
    """The reader's result on valid input, computed the slow way: csv.reader,
    then normalise each cell, then first-appearance dicts searched by
    casefolded comparison. Returns bug ids, per-attribute forward maps and
    the code rows."""
    text = io.StringIO(payload.decode("utf-8-sig"), newline="")
    header, *rows = [row for row in csv.reader(text) if row]
    positions = [header.index(column_map[field]) for field in LOGICAL_FIELDS]
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

    bug_ids, codebooks, codes = read_bug_csv(io.BytesIO(payload), COLUMN_MAP)
    expected_ids, expected_forwards, expected_codes = _reference_read(payload, COLUMN_MAP)
    assert bug_ids == expected_ids
    assert codes.dtype == np.int64 and codes.tolist() == expected_codes
    for attribute, forward in zip(Attribute, expected_forwards):
        assert list(codebooks[attribute].forward.items()) == list(forward.items())


_cell = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["Normal", " major ", "P1", "p5", "--", "", "Unspecified", "x\r\ny"]),
)


def _read_or_input_error(payload: bytes) -> None:
    """The ingest path of a run: only InputError subclasses may escape, so
    bad input exits with code 2, never 3."""
    try:
        bug_ids, _, codes = read_bug_csv(io.BytesIO(payload), COLUMN_MAP)
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
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=newline).writerows([_HEADER, *rows])
    _read_or_input_error((bom + buffer.getvalue()).encode("utf-8", "surrogatepass"))
