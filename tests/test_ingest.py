import csv
import io

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from triage_miner.errors import (
    DuplicateIdError,
    InputError,
    ParameterError,
    RowError,
    SchemaError,
    UnknownCategoryError,
)
from triage_miner.ingest import (
    PRIORITY_LABELS,
    SEVERITY_LABELS,
    Attribute,
    RawBugRow,
    build_codebooks_and_encode,
    codebooks_to_json,
    encode_priority,
    encode_severity,
    parse_csv,
)

COLUMN_MAP = {
    "bug_id": "id",
    "severity": "sev",
    "priority": "pri",
    "component": "comp",
    "operating_system": "os",
    "assignee": "who",
}


def _csv(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def _row(bug_id="1", severity="Normal", priority="P3", component="General",
         operating_system="Linux", assignee="alice") -> RawBugRow:
    return RawBugRow(bug_id, severity, priority, component, operating_system, assignee)


class TestParseCsv:
    def test_direct_field_mapping(self):
        rows = parse_csv(_csv("id,sev,pri,comp,os,who\n42,normal,P3,General,Linux,alice\n"), COLUMN_MAP)
        assert rows == [RawBugRow("42", "normal", "P3", "General", "Linux", "alice")]

    def test_missing_mapped_column_names_it(self):
        bad_map = dict(COLUMN_MAP, severity="severity")
        with pytest.raises(SchemaError, match="severity"):
            parse_csv(_csv("id,sev,pri,comp,os,who\n42,normal,P3,General,Linux,alice\n"), bad_map)

    def test_blank_cell_becomes_unspecified(self):
        rows = parse_csv(_csv("id,sev,pri,comp,os,who\n42,normal,P3,General,,alice\n"), COLUMN_MAP)
        assert rows[0].operating_system == "Unspecified"

    def test_double_dash_cell_becomes_unspecified(self):
        rows = parse_csv(_csv("id,sev,pri,comp,os,who\n42,normal,--,General,Linux,alice\n"), COLUMN_MAP)
        assert rows[0].priority == "Unspecified"

    def test_duplicate_bug_id_names_the_id(self):
        payload = "id,sev,pri,comp,os,who\n7,normal,P3,General,Linux,a\n7,major,P2,Sync,All,b\n"
        with pytest.raises(DuplicateIdError, match="7"):
            parse_csv(_csv(payload), COLUMN_MAP)

    def test_short_row_reports_line_number(self):
        payload = "id,sev,pri,comp,os,who\n1,normal,P3,General,Linux,a\n2,normal,P3\n"
        with pytest.raises(RowError, match="line 3"):
            parse_csv(_csv(payload), COLUMN_MAP)

    def test_empty_bug_id_is_a_row_error(self):
        with pytest.raises(RowError, match="line 2"):
            parse_csv(_csv("id,sev,pri,comp,os,who\n,normal,P3,General,Linux,a\n"), COLUMN_MAP)

    def test_duplicate_mapped_header_names_the_column(self):
        payload = "id,sev,pri,comp,os,who,comp\n42,normal,P3,General,Linux,alice,Sync\n"
        with pytest.raises(SchemaError, match="'comp'.*2 times"):
            parse_csv(_csv(payload), COLUMN_MAP)

    def test_duplicate_unmapped_header_is_allowed(self):
        payload = "id,sev,pri,comp,os,who,note,note\n42,normal,P3,General,Linux,alice,x,y\n"
        rows = parse_csv(_csv(payload), COLUMN_MAP)
        assert rows == [RawBugRow("42", "normal", "P3", "General", "Linux", "alice")]

    def test_incomplete_column_map_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="assignee"):
            parse_csv(_csv("id\n1\n"), {"bug_id": "id"})

    def test_rows_keep_file_order(self):
        payload = "id,sev,pri,comp,os,who\n" + "".join(
            f"b{i},normal,P3,General,Linux,a\n" for i in range(20)
        )
        rows = parse_csv(_csv(payload), COLUMN_MAP)
        assert [r.bug_id for r in rows] == [f"b{i}" for i in range(20)]

    def test_does_not_close_the_source_stream(self):
        stream = _csv("id,sev,pri,comp,os,who\n1,normal,P3,General,Linux,a\n")
        parse_csv(stream, COLUMN_MAP)
        assert not stream.closed


class TestFixedScales:
    def test_blocker_is_level_one(self):
        assert encode_severity("blocker") == 1

    def test_enhancement_is_level_seven(self):
        assert encode_severity("enhancement") == 7

    def test_severity_lookup_ignores_case(self):
        assert encode_severity("Normal") == 4
        assert encode_severity("  CRITICAL  ") == 2

    def test_priority_endpoints(self):
        assert encode_priority("P1") == 1
        assert encode_priority("P5") == 5

    def test_priority_lookup_ignores_case(self):
        assert encode_priority("p3") == 3

    def test_unknown_severity_carries_the_label(self):
        with pytest.raises(UnknownCategoryError, match="S1"):
            encode_severity("S1")

    def test_unknown_priority_rejected(self):
        with pytest.raises(UnknownCategoryError):
            encode_priority("P6")

    @pytest.mark.parametrize(
        "label,code",
        [("blocker", 1), ("critical", 2), ("major", 3), ("normal", 4),
         ("minor", 5), ("trivial", 6), ("enhancement", 7)],
    )
    def test_full_severity_scale(self, label, code):
        assert encode_severity(label) == code


class TestBuildCodebooks:
    def test_first_appearance_order(self):
        rows = [_row("1", component="General"), _row("2", component="Sync"),
                _row("3", component="General")]
        codebooks, _ = build_codebooks_and_encode(rows)
        assert codebooks[Attribute.COMPONENT].forward == {"General": 1, "Sync": 2}

    def test_singleton_learned_codebooks(self):
        codebooks, codes = build_codebooks_and_encode([_row()])
        for attribute in (Attribute.COMPONENT, Attribute.OPERATING_SYSTEM, Attribute.ASSIGNEE):
            assert codebooks[attribute].forward == {list(codebooks[attribute].forward)[0]: 1}
        assert codes.shape == (1, 5) and codes.dtype == np.int64
        assert codes[0, 2] == codes[0, 3] == codes[0, 4] == 1

    def test_assignee_codes_round_trip(self):
        names = ["ann", "bob", "cal", "dee"]
        rows = [_row(str(i), assignee=names[i % 4]) for i in range(10)]
        codebooks, codes = build_codebooks_and_encode(rows)
        book = codebooks[Attribute.ASSIGNEE]
        assert sorted(book.reverse) == [1, 2, 3, 4]
        # independent decode pass: every record decodes to its original label
        for row, code in zip(rows, codes[:, Attribute.ASSIGNEE].tolist()):
            assert book.decode(code) == row.assignee

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            build_codebooks_and_encode([])

    def test_unknown_severity_propagates(self):
        with pytest.raises(UnknownCategoryError):
            build_codebooks_and_encode([_row(severity="catastrophic")])

    def test_case_insensitive_learned_labels_keep_first_casing(self):
        rows = [_row("1", component="General"), _row("2", component="GENERAL")]
        codebooks, codes = build_codebooks_and_encode(rows)
        assert codebooks[Attribute.COMPONENT].forward == {"General": 1}
        assert codes[:, Attribute.COMPONENT].tolist() == [1, 1]

    def test_codebooks_json_shape(self):
        codebooks, _ = build_codebooks_and_encode([_row()])
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
    codebooks, codes = build_codebooks_and_encode(rows)
    assert codes.shape == (n, 5)
    for attribute in (Attribute.COMPONENT, Attribute.OPERATING_SYSTEM, Attribute.ASSIGNEE):
        book = codebooks[attribute]
        # bijection between forward and reverse
        assert {book.decode(code) for code in book.reverse} == set(book.forward)
        assert {book.encode(label) for label in book.forward} == set(book.reverse)
        # codes are exactly 1..n
        assert sorted(book.reverse) == list(range(1, len(book) + 1))
    # round-trip through every record
    for row, (severity, priority, component, os_, assignee) in zip(rows, codes.tolist()):
        assert encode_severity(row.severity) == severity
        assert encode_priority(row.priority) == priority
        assert codebooks[Attribute.COMPONENT].encode(row.component) == component
        assert codebooks[Attribute.OPERATING_SYSTEM].encode(row.operating_system) == os_
        assert codebooks[Attribute.ASSIGNEE].encode(row.assignee) == assignee


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
    first = parse_csv(io.BytesIO(payload), COLUMN_MAP)
    second = parse_csv(io.BytesIO(payload), COLUMN_MAP)
    assert first == second
    books1, codes1 = build_codebooks_and_encode(first)
    books2, codes2 = build_codebooks_and_encode(second)
    assert np.array_equal(codes1, codes2)
    assert all(books1[a].forward == books2[a].forward for a in Attribute)


_HEADER = ["id", "sev", "pri", "comp", "os", "who"]
_cell = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["Normal", " major ", "P1", "p5", "--", "", "Unspecified", "x\r\ny"]),
)


def _parse_and_encode(payload: bytes) -> None:
    """The ingest path of a run: only InputError subclasses may escape, so
    bad input exits with code 2, never 3."""
    try:
        rows = parse_csv(io.BytesIO(payload), COLUMN_MAP)
        if rows:
            _, codes = build_codebooks_and_encode(rows)
            assert codes.shape == (len(rows), 5)
    except InputError:
        pass


@given(st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_raise_only_input_errors(payload):
    _parse_and_encode(payload)
    _parse_and_encode(",".join(_HEADER).encode() + b"\n" + payload)


# rows of the header's width with mostly valid scales, so that many inputs
# reach the encoder, mixed with rows of any width
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
    _parse_and_encode((bom + buffer.getvalue()).encode("utf-8", "surrogatepass"))
