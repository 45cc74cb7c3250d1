import csv
import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    cluster_outcome,
    render_all,
    render_text,
    rule_lists,
    rule_split,
    rule_table,
    simple_codebooks,
    split_rules,
    tree_bytes,
)
from test_rule_table import reference_render
from triage_miner import ingest, report
from triage_miner.cluster import ClusterModel
from triage_miner.config import PipelineConfig
from triage_miner.errors import ConsistencyError
from triage_miner.ingest import PRIORITY_LABELS, SEVERITY_LABELS, Attribute, BugIds
from triage_miner.oracle import Item, Rule
from triage_miner.pipeline import execute
from triage_miner.report import (
    build_summary,
    confidence_percents,
    length_histogram,
    write_clusters_json,
    write_rule_reports,
)
from triage_miner.rules import eliminate_redundant
from triage_miner.synth import synthesize_rows, write_csv


def _fraction_percent(support: int, antecedent: int) -> str:
    """Half-up percentage computed with Fractions, the reference for the
    integer arithmetic of format_confidence_percent."""
    hundredths = math.floor(Fraction(support * 10000, antecedent) + Fraction(1, 2))
    whole, cents = divmod(hundredths, 100)
    return str(whole) if cents == 0 else f"{whole}.{cents:02d}"


def _codebooks_for(component_labels, os_labels, assignee_labels):
    return {
        Attribute.SEVERITY: SEVERITY_LABELS,
        Attribute.PRIORITY: PRIORITY_LABELS,
        Attribute.COMPONENT: tuple(component_labels),
        Attribute.OPERATING_SYSTEM: tuple(os_labels),
        Attribute.ASSIGNEE: tuple(assignee_labels),
    }


def _rule(items, consequent_code, support, antecedent_count) -> Rule:
    return Rule(frozenset(items), Item(Attribute.ASSIGNEE, consequent_code), support, antecedent_count)


def format_confidence_percent(support: int, antecedent_count: int) -> str:
    """confidence_percents of one pair."""
    [percent] = confidence_percents([support], [antecedent_count])
    return percent


class TestConfidencePercent:
    @pytest.mark.parametrize(
        "support,antecedent,expected",
        [
            (9, 17, "52.94"),
            (3, 4, "75"),
            (7, 7, "100"),
            (4, 6, "66.67"),
            (2, 3, "66.67"),
            (13, 47, "27.66"),
            (7, 9, "77.78"),
            (3, 13, "23.08"),
            (3, 10, "30"),
            (3, 18, "16.67"),
            (3, 5, "60"),
            (1, 2, "50"),
            (1, 10, "10"),
        ],
    )
    def test_paper_table_values(self, support, antecedent, expected):
        assert format_confidence_percent(support, antecedent) == expected

    def test_half_up_at_exact_tie(self):
        # 423/800 = 52.875% rounds up, not to even
        assert format_confidence_percent(423, 800) == "52.88"

    def test_two_decimals_kept_unless_all_zero(self):
        # 333/500 = 66.60% exactly: only an all-zero fraction is trimmed
        assert format_confidence_percent(333, 500) == "66.60"

    @given(st.integers(1, 2**70), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_formula(self, antecedent, data):
        support = data.draw(st.integers(0, antecedent))
        assert format_confidence_percent(support, antecedent) == _fraction_percent(
            support, antecedent
        )

    @given(st.integers(0, 9999), st.integers(1, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_half_up_at_every_x_xx5_boundary(self, hundredths, scale):
        # (2h + 1) / 20000 is exactly h + 1/2 hundredths of a percent
        support, antecedent = (2 * hundredths + 1) * scale, 20000 * scale
        expected = _fraction_percent(support, antecedent)
        assert format_confidence_percent(support, antecedent) == expected
        assert expected == _fraction_percent(hundredths + 1, 10000)


class TestRenderRule:
    def test_four_antecedent_rule_matches_the_house_grammar(self):
        books = _codebooks_for(["Build Config"], ["Linux"], ["Jon Granrose"])
        rule = _rule(
            [
                Item(Attribute.SEVERITY, 4),
                Item(Attribute.PRIORITY, 3),
                Item(Attribute.OPERATING_SYSTEM, 1),
                Item(Attribute.COMPONENT, 1),
            ],
            1, 9, 17,
        )
        assert render_text(rule, books) == (
            "Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}"
            " ⇒ Assignee {Jon Granrose} @ (9,52.94%)"
        )

    def test_two_antecedent_rule_with_integral_confidence(self):
        books = _codebooks_for(["User Interface"], ["All"], ["Ben Goodger"])
        rule = _rule(
            [Item(Attribute.OPERATING_SYSTEM, 1), Item(Attribute.COMPONENT, 1)], 1, 3, 4
        )
        assert render_text(rule, books) == (
            "Os {All} ∧ Component{User Interface} ⇒ Assignee {Ben Goodger} @ (3,75%)"
        )

    def test_attribute_print_order_is_severity_priority_os_component(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule(
            [Item(Attribute.COMPONENT, 1), Item(Attribute.SEVERITY, 6)], 1, 3, 13
        )
        assert render_text(rule, books) == (
            "Severity {Trivial} ∧ Component{General} ⇒ Assignee {x} @ (3,23.08%)"
        )

    def test_absent_attributes_are_omitted(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule([Item(Attribute.PRIORITY, 2)], 1, 3, 6)
        assert render_text(rule, books) == "Priority {P2} ⇒ Assignee {x} @ (3,50%)"

    def test_undecodable_code_raises(self):
        # ingest hands out no code outside a codebook, so meeting one is an
        # internal fault (exit 3), not an input error
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule([Item(Attribute.COMPONENT, 99)], 1, 3, 6)
        with pytest.raises(ConsistencyError, match="code 99") as err:
            render_text(rule, books)
        assert err.value.exit_code == 3

    def test_render_antecedent_fragment(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule([Item(Attribute.OPERATING_SYSTEM, 1), Item(Attribute.PRIORITY, 1)], 1, 1, 2)
        partition = eliminate_redundant(rule_table([rule]))
        # no label needs quoting, so rules.csv's field is the fragment itself
        assert render_all(partition, books).antecedent_csv == ["Priority {P1} ∧ Os {All}"]

    @given(rule_lists(max_rules=25))
    @settings(max_examples=40, deadline=None)
    def test_injective_on_distinct_rules(self, rules):
        books = simple_codebooks()
        rendered = render_all(eliminate_redundant(rule_table(rules)), books).text
        assert len(set(rendered)) == len(rules)


class TestPairStrings:
    """Percentages and confidences are built once per distinct (support,
    antecedent count) pair of the rule table, in Python ints for counts of any
    size; every rule must still get its own pair's strings."""

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31, 2**62])
    def test_each_rule_gets_its_pairs_strings(self, m):
        pairs = [(m - 2, m - 1), (m - 2, m), (m - 1, m), (1, m), (1, 3), (m - 2, m - 1)]
        rules = [
            _rule([Item(Attribute.COMPONENT, code)], 1, support, antecedent)
            for code, (support, antecedent) in enumerate(pairs, start=1)
        ]
        rendered = render_all(eliminate_redundant(rule_table(rules)), simple_codebooks())
        assert rendered.support == [support for support, _ in pairs]
        assert rendered.confidence == [repr(s / a) for s, a in pairs]
        assert [text.split(" @ ")[1] for text in rendered.text] == [
            f"({s},{_fraction_percent(s, a)}%)" for s, a in pairs
        ]


class TestLengthHistogram:
    def test_empty(self):
        assert length_histogram(rule_table([])) == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_single_four_antecedent_rule(self):
        rule = _rule(
            [
                Item(Attribute.SEVERITY, 1),
                Item(Attribute.PRIORITY, 1),
                Item(Attribute.COMPONENT, 1),
                Item(Attribute.OPERATING_SYSTEM, 1),
            ],
            1, 1, 1,
        )
        assert length_histogram(rule_table([rule])) == {1: 0, 2: 0, 3: 0, 4: 1}

    def test_mixed_sizes_tally(self):
        attrs = (
            Attribute.SEVERITY,
            Attribute.PRIORITY,
            Attribute.COMPONENT,
            Attribute.OPERATING_SYSTEM,
        )
        def of_size(n, code):
            return _rule([Item(a, code) for a in attrs[:n]], 1, 1, 1)

        rules = [of_size(1, 1), of_size(2, 1), of_size(2, 2), of_size(2, 3),
                 of_size(3, 1), of_size(4, 1), of_size(4, 2)]
        assert length_histogram(rule_table(rules)) == {1: 1, 2: 3, 3: 1, 4: 2}


class TestClusterOutcome:
    def test_empty_partition(self, tmp_path):
        books = simple_codebooks()
        outcomes = [cluster_outcome([], books, size=1)] * 2 + [cluster_outcome([], books, size=9)]
        summary = build_summary(11, {}, outcomes)
        assert summary["clusters"][2] == {
            "cluster": 2,
            "size": 9,
            "top_assignees": ["Dev 1"],
            "rules": 0,
            "essential": 0,
            "redundant": 0,
            "length_histogram": {"1": 0, "2": 0, "3": 0, "4": 0},
        }
        rendered = render_all(outcomes[2].partition, books)
        assert rendered.text == rendered.witness == []
        write_rule_reports(tmp_path, summary, outcomes, books)
        assert (tmp_path / "cluster_2.txt").read_text(encoding="utf-8").split("\n")[:6] == [
            "Cluster 2",
            "=========",
            "Records: 9",
            "Top assignees: Dev 1",
            "Rules: 0 (essential 0, redundant 0)",
            "Antecedent length histogram: 1=0 2=0 3=0 4=0",
        ]

    def test_counts_and_histogram_are_consistent(self):
        books = simple_codebooks()
        rules = [
            _rule([Item(Attribute.SEVERITY, 1)], 1, 8, 10),
            _rule([Item(Attribute.PRIORITY, 1)], 1, 6, 10),
            _rule([Item(Attribute.COMPONENT, 1)], 2, 5, 10),
            _rule([Item(Attribute.SEVERITY, 1), Item(Attribute.PRIORITY, 1)], 1, 7, 10),
            _rule([Item(Attribute.SEVERITY, 1), Item(Attribute.COMPONENT, 1)], 2, 3, 10),
        ]
        outcome = cluster_outcome(rules, books, top_codes=[1, 2])
        [cluster] = build_summary(10, {}, [outcome])["clusters"]
        assert cluster["essential"] + cluster["redundant"] == cluster["rules"] == 5
        assert sum(cluster["length_histogram"].values()) == 5
        assert cluster["top_assignees"] == ["Dev 1", "Dev 2"]
        rendered = render_all(outcome.partition, books)
        assert len(rendered.text) == len(rendered.witness) == 5
        assert rendered.text[: cluster["essential"]] == [
            render_text(r, books) for r in split_rules(rules).essential
        ]


_HEADER = "cluster,antecedent,consequent,support_count,confidence,status,witness".split(",")

# labels holding every character that needs CSV quoting, the rule grammar's
# own symbols and non-ASCII text
_labels_text = st.text(
    st.sampled_from([",", '"', "\r", "\n", "∧", "⇒", "{", "}", "@", " ", "é", "漢", "a"]),
    min_size=1,
    max_size=6,
)


@st.composite
def label_codebooks(draw):
    """simple_codebooks with the learned labels of codes 1..3 drawn from
    ``_labels_text``."""
    books = simple_codebooks()
    for attribute in (Attribute.COMPONENT, Attribute.OPERATING_SYSTEM, Attribute.ASSIGNEE):
        books[attribute] = tuple(draw(st.lists(_labels_text, min_size=3, max_size=3, unique=True)))
    return books


def _outcomes(clusters, books):
    return [cluster_outcome(rules, books) for rules in clusters]


def _rule_rows(outcomes, books) -> list[list]:
    """Every rule's rules.csv row, unquoted: the antecedent and assignee from
    the reference renderer, the other fields from render_rules."""
    rows = []
    for index, outcome in enumerate(outcomes):
        rendered, split = render_all(outcome.partition, books), rule_split(outcome.partition)
        rules = [*split.essential, *(rule for rule, _ in split.redundant)]
        statuses = ["essential"] * len(split.essential) + ["redundant"] * len(split.redundant)
        columns = (rendered.support, rendered.confidence, statuses, rendered.witness)
        for rule, support, confidence, status, witness in zip(rules, *columns, strict=True):
            _, antecedent, assignee, _, _ = reference_render(rule, books)
            rows.append([index, antecedent, assignee, support, confidence, status, witness])
    return rows


def _csv_writer_rules_csv(path: Path, outcomes, books) -> None:
    """rules.csv as csv.writer writes it, as it was written before the
    rendered rows; before Python 3.13 it leaves a bare \\r unquoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        writer.writerows(_rule_rows(outcomes, books))


def _rendered_rows(outcomes, books) -> list[list[str]]:
    return [_HEADER] + [[str(field) for field in row] for row in _rule_rows(outcomes, books)]


def _write_rules_csv(directory: Path, outcomes, books) -> Path:
    """rules.csv as the report writer writes it, with the cluster texts."""
    write_rule_reports(directory, build_summary(0, {}, outcomes), outcomes, books)
    return directory / "rules.csv"


class TestRulesCsv:
    @given(st.lists(rule_lists(max_rules=12), min_size=1, max_size=3), label_codebooks())
    @settings(max_examples=80, deadline=None)
    def test_reads_back_to_the_rendered_columns(self, clusters, books):
        outcomes = _outcomes(clusters, books)
        with tempfile.TemporaryDirectory() as scratch:
            path = _write_rules_csv(Path(scratch), outcomes, books)
            reference = Path(scratch) / "reference.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows == _rendered_rows(outcomes, books)
            assert {len(row) for row in rows} == {7}
            if not any("\r" in label for book in books.values() for label in book):
                _csv_writer_rules_csv(reference, outcomes, books)
                assert path.read_bytes() == reference.read_bytes()

    def test_a_label_holding_a_carriage_return_is_quoted(self):
        books = _codebooks_for(["Build\rConfig"], ["All"], ["Frank Moreau"])
        rule = _rule([Item(Attribute.COMPONENT, 1)], 1, 3, 4)
        outcomes = _outcomes([[rule]], books)
        with tempfile.TemporaryDirectory() as scratch:
            path = _write_rules_csv(Path(scratch), outcomes, books)
            assert path.read_bytes().decode("utf-8").split("\n")[1] == (
                '0,"Component{Build\rConfig}",Frank Moreau,3,0.75,essential,'
            )
            with open(path, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == _rendered_rows(outcomes, books)


@pytest.fixture(scope="module")
def batch_cases(sample_csv, tmp_path_factory):
    """(summary, outcomes, codebooks) of three report inputs: the rule-dense
    shape at 1k rows (up to 1,145 essential rules in a cluster), the sample
    with labels holding CR, a comma and double quotes, and clusters with no
    rules, with essential rules only, and with both."""
    scratch = tmp_path_factory.mktemp("batch")
    dense = scratch / "dense.csv"
    write_csv(dense, synthesize_rows(1000, 40, 8, 60, 1.0, seed=11))
    text = sample_csv.read_text(encoding="utf-8")
    text = text.replace(",Build Config,", ',"Build\rConfig",')
    quoted = scratch / "quoted.csv"
    quoted.write_text(text.replace(",User Interface,", ',"User, ""Interface""",'), "utf-8")
    cases = {}
    for name, config in (
        ("dense", PipelineConfig(str(dense), min_support_count=1, min_confidence=0.01, top_n=60)),
        ("quoted", PipelineConfig(str(quoted))),
    ):
        result = execute(config)
        summary = build_summary(len(result.bug_ids), {}, result.outcomes)
        cases[name] = summary, result.outcomes, result.codebooks
    books = simple_codebooks()
    severity, priority = Item(Attribute.SEVERITY, 1), Item(Attribute.PRIORITY, 1)
    essential_only = [_rule([severity], 1, 8, 10), _rule([priority], 2, 6, 10)]
    mixed = [*essential_only, _rule([severity, priority], 1, 5, 10)]
    outcomes = _outcomes([[], essential_only, mixed], books)
    cases["edges"] = build_summary(0, {}, outcomes), outcomes, books
    return cases


class TestWriteBatch:
    @pytest.mark.parametrize("case", ["dense", "quoted", "edges"])
    @pytest.mark.parametrize("batch", [1, 2, 3, report.WRITE_BATCH])
    def test_reports_do_not_depend_on_the_batch(
        self, batch_cases, case, batch, tmp_path, monkeypatch
    ):
        summary, outcomes, books = batch_cases[case]
        for size in (10**9, batch):  # each cluster's section in one write, then batched
            monkeypatch.setattr(report, "WRITE_BATCH", size)
            (tmp_path / str(size)).mkdir()
            write_rule_reports(tmp_path / str(size), summary, outcomes, books)
        assert tree_bytes(tmp_path / str(batch)) == tree_bytes(tmp_path / str(10**9))

    def test_an_empty_section_prints_none(self, batch_cases, tmp_path):
        summary, outcomes, books = batch_cases["edges"]
        write_rule_reports(tmp_path, summary, outcomes, books)
        sections = [
            (tmp_path / f"cluster_{i}.txt").read_text(encoding="utf-8").split("\n\n", 1)[1]
            for i in range(3)
        ]
        essential = (
            "  1. Severity {Blocker} ⇒ Assignee {Dev 1} @ (8,80%)\n"
            "  2. Priority {P1} ⇒ Assignee {Dev 2} @ (6,60%)\n"
        )
        assert sections == [
            "Essential rules\n  (none)\n\nRedundant rules\n  (none)\n",
            "Essential rules\n" + essential + "\nRedundant rules\n  (none)\n",
            "Essential rules\n" + essential + "\nRedundant rules\n"
            "  1. Severity {Blocker} ∧ Priority {P1} ⇒ Assignee {Dev 1} @ (5,50%)\n"
            "     subsumed by: Severity {Blocker} ⇒ Assignee {Dev 1} @ (8,80%)\n",
        ]

    def test_writing_holds_one_batch_of_rules_at_a_time(self, batch_cases, tmp_path):
        """write_rule_reports' traced peak, per rule of one WRITE_BATCH, stays
        under 4 KB on the dense case: about 1.6 KB a redundant rule holds in
        one batch plus the strings its cluster shares, about 2.7 KB in all
        at 256 rules a batch. A cluster's section rendered at once (up to
        1,145 rules here) holds about 6.4 KB per rule of a batch."""
        summary, outcomes, books = batch_cases["dense"]
        tracemalloc.start()
        try:
            write_rule_reports(tmp_path, summary, outcomes, books)
            per_rule = tracemalloc.get_traced_memory()[1] / report.WRITE_BATCH
        finally:
            tracemalloc.stop()
        assert per_rule < 4000, per_rule

    def test_the_cases_reach_every_boundary(self, batch_cases):
        dense = batch_cases["dense"][0]["clusters"]
        largest = max(c["essential"] for c in dense)  # a default batch ends short
        assert largest > report.WRITE_BATCH and largest % report.WRITE_BATCH > 0
        assert any(c["essential"] % 2 for c in dense)  # rules.csv: a batch spans both statuses
        edges = [(c["essential"], c["redundant"]) for c in batch_cases["edges"][0]["clusters"]]
        assert edges == [(0, 0), (2, 0), (2, 1)]  # "(none)" in either section
        labels = batch_cases["quoted"][2][Attribute.COMPONENT]
        assert {"Build\rConfig", 'User, "Interface"'} <= set(labels)


def _model_to_json(model: ClusterModel, bug_ids, index) -> dict:
    """clusters.json's payload as a dict, keyed by bug_id."""
    return {
        "k": model.k,
        "seed": model.seed,
        "iterations_run": model.iterations_run,
        "inertia": model.inertia,
        "centroids": [list(c) for c in model.centroids],
        "assignments": dict(zip(bug_ids, model.labels[index].tolist())),
        "cluster_sizes": model.cluster_sizes(),
    }


def _held(ids) -> BugIds:
    """``ids`` held as ingest holds them, ``ingest.ID_CHUNK`` ids to a chunk."""
    bug_ids = BugIds()
    for start in range(0, len(ids), ingest.ID_CHUNK):
        bug_ids.add_chunk(ids[start : start + ingest.ID_CHUNK])
    return bug_ids


# bug ids holding what JSON escapes or passes through: quotes, backslashes,
# control characters, non-ASCII text and the line/paragraph separators
_bug_ids = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\r", "\t", "\u2028", "\u2029", "😀"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=8,
)
_coordinates = st.floats(allow_nan=False, allow_infinity=False)
_centroids = st.lists(_coordinates, min_size=4, max_size=4)


class TestClustersJson:
    @given(st.data(), st.integers(1, 4), st.lists(_bug_ids, min_size=1, max_size=20, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_bytes_match_the_indented_encoder(self, data, k, bug_ids):
        n, m = len(bug_ids), data.draw(st.integers(1, 6))
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
        index = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        model = ClusterModel(
            k=k,
            centroids=tuple(tuple(data.draw(_centroids)) for _ in range(k)),
            labels=labels,
            sizes=tuple(np.bincount(labels[index], minlength=k).tolist()),
            inertia=data.draw(_coordinates),
            seed=data.draw(st.integers(0, 2**32)),
            iterations_run=data.draw(st.integers(0, 300)),
            inertia_history=(0.0,),
        )
        payload = _model_to_json(model, bug_ids, index)
        expected = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "clusters.json"
            write_clusters_json(path, model, _held(bug_ids), index)
            assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunked_assignments_match_the_indented_encoder(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "ID_CHUNK", chunk)
        ids = ['say "hi"', "back\\slash", "\x00\x1f\t\r\n", "line\u2028sep", "😀", "b5", "b6"]
        for n in range(2 * chunk + 2):  # 0, 1 and 2 chunk boundaries, and no ids at all
            bug_ids, index, labels = ids[:n], np.arange(n) % 3, np.array([1, 0, 1])
            model = ClusterModel(
                k=2,
                centroids=((0.0,) * 4, (1.5,) * 4),
                labels=labels,
                sizes=tuple(np.bincount(labels[index], minlength=2).tolist()),
                inertia=0.25,
                seed=7,
                iterations_run=1,
                inertia_history=(0.25,),
            )
            path = tmp_path / f"clusters-{n}.json"
            write_clusters_json(path, model, _held(bug_ids), index)
            payload = _model_to_json(model, bug_ids, index)
            expected = json.dumps(payload, indent=2, ensure_ascii=False)
            assert path.read_bytes() == (expected + "\n").encode("utf-8")

    def test_a_record_count_mismatch_is_a_consistency_error(self, tmp_path):
        model = ClusterModel(1, ((0.0,) * 4,), np.zeros(1, dtype=np.int64), (2,), 0.0, 0, 1, (0.0,))
        with pytest.raises(ConsistencyError):
            write_clusters_json(tmp_path / "clusters.json", model, _held(["b0"]), np.zeros(2))
