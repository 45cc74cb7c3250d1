"""Rendering and report emission: per-cluster rule tables (text), figure
data (CSV) and a machine summary (JSON).

Rule strings follow the house grammar exactly, e.g.

    Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}
        ⇒ Assignee {Jon Granrose} @ (9,52.94%)

Attributes print in the fixed order Severity, Priority, Os, Component;
"Component" binds tightly to its brace. Confidence percentages are rounded
half-up to two decimals and printed without a fractional part when integral.

Only this module knows the rendered form. A cluster's rules are rendered
as its reports are written, WRITE_BATCH rules at a time, each batch written
to cluster_<i>.txt and rules.csv before the next is rendered. What is held
at once is one batch's strings and the cluster's strings of each label its
rules use and of each (support, antecedent count) pair. At its peak a batch
holds its rules' and witnesses' texts and rules.csv fields and both files'
text for the batch, joined: about 1.5 KB a redundant rule and half that an
essential one. WRITE_BATCH trades that against a fixed cost of about 55 us
a batch (2-vCPU host). A witness is rendered again, from those strings, in
each batch of rules it subsumes.
rules.csv quotes a field holding a comma, a double quote, CR or LF,
doubling its quotes (RFC 4180). When some label holds CR or LF,
cluster_<i>.txt shows them as ``\\r`` and ``\\n`` and a backslash as
``\\\\``, so that every rule keeps one line and each escape reads one way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cluster import ClusterModel
from .errors import ConsistencyError
from .ingest import Attribute, BugIds, decode
from .rules import RulePartition, RuleTable

_RENDER_PREFIX = {  # in print order
    Attribute.SEVERITY: "Severity ",
    Attribute.PRIORITY: "Priority ",
    Attribute.OPERATING_SYSTEM: "Os ",
    Attribute.COMPONENT: "Component",
}
RENDER_ORDER = tuple(_RENDER_PREFIX)

_AND = " ∧ "
WRITE_BATCH = 256  # rules per write of cluster_<i>.txt and rules.csv


def confidence_percents(support: Sequence[int], antecedent_count: Sequence[int]) -> list[str]:
    """Exact half-up percentages with two decimals, from Python ints;
    integral values print bare (52.94, 75, 100)."""
    # floor(10000 * s / a + 1/2)
    hundredths = [(20000 * s + a) // (2 * a) for s, a in zip(support, antecedent_count)]
    return [f"{h // 100}" if h % 100 == 0 else f"{h // 100}.{h % 100:02d}" for h in hundredths]


def _labels(codes: np.ndarray, book: Sequence[str], *templates: str) -> tuple[np.ndarray, ...]:
    """The distinct codes among ``codes`` in order, after -1 (absent), each
    template filled with each one's label ("" for -1) and whether rules.csv
    must quote that label; each code is decoded once."""
    distinct = sorted(set(codes.tolist()) - {-1})  # np.unique alone would load numpy.ma
    labels = decode(book, distinct)
    texts = [np.array(["", *map(t.format, labels)], dtype=object) for t in templates]
    quote = np.array([False, *(any(c in label for c in ',"\r\n') for label in labels)])
    return np.array([-1, *distinct], dtype=np.int64), *texts, quote


# CR and LF as visible escapes, and a backslash doubled so each escape reads one way
_SHOWN = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})


def _csv_fields(fields: np.ndarray, quote: np.ndarray) -> list[str]:
    """RFC 4180 fields: ``fields``, those flagged in ``quote`` quoted in place."""
    fields[quote] = ['"' + field.replace('"', '""') + '"' for field in fields[quote].tolist()]
    return fields.tolist()


class ClusterStrings(NamedTuple):
    """The strings a cluster's rules share, built once per cluster: for each
    attribute, the distinct codes its rules use, in order, their label strings
    (an antecedent attribute's as "Os {label}" and, after another attribute,
    " ∧ Os {label}") and whether rules.csv quotes them; for each (support,
    antecedent count) pair of ``partition.rules.pairs``, its texts."""

    partition: RulePartition
    antecedent: list[tuple[np.ndarray, ...]]  # by RENDER_ORDER: codes, fragments, quote
    assignee: tuple[np.ndarray, ...]  # codes, "label", " ⇒ Assignee {label}", quote
    confidence: np.ndarray  # repr of the float confidence, as rules.csv prints it
    share: np.ndarray  # " @ (support,percent%)"


def cluster_strings(
    partition: RulePartition, codebooks: Mapping[Attribute, Sequence[str]]
) -> ClusterStrings:
    rules, antecedent = partition.rules, []
    for attribute in RENDER_ORDER:
        template = _RENDER_PREFIX[attribute] + "{{{}}}"
        codes, first, later, quote = _labels(
            rules.codes[:, attribute], codebooks[attribute], template, _AND + template
        )
        antecedent.append((codes, np.stack([first, later]), quote))
    arrow = " ⇒ Assignee {{{}}}"
    assignee = _labels(rules.consequent, codebooks[Attribute.ASSIGNEE], "{}", arrow)
    support, count = rules.pairs[0].T.tolist()
    percent = confidence_percents(support, count)
    confidence = np.array([repr(s / a) for s, a in zip(support, count)], dtype=object)
    share = np.array([f" @ ({s},{p}%)" for s, p in zip(support, percent)], dtype=object)
    return ClusterStrings(partition, antecedent, assignee, confidence, share)


def render_rules(strings: ClusterStrings, rows: np.ndarray) -> tuple[list, ...]:
    """Rules ``rows`` of a cluster as the reports print them: each one's text
    in the fixed grammar (injective for distinct rules), support, confidence,
    witness's text ("" for an essential rule), and antecedent and assignee as
    rules.csv prints them, quoted if need be. Each distinct witness is
    rendered once, after the rules."""
    rules, witness = strings.partition.rules, strings.partition.witness[rows]
    distinct, inverse = np.unique(witness[redundant := witness >= 0], return_inverse=True)
    every, n = np.concatenate([rows, distinct]), len(rows)
    antecedent = np.full(len(every), "", dtype=object)
    quote, started = np.zeros(len(every), dtype=bool), np.zeros(len(every), dtype=np.intp)
    for attribute, (codes, fragments, special) in zip(RENDER_ORDER, strings.antecedent):
        at = np.searchsorted(codes, rules.codes[every, attribute])  # 0 where absent
        antecedent += fragments[started, at]
        quote |= special[at]
        started |= at > 0
    codes, labels, arrows, assignee_quote = strings.assignee
    assignee, pair = np.searchsorted(codes, rules.consequent[every]), rules.pairs[1][every]
    text = antecedent + arrows[assignee] + strings.share[pair]
    witnesses = np.full(n, "", dtype=object)
    witnesses[redundant] = text[n:][inverse]
    return (
        text[:n].tolist(),
        rules.support[rows].tolist(),
        strings.confidence[pair[:n]].tolist(),
        witnesses.tolist(),
        _csv_fields(antecedent[:n], quote[:n]),
        _csv_fields(labels[assignee[:n]], assignee_quote[assignee[:n]]),
    )


def length_histogram(rules: RuleTable) -> dict[int, int]:
    """Rule count per antecedent length; lengths 1..4 always present."""
    return dict(zip(range(1, 5), np.bincount(rules.size, minlength=5)[1:5].tolist()))


@dataclass
class ClusterOutcome:
    """What a run keeps of one cluster; ``size`` is its number of records,
    whose rows are not kept, and its frequent-itemset table is dropped once
    its rules are made (``verify`` mines it again). A cluster's index is its
    position in the run's list, and every count a report prints is derived
    from ``size`` and ``partition``. Its rules are rendered only when its
    reports are written."""

    size: int
    top_assignees: list[str]
    partition: RulePartition


def build_summary(
    record_count: int, parameters: Mapping[str, object], outcomes: Sequence[ClusterOutcome]
) -> dict:
    clusters = [
        {
            "cluster": index,
            "size": outcome.size,
            "top_assignees": list(outcome.top_assignees),
            "rules": len(outcome.partition.rules),
            "essential": len(outcome.partition.essential),
            "redundant": len(outcome.partition.redundant),
            "length_histogram": {
                str(k): v for k, v in length_histogram(outcome.partition.rules).items()
            },
        }
        for index, outcome in enumerate(outcomes)
    ]
    return {
        "records": record_count,
        "parameters": dict(parameters),
        "clusters": clusters,
        "totals": {k: sum(c[k] for c in clusters) for k in ("rules", "essential", "redundant")},
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def write_clusters_json(
    path: Path, model: ClusterModel, bug_ids: BugIds, index: np.ndarray
) -> None:
    """The model's diagnostics and each bug_id's cluster, its row's label
    through ``index``, as ``write_json`` prints them; the assignments are
    written a chunk of ids at a time, each id's JSON text as BugIds holds it
    and a ": <cluster>" suffix, as ``indent`` makes ``json`` encode in Python."""
    if len(index) != len(bug_ids):
        raise ConsistencyError("the index and the bug ids disagree on record count")
    payload = {
        "k": model.k,
        "seed": model.seed,
        "iterations_run": model.iterations_run,
        "inertia": model.inertia,
        "centroids": [list(c) for c in model.centroids],
        "assignments": {},
        "cluster_sizes": model.cluster_sizes(),
    }
    head, tail = json.dumps(payload, indent=2, ensure_ascii=False).split('"assignments": {}')
    suffixes = np.array([f": {cluster},\n    " for cluster in range(model.k)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + ('"assignments": {\n    ' if bug_ids else '"assignments": {}'))
        for start, ids in bug_ids.chunks():
            entries = [""] * (2 * len(ids))
            entries[::2] = ids
            entries[1::2] = suffixes[model.labels[index[start : start + len(ids)]]].tolist()
            if start + len(ids) == len(bug_ids):
                entries[-1] = f": {model.labels[index[-1]]}\n  }}"
            fh.write("".join(entries))
        fh.write(tail + "\n")


def write_figure_csvs(figures_dir: Path, summary: Mapping) -> None:
    """The figure tables, from ``build_summary``'s clusters; every field is an
    integer, so none is quoted."""
    figures_dir.mkdir(parents=True, exist_ok=True)
    clusters = summary["clusters"]
    tables = {
        "cluster_sizes.csv": ["cluster,size"] + [f"{c['cluster']},{c['size']}" for c in clusters],
        "essential_redundant.csv": ["cluster,essential,redundant"]
        + [f"{c['cluster']},{c['essential']},{c['redundant']}" for c in clusters],
        "rule_lengths.csv": ["cluster,antecedent_length,rule_count"]
        + [
            f"{c['cluster']},{length},{count}"
            for c in clusters
            for length, count in c["length_histogram"].items()
        ],
    }
    for name, lines in tables.items():
        (figures_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rule_lines(
    index: int, strings: ClusterStrings, rows: np.ndarray, first: int, escape: bool
) -> tuple[str, str]:
    """Rules ``rows`` of cluster ``index``, at least one and all of one status,
    as cluster_<index>.txt lines numbered from ``first`` (escaped with
    ``escape``) and as rules.csv rows."""
    text, support, confidence, witness, antecedent, assignee = render_rules(strings, rows)
    shown = [t.translate(_SHOWN) for t in text] if escape else text
    subsumed = [w.translate(_SHOWN) for w in witness] if escape else witness
    numbers = [f"  {i}. " for i in range(first, first + len(text))]
    subsumed_by = "\n     subsumed by: " if witness[0] else ""  # only a redundant rule has one
    lines = zip(numbers, shown, repeat(subsumed_by), subsumed, repeat("\n"))
    quoted = (',redundant,"' + w.replace('"', '""') + '"' for w in witness)
    status = quoted if subsumed_by else repeat(",essential,")
    cells = (repeat(f"{index},"), antecedent, repeat(","), assignee, repeat(","), map(str, support))
    fields = zip(*cells, repeat(","), confidence, status, repeat("\n"))
    return "".join(chain.from_iterable(lines)), "".join(chain.from_iterable(fields))


def write_rule_reports(
    report_dir: Path, summary: Mapping, outcomes: Sequence[ClusterOutcome], codebooks: Mapping
) -> None:
    """cluster_<i>.txt for each of ``build_summary``'s clusters, and rules.csv,
    one row per rule, essential rows first per cluster. Each cluster's rules
    are rendered WRITE_BATCH at a time, and each batch's lines are written to
    both files before the next is rendered. The text reports escape CR, LF and
    backslash when some label holds CR or LF. A witness holds the comma of
    "(n,p%)", so rules.csv always quotes it."""
    escape = any("\r" in label or "\n" in label for book in codebooks.values() for label in book)
    with open(report_dir / "rules.csv", "w", newline="", encoding="utf-8") as csv_fh:
        csv_fh.write("cluster,antecedent,consequent,support_count,confidence,status,witness\n")
        for cluster, outcome in zip(summary["clusters"], outcomes):
            index, partition = cluster["cluster"], outcome.partition
            strings = cluster_strings(partition, codebooks)
            top = ", ".join(cluster["top_assignees"]) if cluster["top_assignees"] else "(none)"
            header = [
                f"Cluster {index}",
                "=" * len(f"Cluster {index}"),
                f"Records: {cluster['size']}",
                f"Top assignees: {top.translate(_SHOWN) if escape else top}",
                f"Rules: {cluster['rules']} (essential {cluster['essential']}, redundant "
                f"{cluster['redundant']})",
                "Antecedent length histogram: "
                + " ".join(f"{k}={v}" for k, v in cluster["length_histogram"].items()),
            ]
            sections = {"\nEssential": partition.essential, "\nRedundant": partition.redundant}
            with open(report_dir / f"cluster_{index}.txt", "w", encoding="utf-8") as fh:
                fh.write("\n".join(header) + "\n")
                for title, rows in sections.items():
                    fh.write(f"{title} rules\n" + ("" if len(rows) else "  (none)\n"))
                    for start in range(0, len(rows), WRITE_BATCH):
                        batch = rows[start : start + WRITE_BATCH]
                        text, csv = _rule_lines(index, strings, batch, start + 1, escape)
                        fh.write(text)
                        csv_fh.write(csv)
