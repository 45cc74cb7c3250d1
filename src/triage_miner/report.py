"""Rendering and report emission: per-cluster rule tables (text), figure
data (CSV) and a machine summary (JSON).

Rule strings follow the house grammar exactly, e.g.

    Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}
        ⇒ Assignee {Jon Granrose} @ (9,52.94%)

Attributes print in the fixed order Severity, Priority, Os, Component;
"Component" binds tightly to its brace. Confidence percentages are rounded
half-up to two decimals and printed without a fractional part when integral.

Only this module knows the rendered form. A cluster's rules are rendered
when its reports are written, once for cluster_<i>.txt and rules.csv both,
as string columns: the strings of each label and of each (support,
antecedent count) pair are built once, and a witness's text is looked up by
its row; both files are written WRITE_BATCH rules at a time, never whole.
rules.csv quotes a field holding a comma, a double quote, CR or LF,
doubling its quotes (RFC 4180). When some label holds CR or LF,
cluster_<i>.txt shows them as ``\\r`` and ``\\n`` and a backslash as
``\\\\``, so that every rule keeps one line and each escape reads one way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .cluster import ClusterModel
from .errors import ConsistencyError
from .ingest import Attribute, BugIds, decode
from .mine import Projection, Subset
from .rules import RulePartition, RuleTable

_RENDER_PREFIX = {  # in print order
    Attribute.SEVERITY: "Severity ",
    Attribute.PRIORITY: "Priority ",
    Attribute.OPERATING_SYSTEM: "Os ",
    Attribute.COMPONENT: "Component",
}
RENDER_ORDER = tuple(_RENDER_PREFIX)

_AND = " ∧ "
WRITE_BATCH = 1024  # rules per write of cluster_<i>.txt and rules.csv


def confidence_percents(support: Sequence[int], antecedent_count: Sequence[int]) -> list[str]:
    """Exact half-up percentages with two decimals, from Python ints;
    integral values print bare (52.94, 75, 100)."""
    # floor(10000 * s / a + 1/2)
    hundredths = [(20000 * s + a) // (2 * a) for s, a in zip(support, antecedent_count)]
    return [f"{h // 100}" if h % 100 == 0 else f"{h // 100}.{h % 100:02d}" for h in hundredths]


def _labels(codes: np.ndarray, book: Sequence[str], *templates: str) -> tuple[np.ndarray, ...]:
    """Each template filled with the label of each code, then whether
    rules.csv must quote that label; each distinct code is decoded once."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    labels = decode(book, distinct.tolist())
    texts = [np.array([t.format(label) for label in labels], dtype=object) for t in templates]
    quote = np.array([any(c in label for c in ',"\r\n') for label in labels], dtype=bool)
    return *(text[inverse] for text in texts), quote[inverse]


# CR and LF as visible escapes, and a backslash doubled so each escape reads one way
_SHOWN = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})


def _csv_fields(fields: np.ndarray, quote: np.ndarray) -> np.ndarray:
    """RFC 4180 fields: those flagged in ``quote`` in double quotes, each quote doubled."""
    fields = fields.copy()
    fields[quote] = ['"' + field.replace('"', '""') + '"' for field in fields[quote].tolist()]
    return fields


class RenderedRules(NamedTuple):
    """One cluster's rules as the report writers print them, essential rules
    first, each part in generation order."""

    text: list[str]  # the whole rule in the fixed grammar
    support: list[int]
    confidence: list[str]  # repr of the float confidence, as rules.csv prints it
    witness: list[str]  # the witness's text, "" for an essential rule
    antecedent_csv: list[str]  # as rules.csv prints it: the antecedent, quoted if need be
    assignee_csv: list[str]


def render_partition(
    partition: RulePartition, codebooks: Mapping[Attribute, Sequence[str]]
) -> RenderedRules:
    """Every rule of a partition in the fixed grammar (``text`` is injective
    for distinct rules), with the fields rules.csv prints. The strings of a
    label or of a (support, antecedent count) pair are built once."""
    rules = partition.rules
    antecedent = np.full(len(rules), "", dtype=object)
    quote = np.zeros(len(rules), dtype=bool)
    for attribute in RENDER_ORDER:
        rows = rules.present[:, attribute]
        template = _AND + _RENDER_PREFIX[attribute] + "{{{}}}"
        fragment, special = _labels(rules.codes[rows, attribute], codebooks[attribute], template)
        antecedent[rows] += fragment
        quote[rows] |= special
    antecedent = np.array([text[len(_AND) :] for text in antecedent.tolist()], dtype=object)
    assignee, arrow, assignee_quote = _labels(
        rules.consequent, codebooks[Attribute.ASSIGNEE], "{}", " ⇒ Assignee {{{}}}"
    )

    pairs, pair = rules.pairs
    pair_support, pair_count = pairs.T.tolist()
    percent = confidence_percents(pair_support, pair_count)
    confidence = np.array([repr(s / a) for s, a in zip(pair_support, pair_count)], dtype=object)
    share = np.array([f" @ ({s},{p}%)" for s, p in zip(pair_support, percent)], dtype=object)

    text = antecedent + arrow + share[pair]
    essential, redundant = partition.essential, partition.redundant
    order = np.concatenate([essential, redundant])
    fields = (_csv_fields(antecedent, quote), _csv_fields(assignee, assignee_quote))
    return RenderedRules(
        *(column[order].tolist() for column in (text, rules.support, confidence[pair])),
        [""] * len(essential) + text[partition.witness[redundant]].tolist(),
        *(field[order].tolist() for field in fields),
    )


def length_histogram(rules: RuleTable) -> dict[int, int]:
    """Rule count per antecedent length; lengths 1..4 always present."""
    return dict(zip(range(1, 5), np.bincount(rules.size, minlength=5)[1:5].tolist()))


@dataclass
class ClusterOutcome:
    """Everything mined from one cluster; ``size`` is its number of records,
    whose rows are not kept. A cluster's index is its position in the run's
    list, and every count a report prints is derived from ``size`` and
    ``partition``. Its rules are rendered only when its reports are written."""

    size: int
    table: Mapping[Subset, Projection]  # the frequent itemsets, by attribute subset
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


def write_clusters_json(path: Path, model: ClusterModel, bug_ids: BugIds) -> None:
    """The model's diagnostics and each bug_id's cluster, as ``write_json``
    prints them; the assignments are written a chunk of ids at a time, each
    id's JSON encoding as BugIds holds it and a ": <cluster>" suffix, as
    ``indent`` makes ``json`` encode in Python, so no id is encoded here."""
    if len(model.assignments) != len(bug_ids):
        raise ConsistencyError("model and records disagree on record count")
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
            entries[1::2] = suffixes[model.assignments[start : start + len(ids)]].tolist()
            if start + len(ids) == len(bug_ids):
                entries[-1] = f": {model.assignments[-1]}\n  }}"
            fh.write("".join(entries))
        fh.write(tail + "\n")


def _write_in_batches(fh: TextIO, lines: Iterator[tuple[str, ...]]) -> None:
    """Write ``lines``, each given as the string pieces it joins, WRITE_BATCH
    lines at a time, so no file's text is held whole."""
    while batch := list(islice(lines, WRITE_BATCH)):
        fh.write("".join(chain.from_iterable(batch)))


def write_cluster_text(path: Path, cluster: Mapping, rendered: RenderedRules, escape: bool) -> None:
    """A cluster's text report: the header from its ``build_summary`` entry,
    then its rules; with ``escape``, labels show CR, LF and backslash as escapes."""
    index, essential = cluster["cluster"], cluster["essential"]
    top = ", ".join(cluster["top_assignees"]) if cluster["top_assignees"] else "(none)"
    text, witness = rendered.text, rendered.witness[essential:]
    if escape:  # each rule on one line
        top = top.translate(_SHOWN)
        text, witness = ([t.translate(_SHOWN) for t in texts] for texts in (text, witness))
    numbers = [f"  {i}. " for i in range(1, max(essential, len(text) - essential) + 1)]
    lines = [
        f"Cluster {index}",
        "=" * len(f"Cluster {index}"),
        f"Records: {cluster['size']}",
        f"Top assignees: {top}",
        f"Rules: {cluster['rules']} (essential {essential}, redundant {cluster['redundant']})",
        "Antecedent length histogram: "
        + " ".join(f"{k}={v}" for k, v in cluster["length_histogram"].items()),
        "",
        "Essential rules",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" + ("" if essential else "  (none)\n"))
        _write_in_batches(fh, zip(numbers, text[:essential], repeat("\n")))
        fh.write("\nRedundant rules\n" + ("" if len(text) > essential else "  (none)\n"))
        subsumed = repeat("\n     subsumed by: ")
        _write_in_batches(fh, zip(numbers, text[essential:], subsumed, witness, repeat("\n")))


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


def write_rule_reports(
    report_dir: Path, summary: Mapping, outcomes: Sequence[ClusterOutcome], codebooks: Mapping
) -> None:
    """cluster_<i>.txt for each of ``build_summary``'s clusters, and rules.csv,
    one row per rule, essential rows first per cluster. Each cluster's rules
    are rendered once, for both, so one cluster's strings are held at a time,
    and its lines are joined and written WRITE_BATCH rules at a time. The
    text reports escape CR and LF when some label holds one. A witness holds
    the comma of "(n,p%)", so rules.csv always quotes it."""
    labels = (label for codebook in codebooks.values() for label in codebook)
    escape = any("\r" in label or "\n" in label for label in labels)
    with open(report_dir / "rules.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("cluster,antecedent,consequent,support_count,confidence,status,witness\n")
        for cluster, outcome in zip(summary["clusters"], outcomes):
            index, essential = cluster["cluster"], cluster["essential"]
            rendered = render_partition(outcome.partition, codebooks)
            write_cluster_text(report_dir / f"cluster_{index}.txt", cluster, rendered, escape)
            status = chain(
                repeat(",essential,", essential),
                (',redundant,"' + w.replace('"', '""') + '"' for w in rendered.witness[essential:]),
            )
            rows = zip(
                repeat(f"{index},"),
                rendered.antecedent_csv,
                repeat(","),
                rendered.assignee_csv,
                repeat(","),
                map(str, rendered.support),
                repeat(","),
                rendered.confidence,
                status,
                repeat("\n"),
            )
            _write_in_batches(fh, rows)
            del rendered, status, rows  # before the next cluster's are rendered
