"""Rendering and report emission: per-cluster rule tables (text), figure
data (CSV) and a machine summary (JSON).

Rule strings follow the house grammar exactly, e.g.

    Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}
        ⇒ Assignee {Jon Granrose} @ (9,52.94%)

Attributes print in the fixed order Severity, Priority, Os, Component;
"Component" binds tightly to its brace. Confidence percentages are rounded
half-up to two decimals and printed without a fractional part when integral.

A cluster's rules are rendered as string columns: the strings of each label
and of each (support, antecedent count) pair are built once, and a witness's
text is looked up by its row. rules.csv quotes a field holding a comma, a
double quote, CR or LF, doubling its quotes (RFC 4180); cluster_<i>.txt
shows a CR or LF inside a label as ``\\r`` or ``\\n``, so that every rule
keeps one line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cluster import ClusterModel
from .errors import ConsistencyError
from .ingest import Attribute, Codebook
from .rules import RulePartition, RuleTable

_RENDER_PREFIX = {  # in print order
    Attribute.SEVERITY: "Severity ",
    Attribute.PRIORITY: "Priority ",
    Attribute.OPERATING_SYSTEM: "Os ",
    Attribute.COMPONENT: "Component",
}
RENDER_ORDER = tuple(_RENDER_PREFIX)

_AND = " ∧ "


def confidence_percents(support: Sequence[int], antecedent_count: Sequence[int]) -> list[str]:
    """Exact half-up percentages with two decimals, from Python ints;
    integral values print bare (52.94, 75, 100)."""
    # floor(10000 * s / a + 1/2)
    hundredths = [(20000 * s + a) // (2 * a) for s, a in zip(support, antecedent_count)]
    return [f"{h // 100}" if h % 100 == 0 else f"{h // 100}.{h % 100:02d}" for h in hundredths]


def _labels(codes: np.ndarray, codebook: Codebook, template: str) -> tuple[np.ndarray, np.ndarray]:
    """``template`` filled with the label of each code, and whether rules.csv
    must quote that label; each distinct code is decoded once."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    labels = [codebook.decode(code) for code in distinct.tolist()]
    text = np.array([template.format(label) for label in labels], dtype=object)
    quote = np.array([any(c in label for c in ',"\r\n') for label in labels], dtype=bool)
    return text[inverse], quote[inverse]


_SHOWN = str.maketrans({"\r": "\\r", "\n": "\\n"})  # CR and LF as visible escapes


def _csv_fields(fields: np.ndarray, quote: np.ndarray) -> np.ndarray:
    """RFC 4180 fields: those flagged in ``quote`` in double quotes, each quote doubled."""
    fields = fields.copy()
    fields[quote] = ['"' + field.replace('"', '""') + '"' for field in fields[quote].tolist()]
    return fields


class RenderedRules(NamedTuple):
    """One cluster's rules as string columns, essential rules first, each
    part in generation order; shared by the cluster text and rules.csv."""

    text: list[str]  # the whole rule in the fixed grammar
    antecedent: list[str]
    assignee: list[str]
    support: list[int]
    confidence: list[str]  # repr of the float confidence, as rules.csv prints it
    witness: list[str]  # the witness's text, "" for an essential rule
    antecedent_csv: list[str]  # as rules.csv prints it: the same string unless quoted
    assignee_csv: list[str]
    line_breaks: bool  # some label of the codebooks holds CR or LF


def render_partition(
    partition: RulePartition, codebooks: Mapping[Attribute, Codebook]
) -> RenderedRules:
    """Every rule of a partition in the fixed grammar (``text`` is injective
    for distinct rules), with the pieces rules.csv prints. The strings of a
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
    assignee, assignee_quote = _labels(rules.consequent, codebooks[Attribute.ASSIGNEE], "{}")
    arrow, _ = _labels(rules.consequent, codebooks[Attribute.ASSIGNEE], " ⇒ Assignee {{{}}}")
    labels = (label for codebook in codebooks.values() for label in codebook.forward)
    line_breaks = any("\r" in label or "\n" in label for label in labels)

    pairs, pair = rules.pairs
    pair_support, pair_count = pairs.T.tolist()
    percent = confidence_percents(pair_support, pair_count)
    confidence = np.array([repr(s / a) for s, a in zip(pair_support, pair_count)], dtype=object)
    share = np.array([f" @ ({s},{p}%)" for s, p in zip(pair_support, percent)], dtype=object)

    text = antecedent + arrow + share[pair]
    essential, redundant = partition.essential, partition.redundant
    order = np.concatenate([essential, redundant])
    columns = (text, antecedent, assignee, rules.support, confidence[pair])
    fields = (_csv_fields(antecedent, quote), _csv_fields(assignee, assignee_quote))
    return RenderedRules(
        *(column[order].tolist() for column in columns),
        [""] * len(essential) + text[partition.witness[redundant]].tolist(),
        *(field[order].tolist() for field in fields),
        line_breaks,
    )


def length_histogram(rules: RuleTable) -> dict[int, int]:
    """Rule count per antecedent length; lengths 1..4 always present."""
    return dict(zip(range(1, 5), np.bincount(rules.size, minlength=5)[1:5].tolist()))


@dataclass(frozen=True)
class ClusterReport:
    """Presentation bundle for one cluster."""

    cluster_index: int
    size: int
    top_assignees: tuple[str, ...]
    essential_count: int
    redundant_count: int
    length_histogram: dict[int, int]
    rendered: RenderedRules

    @property
    def rule_count(self) -> int:
        return self.essential_count + self.redundant_count


def build_cluster_report(
    cluster_index: int,
    size: int,
    partition: RulePartition,
    codebooks: Mapping[Attribute, Codebook],
    top_assignee_codes: Sequence[int],
) -> ClusterReport:
    """Assemble one cluster's report; rule sections keep generation order."""
    return ClusterReport(
        cluster_index=cluster_index,
        size=size,
        top_assignees=tuple(map(codebooks[Attribute.ASSIGNEE].decode, top_assignee_codes)),
        essential_count=len(partition.essential),
        redundant_count=len(partition.redundant),
        length_histogram=length_histogram(partition.rules),
        rendered=render_partition(partition, codebooks),
    )


def build_summary(
    record_count: int,
    parameters: Mapping[str, object],
    reports: Sequence[ClusterReport],
) -> dict:
    clusters = [
        {
            "cluster": report.cluster_index,
            "size": report.size,
            "top_assignees": list(report.top_assignees),
            "rules": report.rule_count,
            "essential": report.essential_count,
            "redundant": report.redundant_count,
            "length_histogram": {str(k): v for k, v in sorted(report.length_histogram.items())},
        }
        for report in reports
    ]
    return {
        "records": record_count,
        "parameters": dict(parameters),
        "clusters": clusters,
        "totals": {k: sum(c[k] for c in clusters) for k in ("rules", "essential", "redundant")},
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def write_clusters_json(path: Path, model: ClusterModel, bug_ids: Sequence[str]) -> None:
    """The model's diagnostics and each bug_id's cluster, as ``write_json``
    prints them; the assignments are joined from each id's encoding and a
    ": <cluster>" suffix, since ``indent`` makes ``json`` encode in Python."""
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
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    if bug_ids:
        suffixes = np.array([f": {cluster},\n    " for cluster in range(model.k)], dtype=object)
        entries = [""] * (2 * len(bug_ids))
        entries[::2] = map(encode_basestring, bug_ids)
        entries[1::2] = suffixes[model.labels].tolist()
        entries[-1] = f": {model.assignments[-1]}"
        block = '"assignments": {\n    ' + "".join(entries) + "\n  }"
        text = text.replace('"assignments": {}', block)
    path.write_text(text + "\n", encoding="utf-8")


def write_cluster_text(path: Path, report: ClusterReport) -> None:
    top = ", ".join(report.top_assignees).translate(_SHOWN) if report.top_assignees else "(none)"
    lines = [
        f"Cluster {report.cluster_index}",
        "=" * len(f"Cluster {report.cluster_index}"),
        f"Records: {report.size}",
        f"Top assignees: {top}",
        f"Rules: {report.rule_count} (essential {report.essential_count},"
        f" redundant {report.redundant_count})",
        "Antecedent length histogram: "
        + " ".join(f"{k}={v}" for k, v in sorted(report.length_histogram.items())),
        "",
        "Essential rules",
    ]
    rendered, essential = report.rendered, report.essential_count
    text, witness = rendered.text, rendered.witness
    if rendered.line_breaks:  # keep one rule per line
        text, witness = [t.translate(_SHOWN) for t in text], [w.translate(_SHOWN) for w in witness]
    lines += [f"  {i}. {t}" for i, t in enumerate(text[:essential], start=1)] or ["  (none)"]
    lines += ["", "Redundant rules"]
    redundant = zip(text[essential:], witness[essential:])
    lines += [
        f"  {i}. {t}\n     subsumed by: {w}" for i, (t, w) in enumerate(redundant, start=1)
    ] or ["  (none)"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_figure_csvs(figures_dir: Path, reports: Sequence[ClusterReport]) -> None:
    """The figure tables; every field is an integer, so none is quoted."""
    figures_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "cluster_sizes.csv": ["cluster,size"]
        + [f"{r.cluster_index},{r.size}" for r in reports],
        "essential_redundant.csv": ["cluster,essential,redundant"]
        + [f"{r.cluster_index},{r.essential_count},{r.redundant_count}" for r in reports],
        "rule_lengths.csv": ["cluster,antecedent_length,rule_count"]
        + [
            f"{r.cluster_index},{length},{count}"
            for r in reports
            for length, count in sorted(r.length_histogram.items())
        ],
    }
    for name, lines in tables.items():
        (figures_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rules_csv(path: Path, reports: Sequence[ClusterReport]) -> None:
    """One row per rule across all clusters, essential rows first per
    cluster, joined and written a cluster at a time. A witness holds the
    comma of "(n,p%)", so it is always quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("cluster,antecedent,consequent,support_count,confidence,status,witness\n")
        for report in reports:
            rendered, essential = report.rendered, report.essential_count
            status = [",essential,"] * essential + [
                ',redundant,"' + witness.replace('"', '""') + '"'
                for witness in rendered.witness[essential:]
            ]
            columns = (rendered.antecedent_csv, rendered.assignee_csv, rendered.support)
            rows = zip(*columns, rendered.confidence, status)
            start = f"{report.cluster_index},"
            fh.write("".join([f"{start}{a},{b},{n},{c}{t}\n" for a, b, n, c, t in rows]))
