"""Rendering and report emission: per-cluster rule tables (text), figure
data (CSV) and a machine summary (JSON).

Rule strings follow the house grammar exactly, e.g.

    Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}
        ⇒ Assignee {Jon Granrose} @ (9,52.94%)

Attributes print in the fixed order Severity, Priority, Os, Component;
"Component" binds tightly to its brace. Confidence percentages are rounded
half-up to two decimals and printed without a fractional part when integral.

A cluster's rules are rendered as columns: each (attribute, code) fragment
and each assignee label is built once, percentages are computed in integer
arrays, and a witness's text is looked up by its row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .ingest import Attribute, Codebook
from .rules import RulePartition, RuleTable, exact_counts

RENDER_ORDER = (
    Attribute.SEVERITY,
    Attribute.PRIORITY,
    Attribute.OPERATING_SYSTEM,
    Attribute.COMPONENT,
)

_RENDER_PREFIX = {
    Attribute.SEVERITY: "Severity ",
    Attribute.PRIORITY: "Priority ",
    Attribute.OPERATING_SYSTEM: "Os ",
    Attribute.COMPONENT: "Component",
}

_AND = " ∧ "


def confidence_percents(support: np.ndarray, antecedent_count: np.ndarray) -> list[str]:
    """Exact half-up percentages with two decimals; integral values print
    bare (52.94, 75, 100)."""
    support, antecedent_count = exact_counts(support, antecedent_count, 2**48)
    # floor(10000 * s / a + 1/2), in integers
    hundredths = (20000 * support + antecedent_count) // (2 * antecedent_count)
    return [
        str(whole) if cents == 0 else f"{whole}.{cents:02d}"
        for whole, cents in zip((hundredths // 100).tolist(), (hundredths % 100).tolist())
    ]


def _labels(codes: np.ndarray, codebook: Codebook, template: str) -> np.ndarray:
    """``template`` filled with the label of each code, decoding each
    distinct code once."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    labels = [template.format(codebook.decode(code)) for code in distinct.tolist()]
    return np.array(labels, dtype=object)[inverse]


def render_antecedents(rules: RuleTable, codebooks: Mapping[Attribute, Codebook]) -> list[str]:
    """Each rule's antecedent in the fixed grammar, e.g. "Priority {P1} ∧ Os {All}"."""
    text = np.full(len(rules), "", dtype=object)
    for attribute in RENDER_ORDER:
        present = rules.present[:, attribute]
        template = _AND + _RENDER_PREFIX[attribute] + "{{{}}}"
        text[present] += _labels(rules.codes[present, attribute], codebooks[attribute], template)
    return [fragments[len(_AND) :] for fragments in text.tolist()]


class RenderedRules(NamedTuple):
    """One cluster's rules as string columns, essential rules first, each
    part in generation order; shared by the cluster text and rules.csv."""

    text: list[str]  # the whole rule in the fixed grammar
    antecedent: list[str]
    assignee: list[str]
    support: list[int]
    confidence: list[str]  # repr of the float confidence, as rules.csv prints it
    witness: list[str]  # the witness's text, "" for an essential rule


def render_partition(
    partition: RulePartition, codebooks: Mapping[Attribute, Codebook]
) -> RenderedRules:
    """Every rule of a partition in the fixed grammar (``text`` is injective
    for distinct rules), with the pieces rules.csv prints."""
    rules = partition.rules
    support, antecedent_count = rules.support.tolist(), rules.antecedent_count.tolist()
    antecedent = render_antecedents(rules, codebooks)
    assignee = _labels(rules.consequent, codebooks[Attribute.ASSIGNEE], "{}").tolist()
    percent = confidence_percents(rules.support, rules.antecedent_count)
    text = [
        f"{lhs} ⇒ Assignee {{{rhs}}} @ ({count},{share}%)"
        for lhs, rhs, count, share in zip(antecedent, assignee, support, percent)
    ]
    confidence = [repr(count / total) for count, total in zip(support, antecedent_count)]
    witness = ["" if row < 0 else text[row] for row in partition.witness.tolist()]
    order = np.concatenate([partition.essential, partition.redundant]).tolist()
    columns = (text, antecedent, assignee, support, confidence, witness)
    return RenderedRules(*([column[row] for row in order] for column in columns))


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
    assignee_book = codebooks[Attribute.ASSIGNEE]
    return ClusterReport(
        cluster_index=cluster_index,
        size=size,
        top_assignees=tuple(assignee_book.decode(code) for code in top_assignee_codes),
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
        "totals": {
            "rules": sum(r.rule_count for r in reports),
            "essential": sum(r.essential_count for r in reports),
            "redundant": sum(r.redundant_count for r in reports),
        },
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def write_cluster_text(path: Path, report: ClusterReport) -> None:
    lines = [
        f"Cluster {report.cluster_index}",
        "=" * len(f"Cluster {report.cluster_index}"),
        f"Records: {report.size}",
        f"Top assignees: {', '.join(report.top_assignees) if report.top_assignees else '(none)'}",
        f"Rules: {report.rule_count} (essential {report.essential_count},"
        f" redundant {report.redundant_count})",
        "Antecedent length histogram: "
        + " ".join(f"{k}={v}" for k, v in sorted(report.length_histogram.items())),
        "",
        "Essential rules",
    ]
    rendered, essential = report.rendered, report.essential_count
    if essential:
        lines += [f"  {i}. {text}" for i, text in enumerate(rendered.text[:essential], start=1)]
    else:
        lines.append("  (none)")
    lines += ["", "Redundant rules"]
    if report.redundant_count:
        redundant = zip(rendered.text[essential:], rendered.witness[essential:])
        for i, (text, witness) in enumerate(redundant, start=1):
            lines.append(f"  {i}. {text}")
            lines.append(f"     subsumed by: {witness}")
    else:
        lines.append("  (none)")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_figure_csvs(figures_dir: Path, reports: Sequence[ClusterReport]) -> None:
    figures_dir.mkdir(parents=True, exist_ok=True)
    with open(figures_dir / "cluster_sizes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "size"])
        for report in reports:
            writer.writerow([report.cluster_index, report.size])
    with open(figures_dir / "essential_redundant.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "essential", "redundant"])
        for report in reports:
            writer.writerow([report.cluster_index, report.essential_count, report.redundant_count])
    with open(figures_dir / "rule_lengths.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "antecedent_length", "rule_count"])
        for report in reports:
            for length, count in sorted(report.length_histogram.items()):
                writer.writerow([report.cluster_index, length, count])


def write_rules_csv(path: Path, reports: Sequence[ClusterReport]) -> None:
    """One row per rule across all clusters, essential rows first per cluster."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["cluster", "antecedent", "consequent", "support_count", "confidence", "status", "witness"]
        )
        for report in reports:
            rendered = report.rendered
            status = ["essential"] * report.essential_count + ["redundant"] * report.redundant_count
            writer.writerows(
                zip(
                    repeat(report.cluster_index),
                    rendered.antecedent,
                    rendered.assignee,
                    rendered.support,
                    rendered.confidence,
                    status,
                    rendered.witness,
                )
            )
