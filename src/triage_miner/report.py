"""Rendering and report emission: per-cluster rule tables (text), figure
data (CSV) and a machine summary (JSON).

Rule strings follow the house grammar exactly, e.g.

    Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}
        ⇒ Assignee {Jon Granrose} @ (9,52.94%)

Attributes print in the fixed order Severity, Priority, Os, Component;
"Component" binds tightly to its brace. Confidence percentages are rounded
half-up to two decimals and printed without a fractional part when integral.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .ingest import Attribute, Codebook
from .mine import Itemset
from .rules import Rule, RulePartition

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


def format_confidence_percent(support_count: int, antecedent_count: int) -> str:
    """Exact half-up percentage with two decimals; integral values print bare
    (52.94, 75, 100)."""
    # floor(10000 * s / a + 1/2), in integers
    hundredths = (20000 * support_count + antecedent_count) // (2 * antecedent_count)
    whole, cents = divmod(hundredths, 100)
    return str(whole) if cents == 0 else f"{whole}.{cents:02d}"


def render_antecedent(antecedent: Itemset, codebooks: Mapping[Attribute, Codebook]) -> str:
    parts = []
    by_attribute = {item.attribute: item for item in antecedent}
    for attribute in RENDER_ORDER:
        item = by_attribute.get(attribute)
        if item is not None:
            label = codebooks[attribute].decode(item.code)
            parts.append(f"{_RENDER_PREFIX[attribute]}{{{label}}}")
    return " ∧ ".join(parts)


class RenderedRule(NamedTuple):
    """One rule's strings, rendered once and shared by the cluster text and
    rules.csv."""

    text: str  # the whole rule in the fixed grammar
    antecedent: str
    assignee: str
    support_count: int
    confidence: str  # repr of the float confidence, as rules.csv prints it


def render_rule(rule: Rule, codebooks: Mapping[Attribute, Codebook]) -> RenderedRule:
    """One rule in the fixed grammar (``text`` is injective for distinct
    rules), with the pieces rules.csv prints."""
    antecedent = render_antecedent(rule.antecedent, codebooks)
    assignee = codebooks[Attribute.ASSIGNEE].decode(rule.consequent.code)
    percent = format_confidence_percent(rule.support_count, rule.antecedent_count)
    return RenderedRule(
        text=f"{antecedent} ⇒ Assignee {{{assignee}}} @ ({rule.support_count},{percent}%)",
        antecedent=antecedent,
        assignee=assignee,
        support_count=rule.support_count,
        confidence=repr(rule.confidence),
    )


def length_histogram(rules: Sequence[Rule]) -> dict[int, int]:
    """Rule count per antecedent length; lengths 1..4 always present."""
    histogram = {length: 0 for length in range(1, 5)}
    for rule in rules:
        histogram[len(rule.antecedent)] += 1
    return histogram


@dataclass(frozen=True)
class ClusterReport:
    """Presentation bundle for one cluster."""

    cluster_index: int
    size: int
    top_assignees: tuple[str, ...]
    essential_count: int
    redundant_count: int
    length_histogram: dict[int, int]
    essential_rendered: tuple[RenderedRule, ...]
    redundant_rendered: tuple[tuple[RenderedRule, str], ...]  # (rule, witness text)

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
    """Assemble one cluster's report; rule sections keep generation order.
    Each rule is rendered once; a witness, always one of the cluster's
    essential rules, reuses that rule's text."""
    assignee_book = codebooks[Attribute.ASSIGNEE]
    essential = tuple(render_rule(rule, codebooks) for rule in partition.essential)
    essential_text = {
        rule.key: rendered.text for rule, rendered in zip(partition.essential, essential)
    }
    return ClusterReport(
        cluster_index=cluster_index,
        size=size,
        top_assignees=tuple(assignee_book.decode(code) for code in top_assignee_codes),
        essential_count=len(partition.essential),
        redundant_count=len(partition.redundant),
        length_histogram=length_histogram(partition.all_rules()),
        essential_rendered=essential,
        redundant_rendered=tuple(
            (render_rule(rule, codebooks), essential_text[witness.key])
            for rule, witness in partition.redundant
        ),
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
    if report.essential_rendered:
        lines += [
            f"  {i}. {rendered.text}"
            for i, rendered in enumerate(report.essential_rendered, start=1)
        ]
    else:
        lines.append("  (none)")
    lines += ["", "Redundant rules"]
    if report.redundant_rendered:
        for i, (rendered, witness) in enumerate(report.redundant_rendered, start=1):
            lines.append(f"  {i}. {rendered.text}")
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
            rows = [(rendered, "essential", "") for rendered in report.essential_rendered]
            rows += [
                (rendered, "redundant", witness) for rendered, witness in report.redundant_rendered
            ]
            for rendered, status, witness in rows:
                writer.writerow(
                    [
                        report.cluster_index,
                        rendered.antecedent,
                        rendered.assignee,
                        rendered.support_count,
                        rendered.confidence,
                        status,
                        witness,
                    ]
                )
