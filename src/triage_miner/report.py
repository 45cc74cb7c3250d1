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
double quote, CR or LF, doubling its quotes (RFC 4180). When some label
holds CR or LF, cluster_<i>.txt shows them as ``\\r`` and ``\\n`` and a
backslash as ``\\\\``, so that every rule keeps one line and each escape
reads one way.
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


# CR and LF as visible escapes, and a backslash doubled so each escape reads one way
_SHOWN = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})


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


@dataclass
class ClusterOutcome:
    """Everything mined from one cluster, with its rules rendered once; ``rows``
    are its (n, 5) code rows. A cluster's index is its position in the run's
    list, and every count a report prints is derived from ``rows`` and
    ``partition``."""

    rows: np.ndarray
    table: Mapping[Subset, Projection]  # the frequent itemsets, by attribute subset
    top_assignees: list[str]
    partition: RulePartition
    rendered: RenderedRules


def build_summary(
    record_count: int,
    parameters: Mapping[str, object],
    outcomes: Sequence[ClusterOutcome],
) -> dict:
    clusters = [
        {
            "cluster": index,
            "size": len(outcome.rows),
            "top_assignees": list(outcome.top_assignees),
            "rules": outcome.partition.rule_count,
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
        entries[1::2] = suffixes[model.assignments].tolist()
        entries[-1] = f": {model.assignments[-1]}"
        block = '"assignments": {\n    ' + "".join(entries) + "\n  }"
        text = text.replace('"assignments": {}', block)
    path.write_text(text + "\n", encoding="utf-8")


def write_cluster_text(path: Path, index: int, outcome: ClusterOutcome) -> None:
    rendered, essential = outcome.rendered, len(outcome.partition.essential)
    top = ", ".join(outcome.top_assignees) if outcome.top_assignees else "(none)"
    text, witness = rendered.text, rendered.witness
    if rendered.line_breaks:  # keep one rule per line, each escape read one way
        top = top.translate(_SHOWN)
        text, witness = [t.translate(_SHOWN) for t in text], [w.translate(_SHOWN) for w in witness]
    histogram = length_histogram(outcome.partition.rules)
    lines = [
        f"Cluster {index}",
        "=" * len(f"Cluster {index}"),
        f"Records: {len(outcome.rows)}",
        f"Top assignees: {top}",
        f"Rules: {outcome.partition.rule_count} (essential {essential},"
        f" redundant {len(outcome.partition.redundant)})",
        "Antecedent length histogram: " + " ".join(f"{k}={v}" for k, v in histogram.items()),
        "",
        "Essential rules",
    ]
    lines += [f"  {i}. {t}" for i, t in enumerate(text[:essential], start=1)] or ["  (none)"]
    lines += ["", "Redundant rules"]
    redundant = zip(text[essential:], witness[essential:])
    lines += [
        f"  {i}. {t}\n     subsumed by: {w}" for i, (t, w) in enumerate(redundant, start=1)
    ] or ["  (none)"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def write_rules_csv(path: Path, outcomes: Sequence[ClusterOutcome]) -> None:
    """One row per rule across all clusters, essential rows first per
    cluster, joined and written a cluster at a time. A witness holds the
    comma of "(n,p%)", so it is always quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("cluster,antecedent,consequent,support_count,confidence,status,witness\n")
        for index, outcome in enumerate(outcomes):
            rendered, essential = outcome.rendered, len(outcome.partition.essential)
            status = [",essential,"] * essential + [
                ',redundant,"' + witness.replace('"', '""') + '"'
                for witness in rendered.witness[essential:]
            ]
            columns = (rendered.antecedent_csv, rendered.assignee_csv, rendered.support)
            rows = zip(*columns, rendered.confidence, status)
            fh.write("".join([f"{index},{a},{b},{n},{c}{t}\n" for a, b, n, c, t in rows]))
