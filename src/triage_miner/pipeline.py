"""End-to-end pipeline: ingest -> encode -> cluster -> per-cluster mining ->
reports, plus the brute-force verification of a run's own tables.

Outputs are staged in a temporary directory and renamed into place, so a
failed run never leaves partial results, and only a previous report that
holds nothing else is ever replaced. Every run re-checks its own output
before anything is written, and a violation aborts with an audit error. The
cluster model: sizes cover the records with no empty cluster, each record
sits at its nearest centroid, the inertia recomputes and never rose between
iterations. Each of the k clusters: its rows are the records assigned to it,
every rule meets the thresholds with a non-empty antecedent, and every
redundant rule's witness is an essential rule with the same assignee, a
strictly smaller antecedent and a confidence no lower. The reports' counts
are derived from the rows and rule partitions, not stored apart from them.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .cluster import ClusterModel, feature_matrix, kmeans_fit, split_by_cluster
from .config import PipelineConfig
from .errors import AuditError, InputError, ParameterError
from .ingest import Attribute, Codebook, codebooks_to_json, read_bug_csv
from .mine import distinct_rows, mine_frequent_itemsets
from .oracle import (
    enumerate_frequent_itemsets,
    essential_rules_naive,
    itemset_supports,
    rule_objects,
    witness_is_valid,
)
from .report import (
    ClusterOutcome,
    build_summary,
    render_partition,
    write_cluster_text,
    write_clusters_json,
    write_figure_csvs,
    write_json,
    write_rules_csv,
)
from .rules import RulePartition, eliminate_redundant, generate_class_rules, top_assignees

logger = logging.getLogger("triage_miner")

MAX_VERIFY_TRANSACTIONS = 2000  # verify's default caps, and its CLI flags' defaults
MAX_VERIFY_RULES = 5000


@dataclass
class PipelineResult:
    config: PipelineConfig
    input_sha256: str
    codebooks: dict[Attribute, Codebook]
    bug_ids: list[str]
    codes: np.ndarray  # (n, 5), one column per Attribute
    features: np.ndarray  # the k-means input, derived from codes
    model: ClusterModel
    outcomes: list[ClusterOutcome]  # cluster i's at position i


def _load_and_encode(config: PipelineConfig):
    path = Path(config.input_path)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read input {config.input_path!r}: {exc}") from exc
    input_sha256 = hashlib.sha256(payload).hexdigest()
    bug_ids, codebooks, codes = read_bug_csv(io.BytesIO(payload), config.column_map)
    if not bug_ids:
        raise InputError(f"input {config.input_path!r} contains no data rows")
    return input_sha256, codebooks, bug_ids, codes


def _mine_cluster(
    index: int,
    rows: np.ndarray,
    config: PipelineConfig,
    codebooks: Mapping[Attribute, Codebook],
) -> ClusterOutcome:
    table = mine_frequent_itemsets(rows, config.min_support_count)
    top_codes = top_assignees(rows[:, Attribute.ASSIGNEE], config.top_n)
    rules = generate_class_rules(table, config.min_confidence, top_codes)
    partition = eliminate_redundant(rules)
    logger.info(
        "cluster %d: %d records, %d frequent itemsets, %d rules (%d essential, %d redundant)",
        index,
        len(rows),
        sum(len(projection.counts) for projection in table.values()),
        partition.rule_count,
        len(partition.essential),
        len(partition.redundant),
    )
    top_labels = [codebooks[Attribute.ASSIGNEE].decode(code) for code in top_codes]
    rendered = render_partition(partition, codebooks)
    return ClusterOutcome(rows, table, top_labels, partition, rendered)


def execute(config: PipelineConfig) -> PipelineResult:
    """Run every stage in memory; no files are touched."""
    input_sha256, codebooks, bug_ids, codes = _load_and_encode(config)
    logger.info("encoded %d records from %s", len(codes), config.input_path)
    features = feature_matrix(codes)
    model = kmeans_fit(features, config.k, config.seed, config.max_iterations)
    logger.info(
        "k-means: k=%d, %d iterations, inertia %.4f", model.k, model.iterations_run, model.inertia
    )
    parts = split_by_cluster(codes, model)
    outcomes = [
        _mine_cluster(index, cluster_rows, config, codebooks)
        for index, cluster_rows in enumerate(parts)
    ]
    result = PipelineResult(
        config, input_sha256, codebooks, bug_ids, codes, features, model, outcomes
    )
    violations = audit_result(result)
    if violations:
        raise AuditError(violations)
    return result


def audit_result(result: PipelineResult) -> list[str]:
    """Re-derive the pipeline's structural invariants from its own output."""
    problems: list[str] = []
    model, points = result.model, result.features

    sizes = model.cluster_sizes()
    if sum(sizes) != len(points):
        problems.append(f"cluster sizes sum to {sum(sizes)}, expected {len(points)}")
    if any(size == 0 for size in sizes):
        problems.append("model contains an empty cluster")
    if len(model.assignments) != len(points):
        problems.append("assignments do not cover the record list")

    vectors, rank, _ = distinct_rows(points)
    if not np.array_equal(vectors[rank], points):
        problems.append("distinct feature vectors do not reproduce the records")
    distances = ((vectors[:, None, :] - np.array(model.centroids)) ** 2).sum(axis=2)
    assignments = model.assignments
    if not np.array_equal(distances.argmin(axis=1)[rank], assignments):
        problems.append("some record is not assigned to its nearest centroid")
    recomputed = float(distances[rank, assignments].sum())
    if abs(model.inertia - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
        problems.append(f"inertia {model.inertia} != recomputed {recomputed}")
    if any(later > earlier + 1e-9 for earlier, later in zip(model.inertia_history, model.inertia_history[1:])):
        problems.append("inertia increased between iterations")

    if len(result.outcomes) != model.k:
        problems.append("cluster outcomes do not match the model's clusters")
    for index, outcome in enumerate(result.outcomes):
        label = f"cluster {index}"
        if not np.array_equal(outcome.rows, result.codes[assignments == index]):
            problems.append(f"{label}: rows are not the input rows assigned to it")
        problems += [f"{label}: {p}" for p in _audit_rules(outcome.partition, result.config)]
    return problems


def _audit_rules(partition: RulePartition, config: PipelineConfig) -> list[str]:
    """Every rule's thresholds and antecedent, and every witness from first
    principles: essential, same consequent, strict-subset antecedent,
    confidence no lower (cross-multiplied in Python ints)."""
    rules, witness, rows = partition.rules, partition.witness, partition.redundant
    of = np.minimum(witness[rows], len(rules) - 1)  # an out-of-range witness fails below
    support, antecedent_count = rules.support.astype(object), rules.antecedent_count
    valid = (
        (witness[rows] < len(rules))
        & (witness[of] < 0)
        & (rules.consequent[of] == rules.consequent[rows])
        & (rules.size[of] < rules.size[rows])
        & (~rules.present[of] | (rules.codes[of] == rules.codes[rows])).all(axis=1)
        & (support[of] * antecedent_count[rows] >= support[rows] * antecedent_count[of])
    )
    checks = {
        "rules below min support": rules.support < config.min_support_count,
        "rules below min confidence": (rules.support / rules.antecedent_count)
        < config.min_confidence,
        "rules with an empty antecedent": rules.size == 0,
        "invalid witness": np.isin(np.arange(len(rules)), rows[~valid]),
    }
    return [
        f"{name} ({np.count_nonzero(bad)} rules, first row {np.argmax(bad)})"
        for name, bad in checks.items()
        if bad.any()
    ]


def _foreign_entry(directory: Path, relative: str = "") -> Path | None:
    """The first entry under a previous report, in name order, that the
    writer does not write; a directory's relative path ends in "/"."""
    for entry in sorted(os.scandir(directory), key=lambda entry: entry.name):
        path = relative + entry.name + ("/" if entry.is_dir(follow_symlinks=False) else "")
        if not re.fullmatch(
            r"(config_used|codebooks|clusters)\.json|report/(summary\.json|rules\.csv"
            r"|cluster_(0|[1-9]\d*)\.txt|figures/((cluster_sizes|essential_redundant"
            r"|rule_lengths)\.csv)?)?",
            path,
        ):
            return Path(entry.path)
        if path.endswith("/") and (found := _foreign_entry(Path(entry.path), path)):
            return found
    return None


def write_outputs(result: PipelineResult) -> Path:
    """Write the full output tree atomically; returns the output directory.

    An existing output path is replaced only if it holds a previous report
    (config_used.json plus report/) and nothing the writer does not write;
    otherwise nothing is touched. The old report is renamed aside, the new
    one renamed in, and only then is the old one deleted, so a complete
    report exists at every moment. A failed write is an input/output error.
    """
    final_dir = Path(result.config.output_dir)
    staging = None
    try:
        is_report = (final_dir / "config_used.json").is_file() and (final_dir / "report").is_dir()
        foreign = _foreign_entry(final_dir) if is_report else final_dir
        if final_dir.exists() and foreign is not None:
            raise ParameterError(
                f"output {str(final_dir)!r} exists and is not a triage-miner report;"
                f" refusing to replace {str(foreign)!r}"
            )
        final_dir.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(prefix=final_dir.name + ".staging-", dir=final_dir.parent)
        )
        config_used = dict(result.config.analysis_parameters())
        config_used["input_sha256"] = result.input_sha256
        write_json(staging / "config_used.json", config_used)
        write_json(staging / "codebooks.json", codebooks_to_json(result.codebooks))
        write_clusters_json(staging / "clusters.json", result.model, result.bug_ids)

        report_dir = staging / "report"
        report_dir.mkdir()
        parameters = result.config.analysis_parameters()
        summary = build_summary(len(result.bug_ids), parameters, result.outcomes)
        write_json(report_dir / "summary.json", summary)
        for index, outcome in enumerate(result.outcomes):
            write_cluster_text(report_dir / f"cluster_{index}.txt", index, outcome)
        write_figure_csvs(report_dir / "figures", summary)
        write_rules_csv(report_dir / "rules.csv", result.outcomes)

        if final_dir.exists():
            aside = Path(tempfile.mkdtemp(prefix=final_dir.name + ".old-", dir=final_dir.parent))
            os.replace(final_dir, aside / final_dir.name)
            os.replace(staging, final_dir)
            shutil.rmtree(aside)
        else:
            os.replace(staging, final_dir)
    except OSError as exc:
        raise InputError(f"cannot write output {str(final_dir)!r}: {exc}") from exc
    finally:
        if staging is not None:  # a no-op once renamed into place
            shutil.rmtree(staging, ignore_errors=True)
    return final_dir


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute all stages, audit, and write the report directory."""
    result = execute(config)
    out = write_outputs(result)
    logger.info("report written to %s", out)
    return result


def run_verify(
    result: PipelineResult,
    max_transactions: int = MAX_VERIFY_TRANSACTIONS,
    max_rules: int = MAX_VERIFY_RULES,
) -> tuple[bool, list[str]]:
    """Diff a run's own frequent-itemset tables and rule partitions against
    the brute-force oracles, cluster by cluster. Clusters above the size caps
    are skipped (reported as such)."""
    ok = True
    lines: list[str] = []
    for index, outcome in enumerate(result.outcomes):
        partition = outcome.partition
        if len(outcome.rows) > max_transactions:
            lines.append(
                f"cluster {index}: skipped itemset check"
                f" ({len(outcome.rows)} transactions > cap {max_transactions})"
            )
            continue
        reference = enumerate_frequent_itemsets(
            outcome.rows.tolist(), result.config.min_support_count
        )
        supports = itemset_supports(outcome.table)
        if supports != reference:
            ok = False
            missing = set(reference) - set(supports)
            extra = set(supports) - set(reference)
            wrong = {s for s in set(reference) & set(supports) if reference[s] != supports[s]}
            lines.append(
                f"cluster {index}: FREQUENT-ITEMSET MISMATCH"
                f" (missing {len(missing)}, extra {len(extra)}, miscounted {len(wrong)})"
            )
            continue
        lines.append(f"cluster {index}: itemsets OK ({len(supports)} frequent itemsets)")

        if partition.rule_count > max_rules:
            lines.append(
                f"cluster {index}: skipped redundancy check"
                f" ({partition.rule_count} rules > cap {max_rules})"
            )
            continue
        rules = rule_objects(partition.rules)
        naive_keys = essential_rules_naive(rules)
        fast_keys = {rules[row].key for row in partition.essential}
        if fast_keys != naive_keys:
            ok = False
            lines.append(
                f"cluster {index}: REDUNDANCY MISMATCH"
                f" (fast {len(fast_keys)} essential, oracle {len(naive_keys)})"
            )
            continue
        bad_witnesses = [
            row for row in partition.redundant
            if not witness_is_valid(rules[row], rules[partition.witness[row]], naive_keys)
        ]
        if bad_witnesses:
            ok = False
            lines.append(f"cluster {index}: {len(bad_witnesses)} INVALID WITNESSES")
        else:
            lines.append(
                f"cluster {index}: redundancy OK ({len(rules)} rules,"
                f" {len(fast_keys)} essential)"
            )
    return ok, lines
