"""End-to-end pipeline: ingest -> encode -> cluster -> per-cluster mining ->
reports, plus the brute-force verification of a run's own tables.

Outputs are staged in a temporary directory and renamed into place, so a
failed run never leaves partial results, and only a previous report that
holds nothing else is ever replaced. Every run re-checks its own output
before anything is written, and a violation aborts with an audit error. The
cluster model: sizes cover the records with no empty cluster, the rows'
record counts are the index's, ``cluster.nearest`` labels each row as k-means
did and the inertia recomputes and never rose between iterations. Each of the
k clusters: its size is the model's count of its records, every rule meets
the thresholds with a non-empty antecedent, and every redundant rule's
witness is an essential rule with the same assignee, a strictly smaller
antecedent and a confidence no lower. The reports' counts are derived from
the sizes and rule partitions, not stored apart from them.

The records are held as a table of distinct code rows and one row index per
record, and a record's cluster is its row's label. Every stage runs on the
table and its rows' record counts, made once, and a cluster on a mask over
its labels; only ``verify``'s oracle gathers records, a chunk at a time.
A run keeps each cluster's rule partition, not its frequent-itemset table:
``verify`` mines each cluster again from the table, diffs that against the
oracle, and checks that it yields exactly the rule table the run kept.
"""

from __future__ import annotations

import io
import logging
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .cluster import ClusterModel, kmeans_fit, nearest
from .config import PipelineConfig
from .errors import AuditError, InputError, ParameterError
from .ingest import Attribute, BugIds, codebooks_to_json, decode, read_bug_csv
from .mine import mine_frequent_itemsets
from .report import (
    ClusterOutcome,
    build_summary,
    write_clusters_json,
    write_figure_csvs,
    write_json,
    write_rule_reports,
)
from .rules import RulePartition, eliminate_redundant, generate_class_rules, top_assignees

logger = logging.getLogger("triage_miner")
VERIFY_CHUNK = 1 << 13  # records gathered per step of verify's itemset tally

# CPython's own SHA-256, so no run maps OpenSSL's libcrypto (about 3.6 MiB
# resident, 2.5-4.5 ms to load); hashlib's OpenSSL one only on a build without it
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


@dataclass
class PipelineResult:
    config: PipelineConfig
    input_sha256: str
    codebooks: dict[Attribute, tuple[str, ...]]  # each attribute's labels in code order
    bug_ids: BugIds
    rows: np.ndarray  # (m, 5) distinct code rows, one column per Attribute
    index: np.ndarray  # record i is rows[index[i]]
    counts: np.ndarray  # the records on each row, counted from the index once
    model: ClusterModel
    outcomes: list[ClusterOutcome]  # cluster i's at position i


class _HashingReader(io.RawIOBase):
    """A raw byte stream that feeds each byte read from ``raw`` to a sha256."""

    def __init__(self, raw: io.RawIOBase):
        self.raw, self.sha256 = raw, sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        return count


def _load_and_encode(config: PipelineConfig):
    """Parse the input and hash the bytes parsed, in one pass over the file."""
    try:
        with open(config.input_path, "rb", buffering=0) as raw:
            source = _HashingReader(raw)
            bug_ids, codebooks, rows, index = read_bug_csv(
                io.BufferedReader(source), config.column_map
            )
            source.readall()  # hash whatever the parse left unread
    except OSError as exc:
        raise InputError(f"cannot read input {config.input_path!r}: {exc}") from exc
    if not bug_ids:
        raise InputError(f"input {config.input_path!r} contains no data rows")
    return source.sha256.hexdigest(), codebooks, bug_ids, rows, index


def _cluster_tables(
    rows: np.ndarray, counts: np.ndarray, model: ClusterModel
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each cluster's distinct code rows and their record counts, in cluster
    order: a mask over the table's labels."""
    for cluster in range(model.k):
        mask = model.labels == cluster
        yield rows[mask], counts[mask]


def _mine_cluster(
    cluster: int, rows: np.ndarray, counts: np.ndarray, config: PipelineConfig, codebooks: Mapping
) -> ClusterOutcome:
    """Mine a cluster given as its distinct code rows and their record counts;
    its itemset table is dropped once its rules are made."""
    table = mine_frequent_itemsets(rows, counts, config.min_support_count)
    itemsets = sum(len(projection.counts) for projection in table.values())
    top_codes = top_assignees(rows[:, Attribute.ASSIGNEE], counts, config.top_n)
    rules = generate_class_rules(table, config.min_confidence, top_codes)
    del table
    partition = eliminate_redundant(rules)
    size = int(counts.sum())
    logger.info(
        "cluster %d: %d records, %d frequent itemsets, %d rules (%d essential, %d redundant)",
        cluster,
        size,
        itemsets,
        len(partition.rules),
        len(partition.essential),
        len(partition.redundant),
    )
    top_labels = decode(codebooks[Attribute.ASSIGNEE], top_codes)
    return ClusterOutcome(size, top_labels, partition)


def execute(config: PipelineConfig) -> PipelineResult:
    """Run every stage in memory; no files are touched."""
    input_sha256, codebooks, bug_ids, rows, index = _load_and_encode(config)
    logger.info("encoded %d records from %s", len(index), config.input_path)
    counts = np.bincount(index, minlength=len(rows))
    features = rows[:, : Attribute.ASSIGNEE]  # a view: every attribute but the assignee
    model = kmeans_fit(features, index, counts, config.k, config.seed, config.max_iterations)
    logger.info(
        "k-means: k=%d, %d iterations, inertia %.4f", model.k, model.iterations_run, model.inertia
    )
    outcomes = [
        _mine_cluster(cluster, *table, config, codebooks)
        for cluster, table in enumerate(_cluster_tables(rows, counts, model))
    ]
    result = PipelineResult(
        config, input_sha256, codebooks, bug_ids, rows, index, counts, model, outcomes
    )
    violations = audit_result(result)
    if violations:
        raise AuditError(violations)
    return result


def audit_result(result: PipelineResult) -> list[str]:
    """Re-derive the pipeline's structural invariants from its own output."""
    problems: list[str] = []
    model, rows, index = result.model, result.rows, result.index

    sizes = model.cluster_sizes()
    if sum(sizes) != len(index):
        problems.append(f"cluster sizes sum to {sum(sizes)}, expected {len(index)}")
    if any(size == 0 for size in sizes):
        problems.append("model contains an empty cluster")

    in_range = len(index) > 0 and index.min() >= 0 and index.max() < len(rows)
    counts = np.bincount(index, minlength=len(rows)) if in_range else None
    if not in_range or not counts.all():
        problems.append("the record index does not map the records onto every table row")
    if in_range:
        if not np.array_equal(counts, result.counts):
            problems.append("the table's record counts are not the index's")
        labels, distances = nearest(rows[:, : Attribute.ASSIGNEE], np.array(model.centroids))
        if not np.array_equal(labels, model.labels):
            problems.append("some table row is not labelled with its nearest centroid")
        recomputed = float(counts @ distances)
        if abs(model.inertia - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
            problems.append(f"inertia {model.inertia} != recomputed {recomputed}")
    if any(later > earlier + 1e-9 for earlier, later in zip(model.inertia_history, model.inertia_history[1:])):
        problems.append("inertia increased between iterations")

    if len(result.outcomes) != model.k:
        problems.append("cluster outcomes do not match the model's clusters")
    for cluster, outcome in enumerate(result.outcomes):
        label = f"cluster {cluster}"
        if cluster < model.k and outcome.size != sizes[cluster]:  # the cluster's summed counts
            problems.append(
                f"{label}: size {outcome.size} is not the {sizes[cluster]} records assigned to it"
            )
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
        parameters = result.config.analysis_parameters()
        config_used = {**parameters, "input_sha256": result.input_sha256}
        write_json(staging / "config_used.json", config_used)
        write_json(staging / "codebooks.json", codebooks_to_json(result.codebooks))
        write_clusters_json(staging / "clusters.json", result.model, result.bug_ids, result.index)

        report_dir = staging / "report"
        report_dir.mkdir()
        summary = build_summary(len(result.bug_ids), parameters, result.outcomes)
        write_json(report_dir / "summary.json", summary)
        write_rule_reports(report_dir, summary, result.outcomes, result.codebooks)
        write_figure_csvs(report_dir / "figures", summary)

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
    logger.info("report written to %s", write_outputs(result))
    return result


def run_verify(
    result: PipelineResult, max_transactions: int | None = None, max_rules: int | None = None
) -> tuple[bool, list[str]]:
    """Check a run against the brute-force oracles, cluster by cluster: each
    cluster is mined again from the run's table and diffed against the
    itemset oracle, the rule table the run kept must be the one that table
    yields, and the kept partition is diffed against the redundancy oracle.
    Clusters above an optional size cap are skipped (and reported so)."""
    checks = [
        check
        for cluster, table in enumerate(_cluster_tables(result.rows, result.counts, result.model))
        for check in _verify_cluster(result, cluster, *table, max_transactions, max_rules)
    ]
    return all(passed for passed, _ in checks), [line for _, line in checks]


def _cluster_records(result: PipelineResult, cluster: int) -> Iterator[list[int]]:
    """A cluster's code rows, gathered through the index a chunk at a time."""
    labels = result.model.labels
    for start in range(0, len(result.index), VERIFY_CHUNK):
        chunk = result.index[start : start + VERIFY_CHUNK]
        yield from result.rows[chunk[labels[chunk] == cluster]].tolist()


def _verify_cluster(
    result: PipelineResult,
    cluster: int,
    rows: np.ndarray,
    counts: np.ndarray,
    max_transactions: int | None,
    max_rules: int | None,
) -> Iterator[tuple[bool, str]]:
    """run_verify's lines for one cluster, each with whether it passed; what
    the oracles build is freed once the last line is read. The oracles are
    imported here, so that a run that does not verify never loads them."""
    from .oracle import (
        enumerate_frequent_itemsets,
        essential_rules_naive,
        itemset_supports,
        rule_objects,
        witness_is_valid,
    )

    outcome, name = result.outcomes[cluster], f"cluster {cluster}"
    partition = outcome.partition
    if max_transactions is not None and outcome.size > max_transactions:
        cap = f"{outcome.size} transactions > cap {max_transactions}"
        yield True, f"{name}: skipped itemset check ({cap})"
        return
    config = result.config
    records = _cluster_records(result, cluster)
    reference = enumerate_frequent_itemsets(records, config.min_support_count)
    table = mine_frequent_itemsets(rows, counts, config.min_support_count)
    supports = itemset_supports(table)
    if supports != reference:
        missing, extra = len(reference.keys() - supports), len(supports.keys() - reference)
        wrong = sum(reference[s] != supports[s] for s in reference.keys() & supports)
        tally = f"missing {missing}, extra {extra}, miscounted {wrong}"
        yield False, f"{name}: FREQUENT-ITEMSET MISMATCH ({tally})"
        return
    yield True, f"{name}: itemsets OK ({len(supports)} frequent itemsets)"
    top_codes = top_assignees(rows[:, Attribute.ASSIGNEE], counts, config.top_n)
    rules = generate_class_rules(table, config.min_confidence, top_codes)
    del table, supports, reference  # before the redundancy oracle builds its own
    kept = partition.rules
    if not all(np.array_equal(getattr(rules, f.name), getattr(kept, f.name)) for f in fields(kept)):
        table_yields = f"{len(kept)} rules kept, the verified itemsets give {len(rules)}"
        yield False, f"{name}: RULE TABLE MISMATCH ({table_yields})"
        return
    if max_rules is not None and len(partition.rules) > max_rules:
        cap = f"{len(partition.rules)} rules > cap {max_rules}"
        yield True, f"{name}: skipped redundancy check ({cap})"
        return
    rules = rule_objects(partition.rules)
    naive_keys = essential_rules_naive(rules)
    fast_keys = {rules[row].key for row in partition.essential}
    if fast_keys != naive_keys:
        oracle = f"fast {len(fast_keys)} essential, oracle {len(naive_keys)}"
        yield False, f"{name}: REDUNDANCY MISMATCH ({oracle})"
        return
    witness, redundant = partition.witness, partition.redundant
    bad = sum(not witness_is_valid(rules[r], rules[witness[r]], naive_keys) for r in redundant)
    if bad:
        yield False, f"{name}: {bad} INVALID WITNESSES"
    else:
        yield True, f"{name}: redundancy OK ({len(rules)} rules, {len(fast_keys)} essential)"
