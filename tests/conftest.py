"""Shared fixtures, hypothesis strategies and seeded random generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest

from triage_miner.ingest import Attribute, Codebook
from triage_miner.oracle import Item, Itemset, Rule, rule_objects
from triage_miner.report import ClusterOutcome, render_partition
from triage_miner.rules import RulePartition, RuleTable, eliminate_redundant

REPO_ROOT = Path(__file__).resolve().parent.parent

NON_ASSIGNEE_ATTRIBUTES = (
    Attribute.SEVERITY,
    Attribute.PRIORITY,
    Attribute.COMPONENT,
    Attribute.OPERATING_SYSTEM,
)


@pytest.fixture(scope="session")
def sample_csv() -> Path:
    path = REPO_ROOT / "data" / "sample_bugs.csv"
    assert path.exists(), "bundled sample dataset is missing"
    return path


@pytest.fixture(scope="session")
def golden_report_dir() -> Path:
    return REPO_ROOT / "tests" / "golden" / "sample_report"


def random_rows(
    rnd: random.Random, max_transactions: int = 200, max_codes: int = 12
) -> list[tuple[int, ...]]:
    """Code rows (one code per Attribute) with per-attribute cardinalities
    drawn at random."""
    n = rnd.randint(1, max_transactions)
    cards = [rnd.randint(1, max_codes) for _ in range(5)]
    return [
        (
            rnd.randint(1, cards[0]),
            rnd.randint(1, cards[1]),
            rnd.randint(1, cards[2]),
            rnd.randint(1, cards[3]),
            rnd.randint(1, cards[4]),
        )
        for _ in range(n)
    ]


def random_rules(rnd: random.Random, max_rules: int = 50, max_count: int = 60) -> list[Rule]:
    n = rnd.randint(1, max_rules)
    by_key: dict[tuple, Rule] = {}
    while len(by_key) < n:
        size = rnd.randint(1, 4)
        attrs = rnd.sample(NON_ASSIGNEE_ATTRIBUTES, size)
        antecedent = Itemset(Item(a, rnd.randint(1, 3)) for a in attrs)
        consequent = Item(Attribute.ASSIGNEE, rnd.randint(1, 3))
        key = (antecedent.items, consequent)
        if key in by_key:
            continue
        antecedent_count = rnd.randint(1, max_count)
        support = rnd.randint(1, antecedent_count)
        by_key[key] = Rule(antecedent, consequent, support, antecedent_count)
    return list(by_key.values())


@st.composite
def row_lists(draw, max_transactions: int = 40, max_codes: int = 5):
    cards = [draw(st.integers(1, max_codes)) for _ in range(5)]
    n = draw(st.integers(1, max_transactions))
    return [
        tuple(draw(st.integers(1, card)) for card in cards)
        for _ in range(n)
    ]


@st.composite
def rule_lists(draw, max_rules: int = 30, max_count: int = 40):
    n = draw(st.integers(1, max_rules))
    by_key: dict[tuple, Rule] = {}
    for _ in range(n):
        attrs = draw(
            st.sets(st.sampled_from(NON_ASSIGNEE_ATTRIBUTES), min_size=1, max_size=4)
        )
        antecedent = Itemset(Item(a, draw(st.integers(1, 3))) for a in sorted(attrs))
        consequent = Item(Attribute.ASSIGNEE, draw(st.integers(1, 3)))
        key = (antecedent.items, consequent)
        if key in by_key:
            continue
        antecedent_count = draw(st.integers(1, max_count))
        support = draw(st.integers(1, antecedent_count))
        by_key[key] = Rule(antecedent, consequent, support, antecedent_count)
    return list(by_key.values())


def rule_table(rules) -> RuleTable:
    """The rule table holding ``rules`` (Rule objects) as rows, in order."""
    codes = np.full((len(rules), len(NON_ASSIGNEE_ATTRIBUTES)), -1, dtype=np.int64)
    for row, rule in enumerate(rules):
        for item in rule.antecedent:
            codes[row, item.attribute] = item.code
    return RuleTable(
        codes,
        *(
            np.array(column, dtype=np.int64).reshape(-1)
            for column in (
                [rule.consequent.code for rule in rules],
                [rule.support_count for rule in rules],
                [rule.antecedent_count for rule in rules],
            )
        ),
    )


@dataclass(frozen=True)
class RuleSplit:
    """A rule partition as objects: the essential rules, and each redundant
    rule paired with the essential witness that subsumes it."""

    essential: tuple[Rule, ...]
    redundant: tuple[tuple[Rule, Rule], ...]

    @property
    def rule_count(self) -> int:
        return len(self.essential) + len(self.redundant)

    def all_rules(self) -> list[Rule]:
        return list(self.essential) + [rule for rule, _ in self.redundant]


def rule_split(partition: RulePartition) -> RuleSplit:
    """A partition's rules as objects, each part in row order."""
    rules, witness = rule_objects(partition.rules), partition.witness.tolist()
    return RuleSplit(
        essential=tuple(rules[row] for row in partition.essential.tolist()),
        redundant=tuple((rules[row], rules[witness[row]]) for row in partition.redundant.tolist()),
    )


def split_rules(rules) -> RuleSplit:
    """eliminate_redundant on the table of ``rules``, viewed as objects."""
    return rule_split(eliminate_redundant(rule_table(rules)))


def render_text(rule: Rule, codebooks) -> str:
    """The text of one rule, rendered as a one-row table."""
    [text] = render_partition(eliminate_redundant(rule_table([rule])), codebooks).text
    return text


def cluster_outcome(rules, codebooks, size: int = 10, top_codes=(1,)) -> ClusterOutcome:
    """The record of a cluster of ``size`` rows whose rules are ``rules``, as
    the report writers read it; its rows and itemset table are placeholders."""
    partition = eliminate_redundant(rule_table(rules))
    return ClusterOutcome(
        rows=np.zeros((size, 5), dtype=np.int64),
        table={},
        top_assignees=[codebooks[Attribute.ASSIGNEE].decode(code) for code in top_codes],
        partition=partition,
        rendered=render_partition(partition, codebooks),
    )


def simple_codebooks(max_code: int = 6) -> dict[Attribute, Codebook]:
    """Codebooks with generic labels covering codes 1..max_code everywhere."""
    from triage_miner.ingest import PRIORITY_CODEBOOK, SEVERITY_CODEBOOK

    books = {Attribute.SEVERITY: SEVERITY_CODEBOOK, Attribute.PRIORITY: PRIORITY_CODEBOOK}
    for attribute, stem in (
        (Attribute.COMPONENT, "Comp"),
        (Attribute.OPERATING_SYSTEM, "OS"),
        (Attribute.ASSIGNEE, "Dev"),
    ):
        labels = [f"{stem} {i}" for i in range(1, max_code + 1)]
        forward = {label: i for i, label in enumerate(labels, start=1)}
        books[attribute] = Codebook(attribute, forward, {c: l for l, c in forward.items()})
    return books


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Relative path -> file bytes, for whole-directory comparisons."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
