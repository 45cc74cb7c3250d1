"""Apriori frequent-itemset mining over encoded bug reports.

Every transaction carries exactly five items, one per attribute, so the
itemset lattice has depth at most 5 and any candidate holding two items of
the same attribute has support 0. Support counting uses per-item
transaction-id sets intersected level by level; counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParameterError
from .ingest import Attribute, BugRecord


class Item(NamedTuple):
    """One (attribute, code) pair; sorts in canonical attribute-then-code order."""

    attribute: Attribute
    code: int


@dataclass(frozen=True, init=False)
class Itemset:
    """An immutable set of Items with canonical ordering for hashing/equality."""

    items: tuple[Item, ...]

    def __init__(self, items: Iterable[Item] = ()):
        object.__setattr__(self, "items", tuple(sorted(set(items))))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def issubset(self, other: "Itemset") -> bool:
        other_items = set(other.items)
        return all(item in other_items for item in self.items)

    def without(self, item: Item) -> "Itemset":
        return Itemset(i for i in self.items if i != item)

    def __str__(self) -> str:
        body = ", ".join(f"{i.attribute.display}:{i.code}" for i in self.items)
        return "{" + body + "}"


@dataclass(frozen=True)
class Transaction:
    """One bug report as an itemset of exactly five items, one per attribute."""

    bug_id: str
    itemset: Itemset


@dataclass(frozen=True)
class FrequentItemsetTable:
    """All itemsets meeting the support threshold, with exact counts."""

    support: Mapping[Itemset, int]
    min_support_count: int
    transaction_count: int

    def __contains__(self, itemset: Itemset) -> bool:
        return itemset in self.support

    def __getitem__(self, itemset: Itemset) -> int:
        return self.support[itemset]

    def __len__(self) -> int:
        return len(self.support)

    def itemsets(self) -> Iterable[Itemset]:
        return self.support.keys()

    def to_json(self) -> dict:
        """Debug dump: one entry per itemset, canonical order."""
        entries = [
            {
                "items": [[item.attribute.display, item.code] for item in itemset],
                "support_count": count,
            }
            for itemset, count in sorted(self.support.items(), key=lambda kv: kv[0].items)
        ]
        return {
            "min_support_count": self.min_support_count,
            "transaction_count": self.transaction_count,
            "itemsets": entries,
        }


def to_transactions(records: Sequence[BugRecord]) -> list[Transaction]:
    """Lift encoded records into transactions, one per record."""
    return [
        Transaction(
            bug_id=record.bug_id,
            itemset=Itemset(
                (
                    Item(Attribute.SEVERITY, record.severity_code),
                    Item(Attribute.PRIORITY, record.priority_code),
                    Item(Attribute.COMPONENT, record.component_code),
                    Item(Attribute.OPERATING_SYSTEM, record.os_code),
                    Item(Attribute.ASSIGNEE, record.assignee_code),
                )
            ),
        )
        for record in records
    ]


def apriori(transactions: Sequence[Transaction], min_support_count: int) -> FrequentItemsetTable:
    """Level-wise mining of all frequent itemsets of size 1..5.

    Candidates of size k are joined from frequent (k-1)-itemsets sharing
    their first k-2 items, then dropped if two items share an attribute
    (such a candidate always counts 0) or if any (k-1)-subset is infrequent.
    """
    if min_support_count < 1:
        raise ParameterError("min_support_count must be >= 1")

    tidsets: dict[Item, set[int]] = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction.itemset:
            tidsets.setdefault(item, set()).add(tid)

    table: dict[Itemset, int] = {}
    # level maps each frequent k-itemset (as a sorted item tuple) to its tidset
    level: dict[tuple[Item, ...], set[int]] = {
        (item,): tids
        for item, tids in sorted(tidsets.items(), key=lambda kv: kv[0])
        if len(tids) >= min_support_count
    }
    for key, tids in level.items():
        table[Itemset(key)] = len(tids)

    for size in range(2, len(Attribute) + 1):
        if len(level) < 2:
            break
        next_level: dict[tuple[Item, ...], set[int]] = {}
        keys = sorted(level)
        start = 0
        while start < len(keys):
            prefix = keys[start][:-1]
            end = start
            while end < len(keys) and keys[end][:-1] == prefix:
                end += 1
            for a, b in combinations(range(start, end), 2):
                # joined itemsets differ only in their last item, so that is
                # the only place a same-attribute conflict can appear
                if keys[a][-1].attribute == keys[b][-1].attribute:
                    continue
                candidate = keys[a] + (keys[b][-1],)
                if any(
                    candidate[:i] + candidate[i + 1 :] not in level
                    for i in range(size - 2)  # the two join parents are already known frequent
                ):
                    continue
                tids = level[keys[a]] & level[keys[b]]
                if len(tids) >= min_support_count:
                    next_level[candidate] = tids
            start = end
        level = next_level
        for key, tids in sorted(level.items()):
            table[Itemset(key)] = len(tids)

    return FrequentItemsetTable(
        support=table,
        min_support_count=min_support_count,
        transaction_count=len(transactions),
    )
