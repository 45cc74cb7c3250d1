import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import make_transaction, random_transactions, transaction_lists
from triage_miner.errors import ParameterError
from triage_miner.ingest import Attribute, BugRecord
from triage_miner.mine import Item, Itemset, apriori, to_transactions
from triage_miner.oracle import enumerate_frequent_itemsets


class TestItemset:
    def test_canonical_order_and_equality(self):
        a = Itemset([Item(Attribute.ASSIGNEE, 2), Item(Attribute.SEVERITY, 1)])
        b = Itemset([Item(Attribute.SEVERITY, 1), Item(Attribute.ASSIGNEE, 2)])
        assert a == b and hash(a) == hash(b)
        assert a.items[0].attribute == Attribute.SEVERITY

    def test_duplicates_collapse(self):
        item = Item(Attribute.PRIORITY, 3)
        assert len(Itemset([item, item])) == 1

    def test_subset_and_union(self):
        small = Itemset([Item(Attribute.SEVERITY, 1)])
        big = Itemset(small.items + (Item(Attribute.PRIORITY, 2),))
        assert small.issubset(big)
        assert not big.issubset(small)
        assert Itemset().issubset(small)


class TestToTransactions:
    def test_direct_lift(self):
        [txn] = to_transactions([BugRecord("x", 4, 3, 7, 2, 9)])
        assert txn.bug_id == "x"
        assert txn.itemset == Itemset(
            [
                Item(Attribute.SEVERITY, 4),
                Item(Attribute.PRIORITY, 3),
                Item(Attribute.COMPONENT, 7),
                Item(Attribute.OPERATING_SYSTEM, 2),
                Item(Attribute.ASSIGNEE, 9),
            ]
        )

    def test_empty_input(self):
        assert to_transactions([]) == []

    def test_bijective_by_bug_id(self):
        records = [BugRecord(f"b{i}", 1, 1, 1, 1, 1) for i in range(25)]
        transactions = to_transactions(records)
        assert len(transactions) == 25
        assert {t.bug_id for t in transactions} == {r.bug_id for r in records}
        assert all(len(t.itemset) == 5 for t in transactions)


def classic_baskets() -> list:
    """{a,b,c}, {a,b}, {a,c}, {b,c} hosted on Component/OS/Assignee; absent
    letters and the severity/priority slots get one-off filler codes."""
    a, b, c = 1, 1, 1
    return [
        make_transaction(0, 1, 1, a, b, c),
        make_transaction(1, 2, 2, a, b, 2),  # {a,b}
        make_transaction(2, 3, 3, a, 2, c),  # {a,c}
        make_transaction(3, 4, 4, 2, b, c),  # {b,c}
    ]


class TestApriori:
    def test_classic_four_basket_example(self):
        transactions = classic_baskets()
        table = apriori(transactions, min_support_count=2)
        item_a = Item(Attribute.COMPONENT, 1)
        item_b = Item(Attribute.OPERATING_SYSTEM, 1)
        item_c = Item(Attribute.ASSIGNEE, 1)
        expected = {
            Itemset([item_a]): 3,
            Itemset([item_b]): 3,
            Itemset([item_c]): 3,
            Itemset([item_a, item_b]): 2,
            Itemset([item_a, item_c]): 2,
            Itemset([item_b, item_c]): 2,
        }
        assert dict(table.support) == expected
        assert Itemset([item_a, item_b, item_c]) not in table  # support 1

    def test_single_transaction_all_subsets(self):
        transactions = [make_transaction(0, 1, 2, 3, 4, 5)]
        table = apriori(transactions, min_support_count=1)
        assert len(table) == 2**5 - 1
        assert all(count == 1 for count in table.support.values())

    def test_unattainable_threshold_gives_empty_table(self):
        transactions = [make_transaction(i, 1, 1, 1, 1, 1) for i in range(3)]
        table = apriori(transactions, min_support_count=4)
        assert len(table) == 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            apriori([], min_support_count=0)

    def test_to_json_is_sorted_and_complete(self):
        table = apriori(classic_baskets(), min_support_count=2)
        payload = table.to_json()
        assert payload["transaction_count"] == 4
        assert payload["min_support_count"] == 2
        assert len(payload["itemsets"]) == len(table)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_support", [1, 2, 3])
    def test_matches_brute_force_on_random_data(self, seed, min_support):
        rnd = random.Random(seed)
        transactions = random_transactions(rnd, max_transactions=60, max_codes=6)
        fast = apriori(transactions, min_support)
        slow = enumerate_frequent_itemsets(transactions, min_support)
        assert dict(fast.support) == slow


@given(transaction_lists(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_apriori_oracle_equivalence_property(transactions, min_support):
    fast = apriori(transactions, min_support)
    assert dict(fast.support) == enumerate_frequent_itemsets(transactions, min_support)


@given(transaction_lists(max_transactions=25, max_codes=4))
@settings(max_examples=40, deadline=None)
def test_downward_closure_and_antimonotonicity(transactions):
    table = apriori(transactions, min_support_count=2)
    for itemset in table.itemsets():
        count = table[itemset]
        assert count >= table.min_support_count
        for size in range(1, len(itemset)):
            for subset in combinations(itemset.items, size):
                sub = Itemset(subset)
                assert sub in table
                assert table[sub] >= count
