import random
from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_rows, row_lists, row_table
from triage_miner import mine
from triage_miner.errors import ParameterError
from triage_miner.ingest import Attribute
from triage_miner.mine import mine_frequent_itemsets
from triage_miner.oracle import Item, enumerate_frequent_itemsets, itemset_supports


def supports(rows, min_support_count: int) -> dict:
    """The mined table of ``rows``, given as its distinct rows and their
    counts, as itemset (a tuple of Items) -> support count."""
    return itemset_supports(mine_frequent_itemsets(*row_table(rows), min_support_count))


@given(row_lists(max_transactions=30, max_codes=4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_both_oracles_key_itemsets_as_tuples_in_attribute_order(rows, min_support):
    """An itemset is a plain tuple of Items, one per attribute in strictly
    increasing attribute order, as both oracles build it; so the same
    itemset is the same key in each, and their dicts compare equal."""
    reference = enumerate_frequent_itemsets(rows, min_support)
    mined = supports(rows, min_support)
    for itemset in [*reference, *mined]:
        assert type(itemset) is tuple and itemset
        assert all(type(item) is Item for item in itemset)
        attributes = [item.attribute for item in itemset]
        assert all(a < b for a, b in zip(attributes, attributes[1:]))
    assert mined == reference


def classic_baskets() -> np.ndarray:
    """{a,b,c}, {a,b}, {a,c}, {b,c} hosted on Component/OS/Assignee; absent
    letters and the severity/priority slots get one-off filler codes."""
    a, b, c = 1, 1, 1
    return np.array(
        [
            (1, 1, a, b, c),
            (2, 2, a, b, 2),  # {a,b}
            (3, 3, a, 2, c),  # {a,c}
            (4, 4, 2, b, c),  # {b,c}
        ]
    )


class TestApriori:
    """The frequent-itemset miner (projection counting; the class keeps the
    name of the level-wise Apriori miner it replaced)."""

    def test_classic_four_basket_example(self):
        table = supports(classic_baskets(), min_support_count=2)
        item_a = Item(Attribute.COMPONENT, 1)
        item_b = Item(Attribute.OPERATING_SYSTEM, 1)
        item_c = Item(Attribute.ASSIGNEE, 1)
        expected = {
            (item_a,): 3,
            (item_b,): 3,
            (item_c,): 3,
            (item_a, item_b): 2,
            (item_a, item_c): 2,
            (item_b, item_c): 2,
        }
        assert table == expected
        assert (item_a, item_b, item_c) not in table  # support 1

    def test_single_transaction_all_subsets(self):
        table = supports([(1, 2, 3, 4, 5)], min_support_count=1)
        assert len(table) == 2**5 - 1
        assert all(count == 1 for count in table.values())

    def test_unattainable_threshold_gives_empty_table(self):
        table = mine_frequent_itemsets(*row_table(np.ones((3, 5))), min_support_count=4)
        assert table == {}

    def test_empty_code_array_gives_empty_table(self):
        table = mine_frequent_itemsets(*row_table(np.empty((0, 5))), min_support_count=1)
        assert table == {}

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            mine_frequent_itemsets(*row_table(np.empty((0, 5))), min_support_count=0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_support", [1, 2, 3])
    def test_matches_brute_force_on_random_data(self, seed, min_support):
        rnd = random.Random(seed)
        rows = random_rows(rnd, max_transactions=60, max_codes=6)
        assert supports(rows, min_support) == enumerate_frequent_itemsets(rows, min_support)


@given(row_lists(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_apriori_oracle_equivalence_property(rows, min_support):
    assert supports(rows, min_support) == enumerate_frequent_itemsets(rows, min_support)


@given(row_lists(max_transactions=25, max_codes=4))
@settings(max_examples=40, deadline=None)
def test_downward_closure_and_antimonotonicity(rows):
    table = supports(rows, min_support_count=2)
    for itemset, count in table.items():
        assert count >= 2
        for size in range(1, len(itemset)):
            for sub in combinations(itemset, size):
                assert sub in table
                assert table[sub] >= count


def test_codes_whose_radices_overflow_int64_are_counted_exactly():
    """Component, OS and assignee codes near 2**40: the product of the
    per-attribute code ranges is far past 2**63, yet every support matches
    the oracle's."""
    rnd = random.Random(4)
    base = 2**40
    rows = [
        (
            rnd.randint(1, 7),
            rnd.randint(1, 5),
            base + rnd.randint(0, 3),
            base - rnd.randint(0, 3),
            2 * base + rnd.randint(0, 2),
        )
        for _ in range(200)
    ]
    assert (base + 4) * (base + 1) * (2 * base + 3) > 2**63
    for min_support in (1, 3):
        assert supports(rows, min_support) == enumerate_frequent_itemsets(rows, min_support)


def test_table_counts_are_python_ints():
    table = supports(classic_baskets(), min_support_count=1)
    assert all(type(count) is int for count in table.values())
    assert all(type(item.code) is int for itemset in table for item in itemset)


def sorted_projections(codes: np.ndarray, min_support: int) -> dict:
    """Every subset's frequent groups as (values, counts, parent counts),
    from a row sort of its code columns."""
    expected = {}
    for size in range(1, len(Attribute) + 1):
        for subset in combinations(Attribute, size):
            values, counts = np.unique(codes[:, list(subset)], axis=0, return_counts=True)
            frequent = counts >= min_support
            if not frequent.any():
                continue
            parents, parent_counts = np.unique(
                codes[:, list(subset[:-1])], axis=0, return_counts=True
            )
            parent_count = dict(zip(map(tuple, parents.tolist()), parent_counts.tolist()))
            expected[subset] = (
                values[frequent].tolist(),
                counts[frequent].tolist(),
                [parent_count[tuple(row[:-1])] for row in values[frequent].tolist()],
            )
    return expected


@st.composite
def code_arrays(draw) -> np.ndarray:
    """Code arrays whose subsets land on both sides of the tally threshold:
    few or many codes per attribute, some of them offset near 2**40."""
    n = draw(st.integers(1, 60))
    cards = draw(st.lists(st.integers(1, 40), min_size=5, max_size=5))
    offsets = draw(st.lists(st.sampled_from([0, 2**40]), min_size=5, max_size=5))
    return np.array(
        [
            [offset + draw(st.integers(1, card)) for card, offset in zip(cards, offsets)]
            for _ in range(n)
        ],
        dtype=np.int64,
    )


@given(code_arrays(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_projections_match_a_sorting_reference(codes, min_support):
    table = mine_frequent_itemsets(*row_table(codes), min_support)
    got = {
        subset: (values.tolist(), counts.tolist(), parent_counts.tolist())
        for subset, (values, counts, parent_counts) in table.items()
    }
    assert got == sorted_projections(codes, min_support)


@pytest.mark.parametrize(
    "codes, sorted_somewhere",
    [
        # 3 codes per attribute: at most 3**5 keys, within 4 per row
        (np.array([[1 + (i >> shift) % 3 for shift in range(5)] for i in range(200)]), False),
        # 10 distinct codes per attribute in 10 rows: pairs have 100 keys
        (np.array([[i + 1] * 5 for i in range(10)]), True),
        # codes near 2**40: the single attributes' key spaces are sorted
        (np.array([[2**40 + i] * 5 for i in range(10)]), True),
    ],
)
def test_key_spaces_fall_on_both_sides_of_the_tally_threshold(
    codes, sorted_somewhere, monkeypatch
):
    sides = []
    group_keys = mine.group_keys

    def spy(keys, key_space, weights=None):
        sides.append(key_space > mine._TALLY_KEYS_PER_ROW * len(keys))
        return group_keys(keys, key_space, weights)

    monkeypatch.setattr(mine, "group_keys", spy)
    table = supports(codes, 1)
    assert any(sides) == sorted_somewhere and not all(sides)
    assert table == enumerate_frequent_itemsets(codes.tolist(), 1)


@given(code_arrays(), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_any_table_of_the_same_records_mines_alike(codes, min_support, rnd):
    """The weighted walk sees only the records a table stands for: their
    distinct rows with counts, or every record once in any order, mine to
    the same projections, array for array."""
    order = list(range(len(codes)))
    rnd.shuffle(order)
    distinct = mine_frequent_itemsets(*row_table(codes), min_support)
    each_once = mine_frequent_itemsets(codes[order], np.ones(len(codes), np.int64), min_support)
    assert list(distinct) == list(each_once)
    for subset, projection in distinct.items():
        for got, expected in zip(each_once[subset], projection):
            assert got.dtype == expected.dtype == np.int64
            assert np.array_equal(got, expected), subset
