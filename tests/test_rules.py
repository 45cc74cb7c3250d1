import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    random_rows,
    random_rules,
    row_lists,
    row_table,
    rule_lists,
    rule_table,
    split_rules,
)
from triage_miner import rules as rules_module
from triage_miner.errors import DuplicateRuleError, ParameterError
from triage_miner.ingest import Attribute
from triage_miner.mine import Projection, Subset, distinct_rows, mine_frequent_itemsets
from triage_miner.oracle import (
    Item,
    Rule,
    enumerate_frequent_itemsets,
    essential_rules_naive,
    rule_objects,
    witness_is_valid,
)
from triage_miner.rules import (
    RuleTable,
    eliminate_redundant,
    generate_class_rules,
    top_assignees,
)

SEV4 = Item(Attribute.SEVERITY, 4)
PRI3 = Item(Attribute.PRIORITY, 3)
WHO = Item(Attribute.ASSIGNEE, 9)


def _table(support: dict, transactions=47) -> dict[Subset, Projection]:
    """A table holding exactly the given itemset counts, keyed by tuples of
    Items in attribute order."""
    groups: dict[tuple, list] = {}
    for itemset, count in support.items():
        subset = tuple(item.attribute for item in itemset)
        parent_count = support[itemset[:-1]] if len(itemset) > 1 else transactions
        groups.setdefault(subset, []).append(
            (tuple(item.code for item in itemset), count, parent_count)
        )
    return {
        subset: Projection(*(np.array(column, dtype=np.int64) for column in zip(*sorted(entries))))
        for subset, entries in groups.items()
    }


def _rule(items, consequent_code, support, antecedent_count) -> Rule:
    return Rule(
        antecedent=frozenset(items),
        consequent=Item(Attribute.ASSIGNEE, consequent_code),
        support_count=support,
        antecedent_count=antecedent_count,
    )


def _items(rule: Rule) -> tuple[Item, ...]:
    """The rule's antecedent Items in canonical attribute-then-code order."""
    return tuple(sorted(rule.antecedent))


def _generate(table: dict[Subset, Projection], min_confidence: float, allowed) -> list[Rule]:
    """generate_class_rules' table as Rule objects, in row order."""
    return rule_objects(generate_class_rules(table, min_confidence, allowed))


def fraction_order_key(rule: Rule) -> tuple:
    """The documented rule order with confidence as an exact Fraction: size
    asc, confidence desc, support desc, canonical antecedent, consequent."""
    return (
        len(rule.antecedent),
        -Fraction(rule.support_count, rule.antecedent_count),
        -rule.support_count,
        _items(rule),
        rule.consequent.code,
    )


def brute_force_witness(rule: Rule, essential) -> Rule | None:
    """The argmin of (antecedent size, -confidence, antecedent items) over
    every essential rule that subsumes ``rule``, compared as Fractions."""
    valid = [
        witness
        for witness in essential
        if witness.consequent == rule.consequent
        and witness.antecedent < rule.antecedent
        and Fraction(witness.support_count, witness.antecedent_count)
        >= Fraction(rule.support_count, rule.antecedent_count)
    ]
    return min(
        valid,
        key=lambda w: (
            len(w.antecedent),
            -Fraction(w.support_count, w.antecedent_count),
            _items(w),
        ),
        default=None,
    )


class TestGenerateClassRules:
    def test_paper_style_single_antecedent(self):
        table = _table({(SEV4,): 17, (WHO,): 9, (SEV4, WHO): 9})
        [rule] = _generate(table, 0.10, {9})
        assert rule.antecedent == frozenset([SEV4])
        assert rule.consequent == WHO
        assert rule.support_count == 9
        assert rule.antecedent_count == 17
        assert rule.support_count / rule.antecedent_count == pytest.approx(9 / 17, abs=1e-12)

    def test_perfect_implication_passes_confidence_one(self):
        table = _table({(SEV4,): 5, (WHO,): 5, (SEV4, WHO): 5})
        [rule] = _generate(table, 1.0, {9})
        assert rule.support_count / rule.antecedent_count == 1.0

    def test_imperfect_implication_suppressed_at_confidence_one(self):
        table = _table({(SEV4,): 5, (WHO,): 4, (SEV4, WHO): 4})
        assert _generate(table, 1.0, {9}) == []

    def test_disallowed_consequents_are_skipped(self):
        table = _table({(SEV4,): 5, (WHO,): 4, (SEV4, WHO): 4})
        assert _generate(table, 0.10, {1}) == []

    def test_counts_are_python_ints(self):
        table = _table({(SEV4,): 17, (WHO,): 9, (SEV4, WHO): 9})
        [rule] = _generate(table, 0.10, {9})
        assert type(rule.support_count) is int and type(rule.antecedent_count) is int
        assert type(rule.consequent.code) is int
        assert repr(rule.support_count / rule.antecedent_count) == repr(9 / 17)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rules_read_off_the_oracle_table(self, seed):
        rnd = random.Random(seed)
        rows = random_rows(rnd, max_transactions=120, max_codes=5)
        reference = enumerate_frequent_itemsets(rows, 2)
        allowed = {1, 2, 3}
        expected = set()
        for itemset, count in reference.items():
            [consequent] = [i for i in itemset if i.attribute == Attribute.ASSIGNEE] or [None]
            if consequent is None or consequent.code not in allowed or len(itemset) < 2:
                continue
            antecedent = tuple(i for i in itemset if i != consequent)
            if count / reference[antecedent] >= 0.3:
                expected.add((frozenset(antecedent), consequent, count, reference[antecedent]))
        table = mine_frequent_itemsets(*row_table(rows), 2)
        rules = _generate(table, 0.3, allowed)
        got = {(r.antecedent, r.consequent, r.support_count, r.antecedent_count) for r in rules}
        assert got == expected
        assert rules == sorted(rules, key=fraction_order_key)

    def test_empty_consequent_set_rejected(self):
        with pytest.raises(ParameterError):
            generate_class_rules(_table({}), 0.10, set())

    def test_output_ordering(self):
        who2 = Item(Attribute.ASSIGNEE, 2)
        table = _table(
            {
                (SEV4,): 10,
                (PRI3,): 10,
                (WHO,): 9,
                (who2,): 9,
                (SEV4, WHO): 9,        # conf 0.9
                (PRI3, who2): 5,       # conf 0.5
                (SEV4, PRI3): 8,
                (SEV4, PRI3, WHO): 8,  # conf 1.0, size 2
            }
        )
        rules = _generate(table, 0.10, {9, 2})
        sizes = [len(r.antecedent) for r in rules]
        assert sizes == sorted(sizes)
        one_antecedent = [r for r in rules if len(r.antecedent) == 1]
        confidences = [r.confidence_fraction for r in one_antecedent]
        assert confidences == sorted(confidences, reverse=True)


class TestExactOrderingAtLargeCounts:
    """Counts above 2**32 and confidences that float64 cannot separate: the
    integer ordering key and the witness probe must agree with Fractions."""

    SEV1, SEV2 = Item(Attribute.SEVERITY, 1), Item(Attribute.SEVERITY, 2)
    PRI1, PRI2 = Item(Attribute.PRIORITY, 1), Item(Attribute.PRIORITY, 2)
    COMP1, OS1 = Item(Attribute.COMPONENT, 1), Item(Attribute.OPERATING_SYSTEM, 1)
    # antecedent -> (support, antecedent count). SEV1 and PRI1 both round to
    # the double 1 - 2**-40, but PRI1's 2**40 / (2**40 + 1) is larger; so is
    # SEV1+OS1's, which is therefore essential. PRI2 is exactly 1/3, SEV2
    # 333333333/10**9 just below it, COMP1 1/3 again with a larger support.
    COUNTS = {
        (SEV1,): (2**41 - 2, 2**41),
        (PRI1,): (2**40, 2**40 + 1),
        (PRI2,): (1, 3),
        (SEV2,): (333_333_333, 1_000_000_000),
        (COMP1,): (2**33, 3 * 2**33),
        (SEV1, PRI1): (2**40 - 1, 2**40 + 1),
        (SEV2, PRI2): (666_666_666, 2_000_000_000),
        (SEV1, OS1): (2**40, 2**40 + 1),
    }

    def _rules(self) -> list[Rule]:
        support = {}
        for antecedent, (count, antecedent_count) in self.COUNTS.items():
            support[antecedent] = antecedent_count
            support[antecedent + (WHO,)] = count
        return _generate(_table(support), 0.10, {9})

    def test_order_matches_fraction_keys(self):
        rules = self._rules()
        assert rules == sorted(rules, key=fraction_order_key)
        keys = [_items(rule) for rule in rules]
        # a float key would tie these and put SEV1's larger support first
        assert keys.index((self.PRI1,)) < keys.index((self.SEV1,))
        assert keys.index((self.COMP1,)) < keys.index((self.PRI2,)) < keys.index((self.SEV2,))
        assert all(r.support_count >= 2**32 for r in rules if self.SEV1 in r.antecedent)

    def test_witnesses_match_fraction_comparisons(self):
        rules = self._rules()
        partition = split_rules(rules)
        assert {r.key for r in partition.essential} == essential_rules_naive(rules)
        witnesses = {_items(rule): _items(w) for rule, w in partition.redundant}
        # PRI1 is the more confident witness although SEV1 is probed first
        assert witnesses == {(self.SEV1, self.PRI1): (self.PRI1,), (self.SEV2, self.PRI2): (self.PRI2,)}
        for rule, witness in partition.redundant:
            assert witness == brute_force_witness(rule, partition.essential)


class TestCountsOfAnySize:
    """M, the largest antecedent count, on each side of 2**21 and 2**31, where
    a shifted key and products of counts leave int64 and the table's stored
    width leaves int32, and near 2**62: the order and the witnesses must be
    the Fraction ones."""

    SEV1, PRI1 = Item(Attribute.SEVERITY, 1), Item(Attribute.PRIORITY, 1)
    COMP1, OS1 = Item(Attribute.COMPONENT, 1), Item(Attribute.OPERATING_SYSTEM, 1)
    SIZES = [2**21 - 1, 2**21, 2**31 - 1, 2**31, 2**62]

    def _projections(self, m: int) -> dict[Subset, Projection]:
        # one-item confidences (M-1)/M > (M-2)/(M-1) > (M-3)/(M-2) > 1/3, the
        # first three about 1/M**2 apart; the two-item rules are witnessed
        counts = {
            (self.SEV1,): (m - 2, m - 1),
            (self.PRI1,): (m - 1, m),
            (self.OS1,): (m - 3, m - 2),
            (self.COMP1,): (1, 3),
            (self.SEV1, self.COMP1): (2, 6),
            (self.SEV1, self.PRI1): (m - 4, m),
            (self.PRI1, self.OS1): (m - 3, m - 1),
        }
        support = {}
        for antecedent, (count, antecedent_count) in counts.items():
            support[antecedent] = antecedent_count
            support[antecedent + (WHO,)] = count
        return _table(support)

    def _rules(self, m: int) -> list[Rule]:
        return _generate(self._projections(m), 0.10, {9})

    @pytest.mark.parametrize("m", SIZES)
    def test_the_table_is_int32_while_its_counts_fit(self, m):
        rules = generate_class_rules(self._projections(m), 0.10, {9})
        columns = (rules.codes, rules.consequent, rules.support, rules.antecedent_count)
        width = np.int32 if m < 2**31 else np.int64
        assert {column.dtype for column in columns} == {np.dtype(width)}

    @pytest.mark.parametrize("m", SIZES)
    def test_order_matches_fractions(self, m):
        rules = self._rules(m)
        assert rules == sorted(rules, key=fraction_order_key)
        keys = [_items(rule) for rule in rules]
        assert keys[:4] == [(self.PRI1,), (self.SEV1,), (self.OS1,), (self.COMP1,)]

    @pytest.mark.parametrize("m", SIZES)
    def test_witnesses_match_fractions(self, m):
        rules = self._rules(m)
        partition = split_rules(rules)
        assert {r.key for r in partition.essential} == essential_rules_naive(rules)
        witnesses = {_items(rule): _items(w) for rule, w in partition.redundant}
        # PRI1 is the most confident one-item witness of both two-item rules
        assert witnesses == {
            (self.SEV1, self.PRI1): (self.PRI1,),
            (self.PRI1, self.OS1): (self.PRI1,),
            (self.SEV1, self.COMP1): (self.SEV1,),
        }
        for rule, witness in partition.redundant:
            assert witness == brute_force_witness(rule, partition.essential)


_LARGEST_COUNT = 2**62


@st.composite
def count_pairs(draw) -> list[tuple[int, int]]:
    """(support, antecedent count) pairs with counts up to 2**62: some drawn
    freely, some multiples of others (equal ratios, the same or different
    counts), and some (M-1-i)/(M-i) with M near 2**62, about 1/M**2 apart."""
    counts = st.one_of(st.integers(1, 50), st.integers(1, _LARGEST_COUNT))
    pairs = draw(
        st.lists(counts.flatmap(lambda a: st.tuples(st.integers(0, a), st.just(a))), min_size=1)
    )
    for support, antecedent_count in draw(st.lists(st.sampled_from(pairs), max_size=6)):
        k = draw(st.integers(1, _LARGEST_COUNT // antecedent_count))
        pairs.append((support * k, antecedent_count * k))
    top = draw(st.integers(_LARGEST_COUNT - 1000, _LARGEST_COUNT))
    pairs += [(top - 1 - i, top - i) for i in draw(st.lists(st.integers(0, 5), max_size=4))]
    return draw(st.permutations(pairs))


@given(count_pairs())
@settings(max_examples=200, deadline=None)
def test_confidence_rank_is_the_dense_rank_of_the_fractions(pairs):
    support, antecedent_count = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    codes, consequent = np.full((len(pairs), 4), -1), np.full(len(pairs), 9)
    rules = RuleTable(codes, consequent, support, antecedent_count)
    distinct, pair = rules.pairs
    assert distinct[pair].tolist() == [list(p) for p in pairs]
    assert len(distinct) == len(set(pairs))
    ratios = [Fraction(s, a) for s, a in pairs]
    dense = {ratio: rank for rank, ratio in enumerate(sorted(set(ratios)))}
    assert rules.confidence_rank.tolist() == [dense[ratio] for ratio in ratios]


@given(
    rows=row_lists(max_transactions=60, max_codes=4),
    min_support_count=st.integers(1, 3),
    min_confidence=st.sampled_from((0.0, 0.05, 0.3, 1.0)),
    allowed=st.sets(st.integers(1, 4), min_size=1),
)
@settings(max_examples=80, deadline=None)
def test_the_sorted_table_carries_the_ranks_of_a_fresh_table(
    rows, min_support_count, min_confidence, allowed
):
    table = mine_frequent_itemsets(*row_table(rows), min_support_count)
    rules = generate_class_rules(table, min_confidence, allowed)
    assert {"pairs", "confidence_rank"} <= vars(rules).keys()  # set by the sort, not derived
    fresh = RuleTable(rules.codes, rules.consequent, rules.support, rules.antecedent_count)
    for carried, derived in zip(rules.pairs, fresh.pairs):
        assert np.array_equal(carried, derived)
    assert np.array_equal(rules.confidence_rank, fresh.confidence_rank)


class TestTopAssignees:
    def _records(self, counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """An assignee code column holding each code ``count`` times, one
        record per row, and the rows' counts."""
        codes = np.repeat(list(counts), list(counts.values()))
        return codes, np.ones(len(codes), dtype=np.int64)

    def test_count_then_code_tie_break(self):
        records = self._records({1: 5, 2: 3, 3: 3, 4: 1})
        assert top_assignees(*records, 2) == [1, 2]

    def test_saturation_returns_all(self):
        records = self._records({5: 2, 9: 1})
        assert top_assignees(*records, 10) == [5, 9]

    def test_all_tied_returns_lowest_codes(self):
        records = self._records({4: 2, 2: 2, 8: 2, 6: 2})
        assert top_assignees(*records, 2) == [2, 4]

    def test_rows_count_as_their_counts(self):
        # code 3 has 6 bugs over two rows; code 1 has more rows but 3 bugs
        codes, counts = np.array([1, 3, 1, 1, 3]), np.array([1, 4, 1, 1, 2])
        assert top_assignees(codes, counts, 2) == [3, 1]

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            top_assignees(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 5)


class TestEliminateRedundant:
    def test_lower_confidence_extension_is_redundant(self):
        short = _rule([SEV4], 9, 3, 5)            # conf 0.60
        long = _rule([SEV4, PRI3], 9, 2, 4)       # conf 0.50
        partition = split_rules([short, long])
        assert partition.essential == (short,)
        assert partition.redundant == ((long, short),)

    def test_confidence_raising_extension_stays_essential(self):
        short = _rule([SEV4], 9, 2, 4)            # conf 0.50
        long = _rule([SEV4, PRI3], 9, 4, 5)       # conf 0.80
        partition = split_rules([short, long])
        assert set(partition.essential) == {short, long}
        assert partition.redundant == ()

    def test_single_rule_is_essential(self):
        rule = _rule([SEV4], 9, 3, 5)
        partition = split_rules([rule])
        assert partition.essential == (rule,)
        assert partition.redundant == ()

    def test_equal_confidence_subsumes(self):
        short = _rule([SEV4], 9, 1, 2)            # conf 0.5
        long = _rule([SEV4, PRI3], 9, 2, 4)       # conf 0.5 exactly
        partition = split_rules([short, long])
        assert partition.essential == (short,)
        assert partition.redundant == ((long, short),)

    def test_exact_rational_tie_decision(self):
        # 1/3 vs 333333333/1000000000: floats cannot tell these apart reliably
        short = _rule([SEV4], 9, 1, 3)
        long = _rule([SEV4, PRI3], 9, 333_333_333, 1_000_000_000)
        partition = split_rules([short, long])
        assert partition.essential == (short,)
        [(rule, witness)] = partition.redundant
        assert witness == short
        assert Fraction(1, 3) > Fraction(333_333_333, 1_000_000_000)

    def test_different_consequent_never_subsumes(self):
        short = _rule([SEV4], 1, 5, 5)
        long = _rule([SEV4, PRI3], 9, 1, 5)
        partition = split_rules([short, long])
        assert set(partition.essential) == {short, long}

    def test_witness_choice_prefers_smallest_then_most_confident(self):
        os1 = Item(Attribute.OPERATING_SYSTEM, 1)
        a = _rule([SEV4], 9, 7, 10)               # conf 0.7
        b = _rule([PRI3], 9, 8, 10)               # conf 0.8
        mid = _rule([SEV4, PRI3], 9, 6, 10)       # conf 0.6, subsumed by both
        big = _rule([SEV4, PRI3, os1], 9, 5, 10)  # conf 0.5
        partition = split_rules([a, b, mid, big])
        by_rule = dict(partition.redundant)
        assert by_rule[mid] == b      # highest-confidence 1-antecedent witness
        assert by_rule[big] == b      # still the minimal, most confident one

    def test_redundant_rule_cannot_be_a_witness(self):
        # chain: a (1 item, conf .9) subsumes ab (conf .8); abc (conf .85)
        # escapes ab but not a
        os1 = Item(Attribute.OPERATING_SYSTEM, 1)
        a = _rule([SEV4], 9, 9, 10)                # 0.9
        ab = _rule([SEV4, PRI3], 9, 8, 10)         # 0.8
        abc = _rule([SEV4, PRI3, os1], 9, 85, 100) # 0.85
        partition = split_rules([a, ab, abc])
        assert partition.essential == (a,)
        witnesses = {rule: witness for rule, witness in partition.redundant}
        assert witnesses[ab] == a
        assert witnesses[abc] == a

    def test_witness_choice_among_equals_follows_combinations_order(self):
        # bit masks would order {Priority, Component} (6) before
        # {Severity, OperatingSystem} (9); combinations order does not
        comp2 = Item(Attribute.COMPONENT, 2)
        os1 = Item(Attribute.OPERATING_SYSTEM, 1)
        sev_os = _rule([SEV4, os1], 9, 3, 5)               # conf 0.6
        pri_comp = _rule([PRI3, comp2], 9, 6, 10)          # conf 0.6
        every = _rule([SEV4, PRI3, comp2, os1], 9, 1, 2)   # conf 0.5
        for rules in ([pri_comp, sev_os, every], [every, sev_os, pri_comp]):
            partition = split_rules(rules)
            assert set(partition.essential) == {sev_os, pri_comp}
            assert partition.redundant == ((every, sev_os),)

    def test_duplicate_rules_rejected(self):
        rule = _rule([SEV4], 9, 3, 5)
        other = _rule([SEV4], 8, 3, 5)
        clone = _rule([SEV4], 9, 4, 6)
        with pytest.raises(DuplicateRuleError, match="row 2"):
            eliminate_redundant(rule_table([rule, other, clone]))

    def test_empty_input_gives_empty_partition(self):
        partition = split_rules([])
        assert partition.essential == ()
        assert partition.redundant == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_witness_is_the_brute_force_argmin(self, seed):
        # small counts make equal confidences, so the tie-breaks are exercised
        rnd = random.Random(seed)
        rules = random_rules(rnd, max_count=rnd.choice((3, 6, 60)))
        partition = split_rules(rules)
        for rule in partition.essential:
            assert brute_force_witness(rule, partition.essential) is None
        for rule, witness in partition.redundant:
            assert witness == brute_force_witness(rule, partition.essential)
        # the split and the witnesses do not depend on the input order
        shuffled = rules[:]
        rnd.shuffle(shuffled)
        again = split_rules(shuffled)
        assert set(again.essential) == set(partition.essential)
        assert set(again.redundant) == set(partition.redundant)

    def test_sorted_input_keeps_its_order(self):
        table = mine_frequent_itemsets(*row_table(random_rows(random.Random(5), 200, 4)), 1)
        rules = _generate(table, 0.0, range(1, 5))
        partition = split_rules(rules)
        essential = set(partition.essential)
        assert partition.essential == tuple(r for r in rules if r in essential)
        assert [rule for rule, _ in partition.redundant] == [r for r in rules if r not in essential]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rules = random_rules(random.Random(seed))
        partition = split_rules(rules)
        naive = essential_rules_naive(rules)
        assert {r.key for r in partition.essential} == naive
        for rule, witness in partition.redundant:
            assert witness_is_valid(rule, witness, naive)


@given(rule_lists())
@settings(max_examples=80, deadline=None)
def test_partition_is_a_disjoint_cover(rules):
    partition = split_rules(rules)
    assert partition.rule_count == len(rules)
    covered = Counter(r.key for r in partition.all_rules())
    assert covered == Counter(r.key for r in rules)
    essential_keys = {r.key for r in partition.essential}
    for rule, witness in partition.redundant:
        assert rule.key not in essential_keys
        assert witness.key in essential_keys
        assert witness.consequent == rule.consequent
        assert witness.antecedent < rule.antecedent
        assert witness.confidence_fraction >= rule.confidence_fraction


@given(rule_lists())
@settings(max_examples=80, deadline=None)
def test_essential_set_matches_naive_fixpoint(rules):
    partition = split_rules(rules)
    assert {r.key for r in partition.essential} == essential_rules_naive(rules)


@given(rule_lists(max_rules=15))
@settings(max_examples=60, deadline=None)
def test_adding_a_rule_never_demotes_smaller_essentials(rules):
    if len(rules) < 2:
        return
    added = rules[-1]
    base = rules[:-1]
    before = {r.key for r in split_rules(base).essential}
    after = {r.key for r in split_rules(rules).essential}
    for rule in base:
        if len(rule.antecedent) <= len(added.antecedent):
            assert (rule.key in before) == (rule.key in after)


def test_elimination_holds_one_subsets_probes_at_a_time():
    """eliminate_redundant's traced peak stays under 250 B a rule on 5,263
    rules of every size, about 8 probes a rule: about 180 B when the
    probes of one subset are held at a time, about 450 B when every probe
    of the table is made at once."""
    rnd = random.Random(3)
    rows = [tuple(rnd.randint(1, 5) for _ in Attribute) for _ in range(3000)]
    table = generate_class_rules(mine_frequent_itemsets(*row_table(rows), 1), 0.0, range(1, 6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        partition = eliminate_redundant(table)
        per_rule = (tracemalloc.get_traced_memory()[1] - before) / len(table)
    finally:
        tracemalloc.stop()
    assert len(table) == 5263 and set(table.size.tolist()) == {1, 2, 3, 4}
    assert len(partition.redundant) == 3199
    assert per_rule < 250, per_rule


def _partition_or_error(rules: RuleTable) -> list[int] | str:
    try:
        return eliminate_redundant(rules).witness.tolist()
    except DuplicateRuleError as error:
        return str(error)


@given(rule_lists(), st.data())
@settings(max_examples=100, deadline=None)
def test_ranked_rows_decide_as_the_packed_keys(rules, data):
    """With the key bound patched down, every table is ranked by
    distinct_rows; witnesses and the duplicate-rule message are the packed
    keys', with or without a rule given twice, and the message names the
    first row that repeats an earlier rule."""
    clones = data.draw(st.lists(st.sampled_from(rules), max_size=2))
    rows = data.draw(st.permutations(rules + clones))
    keys = [rule.key for rule in rows]
    repeats = [row for row, key in enumerate(keys) if key in keys[:row]]
    decided = {}
    for bound in (rules_module.KEY_BOUND, 0):
        table, spy = rule_table(rows), mock.Mock(wraps=distinct_rows)
        table.pairs  # ranked before the patch, so that the spy sees only the row keys
        with mock.patch.object(rules_module, "KEY_BOUND", bound), mock.patch.object(
            rules_module, "distinct_rows", spy
        ):
            decided[bound] = _partition_or_error(table)
        assert spy.called == (bound == 0)
    assert decided[0] == decided[rules_module.KEY_BOUND]
    if repeats:
        assert decided[0] == f"duplicate rule at row {repeats[0]}"


@given(rule_lists())
@settings(max_examples=50, deadline=None)
def test_codes_past_the_key_bound_decide_as_small_codes(rules):
    # codes times 2**40 make a radix product above 2**200, far past the bound
    small = rule_table(rules)
    large = RuleTable(
        np.where(small.present, small.codes << 40, -1),
        small.consequent << 40,
        small.support,
        small.antecedent_count,
    )
    witness = eliminate_redundant(small).witness
    assert np.array_equal(eliminate_redundant(large).witness, witness)


@given(rule_lists(), st.sampled_from(range(4)))
@settings(max_examples=50, deadline=None)
def test_int32_codes_up_to_2_31_minus_1_decide_as_small_codes(rules, attribute):
    """An int32 table whose codes of one attribute end at 2**31 - 1, so that
    attribute's absent digit is 2**31 and its radix 2**31 + 1, still packed
    in one int64 key: the witnesses are the small codes' and the essential
    rules the naive fixpoint's."""
    small = rule_table(rules)
    codes = small.codes.copy()
    shifted = codes[:, attribute]  # a view: its present codes end at 2**31 - 1
    shifted[shifted >= 0] += 2**31 - 1 - shifted.max()
    columns = (codes, small.consequent, small.support, small.antecedent_count)
    large = RuleTable(*(column.astype(np.int32) for column in columns))
    large.pairs  # ranked before the patch, so that it sees only the row keys
    with mock.patch.object(rules_module, "distinct_rows", side_effect=AssertionError("ranked")):
        witness = eliminate_redundant(large).witness
    assert np.array_equal(witness, eliminate_redundant(small).witness)
    objects = rule_objects(large)
    essential = {objects[row].key for row in np.flatnonzero(witness < 0)}
    assert essential == essential_rules_naive(objects)
