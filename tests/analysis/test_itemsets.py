"""Tests for frequent-itemset mining, incl. miner-equivalence properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.itemsets import (
    CATEGORY_INDEX,
    available_algorithms,
    bruteforce,
    category_from_index,
    category_transactions,
    eclat,
    ingredient_transactions,
    mine_frequent_itemsets,
)
from repro.errors import MiningError
from repro.lexicon.categories import Category

TRANSACTIONS = [
    {1, 2, 3},
    {1, 2},
    {1, 3},
    {2, 3},
    {1, 2, 3, 4},
    {4, 5},
]


def _as_dict(result):
    return {itemset.items: itemset.support for itemset in result.itemsets}


def test_eclat_hand_computed():
    result = eclat(TRANSACTIONS, min_support=0.5)
    found = _as_dict(result)
    # Supports: 1->4, 2->4, 3->4, {1,2}->3, {1,3}->3, {2,3}->3, {1,2,3}->2
    # min_count = ceil(0.5*6) = 3.
    assert found == {
        (1,): 4, (2,): 4, (3,): 4,
        (1, 2): 3, (1, 3): 3, (2, 3): 3,
    }


def test_rank_order():
    result = eclat(TRANSACTIONS, min_support=0.5)
    supports = [itemset.support for itemset in result.itemsets]
    assert supports == sorted(supports, reverse=True)
    # Ties broken by size then lexicographic items.
    assert result.itemsets[0].items == (1,)


def test_max_size_cap():
    result = eclat(TRANSACTIONS, min_support=0.3, max_size=1)
    assert all(itemset.size == 1 for itemset in result.itemsets)


def test_min_support_one_returns_universal_sets():
    result = eclat(TRANSACTIONS, min_support=1.0)
    assert _as_dict(result) == {}


def test_empty_transactions():
    for algorithm in available_algorithms():
        result = mine_frequent_itemsets([], 0.5, algorithm)
        assert len(result) == 0
        assert result.n_transactions == 0


def test_invalid_support_rejected():
    with pytest.raises(MiningError):
        eclat(TRANSACTIONS, min_support=0.0)
    with pytest.raises(MiningError):
        bruteforce(TRANSACTIONS, min_support=1.5)


def test_unknown_algorithm():
    with pytest.raises(MiningError):
        mine_frequent_itemsets(TRANSACTIONS, 0.5, algorithm="fp-dream")


def test_relative_support_and_frequencies():
    result = eclat(TRANSACTIONS, min_support=0.5)
    top = result.itemsets[0]
    assert top.relative_support(result.n_transactions) == pytest.approx(4 / 6)
    frequencies = result.frequencies()
    assert frequencies[0] == pytest.approx(4 / 6)
    assert len(frequencies) == len(result)


def test_of_size():
    result = eclat(TRANSACTIONS, min_support=0.5)
    assert len(result.of_size(1)) == 3
    assert len(result.of_size(2)) == 3


@st.composite
def transactions_strategy(draw):
    n = draw(st.integers(1, 25))
    return [
        draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
        for _ in range(n)
    ]


@given(transactions_strategy(), st.floats(0.05, 1.0))
@settings(max_examples=100, deadline=None)
def test_all_miners_agree(transactions, min_support):
    assert _as_dict(eclat(transactions, min_support)) == _as_dict(
        bruteforce(transactions, min_support)
    )


@given(transactions_strategy(), st.floats(0.1, 1.0), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_miners_agree_with_max_size(transactions, min_support, max_size):
    assert _as_dict(
        eclat(transactions, min_support, max_size=max_size)
    ) == _as_dict(bruteforce(transactions, min_support, max_size=max_size))


@given(transactions_strategy())
@settings(max_examples=50, deadline=None)
def test_downward_closure(transactions):
    """Every subset of a frequent itemset is frequent (Apriori property)."""
    result = eclat(transactions, min_support=0.3)
    found = _as_dict(result)
    for items, support in found.items():
        for drop in range(len(items)):
            subset = items[:drop] + items[drop + 1:]
            if subset:
                assert subset in found
                assert found[subset] >= support


def test_ingredient_transactions(tiny_dataset):
    transactions = ingredient_transactions(tiny_dataset.cuisine("ITA"))
    assert frozenset({0, 1, 2, 7}) in transactions
    assert len(transactions) == 4


def test_category_transactions(tiny_dataset, tiny_lexicon):
    transactions = category_transactions(
        tiny_dataset.cuisine("KOR"), tiny_lexicon
    )
    veg = CATEGORY_INDEX[Category.VEGETABLE]
    spice = CATEGORY_INDEX[Category.SPICE]
    assert frozenset({veg, spice}) in transactions


def test_category_index_roundtrip():
    for category, index in CATEGORY_INDEX.items():
        assert category_from_index(index) is category
    with pytest.raises(MiningError):
        category_from_index(999)


def test_paper_threshold_on_synthetic_cuisine(small_corpus):
    """5% threshold mining yields a meaningful, ranked combination set."""
    transactions = ingredient_transactions(small_corpus.cuisine("ITA"))
    result = mine_frequent_itemsets(transactions, min_support=0.05)
    assert len(result) > 50
    assert any(itemset.size >= 2 for itemset in result.itemsets)
    frequencies = result.frequencies()
    assert frequencies == sorted(frequencies, reverse=True)
