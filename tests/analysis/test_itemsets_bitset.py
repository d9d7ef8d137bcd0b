"""Cross-engine property tests: bitset Eclat == the reference miners.

The bitset engine's contract (DESIGN.md §6) is *exact* equality with the
pure-Python ``eclat`` reference and the ``bruteforce`` oracle, for both
entry points (:func:`bitset_eclat` and :func:`mine_packed`) — same
itemsets, same supports, same ``(-support, size, items)`` rank order —
on any input.  These tests pin
that over randomized transaction sets spanning sizes, densities and
``max_size`` caps, plus the degenerate shapes that break bit-matrix
code (empty input, empty transactions, single transaction, items with
large/sparse ids).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.itemsets import (
    available_algorithms,
    mine_frequent_itemsets,
)
from repro.analysis.itemsets_bitset import bitset_eclat, mine_packed
from repro.errors import MiningError


def _random_transactions(
    rng: random.Random, n: int, n_items: int, density: float
) -> list[set[int]]:
    items = list(range(n_items))
    transactions = []
    for _ in range(n):
        size = min(n_items, max(0, int(rng.gauss(density * n_items, 2))))
        transactions.append(set(rng.sample(items, size)))
    return transactions


def _skewed_transactions(
    rng: random.Random, n: int, n_items: int, size: int
) -> list[set[int]]:
    """Zipf-weighted draws — the shape real recipe pools have."""
    items = list(range(n_items))
    weights = [1.0 / (rank + 1) for rank in range(n_items)]
    transactions = []
    for _ in range(n):
        transaction: set[int] = set()
        while len(transaction) < size:
            transaction.add(rng.choices(items, weights)[0])
        transactions.append(transaction)
    return transactions


def _pack(transactions):
    universe = sorted({item for t in transactions for item in t})
    dense = np.zeros((len(universe), len(transactions)), dtype=np.uint8)
    position = {item: row for row, item in enumerate(universe)}
    for column, transaction in enumerate(transactions):
        for item in transaction:
            dense[position[item], column] = 1
    return (
        np.packbits(dense, axis=1),
        np.asarray(universe, dtype=np.int64),
        len(transactions),
    )


def test_bitset_is_registered():
    assert available_algorithms() == ("bitset", "bruteforce", "eclat")


@pytest.mark.parametrize("seed", range(8))
def test_bitset_equals_all_miners_randomized(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    n_items = rng.randint(1, 24)
    density = rng.choice([0.1, 0.25, 0.4])
    transactions = _random_transactions(rng, n, n_items, density)
    min_support = rng.choice([0.02, 0.05, 0.1, 0.3, 0.75])
    max_size = rng.choice([None, 1, 2, 3])
    references = [
        mine_frequent_itemsets(
            transactions, min_support, algorithm, max_size=max_size
        )
        for algorithm in ("eclat", "bruteforce")
    ]
    fast_paths = {
        "bitset": mine_frequent_itemsets(
            transactions, min_support, "bitset", max_size=max_size
        ),
        "mine_packed": mine_packed(
            *_pack(transactions), min_support, max_size=max_size
        ),
    }
    for name, result in fast_paths.items():
        for reference in references:
            assert result.itemsets == reference.itemsets, (seed, name)
            assert result.n_transactions == reference.n_transactions


@pytest.mark.parametrize("seed", range(4))
def test_bitset_equals_eclat_on_skewed_pools(seed):
    rng = random.Random(100 + seed)
    transactions = _skewed_transactions(rng, n=300, n_items=60, size=6)
    expected = mine_frequent_itemsets(transactions, 0.05, "eclat")
    result = mine_frequent_itemsets(transactions, 0.05, "bitset")
    assert result.itemsets == expected.itemsets
    assert len(result) > 0  # skewed pools must actually mine something
    assert result.frequencies() == expected.frequencies()


def test_bitset_empty_input():
    result = bitset_eclat([], 0.05)
    assert result.itemsets == ()
    assert result.n_transactions == 0
    assert result.algorithm == "bitset"


def test_bitset_all_empty_transactions():
    result = bitset_eclat([set(), set(), set()], 0.05)
    assert result.itemsets == ()
    assert result.n_transactions == 3


def test_bitset_single_transaction():
    expected = mine_frequent_itemsets([{3, 7, 11}], 0.5, "bruteforce")
    result = mine_frequent_itemsets([{3, 7, 11}], 0.5, "bitset")
    assert result.itemsets == expected.itemsets


def test_bitset_sparse_large_item_ids():
    transactions = [{10_000, 999_999}, {10_000}, {10_000, 5}]
    expected = mine_frequent_itemsets(transactions, 0.3, "eclat")
    result = mine_frequent_itemsets(transactions, 0.3, "bitset")
    assert result.itemsets == expected.itemsets


def test_bitset_duplicate_items_in_list_input():
    # Non-set inputs are deduplicated exactly like the reference miners.
    transactions = [[1, 1, 2], [2, 2, 2, 1], [1]]
    expected = mine_frequent_itemsets(transactions, 0.3, "eclat")
    result = mine_frequent_itemsets(transactions, 0.3, "bitset")
    assert result.itemsets == expected.itemsets


def test_bitset_max_size_caps_depth():
    transactions = [{1, 2, 3, 4}] * 10
    result = mine_frequent_itemsets(transactions, 0.5, "bitset", max_size=2)
    assert max(itemset.size for itemset in result.itemsets) == 2
    expected = mine_frequent_itemsets(
        transactions, 0.5, "eclat", max_size=2
    )
    assert result.itemsets == expected.itemsets


def test_bitset_invalid_support():
    with pytest.raises(MiningError):
        bitset_eclat([{1}], 0.0)
    with pytest.raises(MiningError):
        bitset_eclat([{1}], 1.5)


@pytest.mark.parametrize("max_size", [0, -1])
@pytest.mark.parametrize(
    "miner", [*available_algorithms(), "mine_packed"]
)
def test_max_size_below_one_rejected(miner, max_size):
    # Every miner rejects the cap alike instead of some returning the
    # singletons and others nothing (the DESIGN.md §6 equality contract).
    transactions = [{1, 2}, {1, 3}, {1, 2, 3}]
    with pytest.raises(MiningError):
        if miner == "mine_packed":
            mine_packed(*_pack(transactions), 0.5, max_size=max_size)
        else:
            mine_frequent_itemsets(
                transactions, 0.5, miner, max_size=max_size
            )


def test_unknown_algorithm_lists_bitset():
    with pytest.raises(MiningError) as excinfo:
        mine_frequent_itemsets([{1}], 0.5, "no-such-miner")
    assert "bitset" in str(excinfo.value)


# ---------------------------------------------------------------------------
# mine_packed: mining directly over the packed-bit layout
# ---------------------------------------------------------------------------


def test_mine_packed_matches_bitset_eclat():
    rng = random.Random(5)
    transactions = [
        frozenset(rng.sample(range(20), rng.randint(2, 8))) for _ in range(60)
    ]
    matrix, item_ids, n = _pack(transactions)
    packed = mine_packed(matrix, item_ids, n, min_support=0.1)
    reference = bitset_eclat(transactions, min_support=0.1)
    assert packed.itemsets == reference.itemsets
    assert packed.n_transactions == reference.n_transactions


def test_mine_packed_respects_max_size():
    transactions = [frozenset({1, 2, 3, 4})] * 10
    matrix, item_ids, n = _pack(transactions)
    result = mine_packed(matrix, item_ids, n, min_support=0.5, max_size=2)
    assert max(itemset.size for itemset in result.itemsets) == 2


def test_mine_packed_validates_inputs():
    matrix = np.zeros((2, 1), dtype=np.uint8)
    with pytest.raises(MiningError):  # descending item ids
        mine_packed(matrix, np.array([5, 3]), 4, min_support=0.5)
    with pytest.raises(MiningError):  # row/id count mismatch
        mine_packed(matrix, np.array([1]), 4, min_support=0.5)
    with pytest.raises(MiningError):  # not uint8
        mine_packed(matrix.astype(np.int32), np.array([1, 2]), 4, 0.5)


def test_mine_packed_empty():
    result = mine_packed(
        np.zeros((0, 0), dtype=np.uint8), np.array([], dtype=np.int64),
        0, min_support=0.5,
    )
    assert result.itemsets == ()
