"""Frequent-combination mining (Sec. IV).

The paper considers all ingredient combinations ("of size 1 and greater")
that appear in at least 5% of a cuisine's recipes — i.e. frequent
itemsets at relative support 0.05.  Three miners are provided:

* ``eclat`` — vertical tidset intersection, depth-first.  The default
  and the reference implementation.
* ``bitset`` — the same search over numpy packed-bit tidsets with
  vectorized AND + popcount (:mod:`repro.analysis.itemsets_bitset`,
  imported on first use); the fast path for ensemble mining.
* ``bruteforce`` — exact subset enumeration; exponential, only for small
  inputs and property tests (the oracle).

All miners return identical results (a property the test-suite enforces).
Items are integers (lexicon ingredient ids, or category indexes via
:func:`category_transactions`).  :func:`available_algorithms` lists the
miner names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from repro.corpus.dataset import CuisineView
from repro.errors import MiningError
from repro.lexicon.categories import Category
from repro.lexicon.lexicon import Lexicon

__all__ = [
    "FrequentItemset",
    "MiningResult",
    "available_algorithms",
    "mine_frequent_itemsets",
    "eclat",
    "bruteforce",
    "category_transactions",
    "ingredient_transactions",
    "CATEGORY_INDEX",
]

#: Stable category <-> index mapping for category-level mining.
CATEGORY_INDEX: dict[Category, int] = {
    category: index for index, category in enumerate(Category)
}
_INDEX_CATEGORY: dict[int, Category] = {
    index: category for category, index in CATEGORY_INDEX.items()
}

#: Safety valve: a mining call producing more itemsets than this is almost
#: certainly misconfigured (e.g. minuscule support on dense data).
MAX_ITEMSETS = 2_000_000


@dataclass(frozen=True)
class FrequentItemset:
    """One frequent combination.

    Attributes:
        items: Sorted item tuple.
        support: Absolute support (number of transactions containing it).
    """

    items: tuple[int, ...]
    support: int

    @property
    def size(self) -> int:
        return len(self.items)

    def relative_support(self, n_transactions: int) -> float:
        """Support normalized by the transaction count."""
        if n_transactions <= 0:
            return 0.0
        return self.support / n_transactions


@dataclass(frozen=True)
class MiningResult:
    """Output of a mining run.

    Attributes:
        itemsets: Frequent itemsets sorted by (-support, size, items) —
            the rank order used by the Fig. 3/4 rank-frequency curves.
        n_transactions: Transactions mined.
        min_support: Relative support threshold used.
        algorithm: Miner name.
    """

    itemsets: tuple[FrequentItemset, ...]
    n_transactions: int
    min_support: float
    algorithm: str

    def __len__(self) -> int:
        return len(self.itemsets)

    def frequencies(self) -> list[float]:
        """Relative supports in rank order (Fig. 3/4 y-values)."""
        if self.n_transactions == 0:
            return []
        return [
            itemset.support / self.n_transactions for itemset in self.itemsets
        ]

    def of_size(self, size: int) -> tuple[FrequentItemset, ...]:
        """Frequent itemsets of exactly ``size`` items."""
        return tuple(i for i in self.itemsets if i.size == size)


def _min_count(min_support: float, n_transactions: int) -> int:
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must be in (0, 1], got {min_support}")
    return max(1, math.ceil(min_support * n_transactions))


def _check_max_size(max_size: int | None) -> None:
    if max_size is not None and max_size < 1:
        raise MiningError(f"max_size must be >= 1, got {max_size}")


def _normalize_transactions(
    transactions: Iterable[Iterable[int]],
) -> list[frozenset[int]]:
    return [frozenset(t) for t in transactions]


def _sorted_result(
    found: dict[tuple[int, ...], int],
    n_transactions: int,
    min_support: float,
    algorithm: str,
) -> MiningResult:
    if len(found) > MAX_ITEMSETS:
        raise MiningError(
            f"mining produced {len(found)} itemsets (> {MAX_ITEMSETS}); "
            "raise min_support or cap max_size"
        )
    itemsets = tuple(
        FrequentItemset(items=items, support=support)
        for items, support in sorted(
            found.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0])
        )
    )
    return MiningResult(
        itemsets=itemsets,
        n_transactions=n_transactions,
        min_support=min_support,
        algorithm=algorithm,
    )


# ---------------------------------------------------------------------------
# Eclat
# ---------------------------------------------------------------------------


def eclat(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Depth-first vertical mining with tidset intersections."""
    _check_max_size(max_size)
    data = _normalize_transactions(transactions)
    n = len(data)
    if n == 0:
        return MiningResult((), 0, min_support, "eclat")
    min_count = _min_count(min_support, n)

    tidsets: dict[int, set[int]] = {}
    for tid, transaction in enumerate(data):
        for item in transaction:
            tidsets.setdefault(item, set()).add(tid)

    frequent_items = sorted(
        item for item, tids in tidsets.items() if len(tids) >= min_count
    )
    found: dict[tuple[int, ...], int] = {}

    def extend(
        prefix: tuple[int, ...],
        candidates: list[tuple[int, set[int]]],
    ) -> None:
        for index, (item, tids) in enumerate(candidates):
            items = prefix + (item,)
            found[items] = len(tids)
            if len(found) > MAX_ITEMSETS:
                raise MiningError(
                    f"mining exceeded {MAX_ITEMSETS} itemsets; raise "
                    "min_support or cap max_size"
                )
            if max_size is not None and len(items) >= max_size:
                continue
            next_candidates = []
            for other, other_tids in candidates[index + 1:]:
                intersection = tids & other_tids
                if len(intersection) >= min_count:
                    next_candidates.append((other, intersection))
            if next_candidates:
                extend(items, next_candidates)

    extend((), [(item, tidsets[item]) for item in frequent_items])
    return _sorted_result(found, n, min_support, "eclat")


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def bruteforce(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Exact enumeration of every subset of every transaction.

    Exponential in transaction size — reference implementation for tests.
    """
    _check_max_size(max_size)
    data = _normalize_transactions(transactions)
    n = len(data)
    if n == 0:
        return MiningResult((), 0, min_support, "bruteforce")
    min_count = _min_count(min_support, n)

    counts: dict[tuple[int, ...], int] = {}
    for transaction in data:
        items = sorted(transaction)
        limit = len(items) if max_size is None else min(max_size, len(items))
        for size in range(1, limit + 1):
            for subset in combinations(items, size):
                counts[subset] = counts.get(subset, 0) + 1
        if len(counts) > MAX_ITEMSETS:
            raise MiningError(
                f"bruteforce exceeded {MAX_ITEMSETS} counted subsets"
            )
    found = {items: c for items, c in counts.items() if c >= min_count}
    return _sorted_result(found, n, min_support, "bruteforce")


def _bitset(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    # Imported on first use: the bitset module imports this one.
    from repro.analysis.itemsets_bitset import bitset_eclat

    return bitset_eclat(transactions, min_support, max_size=max_size)


#: The miner table: ``eclat`` is the default and the reference,
#: ``bitset`` the fast path and ``bruteforce`` the oracle.
_MINERS: dict[str, Callable[..., MiningResult]] = {
    "bitset": _bitset,
    "bruteforce": bruteforce,
    "eclat": eclat,
}


def available_algorithms() -> tuple[str, ...]:
    """Names of every mining algorithm, sorted."""
    return tuple(sorted(_MINERS))


def mine_frequent_itemsets(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    algorithm: str = "eclat",
    max_size: int | None = None,
) -> MiningResult:
    """Mine frequent combinations with the selected algorithm.

    Args:
        transactions: Item collections (ingredient ids or category
            indexes).
        min_support: Relative support threshold — the paper uses 0.05.
        algorithm: One of :func:`available_algorithms` — ``"eclat"``
            (default), ``"bitset"`` or ``"bruteforce"``; all return
            identical results.
        max_size: Optional cap on itemset size.

    Returns:
        A :class:`MiningResult` with itemsets in rank order.
    """
    miner = _MINERS.get(algorithm)
    if miner is None:
        raise MiningError(
            f"unknown mining algorithm {algorithm!r}; "
            f"available: {list(available_algorithms())}"
        )
    return miner(transactions, min_support, max_size=max_size)


# ---------------------------------------------------------------------------
# Transaction builders
# ---------------------------------------------------------------------------


def ingredient_transactions(view: CuisineView) -> list[frozenset[int]]:
    """Recipes of a cuisine as ingredient-id transactions."""
    return view.as_id_sets()


def category_transactions(
    view: CuisineView, lexicon: Lexicon
) -> list[frozenset[int]]:
    """Recipes as category-index transactions (Sec. IV category level)."""
    id_to_category = lexicon.id_to_category_array()
    return [
        frozenset(
            CATEGORY_INDEX[id_to_category[ingredient_id]]
            for ingredient_id in recipe.ingredient_ids
        )
        for recipe in view
    ]


def category_from_index(index: int) -> Category:
    """Inverse of :data:`CATEGORY_INDEX`."""
    try:
        return _INDEX_CATEGORY[index]
    except KeyError:
        raise MiningError(f"invalid category index {index}") from None
