"""Bitset Eclat: vertical mining over numpy packed-bit tidset matrices.

The pure-Python :func:`~repro.analysis.itemsets.eclat` represents each
item's tidset as a Python ``set`` and intersects candidates one pair at
a time — millions of hash probes per mining call at the paper's support
threshold.  This engine replaces both the representation and the loop:

1. transactions are packed **once** into a bit matrix
   (``np.packbits``): row = item, bit = transaction membership;
2. a depth-first extension intersects the prefix tidset against *every*
   sibling candidate in one vectorized ``AND`` over the packed bytes;
3. supports come from a 256-entry popcount lookup table summed per row
   — no ``unpackbits`` round trip on the hot path.

The search tree, the pruning rule (support >= min_count) and the
``(-support, size, items)`` rank order are exactly those of the
pure-Python miner, so the results are identical item for item and count
for count — a property ``tests/analysis/test_itemsets_bitset.py`` pins
against ``eclat`` and ``bruteforce`` on randomized inputs.

Listed as ``algorithm="bitset"`` in :mod:`repro.analysis.itemsets`'s
miner table and imported on first use; select it via
``MiningConfig(algorithm="bitset")`` or ``--mining-algorithm bitset``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from repro.analysis.itemsets import (
    MAX_ITEMSETS,
    MiningResult,
    _check_max_size,
    _min_count,
    _sorted_result,
)
from repro.errors import MiningError

__all__ = ["bitset_eclat", "mine_packed", "POPCOUNT_TABLE"]

#: Bits set per byte value — the popcount primitive.  Indexing a packed
#: row through this table and summing gives the row's support without
#: unpacking it back to booleans.
POPCOUNT_TABLE: np.ndarray = np.unpackbits(
    np.arange(256, dtype=np.uint8).reshape(-1, 1), axis=1
).sum(axis=1).astype(np.int64)


def bitset_eclat(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Depth-first vertical mining over packed-bit tidsets.

    Args:
        transactions: Item collections (ingredient ids or category
            indexes).
        min_support: Relative support threshold in ``(0, 1]``.
        max_size: Optional cap on itemset size.

    Returns:
        A :class:`~repro.analysis.itemsets.MiningResult` whose itemsets
        and supports are identical to the pure-Python miners' (only the
        ``algorithm`` field differs).
    """
    _check_max_size(max_size)
    # Sets pass through untouched (model runs hand us frozensets
    # already); anything else is deduplicated the way the reference
    # miners' normalization does.
    data = [
        transaction
        if isinstance(transaction, (set, frozenset))
        else frozenset(transaction)
        for transaction in transactions
    ]
    n = len(data)
    if n == 0:
        return MiningResult((), 0, min_support, "bitset")
    min_count = _min_count(min_support, n)

    # Flatten once: the only Python-level pass over the data.  Every
    # later step — counting, frequency filtering, bit-matrix build — is
    # a vectorized numpy operation over these flat arrays.
    lengths = np.fromiter(
        (len(transaction) for transaction in data), dtype=np.intp, count=n
    )
    total = int(lengths.sum())
    if total == 0:
        return MiningResult((), n, min_support, "bitset")
    flat_items = np.fromiter(
        chain.from_iterable(data), dtype=np.int64, count=total
    )
    flat_tids = np.repeat(np.arange(n, dtype=np.intp), lengths)

    unique_items, inverse = np.unique(flat_items, return_inverse=True)
    item_counts = np.bincount(inverse, minlength=unique_items.size)
    frequent = item_counts >= min_count
    if not frequent.any():
        return MiningResult((), n, min_support, "bitset")
    frequent_items = [int(item) for item in unique_items[frequent]]
    row_of = np.full(unique_items.size, -1, dtype=np.intp)
    row_of[frequent] = np.arange(int(frequent.sum()), dtype=np.intp)
    occurrence_rows = row_of[inverse]
    kept = occurrence_rows >= 0

    mask = np.zeros((len(frequent_items), n), dtype=bool)
    mask[occurrence_rows[kept], flat_tids[kept]] = True
    packed = np.packbits(mask, axis=1)
    supports = item_counts[frequent].astype(np.int64)

    return _mine_over_matrix(
        frequent_items, packed, supports, n, min_count, min_support, max_size
    )


def _mine_over_matrix(
    frequent_items: list[int],
    packed: np.ndarray,
    supports: np.ndarray,
    n: int,
    min_count: int,
    min_support: float,
    max_size: int | None,
) -> MiningResult:
    """The depth-first extension over an already-frequent packed matrix.

    Shared by :func:`bitset_eclat` (which packs in memory) and
    :func:`mine_packed` (which reads stored planes): same search tree,
    same pruning, same rank order — so both entry points return
    identical results for identical transaction content.
    """
    found: dict[tuple[int, ...], int] = {}

    def extend(
        prefix: tuple[int, ...],
        items: list[int],
        rows: np.ndarray,
        sups: np.ndarray,
    ) -> None:
        for index, item in enumerate(items):
            itemset = prefix + (item,)
            found[itemset] = int(sups[index])
            if len(found) > MAX_ITEMSETS:
                raise MiningError(
                    f"mining exceeded {MAX_ITEMSETS} itemsets; raise "
                    "min_support or cap max_size"
                )
            if max_size is not None and len(itemset) >= max_size:
                continue
            if index + 1 == len(items):
                continue
            # One vectorized AND + popcount covers every sibling at once
            # — the step the pure-Python miner does set by set.
            intersections = rows[index + 1:] & rows[index]
            inter_supports = POPCOUNT_TABLE[intersections].sum(axis=1)
            keep = np.flatnonzero(inter_supports >= min_count)
            if keep.size:
                extend(
                    itemset,
                    [items[index + 1 + k] for k in keep],
                    intersections[keep],
                    inter_supports[keep],
                )

    extend((), frequent_items, packed, supports)
    return _sorted_result(found, n, min_support, "bitset")


#: Rows processed per block when computing supports over a stored
#: matrix — bounds the int64 popcount intermediate, not the matrix.
_ROW_BLOCK = 256


def mine_packed(
    matrix: np.ndarray,
    item_ids: np.ndarray,
    n_transactions: int,
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Mine a stored packed-bit transaction matrix zero-copy.

    The columnar store's ``bits:<code>`` planes are exactly the matrix
    :func:`bitset_eclat` builds internally — row = item, bit =
    transaction, ``np.packbits`` layout — so a memory-mapped plane can
    be mined without round-tripping through ``Recipe`` objects or
    frozensets.  Supports are popcounted block-wise straight off the
    mapping; only the frequent rows (typically a small fraction at the
    paper's thresholds) are copied into memory for the depth-first
    extension.

    Args:
        matrix: ``(len(item_ids), ceil(n_transactions / 8))`` uint8
            packed membership bits (may be a ``np.memmap`` view); bits
            past ``n_transactions`` must be zero.
        item_ids: Ascending item id per matrix row.
        n_transactions: Number of transactions the bits encode.
        min_support: Relative support threshold in ``(0, 1]``.
        max_size: Optional cap on itemset size.

    Returns:
        A result bit-identical to any miner over the same
        transactions (``algorithm`` reads ``"bitset"``).
    """
    matrix = np.asarray(matrix)
    item_ids = np.asarray(item_ids)
    if matrix.ndim != 2 or matrix.dtype != np.uint8:
        raise MiningError(
            f"packed matrix must be 2-D uint8, got {matrix.dtype} "
            f"ndim={matrix.ndim}"
        )
    if matrix.shape[0] != item_ids.size:
        raise MiningError(
            f"{matrix.shape[0]} matrix rows vs {item_ids.size} item ids"
        )
    if item_ids.size > 1 and not (np.diff(item_ids) > 0).all():
        raise MiningError("item_ids must be strictly ascending")
    _check_max_size(max_size)
    n = int(n_transactions)
    if n == 0:
        return MiningResult((), 0, min_support, "bitset")
    min_count = _min_count(min_support, n)

    supports = np.empty(matrix.shape[0], dtype=np.int64)
    for start in range(0, matrix.shape[0], _ROW_BLOCK):
        block = matrix[start:start + _ROW_BLOCK]
        supports[start:start + _ROW_BLOCK] = POPCOUNT_TABLE[block].sum(axis=1)
    frequent = supports >= min_count
    if not frequent.any():
        return MiningResult((), n, min_support, "bitset")
    frequent_items = [int(item) for item in item_ids[frequent]]
    packed = np.ascontiguousarray(matrix[frequent])
    return _mine_over_matrix(
        frequent_items,
        packed,
        supports[frequent],
        n,
        min_count,
        min_support,
        max_size,
    )
