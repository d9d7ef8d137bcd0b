"""Indexed recipe storage: inverted indexes, stores and the
memory-mapped columnar corpus container (DESIGN.md §11)."""

from repro.storage.columnar import (
    COLUMNAR_FORMAT_VERSION,
    COLUMNAR_SUFFIX,
    ColumnarCorpus,
    ColumnarDiskStats,
    ColumnarRecipeStore,
    ColumnarWriter,
    PackedTransactions,
    PlaneStats,
    pack_dataset,
)
from repro.storage.inverted_index import (
    InvertedIndex,
    intersect_pair,
    intersect_postings,
)
from repro.storage.store import RecipeStore

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "COLUMNAR_SUFFIX",
    "ColumnarCorpus",
    "ColumnarDiskStats",
    "ColumnarRecipeStore",
    "ColumnarWriter",
    "PackedTransactions",
    "PlaneStats",
    "pack_dataset",
    "InvertedIndex",
    "intersect_pair",
    "intersect_postings",
    "RecipeStore",
]
