"""Mutable simulation state for Algorithm 1, in two representations.

Both engines (DESIGN.md §5) track the ingredient universe ``I``, the
growing pool ``I₀``, the growing recipe pool ``R₀``, per-ingredient
fitness, and the pool-ratio bookkeeping (∂ = m/n vs φ):

* :class:`EvolutionState` — the **reference** representation.  Its public
  surface speaks ingredient *ids* (recipes are lists of ids, draws
  return ids) because the scalar loop and the island engine are
  written in id space.  Internally
  fitness and category live in dense position-indexed arrays — a single
  id→position index replaces the old per-quantity dicts — and
  per-category pool membership is a contiguous list per category code.
* :class:`ArrayEvolutionState` — the **vectorized** representation.
  Everything is a dense integer *position* (the index into
  ``spec.ingredient_ids``): fitness and category are arrays indexed by
  position, the pool/remaining partition is a pair of index lists with
  O(1) swap-moves, per-category pool membership is one contiguous,
  append-only index list per category (the pool never shrinks), and
  recipes hold positions until :meth:`~ArrayEvolutionState.transactions`
  maps them back to ids.  The vectorized engine
  (:mod:`repro.models.vectorized`) drives it with batched RNG draws.

Shared invariants (enforced by the property tests):

* the pool is always a subset of the original universe;
* pool and remaining universe are disjoint and their union is constant;
* ``m`` and ``n`` always equal the actual container sizes.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.lexicon.categories import Category
from repro.models.params import CuisineSpec

__all__ = [
    "ArrayEvolutionState",
    "CATEGORY_CODES",
    "EvolutionState",
    "EvolutionTraceCounters",
]

#: Stable category → dense integer code mapping (enum declaration order).
CATEGORY_CODES: dict[Category, int] = {
    category: code for code, category in enumerate(Category)
}

#: Dense code → category, inverse of :data:`CATEGORY_CODES`.
CATEGORIES_BY_CODE: tuple[Category, ...] = tuple(Category)


@dataclass
class EvolutionTraceCounters:
    """Event counts accumulated during one run.

    Attributes:
        recipes_added: Copy-mutate (or null) recipe additions.
        ingredients_added: Pool growth events.
        mutations_attempted: Mutation attempts (g-loop iterations).
        mutations_accepted: Replacements actually applied.
        mutations_rejected_fitness: Rejected because fitness(j) <= fitness(i).
        mutations_rejected_duplicate: Rejected because j was already in r.
        mutations_skipped_no_candidate: CM-C attempts with no same-category
            candidate in the pool (under the "skip" fallback).
        recipes_borrowed: Recipe steps whose mother came from another
            island (DESIGN.md §10); always 0 for single-population runs.
    """

    recipes_added: int = 0
    ingredients_added: int = 0
    mutations_attempted: int = 0
    mutations_accepted: int = 0
    mutations_rejected_fitness: int = 0
    mutations_rejected_duplicate: int = 0
    mutations_skipped_no_candidate: int = 0
    recipes_borrowed: int = 0


def _position_index(ingredient_ids: tuple[int, ...]) -> dict[int, int]:
    """The id → dense-position index shared by both representations."""
    return {
        int(ingredient_id): position
        for position, ingredient_id in enumerate(ingredient_ids)
    }


class EvolutionState:
    """Live state of one reference-engine Algorithm 1 run (id space)."""

    def __init__(
        self,
        spec: CuisineSpec,
        fitness: np.ndarray,
        rng: np.random.Generator,
        initial_pool_size: int,
        initial_recipes: int,
    ):
        if fitness.shape != (len(spec.ingredient_ids),):
            raise ModelError(
                f"fitness must align with the universe: {fitness.shape} vs "
                f"{len(spec.ingredient_ids)}"
            )
        m = min(initial_pool_size, len(spec.ingredient_ids))
        if m < 1:
            raise ModelError("initial pool must hold at least one ingredient")

        self.spec = spec
        self._rng = rng
        # Dense position-indexed value arrays; one id→position index
        # replaces the per-quantity dicts the state used to carry.
        self._position_of = _position_index(spec.ingredient_ids)
        self._fitness_list: list[float] = (
            np.asarray(fitness, dtype=np.float64).tolist()
        )
        self._category_codes: list[int] = [
            CATEGORY_CODES[category] for category in spec.categories
        ]

        # Step 2: I0 <- m random ingredients; I <- I - I0.
        universe = np.asarray(spec.ingredient_ids, dtype=np.int64)
        picked = rng.choice(universe.size, size=m, replace=False)
        mask = np.zeros(universe.size, dtype=bool)
        mask[picked] = True
        self._pool: list[int] = [int(i) for i in universe[mask]]
        self._pool_set: set[int] = set(self._pool)
        self._remaining: list[int] = [int(i) for i in universe[~mask]]
        # Contiguous pool-membership list per category code (append-only:
        # the pool never shrinks).
        self._pool_by_code: list[list[int]] = [
            [] for _ in CATEGORIES_BY_CODE
        ]
        for ingredient_id in self._pool:
            code = self._category_codes[self._position_of[ingredient_id]]
            self._pool_by_code[code].append(ingredient_id)

        # R0 <- n recipes of s̄ distinct pool ingredients each.
        size = min(spec.recipe_size, len(self._pool))
        self.recipes: list[list[int]] = []
        for _ in range(initial_recipes):
            rows = rng.choice(len(self._pool), size=size, replace=False)
            self.recipes.append([self._pool[int(row)] for row in rows])

        self.trace = EvolutionTraceCounters()

    # ------------------------------------------------------------------
    # Bookkeeping accessors
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Current ingredient pool size."""
        return len(self._pool)

    @property
    def n(self) -> int:
        """Current recipe pool size."""
        return len(self.recipes)

    @property
    def pool(self) -> tuple[int, ...]:
        return tuple(self._pool)

    @property
    def remaining_universe(self) -> tuple[int, ...]:
        return tuple(self._remaining)

    def pool_ratio(self) -> float:
        """∂ = m/n (Algorithm 1, line 8)."""
        return self.m / max(self.n, 1)

    def fitness_of(self, ingredient_id: int) -> float:
        try:
            return self._fitness_list[self._position_of[ingredient_id]]
        except KeyError:
            raise ModelError(
                f"ingredient {ingredient_id} is not in this cuisine's universe"
            ) from None

    def category_of(self, ingredient_id: int) -> Category:
        try:
            code = self._category_codes[self._position_of[ingredient_id]]
        except KeyError:
            raise ModelError(
                f"ingredient {ingredient_id} is not in this cuisine's universe"
            ) from None
        return CATEGORIES_BY_CODE[code]

    # ------------------------------------------------------------------
    # Algorithm steps
    # ------------------------------------------------------------------

    def in_universe(self, ingredient_id: int) -> bool:
        """Whether the ingredient belongs to this cuisine's universe."""
        return ingredient_id in self._position_of

    def in_pool(self, ingredient_id: int) -> bool:
        """Whether the ingredient is currently in the pool ``I₀``."""
        return ingredient_id in self._pool_set

    def can_grow_pool(self) -> bool:
        return bool(self._remaining)

    def grow_pool(self) -> int:
        """Lines 22-25: move a random universe ingredient into the pool."""
        if not self._remaining:
            raise ModelError("ingredient universe is exhausted")
        row = int(self._rng.integers(0, len(self._remaining)))
        # O(1) removal: swap with last, pop.
        ingredient_id = self._remaining[row]
        self._remaining[row] = self._remaining[-1]
        self._remaining.pop()
        self._pool.append(ingredient_id)
        self._pool_set.add(ingredient_id)
        code = self._category_codes[self._position_of[ingredient_id]]
        self._pool_by_code[code].append(ingredient_id)
        self.trace.ingredients_added += 1
        return ingredient_id

    def adopt_ingredient(self, ingredient_id: int) -> None:
        """Move a *specific* remaining ingredient into the pool.

        The directed counterpart of :meth:`grow_pool`, used by the
        island engine (DESIGN.md §10) when a borrowed recipe carries an
        ingredient this cuisine knows but has not pooled yet.  Counted
        in ``trace.ingredients_added`` so the m/n invariant Algorithm 1
        enforces (∂ vs φ) keeps holding under migration.
        """
        if ingredient_id in self._pool_set:
            raise ModelError(
                f"ingredient {ingredient_id} is already in the pool"
            )
        if ingredient_id not in self._position_of:
            raise ModelError(
                f"ingredient {ingredient_id} is not in this cuisine's universe"
            )
        row = self._remaining.index(ingredient_id)
        self._remaining[row] = self._remaining[-1]
        self._remaining.pop()
        self._pool.append(ingredient_id)
        self._pool_set.add(ingredient_id)
        code = self._category_codes[self._position_of[ingredient_id]]
        self._pool_by_code[code].append(ingredient_id)
        self.trace.ingredients_added += 1

    def random_recipe_index(self) -> int:
        return int(self._rng.integers(0, len(self.recipes)))

    def random_pool_ingredient(self) -> int:
        """Uniform draw from the pool (CM-R's j)."""
        return self._pool[int(self._rng.integers(0, len(self._pool)))]

    def random_pool_ingredient_of_category(
        self, category: Category
    ) -> int | None:
        """Uniform draw from pool ∩ category (CM-C's j); None if empty."""
        members = self._pool_by_code[CATEGORY_CODES[category]]
        if not members:
            return None
        return members[int(self._rng.integers(0, len(members)))]

    def add_recipe(self, recipe: list[int]) -> None:
        """Line 19: append a mutated copy to the recipe pool."""
        if not recipe:
            raise ModelError("cannot add an empty recipe")
        self.recipes.append(recipe)
        self.trace.recipes_added += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def transactions(self) -> list[frozenset[int]]:
        """Recipe pool as itemset transactions (mining input)."""
        return [frozenset(recipe) for recipe in self.recipes]


class ArrayEvolutionState:
    """Dense position-indexed state for the vectorized engine.

    All quantities are integer *positions* into ``spec.ingredient_ids``;
    ids only reappear when :meth:`transactions` converts the finished
    recipe pool.  Containers are kept as plain Python lists of machine
    ints — the vectorized engine batches its RNG draws into numpy calls
    but applies them through scalar bookkeeping, and list indexing beats
    per-element ndarray access there.

    Args:
        spec: Cuisine inputs.
        fitness: Fitness per position (aligned with
            ``spec.ingredient_ids``).
        rng: Generator used for the one-time initialization draws (the
            main loop consumes a block-buffered uniform stream instead;
            see :class:`repro.models.vectorized.UniformBuffer`).
        initial_pool_size: ``m`` before capping at the universe size.
        initial_recipes: ``n₀``.
    """

    __slots__ = (
        "spec",
        "fitness",
        "category_codes",
        "pool",
        "remaining",
        "pool_by_code",
        "recipes",
        "trace",
        "_plane_lengths",
        "_plane_flat",
        "_plane_rows",
        "_plane_used",
    )

    def __init__(
        self,
        spec: CuisineSpec,
        fitness: np.ndarray,
        rng: np.random.Generator,
        initial_pool_size: int,
        initial_recipes: int,
    ):
        if fitness.shape != (len(spec.ingredient_ids),):
            raise ModelError(
                f"fitness must align with the universe: {fitness.shape} vs "
                f"{len(spec.ingredient_ids)}"
            )
        universe_size = len(spec.ingredient_ids)
        m = min(initial_pool_size, universe_size)
        if m < 1:
            raise ModelError("initial pool must hold at least one ingredient")

        self.spec = spec
        #: Fitness by position, as Python floats (hot-loop lookups).
        self.fitness: list[float] = (
            np.asarray(fitness, dtype=np.float64).tolist()
        )
        #: Category code by position (see :data:`CATEGORY_CODES`).
        self.category_codes: list[int] = [
            CATEGORY_CODES[category] for category in spec.categories
        ]

        # Step 2: I0 <- m random positions; I <- I - I0.  Same draw shape
        # as the reference state (one `choice` without replacement).
        picked = rng.choice(universe_size, size=m, replace=False)
        mask = np.zeros(universe_size, dtype=bool)
        mask[picked] = True
        #: Pool positions, in insertion order (append-only).
        self.pool: list[int] = np.nonzero(mask)[0].tolist()
        #: Remaining universe positions; shrinks by O(1) swap-moves.
        self.remaining: list[int] = np.nonzero(~mask)[0].tolist()
        #: Contiguous pool positions per category code (append-only).
        self.pool_by_code: list[list[int]] = [[] for _ in CATEGORIES_BY_CODE]
        category_codes = self.category_codes
        for position in self.pool:
            self.pool_by_code[category_codes[position]].append(position)

        # R0 <- n recipes of s̄ distinct pool positions each.
        size = min(spec.recipe_size, len(self.pool))
        pool = self.pool
        self.recipes: list[list[int]] = [
            [pool[int(row)] for row in rng.choice(len(pool), size=size,
                                                  replace=False)]
            for _ in range(initial_recipes)
        ]
        self.trace = EvolutionTraceCounters()
        # Recipe CSR planes for checkpoint capture (see export_state):
        # rows [0, _plane_rows) and positions [0, _plane_used) are
        # already converted.
        self._plane_lengths = np.empty(0, dtype=np.int32)
        self._plane_flat = np.empty(0, dtype=np.int32)
        self._plane_rows = 0
        self._plane_used = 0

    @property
    def m(self) -> int:
        """Current ingredient pool size."""
        return len(self.pool)

    @property
    def n(self) -> int:
        """Current recipe pool size."""
        return len(self.recipes)

    def can_grow_pool(self) -> bool:
        """Whether the remaining universe is non-empty."""
        return bool(self.remaining)

    def grow_pool(self, u: float) -> int:
        """Move the ``⌊u·|remaining|⌋``-th remaining position into the pool.

        ``u`` is a uniform [0, 1) variate from the engine's buffered
        stream; the swap-move keeps the remaining list contiguous in
        O(1).
        """
        remaining = self.remaining
        if not remaining:
            raise ModelError("ingredient universe is exhausted")
        row = int(u * len(remaining))
        position = remaining[row]
        remaining[row] = remaining[-1]
        remaining.pop()
        self.pool.append(position)
        self.pool_by_code[self.category_codes[position]].append(position)
        self.trace.ingredients_added += 1
        return position

    def transactions(self) -> list[frozenset[int]]:
        """Recipe pool as id-space itemset transactions (mining input)."""
        id_of = list(self.spec.ingredient_ids).__getitem__
        return [
            frozenset(map(id_of, recipe)) for recipe in self.recipes
        ]

    # ------------------------------------------------------------------
    # Checkpointing (DESIGN.md §9)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """A picklable snapshot of the mutable state, sharing live data.

        Everything :meth:`restore` needs that is not derivable from the
        spec.  Nothing is copied: the containers are the live ones, and
        the caller must pickle the payload before the engine takes its
        next step (the checkpointer does, synchronously).  Recipes
        travel as CSR planes — ``recipe_lengths`` and the concatenated
        ``recipe_flat`` positions, both int32 — built incrementally:
        recipes are append-only and never change once appended, so each
        call converts only the rows appended since the previous one.
        The planes are views into growing buffers, valid until the next
        call.  ``category_codes`` is deliberately absent — it is a pure
        function of the spec and is recomputed on restore.
        """
        recipes = self.recipes
        rows = self._plane_rows
        if len(recipes) > rows:
            fresh = recipes[rows:]
            lengths = np.fromiter(
                map(len, fresh), dtype=np.int32, count=len(fresh)
            )
            used = self._plane_used
            end = used + int(lengths.sum())
            self._plane_lengths = _grown(self._plane_lengths, len(recipes))
            self._plane_flat = _grown(self._plane_flat, end)
            self._plane_lengths[rows : len(recipes)] = lengths
            self._plane_flat[used:end] = np.fromiter(
                itertools.chain.from_iterable(fresh),
                dtype=np.int32,
                count=end - used,
            )
            self._plane_rows = len(recipes)
            self._plane_used = end
        return {
            "fitness": self.fitness,
            "pool": self.pool,
            "remaining": self.remaining,
            "pool_by_code": self.pool_by_code,
            "recipe_lengths": self._plane_lengths[: self._plane_rows],
            "recipe_flat": self._plane_flat[: self._plane_used],
            "trace": dataclasses.asdict(self.trace),
        }

    @classmethod
    def restore(cls, spec: CuisineSpec, payload: dict) -> "ArrayEvolutionState":
        """Rebuild a state from :meth:`export_state` output.

        Bypasses ``__init__`` entirely — the constructor consumes RNG
        draws (the pool/recipe ``choice`` sequence), and a resumed run
        must consume *no* draws the uninterrupted run would not.  The
        recipe planes are kept as the incremental-capture buffers, so
        the next snapshot converts only rows appended after the resume.
        """
        state = object.__new__(cls)
        state.spec = spec
        state.fitness = list(payload["fitness"])
        state.category_codes = [
            CATEGORY_CODES[category] for category in spec.categories
        ]
        state.pool = list(payload["pool"])
        state.remaining = list(payload["remaining"])
        state.pool_by_code = [
            list(members) for members in payload["pool_by_code"]
        ]
        lengths = np.array(payload["recipe_lengths"], dtype=np.int32)
        flat = np.array(payload["recipe_flat"], dtype=np.int32)
        positions = flat.tolist()
        ends = np.cumsum(lengths).tolist()
        state.recipes = [
            positions[end - length : end]
            for end, length in zip(ends, lengths.tolist())
        ]
        state._plane_lengths = lengths
        state._plane_flat = flat
        state._plane_rows = len(lengths)
        state._plane_used = len(flat)
        state.trace = EvolutionTraceCounters(**payload["trace"])
        return state


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """``array`` if it holds ``needed`` items, else a doubled copy."""
    if needed <= len(array):
        return array
    grown = np.empty(max(needed, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown
