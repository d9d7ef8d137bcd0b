"""The vectorized Algorithm 1 engine (``engine="vectorized"``).

The reference engine executes one scalar ``Generator`` round-trip per
random decision — the mother draw, every victim position, every
replacement candidate, every mixture coin — which makes per-draw numpy
call overhead the dominant cost of a run.  This engine removes that
overhead without changing the model dynamics:

* state lives in :class:`~repro.models.state.ArrayEvolutionState` —
  dense integer positions, array-backed fitness/category, contiguous
  per-category pool membership;
* all randomness is consumed as uniform [0, 1) variates from one
  block-buffered stream (:class:`UniformBuffer`), so a recipe step costs
  a single batched RNG call covering the mother draw plus all ``M``
  victim/candidate/coin draws, instead of ``2M+1`` scalar calls;
* integer draws are derived as ``⌊u·k⌋``, which lets one float batch
  serve draws over ranges that only become known mid-step (the victim's
  category size, the shrinking remaining-universe size).

Mutations within a step still apply **sequentially** — each sees the
recipe as left by the previous one, exactly like the reference loop — so
the accept/reject dynamics are identical; only the RNG *stream order*
differs.  That stream order is a versioned contract
(:data:`VECTORIZED_STREAM_VERSION`, part of the run-cache key): for a
fixed seed the engine is bit-identical across serial/thread/process
backends and across machines, and distribution-level equivalence with
the reference engine is asserted in
``tests/models/test_engine_equivalence.py``.  See DESIGN.md §5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError
from repro.models.state import ArrayEvolutionState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import CulinaryEvolutionModel, EvolutionRun
    from repro.models.params import CuisineSpec

__all__ = [
    "UniformBuffer",
    "VECTORIZED_STREAM_VERSION",
    "redraw_block",
    "run_vectorized",
]

#: Version of the vectorized engine's RNG-stream contract.  Bump whenever
#: the order, count, or interpretation of consumed variates changes —
#: cached runs then key differently instead of replaying a stale stream.
VECTORIZED_STREAM_VERSION = 1

#: Uniform variates drawn per buffer refill.  Part of the stream
#: contract: refills discard any unconsumed tail, so changing the block
#: size changes the stream (bump :data:`VECTORIZED_STREAM_VERSION`).
BLOCK_SIZE = 16384


def redraw_block(
    rng: np.random.Generator, origin: dict, size: int
) -> np.ndarray:
    """The ``size``-float block a refill drew from generator state ``origin``.

    Leaves ``rng`` in the state it had before the call: snapshots
    restore the generator's own state separately (DESIGN.md §9).
    """
    resume_state = rng.bit_generator.state
    rng.bit_generator.state = origin
    block = rng.random(size)
    rng.bit_generator.state = resume_state
    return block


class UniformBuffer:
    """Block-buffered uniform [0, 1) stream over one ``Generator``.

    Serves scalar and small-vector draws from large pre-drawn blocks so
    the per-draw cost is a slice, not a ``Generator`` call.  Refills
    drop the unconsumed tail of the previous block (deterministically —
    the consumption pattern is fixed by the engine), and requests of at
    least a full block bypass the buffer.

    Each refill first records the generator state it draws from (the
    block's *origin*), so a snapshot can name the block instead of
    carrying its :data:`BLOCK_SIZE` floats (DESIGN.md §9).
    """

    __slots__ = ("_rng", "_buf", "_index", "_size", "_origin")

    def __init__(self, rng: np.random.Generator, block: int = BLOCK_SIZE):
        self._rng = rng
        self._size = block
        self._origin = rng.bit_generator.state
        self._buf = rng.random(block)
        self._index = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` variates as an ndarray view."""
        index = self._index
        end = index + count
        if end > self._size:
            if count >= self._size:
                return self._rng.random(count)
            self._origin = self._rng.bit_generator.state
            self._buf = self._rng.random(self._size)
            index, end = 0, count
        self._index = end
        return self._buf[index:end]

    def one(self) -> float:
        """The next single variate as a Python float."""
        index = self._index
        if index >= self._size:
            self._origin = self._rng.bit_generator.state
            self._buf = self._rng.random(self._size)
            index = 0
        self._index = index + 1
        return float(self._buf[index])

    def export_state(self) -> dict:
        """Picklable snapshot: the current block's origin and the cursor.

        The block itself is not included — :meth:`restore` redraws it
        from ``origin``, the generator state recorded just before the
        block was drawn.  The generator's *current* state is not
        included either: the checkpoint layer snapshots
        ``rng.bit_generator.state`` separately, because the generator
        also serves full-block bypass draws outside the buffer
        (DESIGN.md §9).
        """
        return {
            "origin": self._origin,
            "index": self._index,
            "size": self._size,
        }

    @classmethod
    def restore(
        cls, rng: np.random.Generator, payload: dict
    ) -> "UniformBuffer":
        """Rebuild a buffer from :meth:`export_state` output.

        ``rng`` must already hold the generator state captured with the
        snapshot.  The block is redrawn from its recorded origin, and
        the generator is then put back to that captured state, so the
        restored buffer resumes the snapshot's block and cursor with the
        generator exactly where the snapshot left it.  Bypasses
        ``__init__``, which would draw a fresh first block.
        """
        buffer = object.__new__(cls)
        buffer._rng = rng
        buffer._size = int(payload["size"])
        buffer._origin = payload["origin"]
        buffer._index = int(payload["index"])
        buffer._buf = redraw_block(rng, buffer._origin, buffer._size)
        return buffer


def run_vectorized(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    rng: np.random.Generator,
    record_history: bool = False,
    checkpointer: "object | None" = None,
) -> "EvolutionRun":
    """Execute one Algorithm 1 run with batched draws.

    Drives :class:`~repro.models.state.ArrayEvolutionState` through the
    ∂-vs-φ alternation with the recipe step selected by the model's
    ``vectorized_kind`` (``"pool"``/``"category"``/``"mixture"`` for the
    copy-mutate family, ``"null"`` for NM).

    Args:
        model: A model whose class declares ``vectorized_kind``.
        spec: Cuisine inputs.
        rng: The run's generator (initialization draws use it directly;
            the main loop consumes it through a :class:`UniformBuffer`).
        record_history: Also record the ``(m, n)`` trajectory.
        checkpointer: Optional :class:`~repro.runtime.checkpoint.
            RunCheckpointer`.  A *step* is one loop iteration (one pool
            growth, one recipe, or one whole NM batch); after each, the
            checkpointer may snapshot the complete mid-run state —
            generator, buffer origin + cursor, state containers,
            counters, history — and a later call that finds a snapshot
            resumes from it bit-identically (DESIGN.md §9).

    Raises:
        ModelError: If the model class does not support the vectorized
            engine (``vectorized_kind`` unset).
    """
    from repro.models.base import EvolutionRun

    kind = type(model).__dict__.get("vectorized_kind")
    if kind is None:
        raise ModelError(
            f"model {type(model).__qualname__} does not support the "
            "vectorized engine; run it with engine='reference'"
        )
    params = model.params
    snapshot = checkpointer.load() if checkpointer is not None else None
    if snapshot is None:
        fitness_values = np.asarray(
            model.fitness.assign(spec.ingredient_ids, rng), dtype=np.float64
        )
        n0 = min(params.derive_initial_recipes(spec.phi), spec.n_recipes)
        state = ArrayEvolutionState(
            spec=spec,
            fitness=fitness_values,
            rng=rng,
            initial_pool_size=params.initial_pool_size,
            initial_recipes=n0,
        )
        buffer = UniformBuffer(rng)
    else:
        # Resume: every draw the fresh path would have consumed by this
        # step is encoded in the restored generator + buffer cursor, so
        # the continuation replays the uninterrupted stream exactly.
        rng.bit_generator.state = snapshot["rng_state"]
        n0 = snapshot["n0"]
        state = ArrayEvolutionState.restore(spec, snapshot["state"])
        buffer = UniformBuffer.restore(rng, snapshot["buffer"])

    # Hot-loop locals (attribute lookups pulled out of the loop).
    take = buffer.take
    one = buffer.one
    pool = state.pool
    remaining = state.remaining
    recipes = state.recipes
    fitness = state.fitness
    category_codes = state.category_codes
    pool_by_code = state.pool_by_code
    grow_pool = state.grow_pool

    phi = spec.phi
    target = spec.n_recipes
    mutations = params.mutations
    skip_duplicates = params.duplicate_policy == "skip"
    fallback_random = params.category_fallback == "random"
    mixture_p = params.mixture_category_probability
    null_from_pool = getattr(model, "sample_from", "pool") == "pool"
    universe_size = len(spec.ingredient_ids)
    recipe_size = spec.recipe_size

    # Per-step draw layout for the copy-mutate kinds:
    #   [mother, M victim positions, M candidate selectors, (M coins)]
    category_mode = kind == "category"
    mixture_mode = kind == "mixture"
    null_mode = kind == "null"
    draws_per_step = 1 + (3 if mixture_mode else 2) * mutations

    if snapshot is None:
        m = len(pool)
        n = len(recipes)
        attempted = accepted = 0
        rejected_fitness = rejected_duplicate = skipped_no_candidate = 0
        step = 0
        history: list[tuple[int, int]] | None = (
            [(m, n)] if record_history else None
        )
    else:
        m = snapshot["m"]
        n = snapshot["n"]
        attempted = snapshot["attempted"]
        accepted = snapshot["accepted"]
        rejected_fitness = snapshot["rejected_fitness"]
        rejected_duplicate = snapshot["rejected_duplicate"]
        skipped_no_candidate = snapshot["skipped_no_candidate"]
        step = snapshot["step"]
        history = (
            list(snapshot["history"]) if record_history else None
        )

    if checkpointer is not None:
        def _capture() -> dict:
            # Pure reads of live locals/state — consumes no RNG, so a
            # snapshotted step's stream position equals the
            # uninterrupted run's (the bit-identity requirement).  The
            # payload shares live containers: the checkpointer pickles
            # it before the loop moves on.
            return {
                "engine": "vectorized",
                "step": step,
                "rng_state": rng.bit_generator.state,
                "buffer": buffer.export_state(),
                "state": state.export_state(),
                "m": m,
                "n": n,
                "n0": n0,
                "attempted": attempted,
                "accepted": accepted,
                "rejected_fitness": rejected_fitness,
                "rejected_duplicate": rejected_duplicate,
                "skipped_no_candidate": skipped_no_candidate,
                "history": history,
            }

    while n < target:
        # The branch predicate must be the exact float expression of the
        # reference loop (∂ = m/n >= φ), so both engines walk the same
        # deterministic (m, n) trajectory.
        if m / n < phi and remaining:
            grow_pool(one())
            m += 1
        elif null_mode:
            # NM: fresh recipes of distinct uniform draws.  The pool is
            # frozen until ∂ next drops below φ, so every recipe step
            # until then comes out of one batched draw: rejection-sample
            # whole rows at once (exactly uniform over distinct index
            # sets, conditional on acceptance) and repair the few rows
            # with within-row collisions by Floyd's sampling.
            if remaining:
                cap = int(m / phi)
                while m / (cap + 1) >= phi:
                    cap += 1
                while cap > n and m / cap < phi:
                    cap -= 1
                steps = min(max(cap - n + 1, 1), target - n)
            else:
                steps = target - n
            count = m if null_from_pool else universe_size
            size = recipe_size if recipe_size <= count else count
            first_upper = count - size
            index_matrix = (
                np.multiply(take(steps * size), count)
                .astype(np.intp)
                .reshape(steps, size)
            )
            if size > 1:
                ordered = np.sort(index_matrix, axis=1)
                collided = np.nonzero(
                    (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
                )[0]
                for row_index in collided.tolist():
                    u = take(size).tolist()
                    chosen: list[int] = []
                    draw = 0
                    for upper in range(first_upper, count):
                        index = int(u[draw] * (upper + 1))
                        draw += 1
                        if index in chosen:
                            index = upper
                        chosen.append(index)
                    index_matrix[row_index] = chosen
            if null_from_pool:
                rows = np.asarray(pool, dtype=np.intp)[index_matrix]
            else:
                rows = index_matrix
            recipes.extend(rows.tolist())
            if history is not None:
                history.extend(
                    (m, past) for past in range(n + 1, n + steps + 1)
                )
            n += steps
            step += 1
            if checkpointer is not None:
                checkpointer.after_step(step, _capture)
            continue
        else:
            u = take(draws_per_step).tolist()
            mother = recipes[int(u[0] * n)]
            row = mother.copy()
            length = len(row)
            for g in range(mutations):
                attempted += 1
                position = int(u[1 + g] * length)
                victim = row[position]
                selector = u[1 + mutations + g]
                if category_mode or (
                    mixture_mode and u[1 + 2 * mutations + g] < mixture_p
                ):
                    members = pool_by_code[category_codes[victim]]
                    count = len(members)
                    if count == 0:
                        if not fallback_random:
                            skipped_no_candidate += 1
                            continue
                        candidate = pool[int(selector * m)]
                    else:
                        candidate = members[int(selector * count)]
                else:
                    candidate = pool[int(selector * m)]
                if candidate == victim:
                    rejected_duplicate += 1
                    continue
                if fitness[candidate] <= fitness[victim]:
                    rejected_fitness += 1
                    continue
                if candidate in row:
                    if skip_duplicates:
                        rejected_duplicate += 1
                        continue
                    # "allow": the duplicate collapses when the recipe
                    # is treated as a set, shrinking it by one.
                row[position] = candidate
                accepted += 1
            recipes.append(row)
            n += 1
        if history is not None:
            history.append((m, n))
        step += 1
        if checkpointer is not None:
            checkpointer.after_step(step, _capture)

    trace = state.trace
    trace.recipes_added = n - n0
    trace.mutations_attempted = attempted
    trace.mutations_accepted = accepted
    trace.mutations_rejected_fitness = rejected_fitness
    trace.mutations_rejected_duplicate = rejected_duplicate
    trace.mutations_skipped_no_candidate = skipped_no_candidate
    return EvolutionRun(
        model_name=model.name,
        region_code=spec.region_code,
        transactions=state.transactions(),
        final_pool_size=m,
        initial_recipes=n0,
        trace=trace,
        history=tuple(history) if history is not None else None,
    )
