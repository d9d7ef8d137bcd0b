"""Reference-vs-vectorized engine equivalence (DESIGN.md §5).

The two engines consume the RNG stream in different orders, so their
runs are not bit-identical for a given seed.  The contract tested here
instead has three layers:

1. **Deterministic structure is exactly equal.**  The (m, n) trajectory
   of the ∂-vs-φ alternation is a pure function of
   (m₀, n₀, φ, N, |I|), independent of any random draw — so both
   engines must produce *identical* histories, final pool sizes, and
   deterministic trace counters (recipes/ingredients added, mutation
   attempts) run by run.
2. **Stochastic behaviour is distributionally equivalent.**  Acceptance
   and rejection rates, final recipe compositions (ingredient-frequency
   curves), and recipe-size profiles agree within ensemble tolerance
   across all four models, both duplicate policies, and both category
   fallbacks.
3. **The vectorized engine is itself exactly deterministic** — fixed
   seed → bit-identical runs, across serial/thread/process backends.
4. **The batched engine is bit-identical to vectorized** (DESIGN.md
   §7): stacking runs never changes any individual run — transactions,
   trace, and history match exactly, for every batchable model, at any
   batch size or composition.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.lexicon.categories import Category
from repro.models.batched import run_batched
from repro.models.null_model import NullModel
from repro.models.params import CuisineSpec, ModelParams
from repro.models.registry import PAPER_MODELS, create_model
from repro.rng import ensure_rng, rng_from_seed, spawn_seeds
from repro.runtime import RuntimeConfig, execute_runs

N_SEEDS = 12


def _spec(n_ingredients=40, n_recipes=150, avg_size=6.0, phi=None):
    categories = list(Category)[:4]
    return CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(n_ingredients)),
        categories=tuple(categories[i % 4] for i in range(n_ingredients)),
        avg_recipe_size=avg_size,
        n_recipes=n_recipes,
        phi=phi if phi is not None else n_ingredients / n_recipes,
    )


def _pair(name, seed, spec, record_history=False, **kwargs):
    reference = create_model(name, engine="reference", **kwargs).run(
        spec, seed=seed, record_history=record_history
    )
    vectorized = create_model(name, engine="vectorized", **kwargs).run(
        spec, seed=seed, record_history=record_history
    )
    return reference, vectorized


def _ingredient_frequencies(runs) -> np.ndarray:
    """Mean per-ingredient usage frequency over an ensemble of runs."""
    counts: Counter[int] = Counter()
    total = 0
    for run in runs:
        for transaction in run.transactions:
            counts.update(transaction)
            total += len(transaction)
    universe = max(counts) + 1 if counts else 0
    freq = np.zeros(universe)
    for ingredient, count in counts.items():
        freq[ingredient] = count / total
    return freq


# ----------------------------------------------------------------------
# Layer 1: deterministic structure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_trajectories_identical(name):
    """(m, n) histories and final pool sizes match run for run."""
    spec = _spec()
    for seed in range(N_SEEDS):
        reference, vectorized = _pair(name, seed, spec, record_history=True)
        assert reference.history == vectorized.history
        assert reference.final_pool_size == vectorized.final_pool_size
        assert reference.initial_recipes == vectorized.initial_recipes
        assert reference.n_recipes == vectorized.n_recipes


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_deterministic_counters_identical(name):
    """Counters fixed by the trajectory (not by draws) match exactly."""
    spec = _spec()
    for seed in range(N_SEEDS):
        reference, vectorized = _pair(name, seed, spec)
        assert (
            reference.trace.recipes_added == vectorized.trace.recipes_added
        )
        assert (
            reference.trace.ingredients_added
            == vectorized.trace.ingredients_added
        )
        assert (
            reference.trace.mutations_attempted
            == vectorized.trace.mutations_attempted
        )


def test_exhausted_universe_trajectory():
    """Tiny universe: pool exhausts mid-run; trajectories still match."""
    spec = _spec(n_ingredients=6, n_recipes=80, avg_size=3.0, phi=0.5)
    for name in PAPER_MODELS:
        reference, vectorized = _pair(name, 3, spec, record_history=True)
        assert reference.history == vectorized.history
        assert reference.final_pool_size == spec.n_ingredients


# ----------------------------------------------------------------------
# Layer 2: distributional equivalence
# ----------------------------------------------------------------------


def _ensemble(name, spec, engine, n=N_SEEDS, **kwargs):
    model = create_model(name, engine=engine, **kwargs)
    return [model.run(spec, seed=1000 + seed) for seed in range(n)]


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_acceptance_rates_close(name):
    """Mean mutation acceptance rates agree within ensemble tolerance."""
    spec = _spec()
    rates = {}
    for engine in ("reference", "vectorized"):
        runs = _ensemble(name, spec, engine)
        attempted = sum(run.trace.mutations_attempted for run in runs)
        accepted = sum(run.trace.mutations_accepted for run in runs)
        rates[engine] = accepted / attempted if attempted else 0.0
    if name == "NM":
        assert rates["reference"] == rates["vectorized"] == 0.0
    else:
        assert rates["reference"] > 0
        assert rates["vectorized"] == pytest.approx(
            rates["reference"], rel=0.15
        )


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_ingredient_frequency_curves_close(name):
    """Mean per-ingredient usage distributions agree (MAE tolerance)."""
    spec = _spec()
    reference = _ingredient_frequencies(_ensemble(name, spec, "reference"))
    vectorized = _ingredient_frequencies(_ensemble(name, spec, "vectorized"))
    size = max(reference.size, vectorized.size)
    reference = np.pad(reference, (0, size - reference.size))
    vectorized = np.pad(vectorized, (0, size - vectorized.size))
    # Mean frequency is 1/40 = 0.025; a 0.004 MAE bound keeps the two
    # ensembles statistically indistinguishable at this size.
    assert float(np.abs(reference - vectorized).mean()) < 0.004


@pytest.mark.parametrize("policy", ["skip", "allow"])
def test_duplicate_policies_equivalent(policy):
    """Recipe-size profiles match under both duplicate policies."""
    spec = _spec(n_ingredients=24, n_recipes=300, avg_size=6.0)
    params = ModelParams(mutations=8, duplicate_policy=policy)
    sizes = {}
    for engine in ("reference", "vectorized"):
        runs = _ensemble("CM-R", spec, engine, params=params)
        sizes[engine] = Counter(
            len(transaction) for run in runs for transaction in run.transactions
        )
    if policy == "skip":
        assert set(sizes["reference"]) == set(sizes["vectorized"]) == {6}
    else:
        # Both engines must produce shrunken recipes at a similar rate.
        def shrink_rate(counter):
            total = sum(counter.values())
            return sum(v for k, v in counter.items() if k < 6) / total

        assert shrink_rate(sizes["reference"]) > 0
        assert shrink_rate(sizes["vectorized"]) == pytest.approx(
            shrink_rate(sizes["reference"]), rel=0.3
        )


@pytest.mark.parametrize("fallback", ["skip", "random"])
@pytest.mark.parametrize("name", ["CM-C", "CM-M"])
def test_category_fallbacks_equivalent(name, fallback):
    """Skip/random category fallbacks behave alike on a sparse universe.

    A 6-ingredient universe with 4 categories makes empty pool∩category
    draws common, exercising the fallback on both engines.
    """
    spec = _spec(n_ingredients=6, n_recipes=120, avg_size=3.0, phi=0.3)
    params = ModelParams(mutations=6, category_fallback=fallback)
    skipped = {}
    for engine in ("reference", "vectorized"):
        runs = _ensemble(name, spec, engine, params=params)
        attempted = sum(run.trace.mutations_attempted for run in runs)
        skipped[engine] = (
            sum(run.trace.mutations_skipped_no_candidate for run in runs)
            / attempted
        )
    if fallback == "random":
        assert skipped["reference"] == skipped["vectorized"] == 0.0
    else:
        assert skipped["vectorized"] == pytest.approx(
            skipped["reference"], abs=0.05
        )


def test_cm_c_category_preservation_vectorized():
    """CM-C's category-multiset invariant holds on the vectorized engine."""
    spec = _spec(n_ingredients=40, n_recipes=200, avg_size=6.0)
    run = create_model("CM-C", engine="vectorized").run(spec, seed=6)

    def category_vector(transaction):
        counts = [0, 0, 0, 0]
        for ingredient_id in transaction:
            counts[ingredient_id % 4] += 1
        return tuple(counts)

    vectors = {category_vector(t) for t in run.transactions}
    initial = {
        category_vector(t)
        for t in run.transactions[: run.initial_recipes]
    }
    assert vectors == initial


@pytest.mark.parametrize("sample_from", ["pool", "universe"])
def test_null_model_sampling_modes_equivalent(sample_from):
    """NM recipes stay distinct, correctly sized, in-universe, per mode."""
    spec = _spec(n_ingredients=30, n_recipes=150, avg_size=5.0)
    reference = NullModel(sample_from=sample_from, engine="reference").run(
        spec, seed=2, record_history=True
    )
    vectorized = NullModel(sample_from=sample_from, engine="vectorized").run(
        spec, seed=2, record_history=True
    )
    assert reference.history == vectorized.history
    universe = set(spec.ingredient_ids)
    for run in (reference, vectorized):
        assert all(len(t) == spec.recipe_size for t in run.transactions)
        assert all(t <= universe for t in run.transactions)
    # Pool-mode recipes drawn before the pool finished growing can only
    # use pool members; compare how tightly early recipes concentrate.
    if sample_from == "pool":
        early_ref = set().union(*reference.transactions[:20])
        early_vec = set().union(*vectorized.transactions[:20])
        assert len(early_ref) < spec.n_ingredients
        assert len(early_vec) < spec.n_ingredients


# ----------------------------------------------------------------------
# Layer 3: vectorized determinism across backends
# ----------------------------------------------------------------------


def test_vectorized_deterministic_per_seed():
    """Same seed → bit-identical vectorized runs, every model."""
    spec = _spec()
    for name in PAPER_MODELS:
        model = create_model(name, engine="vectorized")
        first = model.run(spec, seed=42, record_history=True)
        second = model.run(spec, seed=42, record_history=True)
        assert first.transactions == second.transactions
        assert first.trace == second.trace
        assert first.history == second.history


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_vectorized_bit_identical_across_backends(backend):
    """Serial vs parallel backends agree bit-for-bit (vectorized)."""
    spec = _spec(n_ingredients=30, n_recipes=40, avg_size=4.0, phi=0.6)
    model = create_model("CM-M", engine="vectorized")
    seeds = spawn_seeds(ensure_rng(5), 4)
    serial = execute_runs(model, spec, seeds)
    parallel = execute_runs(
        model, spec, seeds,
        runtime=RuntimeConfig(backend=backend, jobs=2),
    )
    assert [run.transactions for run in serial] == [
        run.transactions for run in parallel
    ]
    assert [run.trace for run in serial] == [run.trace for run in parallel]


def test_engine_override_beats_params():
    """run(engine=...) overrides params.engine, and resolves correctly."""
    spec = _spec(n_recipes=60)
    model = create_model("CM-R", engine="reference")
    assert model.resolve_engine() == "reference"
    assert model.resolve_engine("vectorized") == "vectorized"
    override = model.run(spec, seed=1, engine="vectorized")
    vectorized = create_model("CM-R", engine="vectorized").run(spec, seed=1)
    assert override.transactions == vectorized.transactions


def test_unsupported_model_falls_back_to_reference():
    """A model with no vectorized step degrades all the way down."""
    from repro.models.base import CopyMutateBase

    class NoKind(CopyMutateBase):
        name = "TST-NOKIND"

        def _recipe_step(self, state, rng):  # pragma: no cover - unused
            raise NotImplementedError

        def _choose_replacement(self, state, victim, rng):
            return None  # pragma: no cover - unused

    model = NoKind(engine="vectorized")
    assert model.resolve_engine() == "reference"
    assert model.resolve_engine("batched") == "reference"


# ----------------------------------------------------------------------
# Layer 4: batched engine bit-identity (DESIGN.md §7)
# ----------------------------------------------------------------------


def _assert_runs_identical(batched, vectorized):
    assert batched.transactions == vectorized.transactions
    assert vectorized.transactions == batched.transactions
    assert batched.trace == vectorized.trace
    assert batched.history == vectorized.history
    assert batched.final_pool_size == vectorized.final_pool_size
    assert batched.initial_recipes == vectorized.initial_recipes


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_batched_bit_identical_to_vectorized(name):
    """Whole-batch results equal per-run vectorized results exactly."""
    spec = _spec()
    model = create_model(name, engine="vectorized")
    seeds = list(range(N_SEEDS))
    batched = run_batched(
        model, spec, [rng_from_seed(seed) for seed in seeds],
        record_history=True,
    )
    for seed, batched_run in zip(seeds, batched):
        vectorized = model.run(spec, seed=seed, record_history=True)
        _assert_runs_identical(batched_run, vectorized)


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_batched_vs_reference_deterministic_structure(name):
    """Batched runs share the reference engine's exact (m, n) structure."""
    spec = _spec()
    model = create_model(name)
    seeds = [5, 6, 7]
    batched = run_batched(
        model, spec, [rng_from_seed(seed) for seed in seeds],
        record_history=True,
    )
    for seed, batched_run in zip(seeds, batched):
        reference = model.run(
            spec, seed=seed, engine="reference", record_history=True
        )
        assert batched_run.history == reference.history
        assert batched_run.final_pool_size == reference.final_pool_size
        assert (
            batched_run.trace.mutations_attempted
            == reference.trace.mutations_attempted
        )


def test_batched_independent_of_batch_composition():
    """A run's result never depends on which runs share its batch."""
    spec = _spec()
    model = create_model("CM-C")
    alone = run_batched(model, spec, [rng_from_seed(3)])[0]
    grouped = run_batched(
        model, spec, [rng_from_seed(seed) for seed in (1, 3, 8, 21)]
    )[1]
    assert alone.transactions == grouped.transactions
    assert alone.trace == grouped.trace


def test_batched_engine_override_resolution():
    """engine="batched" resolves per model class, and run() honors it."""
    spec = _spec(n_recipes=60)
    for name in PAPER_MODELS:
        model = create_model(name)
        assert model.resolve_engine("batched") == "batched"
        via_run = model.run(spec, seed=2, engine="batched")
        vectorized = model.run(spec, seed=2, engine="vectorized")
        _assert_runs_identical(via_run, vectorized)


def test_batched_non_uniform_recipe_lengths():
    """Short rows must truncate per row, not pad to the widest one.

    Two ways rows fall short of the batch's row width: NM recipes drawn
    while the pool is still smaller than s̄, and CM-R recipes shrunk by
    duplicate collapse under ``duplicate_policy="allow"``.
    """
    spec = _spec(n_ingredients=30, n_recipes=120, avg_size=8.0, phi=0.4)
    cases = [
        ("NM", ModelParams(initial_pool_size=5)),
        ("CM-R", ModelParams(mutations=8, duplicate_policy="allow")),
    ]
    for name, params in cases:
        model = create_model(name, params=params)
        batched = run_batched(model, spec, [rng_from_seed(11)])[0]
        vectorized = model.run(spec, seed=11, engine="vectorized")
        lengths = {len(t) for t in batched.transactions}
        assert len(lengths) > 1, f"{name} did not produce mixed lengths"
        assert batched.transactions == vectorized.transactions


def test_batched_deterministic_per_seed():
    """Same generator seeds → bit-identical batched results."""
    spec = _spec()
    model = create_model("CM-M")
    first = run_batched(model, spec, [rng_from_seed(s) for s in (1, 2)])
    second = run_batched(model, spec, [rng_from_seed(s) for s in (1, 2)])
    for a, b in zip(first, second):
        assert a.transactions == b.transactions
        assert a.trace == b.trace
