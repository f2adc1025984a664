"""Vectorized customer population — the negotiation fast path's data plane.

The object-based runtime allocates one :class:`~repro.agents.customer_agent.
CustomerAgent` per household and one frozen message per delivery, which caps
practical population sizes at a few hundred households.  The paper, however,
frames the protocol around "a (large) number of Customer Agents".
:class:`VectorizedPopulation` removes the per-agent overhead: it holds all
customer state — predicted/allowed uses, cut-down capacities and the private
cut-down-reward requirement tables — in numpy arrays and evaluates every
customer's bid decision for a round in one batched call.

**When to use which path.**  Use the faithful object path
(:class:`~repro.core.session.NegotiationSession`) when you need the full
multi-agent machinery: DESIRE process models, Resource Consumer Agents,
producer/external-world information flows, or message-level traces.  Use the
fast path (:class:`~repro.core.fast_session.FastSession` over this class)
when you need throughput: population sweeps, parameter searches and
large-scale load-management runs.  For a fixed seed both paths produce the
same rounds, bids and outcomes — equivalence is enforced by
``tests/test_fast_session_equivalence.py``.

Exactness matters more than elegance here: every batched computation mirrors
the scalar code in :mod:`repro.negotiation.reward_table` and
:mod:`repro.negotiation.strategy` operation-for-operation (same comparison
epsilons, same float operation order) so the fast path is bit-identical, not
merely approximately equal.  Populations whose customers use heterogeneous
requirement grids run *grouped* kernels — customers are bucketed per distinct
grid and each bucket rides the shared-grid kernels, results scattered back
into population order — as long as the number of distinct grids stays within
:data:`GRID_GROUP_AUTO_CAP`; beyond that the scalar per-customer code stays
in charge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.negotiation.reward_table import CutdownRewardRequirements, RewardTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.population import CustomerPopulation, PopulationColumns
    from repro.agents.preferences import FleetRequirements
    from repro.negotiation.messages import OfferAnnouncement

#: Bound on each per-population kernel-cache kind (entries are per announced
#: table / per query vector; a negotiation touches one table per round, so a
#: handful of slots suffices to cover a round's kernel calls).
KERNEL_CACHE_SIZE = 8

#: Largest number of *distinct* requirement grids a heterogeneous population
#: may use and still run the grouped batched kernels.  Each distinct grid
#: becomes one sub-population with its own kernel caches; past this bound the
#: per-group batches degenerate towards one-customer groups and the scalar
#: per-customer code wins, so grouping is skipped.  The engine façade's
#: ``backend="auto"`` qualification applies the same bound, so the two can
#: never drift.
GRID_GROUP_AUTO_CAP = 32


def shares_requirement_grid(
    requirements: Sequence[CutdownRewardRequirements],
) -> bool:
    """Whether all requirement tables use one cut-down grid.

    This is *the* vectorizability criterion: when it holds the tables pack
    into one ``(num_customers, grid_size)`` matrix and the batched kernels
    apply; otherwise the scalar per-customer code stays in charge.  The
    engine façade's ``backend="auto"`` selection consults the same function,
    so the two can never drift.
    """
    first_grid = requirements[0].cutdowns()
    return all(table.cutdowns() == first_grid for table in requirements[1:])


class VectorizedPopulation:
    """All customer-side negotiation state of one population, as numpy arrays.

    Attributes
    ----------
    customer_ids:
        Customer identifiers, in population (spec) order; every array below is
        aligned with this order.
    predicted_uses / allowed_uses:
        Per-customer predicted and allowed (baseline) consumption in the peak
        interval.
    max_feasible_cutdowns:
        Per-customer physical cut-down limit (from the requirement tables).
    requirement_grid:
        The shared ascending cut-down grid of the requirement tables, or
        ``None`` when customers use heterogeneous grids (the grouped kernels
        or the scalar fallback take over).
    requirement_matrix:
        ``(num_customers, grid_size)`` matrix of required rewards, aligned
        with ``requirement_grid`` (``None`` for heterogeneous grids).
    """

    def __init__(
        self,
        customer_ids: Sequence[str],
        predicted_uses: Sequence[float],
        allowed_uses: Sequence[float],
        requirements: Sequence[CutdownRewardRequirements],
    ) -> None:
        if not customer_ids:
            raise ValueError("a vectorized population needs at least one customer")
        if not (
            len(customer_ids) == len(predicted_uses) == len(allowed_uses) == len(requirements)
        ):
            raise ValueError("customer ids, uses and requirements must align")
        self.customer_ids = list(customer_ids)
        self.predicted_uses = np.asarray(predicted_uses, dtype=float)
        self.allowed_uses = np.asarray(allowed_uses, dtype=float)
        self._requirements: Optional[list[CutdownRewardRequirements]] = list(requirements)
        self._requirements_source: Optional["FleetRequirements"] = None
        self.max_feasible_cutdowns = np.array(
            [r.max_feasible_cutdown for r in self._requirements], dtype=float
        )
        self.requirement_grid: Optional[np.ndarray] = None
        self.requirement_matrix: Optional[np.ndarray] = None
        self._build_requirement_matrix()
        self._reset_kernel_cache()

    @property
    def requirements(self) -> list[CutdownRewardRequirements]:
        """Per-customer requirement tables (materialised on first access).

        Columnar-built populations (:meth:`from_columnar`) defer these — the
        batched kernels run straight off :attr:`requirement_matrix` and only
        the heterogeneous-grid scalar fallbacks read table objects, which a
        shared-grid fleet population never hits.
        """
        if self._requirements is None:
            self._requirements = self._requirements_source.tables()
        return self._requirements

    def _reset_kernel_cache(self) -> None:
        self._required_rewards_cache: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: Per announced grid: ``(grid, (N, G) required, (G, N) thresholds)``.
        self._grid_cache: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._interpolation_cache: dict[bytes, np.ndarray] = {}
        self.kernel_cache_hits = 0
        self.kernel_cache_misses = 0

    def _build_requirement_matrix(self) -> None:
        """Pack the requirement tables into one matrix when grids are shared.

        Heterogeneous-grid populations get :attr:`_grid_groups` instead: one
        shared-grid sub-population per distinct grid (bounded by
        :data:`GRID_GROUP_AUTO_CAP`), whose kernels the public kernels
        dispatch to group-by-group.
        """
        self._grid_groups = None
        if not shares_requirement_grid(self.requirements):
            self._grid_groups = self._build_grid_groups()
            return
        first_grid = self.requirements[0].cutdowns()
        self.requirement_grid = np.asarray(first_grid, dtype=float)
        self.requirement_matrix = np.array(
            [[r.requirements[c] for c in first_grid] for r in self.requirements],
            dtype=float,
        )

    def _build_grid_groups(
        self,
    ) -> Optional[list[tuple[np.ndarray, "VectorizedPopulation"]]]:
        """Group customers by requirement grid, in first-appearance order.

        Returns ``(population-row indices, shared-grid sub-population)``
        pairs, or ``None`` when the population uses more than
        :data:`GRID_GROUP_AUTO_CAP` distinct grids (the scalar per-customer
        path then stays in charge).  Every sub-population is shared-grid by
        construction, so its kernels are the proven bit-identical ones; a
        grouped kernel result scattered into population order therefore
        matches the scalar per-customer loop row for row.
        """
        grouped: dict[tuple, list[int]] = {}
        for row, table in enumerate(self.requirements):
            grouped.setdefault(tuple(table.cutdowns()), []).append(row)
        if len(grouped) > GRID_GROUP_AUTO_CAP:
            return None
        groups = []
        for rows in grouped.values():
            indices = np.array(rows, dtype=np.intp)
            sub = VectorizedPopulation(
                customer_ids=[self.customer_ids[row] for row in rows],
                predicted_uses=self.predicted_uses[indices],
                allowed_uses=self.allowed_uses[indices],
                requirements=[self.requirements[row] for row in rows],
            )
            groups.append((indices, sub))
        return groups

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_population(cls, population: "CustomerPopulation") -> "VectorizedPopulation":
        """Pack a :class:`~repro.agents.population.CustomerPopulation`.

        Lazy (columnar-backed) populations are packed straight from their
        planning arrays — no spec objects, no dict reward tables; spec-backed
        populations go through the per-spec path as before.  Both packings
        are bit-identical.
        """
        columns = population.columnar_view()
        if columns is not None:
            packed = cls.from_columnar(columns)
            if packed is not None:
                return packed
        specs = population.specs
        return cls(
            customer_ids=[s.customer_id for s in specs],
            predicted_uses=[s.predicted_use for s in specs],
            allowed_uses=[s.allowed_use for s in specs],
            requirements=[s.requirements for s in specs],
        )

    @classmethod
    def from_columnar(
        cls, columns: "PopulationColumns"
    ) -> Optional["VectorizedPopulation"]:
        """Pack a population directly from its columnar planning arrays.

        The requirement matrix and grid come verbatim from the
        :class:`~repro.agents.preferences.FleetRequirements` — the same
        float values an eager packing would read back out of the per-customer
        requirement dicts, so the two constructions are bit-identical.
        Returns ``None`` when the grid would not survive the requirement
        tables' key normalisation unchanged (rounding, ordering); the caller
        then falls back to the spec path, whose tables define the contract.
        """
        requirements = columns.requirements
        grid = [float(c) for c in requirements.grid]
        normalised = [round(c, 6) for c in grid]
        ascending = all(a < b for a, b in zip(normalised, normalised[1:]))
        in_range = all(0.0 <= c <= 1.0 for c in normalised)
        if normalised != grid or not ascending or not in_range:
            return None
        population = object.__new__(cls)
        population.customer_ids = list(columns.customer_ids)
        population.predicted_uses = np.asarray(columns.predicted_uses, dtype=float)
        population.allowed_uses = np.asarray(columns.allowed_uses, dtype=float)
        population._requirements = None
        population._requirements_source = requirements
        population.max_feasible_cutdowns = np.array(
            requirements.max_feasible, dtype=float
        )
        population.requirement_grid = np.asarray(grid, dtype=float)
        population.requirement_matrix = np.array(requirements.matrix, dtype=float)
        population._grid_groups = None
        population._reset_kernel_cache()
        return population

    @classmethod
    def concatenate(
        cls, populations: Sequence["VectorizedPopulation"]
    ) -> "VectorizedPopulation":
        """Pack several populations into one shared array arena, in order.

        The inverse of :meth:`slice`: ``concatenate(parts).slice(a, b)``
        hands back row views over the combined arrays covering exactly one
        part's customers.  Because every kernel is per-row (reductions only
        run along the grid axis, never across customers), kernel results on
        the combined population sliced back apart are bit-identical to
        kernels on the standalone parts — the property the serving layer's
        request coalescing rests on.

        All parts must be vectorizable on the *same* requirement grid
        (bit-equal grid arrays); anything else raises ``ValueError``, and the
        caller keeps those populations out of the batch instead.  Customer
        ids may repeat across parts (two requests about the same town are
        still two requests); slices keep them apart.
        """
        if not populations:
            raise ValueError("concatenate needs at least one population")
        first = populations[0]
        if first.requirement_grid is None:
            raise ValueError(
                "only vectorizable (shared-grid) populations can be "
                "concatenated; this one uses heterogeneous requirement grids"
            )
        for other in populations[1:]:
            if other.requirement_grid is None or not np.array_equal(
                other.requirement_grid, first.requirement_grid
            ):
                raise ValueError(
                    "populations must share one requirement grid to be "
                    "concatenated; mismatching grids negotiate separately"
                )
        if len(populations) == 1:
            return first
        combined = object.__new__(cls)
        combined.customer_ids = [
            customer for population in populations for customer in population.customer_ids
        ]
        combined.predicted_uses = np.concatenate(
            [population.predicted_uses for population in populations]
        )
        combined.allowed_uses = np.concatenate(
            [population.allowed_uses for population in populations]
        )
        # Materialised eagerly: the scalar fallbacks that read table objects
        # are never hit on a shared-grid population, but slice() and the
        # requirements property must stay well-defined on the combined arena.
        combined._requirements = [
            table for population in populations for table in population.requirements
        ]
        combined._requirements_source = None
        combined.max_feasible_cutdowns = np.concatenate(
            [population.max_feasible_cutdowns for population in populations]
        )
        combined.requirement_grid = first.requirement_grid
        combined.requirement_matrix = np.concatenate(
            [population.requirement_matrix for population in populations]
        )
        combined._grid_groups = None
        combined._reset_kernel_cache()
        return combined

    # -- basic views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.customer_ids)

    @property
    def is_vectorizable(self) -> bool:
        """Whether the batched kernels apply.

        True when all customers share one requirement grid (one matrix, the
        fastest flavour) *or* when they bucket into at most
        :data:`GRID_GROUP_AUTO_CAP` per-grid groups (grouped kernels).  Only
        populations beyond the group cap run the scalar per-customer code.
        """
        return self.requirement_grid is not None or self._grid_groups is not None

    @property
    def num_grid_groups(self) -> int:
        """Distinct-grid group count (0 for shared-grid/scalar populations)."""
        return len(self._grid_groups) if self._grid_groups is not None else 0

    # -- sharding ---------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "VectorizedPopulation":
        """A shard of this population covering customers ``[start, stop)``.

        The shard shares the parent's numpy arrays (row views, no copies) so a
        :class:`~repro.agents.sharded.ShardedPopulation` over 50k households
        costs no extra memory.  A shard inherits the parent's kernel flavour:
        a shared-grid parent yields shared-grid shards, a grouped
        (heterogeneous) parent yields grouped shards — rebuilt from the
        shard's own rows — and a beyond-the-cap scalar parent yields scalar
        shards even when the sliced rows happen to share one grid, so every
        shard of one population runs a batched flavour exactly when the
        parent does.  Each shard owns its own kernel cache (caches are not
        thread-shared).
        """
        if not 0 <= start < stop <= len(self.customer_ids):
            raise ValueError(
                f"invalid shard range [{start}, {stop}) for a population of "
                f"{len(self.customer_ids)} customers"
            )
        shard = object.__new__(VectorizedPopulation)
        shard.customer_ids = self.customer_ids[start:stop]
        shard.predicted_uses = self.predicted_uses[start:stop]
        shard.allowed_uses = self.allowed_uses[start:stop]
        if self._requirements is None:
            # Columnar parent: shards stay lazy too (row views, no tables).
            shard._requirements = None
            shard._requirements_source = self._requirements_source.slice(start, stop)
        else:
            shard._requirements = self._requirements[start:stop]
            shard._requirements_source = None
        shard.max_feasible_cutdowns = self.max_feasible_cutdowns[start:stop]
        shard.requirement_grid = self.requirement_grid
        shard.requirement_matrix = (
            None if self.requirement_matrix is None
            else self.requirement_matrix[start:stop]
        )
        if self.requirement_grid is None and self._grid_groups is not None:
            # A grouped parent's rows all carry materialised tables, so the
            # shard regroups its own rows (possibly fewer, never more grids).
            shard._grid_groups = shard._build_grid_groups()
        else:
            shard._grid_groups = None
        shard._reset_kernel_cache()
        return shard

    # -- kernel cache -----------------------------------------------------------

    def kernel_cache_stats(self) -> dict[str, int]:
        """Hit/miss counters of the per-round kernel cache (observability).

        Grouped populations roll the per-group sub-population counters up, so
        the numbers reflect every batched kernel run on this population's
        behalf.
        """
        hits, misses = self.kernel_cache_hits, self.kernel_cache_misses
        if self._grid_groups is not None:
            for __, sub in self._grid_groups:
                hits += sub.kernel_cache_hits
                misses += sub.kernel_cache_misses
        return {"hits": hits, "misses": misses}

    def _gather_scatter(self, kernel) -> np.ndarray:
        """Run ``kernel(sub, rows)`` per grid group and scatter into place."""
        out = np.zeros(len(self.customer_ids))
        for indices, sub in self._grid_groups:
            out[indices] = kernel(sub, indices)
        return out

    @staticmethod
    def _cache_store(cache: dict, key, value):
        """FIFO-bounded insert; returns ``value`` for call-through style."""
        if len(cache) >= KERNEL_CACHE_SIZE:
            cache.pop(next(iter(cache)))
        cache[key] = value
        return value

    # -- reward-table bidding (batched) ------------------------------------------

    def _required_rewards_for(self, table: RewardTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-customer required rewards aligned with the announced table's grid.

        Returns ``(table_grid, offered_rewards, required_matrix)`` where the
        matrix holds ``inf`` for cut-downs a customer's requirement table does
        not cover (never acceptable, matching the scalar ``dict.get`` miss)
        and ``0`` for the zero cut-down (always acceptable).

        The triplet is cached per table content (the negotiation announces one
        table per round), so the bidding kernels, reward lookups and any
        re-evaluation of the same round's table share one computation.  Only
        the offered rewards are per table: the grid and the required matrix
        come from :meth:`_grid_columns`, shared by every table announced on
        that grid.  Cached arrays are frozen read-only; kernels treat them as
        immutable inputs.
        """
        key = ("required", tuple(sorted(table.entries.items())))
        cached = self._required_rewards_cache.get(key)
        if cached is not None:
            self.kernel_cache_hits += 1
            return cached
        self.kernel_cache_misses += 1
        table_cutdowns = table.cutdowns()
        table_grid, required, __ = self._grid_columns(
            np.asarray(table_cutdowns, dtype=float)
        )
        offered = np.array([table.entries[c] for c in table_cutdowns], dtype=float)
        offered.setflags(write=False)
        return self._cache_store(
            self._required_rewards_cache, key, (table_grid, offered, required)
        )

    def _grid_columns(self, table_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(table_grid, required_matrix, acceptance_thresholds)`` for a grid.

        Everything about a round's table that does not depend on its rewards,
        computed once per announced grid (a negotiation re-announces one grid
        with new rewards every round) and not counted in
        :meth:`kernel_cache_stats`, whose counters are per table:

        * ``required_matrix`` — the row-major ``(N, G)`` gather of required
          rewards onto the table's cut-downs (``inf`` off the requirement
          grid, ``0`` at the zero cut-down), as :meth:`_required_rewards_for`
          returns it;
        * ``acceptance_thresholds`` — the same rewards *grid-major*: one
          C-contiguous ``(G, N)`` matrix, with every cut-down a customer
          cannot physically deliver also set to ``+inf``.  Feasibility is
          folded into the threshold, so a round's acceptance is the single
          comparison ``offered[:, None] >= thresholds`` and every per-customer
          reduction runs along axis 0 — a row-by-row elementwise pass over
          ``G`` contiguous ``N``-vectors instead of ``N`` reductions over
          ``G``-element rows.  The comparison needs no mask while offers are
          finite; :meth:`highest_acceptable_cutdowns` restores it for an
          infinite offer.
        """
        key = table_grid.tobytes()
        cached = self._grid_cache.get(key)
        if cached is not None:
            return cached
        assert self.requirement_grid is not None and self.requirement_matrix is not None
        grid_size = self.requirement_grid.shape[0]
        columns = np.searchsorted(self.requirement_grid, table_grid)
        clamped = np.minimum(columns, grid_size - 1)
        covered = self.requirement_grid[clamped] == table_grid
        required = np.where(
            covered[None, :],
            self.requirement_matrix[:, clamped],
            np.inf,
        )
        required[:, table_grid == 0.0] = 0.0
        # Always a copy: the fancy-indexed gather may already come out
        # column-major, and the row-major matrix must stay as it is.
        thresholds = np.array(required.T, order="C")
        thresholds[self._infeasible(table_grid)] = np.inf
        entry = (table_grid, required, thresholds)
        for array in entry:
            array.setflags(write=False)
        return self._cache_store(self._grid_cache, key, entry)

    def _infeasible(self, table_grid: np.ndarray) -> np.ndarray:
        """Grid-major ``(G, N)`` mask of cut-downs beyond a customer's limit."""
        return table_grid[:, None] > self.max_feasible_cutdowns[None, :] + 1e-12

    def highest_acceptable_cutdowns(self, table: RewardTable) -> np.ndarray:
        """Batched ``CutdownRewardRequirements.highest_acceptable_cutdown``.

        A cell is acceptable when its offer covers its threshold.  A ``+inf``
        threshold marks an undeliverable cut-down (beyond the customer's
        limit, or off its requirement grid) only while offers are finite: an
        infinite offer passes it, so for such a table those cells are masked
        explicitly and only deliverable ones compare.
        """
        if self.requirement_grid is None:
            if self._grid_groups is not None:
                return self._gather_scatter(
                    lambda sub, rows: sub.highest_acceptable_cutdowns(table)
                )
            return np.array(
                [r.highest_acceptable_cutdown(table) for r in self.requirements]
            )
        table_grid, offered, __ = self._required_rewards_for(table)
        acceptable = offered[:, None] >= self._grid_columns(table_grid)[2]
        if np.isposinf(offered).any():
            on_grid = np.isin(table_grid, self.requirement_grid) | (table_grid == 0.0)
            acceptable &= on_grid[:, None] & ~self._infeasible(table_grid)
        return np.where(acceptable, table_grid[:, None], 0.0).max(axis=0)

    def expected_gain_cutdowns(self, table: RewardTable) -> np.ndarray:
        """Batched ``ExpectedGainBidding.choose_cutdown`` (without history).

        Among acceptable positive cut-downs, pick the one with the largest
        surplus (offered minus required reward); ties go to the larger
        cut-down, exactly as the scalar policy's scan does.  A cell is
        eligible exactly when its surplus over the threshold is ``>= 0``:
        an offer short of the requirement leaves it negative, an
        undeliverable cell's is ``-inf`` or, against an infinite offer, not
        a number — as is an infinite offer against an infinite requirement,
        which the scalar scan's comparisons never pick either.
        """
        if self.requirement_grid is None:
            if self._grid_groups is not None:
                return self._gather_scatter(
                    lambda sub, rows: sub.expected_gain_cutdowns(table)
                )
            from repro.negotiation.strategy import ExpectedGainBidding

            policy = ExpectedGainBidding()
            return np.array(
                [policy.choose_cutdown(table, r) for r in self.requirements]
            )
        table_grid, offered, __ = self._required_rewards_for(table)
        with np.errstate(invalid="ignore"):
            surplus = offered[:, None] - self._grid_columns(table_grid)[2]
            surplus = np.where(surplus >= 0.0, surplus, -np.inf)
        surplus[table_grid <= 0.0] = -np.inf
        best = surplus.max(axis=0)
        chosen = np.where(surplus == best, table_grid[:, None], 0.0).max(axis=0)
        return np.where(np.isneginf(best), 0.0, chosen)

    def table_rewards(self, table: RewardTable, cutdowns: np.ndarray) -> np.ndarray:
        """Batched ``RewardTable.reward_for`` over per-customer cut-downs.

        A cut-down not exactly on the announced table's grid earns nothing
        (the scalar lookup's ``KeyError → 0.0`` miss), as does the zero
        cut-down.  The bidding kernels only ever produce grid values or
        zero, so for kernel-computed cut-downs this is an exact lookup.
        Rides the cached required-reward triplet, sharing the round's grid
        with the bidding kernels.
        """
        if self.requirement_grid is None and self._grid_groups is not None:
            all_queries = np.asarray(cutdowns, dtype=float)
            return self._gather_scatter(
                lambda sub, rows: sub.table_rewards(table, all_queries[rows])
            )
        table_grid, offered, _required = self._required_rewards_for(table)
        queries = np.asarray(cutdowns, dtype=float)
        columns = np.searchsorted(table_grid, queries)
        clamped = np.minimum(columns, table_grid.shape[0] - 1)
        on_grid = table_grid[clamped] == queries
        return np.where(on_grid & (queries > 0.0), offered[clamped], 0.0)

    # -- requirement interpolation (batched) ---------------------------------------

    def interpolated_requirements(self, cutdowns: np.ndarray) -> np.ndarray:
        """Batched ``CutdownRewardRequirements.interpolated_requirement``.

        Linear interpolation between grid points, last-segment-slope
        extrapolation beyond the grid, proportional extrapolation below it and
        ``inf`` beyond the customer's feasible cut-down — operation-for-
        operation identical to the scalar code.

        Results are cached per query vector (keyed by its bytes), so repeated
        evaluations within a round — e.g. the request-for-bids method querying
        an unchanged needs vector, or the surplus accounting replaying the
        final committed cut-downs — reuse the round's computation.  Cached
        arrays are frozen read-only.
        """
        cutdowns = np.asarray(cutdowns, dtype=float)
        if np.any((cutdowns < 0.0) | (cutdowns > 1.0)):
            raise ValueError("cut-down fractions must be in [0, 1]")
        key = cutdowns.tobytes()
        cached = self._interpolation_cache.get(key)
        if cached is not None:
            self.kernel_cache_hits += 1
            return cached
        self.kernel_cache_misses += 1
        result = self._compute_interpolated_requirements(cutdowns)
        result.setflags(write=False)
        return self._cache_store(self._interpolation_cache, key, result)

    def _compute_interpolated_requirements(self, cutdowns: np.ndarray) -> np.ndarray:
        if self.requirement_grid is None:
            if self._grid_groups is not None:
                return self._gather_scatter(
                    lambda sub, rows: sub.interpolated_requirements(cutdowns[rows])
                )
            return np.array(
                [
                    r.interpolated_requirement(float(x))
                    for r, x in zip(self.requirements, cutdowns)
                ]
            )
        grid = self.requirement_grid
        values = self.requirement_matrix
        grid_size = grid.shape[0]
        x = np.round(cutdowns, 6)
        rows = np.arange(len(self.customer_ids))
        result = np.zeros(len(self.customer_ids), dtype=float)

        infeasible = x > self.max_feasible_cutdowns + 1e-12
        zero = (x == 0.0) & ~infeasible
        position = np.searchsorted(grid, x, side="left")
        clamped = np.minimum(position, grid_size - 1)
        exact = (position < grid_size) & (grid[clamped] == x) & ~infeasible & ~zero
        open_cases = ~(infeasible | zero | exact)

        result[infeasible] = np.inf
        result[exact] = values[rows[exact], position[exact]]

        # Between two grid points: linear interpolation (scalar formula:
        # low_value + fraction * (high_value - low_value)).
        between = open_cases & (position > 0) & (position < grid_size)
        if np.any(between):
            row = rows[between]
            high_index = position[between]
            low = grid[high_index - 1]
            high = grid[high_index]
            low_value = values[row, high_index - 1]
            high_value = values[row, high_index]
            fraction = (x[between] - low) / (high - low)
            result[between] = low_value + fraction * (high_value - low_value)

        # Beyond the last grid point: extrapolate with the last segment's slope.
        beyond = open_cases & (position == grid_size)
        if np.any(beyond):
            row = rows[beyond]
            if grid_size >= 2:
                second, last = grid[-2], grid[-1]
                slope = (values[row, -1] - values[row, -2]) / (last - second)
            else:
                last = grid[-1]
                slope = values[row, -1] / last if last > 0 else np.zeros(len(row))
            result[beyond] = values[row, -1] + slope * (x[beyond] - grid[-1])

        # Below the first grid point: proportional to the first requirement.
        below = open_cases & (position == 0)
        if np.any(below):
            row = rows[below]
            result[below] = values[row, 0] * (x[below] / grid[0])
        return result

    # -- request-for-bids stepping (batched) ---------------------------------------

    def step_quantity_bids(
        self,
        current_needs: np.ndarray,
        step_fraction: float,
        peak_hours: float,
        normal_price: float,
    ) -> np.ndarray:
        """Batched ``RequestForBidsMethod.respond``: step forward or stand still.

        Mirrors ``_step_is_worthwhile``: a customer moves one step forward when
        the financial gain of the saved peak energy covers the marginal
        discomfort of the implied cut-down, and the implied cut-down stays
        physically feasible; otherwise it repeats its previous bid.
        """
        predicted = self.predicted_uses
        candidate = np.maximum(0.0, current_needs - step_fraction * predicted)
        with np.errstate(divide="ignore", invalid="ignore"):
            safe_predicted = np.where(predicted > 0.0, predicted, 1.0)
            implied = 1.0 - candidate / safe_predicted
            current_cutdown = np.maximum(0.0, 1.0 - current_needs / safe_predicted)
            possible = (
                (predicted > 0.0)
                & (candidate < current_needs)
                & ~(implied > self.max_feasible_cutdowns)
            )
            discomfort_delta = self.interpolated_requirements(
                np.clip(implied, 0.0, 1.0)
            ) - self.interpolated_requirements(np.clip(current_cutdown, 0.0, 1.0))
            saved_energy = (current_needs - candidate) * peak_hours
            financial_gain = saved_energy * normal_price
            worthwhile = possible & (financial_gain >= discomfort_delta)
        return np.where(worthwhile, candidate, current_needs)

    # -- offer-method evaluation (batched) ------------------------------------------

    def offer_acceptances(
        self, announcement: "OfferAnnouncement", peak_hours: float
    ) -> np.ndarray:
        """Batched ``OfferMethod._deal_is_worthwhile``: one bool per customer.

        A customer accepts when it is already within the allowance, or when
        the price saving of complying (normal-price bill on the prediction
        minus lower-price bill on the allowance) covers the monetised
        discomfort of the required cut-down; customers that cannot physically
        reach the allowance decline.  Operation order mirrors the scalar code
        exactly, so the decisions are bit-identical.
        """
        allowances = announcement.x_max * self.allowed_uses
        predicted = self.predicted_uses
        within = predicted <= allowances
        with np.errstate(divide="ignore", invalid="ignore"):
            safe_predicted = np.where(predicted > 0.0, predicted, 1.0)
            required = 1.0 - allowances / safe_predicted
        infeasible = ~within & (required > self.max_feasible_cutdowns)
        undecided = ~within & ~infeasible
        discomfort = self.interpolated_requirements(np.where(undecided, required, 0.0))
        tariff = announcement.tariff
        bill_normal = (predicted * peak_hours) * tariff.normal_price
        bill_deal = (allowances * peak_hours) * tariff.lower_price
        saving = bill_normal - bill_deal
        return within | (undecided & (saving >= discomfort))

    # -- outcome helpers ----------------------------------------------------------

    def realised_surpluses(
        self, committed_cutdowns: np.ndarray, rewards: np.ndarray
    ) -> np.ndarray:
        """Batched ``CustomerAgent.realised_surplus`` for awarded customers."""
        discomfort = self.interpolated_requirements(committed_cutdowns)
        return np.where(np.isinf(discomfort), rewards, rewards - discomfort)
