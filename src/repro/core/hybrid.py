"""Hybrid search — Algorithm 2 of the paper.

Per query the hybrid strategy:

1. looks up the query's bucket in each of the ``L`` tables (Step S1;
   the lookup is shared with whichever strategy runs next);
2. reads the exact ``#collisions`` from the stored bucket sizes;
3. merges the buckets' HyperLogLog sketches (``O(mL)``) to estimate
   ``candSize``;
4. evaluates ``LSHCost = alpha * #collisions + beta * candSize`` and
   ``LinearCost = beta * n`` and dispatches to LSH-based search if
   ``LSHCost < LinearCost``, else to linear search.

Because the ``O(mL)`` estimation overhead is comparable to the hash
computations of Step S1, the hybrid query is never much slower than the
better of the two pure strategies — and on mixtures of easy and hard
queries it beats both, which is the paper's headline result.

:class:`HybridSearcher` works on any built sketched index (including
:class:`~repro.index.multiprobe_index.MultiProbeLSHIndex`); building
that index from a spec is :meth:`repro.api.Index.build`'s job.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.cost_model import CostModel
from repro.core.linear_scan import LinearScan
from repro.core.lsh_search import LSHSearch
from repro.core.results import QueryResult, QueryStats, Strategy
from repro.index.lsh_index import LSHIndex
from repro.observability import StageTrace, stage_timer
from repro.utils.validation import check_positive, check_vector

__all__ = ["HybridSearcher"]


class HybridSearcher:
    """Algorithm 2: cost-estimated dispatch between LSH and linear search.

    Parameters
    ----------
    index:
        A built :class:`~repro.index.lsh_index.LSHIndex` with sketches
        enabled.
    cost_model:
        The calibrated :class:`~repro.core.cost_model.CostModel`.
    estimator:
        Optional ``candSize`` estimator ``f(index, lookup) -> float``
        (see :func:`repro.sketches.register_estimator`); ``None`` uses
        the paper's merged-HLL estimate, which also enables the
        vectorised batch merge in :meth:`query_batch`.
    """

    def __init__(
        self,
        index: LSHIndex,
        cost_model: CostModel,
        estimator=None,
    ) -> None:
        if not index.is_built:
            from repro.exceptions import EmptyIndexError

            raise EmptyIndexError("HybridSearcher requires a built index")
        if not index.with_sketches:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                "HybridSearcher requires an index built with sketches "
                "(with_sketches=True)"
            )
        self.index = index
        self.cost_model = cost_model
        self.estimator = estimator
        self._lsh = LSHSearch(index)
        self._linear = LinearScan(index.points, index.family.metric)

    def _estimate(self, lookup) -> float:
        """``candSize`` for one lookup through the configured estimator."""
        if self.estimator is None:
            return self.index.merged_sketch(lookup).estimate()
        return float(self.estimator(self.index, lookup))

    def _fixed_probes(self) -> int:
        """Probe rings beyond the home bucket the fixed fan-out examines.

        Derived from the index's *effective* probe set (the enumeration
        may run dry below the configured ``num_probes``), so a full-ring
        adaptive lookup reports the same ``probes_used`` as the fixed
        path — a precondition for the bit-identity properties.
        """
        index = self.index
        num_slots = getattr(index, "num_slots", None)
        if num_slots is not None:  # frozen layouts: slots per table - 1
            return int(num_slots) // int(index.num_tables) - 1
        deltas = getattr(index, "_probe_deltas", None)
        if deltas is not None:  # dict multi-probe: effective enumeration
            return int(deltas.shape[0])
        return 0

    def _linear_scan(self) -> LinearScan:
        """The exact-scan fallback, refreshed after incremental inserts.

        ``index.insert`` replaces the points array, so a cached scan
        would silently search the stale copy; rebuilding is cheap (the
        scan object only holds references).
        """
        if self._linear.points is not self.index.points:
            self._linear = LinearScan(self.index.points, self.index.family.metric)
        return self._linear

    def query(self, query: np.ndarray, radius: float) -> QueryResult:
        """Answer one rNNR query with the cost-optimal strategy.

        The returned result's :class:`~repro.core.results.QueryStats`
        records the decision inputs (collisions, estimated candidates,
        both cost estimates) and which strategy ran.
        """
        query = check_vector(query, dim=self.index.dim, name="query")
        radius = check_positive(radius, "radius")
        lookup = self.index.lookup(query)
        num_collisions = lookup.num_collisions
        estimated_candidates = self._estimate(lookup)
        lsh_cost = self.cost_model.lsh_cost(num_collisions, estimated_candidates)
        linear_cost = self.cost_model.linear_cost(self.index.n)

        if lsh_cost < linear_cost:
            result = self._lsh.query_from_lookup(query, radius, lookup)
            strategy = Strategy.LSH
            exact_candidates = result.stats.exact_candidates
        else:
            result = self._linear_scan().query(query, radius)
            strategy = Strategy.LINEAR
            # A linear scan genuinely examines every point.
            exact_candidates = self.index.n

        result.stats = QueryStats(
            num_collisions=num_collisions,
            estimated_candidates=estimated_candidates,
            exact_candidates=exact_candidates,
            estimated_lsh_cost=lsh_cost,
            linear_cost=linear_cost,
            strategy=strategy,
            probes_used=self._fixed_probes(),
            exact=result.stats.exact,
        )
        return result

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float,
        dedup: str | None = None,
        trace: StageTrace | None = None,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        """Answer a query set; Step S1 is hashed for all queries at once.

        Produces exactly the same results as looping :meth:`query`:
        the per-query hashing overhead is amortised through
        :meth:`~repro.index.lsh_index.LSHIndex.lookup_batch`, and all
        queries the cost model sends to linear search are answered by
        one :meth:`~repro.core.linear_scan.LinearScan.query_batch`
        distance-matrix pass (same kernel per row, so bit-identical
        answers).

        ``dedup`` is forwarded to the LSH branch's candidate retrieval;
        both dedup implementations return the identical candidate set,
        so it only affects speed (:class:`~repro.service.BatchQueryEngine`
        passes ``"vectorized"``).

        ``trace`` (a :class:`~repro.observability.StageTrace`) opts into
        per-stage wall-time attribution — ``hash`` / ``estimate`` /
        ``linear`` / ``candidates``.  The spans bracket the existing
        computation without touching it, so traced answers are
        bit-identical to untraced ones.

        ``adaptive`` (an :class:`~repro.core.adaptive.AdaptivePolicy`
        with a ``target_candidates`` budget) switches Step S1 to the
        index's per-query probe-budget lookup where the layout supports
        it: probing beyond the home bucket stops once the merged HLL
        estimate of the candidates collected so far reaches the target.
        With a budget the full fan-out cannot reach — or ``min_probes``
        covering every ring — the answers are bit-identical to the
        fixed path; otherwise the trimmed candidate set is a subset of
        the fixed one at equal-or-fewer probes.  The budget also caps
        dispatch: a row whose estimate certifies ``target_candidates``
        answers from its LSH candidate set even when Equation (1)
        favours the scan, so a budgeted query never examines all ``n``
        points once enough candidates are certified (its answers stay a
        subset of the scan's).
        """
        radius = check_positive(radius, "radius")
        queries = np.asarray(queries)
        use_adaptive = (
            adaptive is not None
            and adaptive.bounds_probes
            and self.estimator is None
            and hasattr(self.index, "lookup_batch_adaptive")
        )
        probes_used: np.ndarray | None = None
        with stage_timer(trace, "hash"):
            if use_adaptive:
                # The adaptive lookup *is* the estimate pass (ring-prefix
                # merges), so the whole decision input lands here.
                lookups, probes_used, adaptive_estimates = (
                    self.index.lookup_batch_adaptive(
                        queries,
                        adaptive.target_candidates,
                        min_probes=adaptive.min_probes,
                    )
                )
            else:
                lookups = self.index.lookup_batch(queries)
        linear_cost = self.cost_model.linear_cost(self.index.n)
        with stage_timer(trace, "estimate"):
            if use_adaptive:
                estimates = adaptive_estimates.tolist()
            elif self.estimator is None:
                # One vectorised pass over the batch-merged registers; the
                # frozen layout computes this without any sketch objects.
                estimates = self.index.merged_estimates_batch(lookups).tolist()
            else:
                estimates = [self._estimate(lookup) for lookup in lookups]
            # Equation (1) for the whole batch in two vector ops; float64
            # elementwise arithmetic matches the scalar lsh_cost() bit for
            # bit, so the dispatch decisions are identical to looping it.
            collision_counts = [lookup.num_collisions for lookup in lookups]
            lsh_costs = (
                self.cost_model.alpha * np.asarray(collision_counts, dtype=np.float64)
                + self.cost_model.beta * np.asarray(estimates, dtype=np.float64)
            ).tolist()
        decisions = list(zip(collision_counts, estimates, lsh_costs))

        # Under an adaptive budget, a row whose (trimmed) estimate already
        # certifies ``target_candidates`` keeps the LSH candidate set even
        # when Equation (1) favours the scan: the budget's contract is to
        # stop examining candidates once enough are certified, and a
        # linear pass over all n points is exactly the over-examination
        # it exists to avoid.  The distance filter still runs, so the
        # row's answers remain a subset of what the scan would return.
        budget_target = (
            float(adaptive.target_candidates) if use_adaptive else float("inf")
        )
        linear_flags = [
            not lsh_cost < linear_cost and not est >= budget_target
            for _, est, lsh_cost in decisions
        ]

        results: list[QueryResult | None] = [None] * len(lookups)
        linear_rows = [i for i, flag in enumerate(linear_flags) if flag]
        if linear_rows:
            with stage_timer(trace, "linear"):
                scanned = self._linear_scan().query_batch(queries[linear_rows], radius)
            for i, result in zip(linear_rows, scanned):
                results[i] = result
        lsh_rows = [i for i in range(len(lookups)) if results[i] is None]
        with stage_timer(trace if lsh_rows else None, "candidates"):
            # The frozen layout can recognise queries with identical bucket
            # sets (equal rows of its bucket-index matrix) and union each
            # distinct set once; other layouts deduplicate per query.
            batch_dedup = getattr(self.index, "candidate_ids_batch", None)
            candidate_sets = (
                batch_dedup([lookups[i] for i in lsh_rows], dedup=dedup)
                if batch_dedup is not None and lsh_rows
                else None
            )
            for j, i in enumerate(lsh_rows):
                results[i] = self._lsh.query_from_lookup(
                    queries[i],
                    radius,
                    lookups[i],
                    dedup=dedup,
                    candidates=None if candidate_sets is None else candidate_sets[j],
                )
        fixed_probes = self._fixed_probes()
        for i, result in enumerate(results):
            num_collisions, estimated_candidates, lsh_cost = decisions[i]
            is_linear = linear_flags[i]
            result.stats = QueryStats(
                num_collisions=num_collisions,
                estimated_candidates=estimated_candidates,
                # A linear scan genuinely examines every point; LSH rows
                # keep the materialised candidate-set size.
                exact_candidates=(
                    self.index.n if is_linear else result.stats.exact_candidates
                ),
                estimated_lsh_cost=lsh_cost,
                linear_cost=linear_cost,
                strategy=Strategy.LINEAR if is_linear else Strategy.LSH,
                probes_used=(
                    int(probes_used[i]) if probes_used is not None else fixed_probes
                ),
                exact=result.stats.exact,
            )
        return results

    def decide(self, query: np.ndarray) -> Strategy:
        """The dispatch decision only (no candidate retrieval).

        Useful for the Figure 3 experiment, which tracks the fraction
        of linear-search calls without needing the answers.
        """
        query = check_vector(query, dim=self.index.dim, name="query")
        lookup = self.index.lookup(query)
        return self.cost_model.choose(
            lookup.num_collisions,
            self._estimate(lookup),
            self.index.n,
        )

    def __repr__(self) -> str:
        return f"HybridSearcher(index={self.index!r}, cost_model={self.cost_model!r})"

