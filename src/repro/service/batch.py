"""The batched query engine — the serving-side face of Algorithm 2.

:class:`BatchQueryEngine` wraps a :class:`~repro.core.hybrid.HybridSearcher`
and answers whole query matrices:

* Step S1 is one fused hashing kernel call for the entire batch
  (:meth:`~repro.index.lsh_index.LSHIndex.lookup_batch`);
* the cost decision of Algorithm 2 is still made *per query* — that is
  the paper's contribution and is preserved exactly;
* every query the model sends to linear search joins one grouped
  distance-matrix pass (:func:`~repro.distances.matrix.pairwise_distances`,
  the same kernel the single-query path calls row by row);
* every query the model sends to LSH search deduplicates its candidate
  buckets with the vectorised scatter instead of the paper's
  per-collision bitvector probe.

Both substitutions return bit-identical answers to the single-query
path; they only remove per-query Python overhead.  The deliberate
scalar dedup of :meth:`~repro.index.lsh_index.LSHIndex.candidate_ids`
models Equation (1)'s cost structure for the *experiments*; a serving
layer is exactly where collapsing that constant is appropriate.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.adaptive import AdaptivePolicy, CostModelTuner
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridSearcher
from repro.core.linear_scan import exact_topk_results
from repro.core.results import QueryResult, Strategy
from repro.distances.matrix import pairwise_distances
from repro.exceptions import ConfigurationError
from repro.observability import StageTrace, stage_timer

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Batched front-end over a hybrid searcher.

    Parameters
    ----------
    searcher:
        The :class:`~repro.core.hybrid.HybridSearcher` to serve from.
    radius:
        Default query radius (``None`` forces callers to pass one).
    dedup:
        Step-S2 deduplication used for LSH-bound queries; the default
        ``"vectorized"`` is the serving-appropriate implementation and
        returns the identical candidate sets as ``"scalar"``.

    Notes
    -----
    The engine never caches the data matrix: every batch re-reads
    ``searcher.index.points`` through the searcher's refresh-on-insert
    path (:meth:`HybridSearcher._linear_scan`), so answers always see
    points added by :meth:`insert` — the stale-``points`` hazard of a
    cached scan cannot occur.

    The engine is a one-shard index: it shares the shard surface of
    :class:`~repro.service.sharded.ShardedHybridIndex` and
    :class:`~repro.service.workers.WorkerPool` (``num_shards``,
    ``shard_query_batch`` / ``merge_radius`` / ``map_shards``,
    ``query_topk_batch``, ``peek_assignment``, ``close``), so
    :class:`repro.api.Index` drives all three through one code path.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Index, IndexSpec
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(500, 16))
    >>> engine = Index.build(points, IndexSpec(
    ...     metric="l2", radius=1.5, num_tables=8, cost_ratio=6.0, seed=1)).engine
    >>> results = engine.query_batch(points[:4])
    >>> [int(r.ids[0]) for r in results] == [0, 1, 2, 3]
    True
    """

    kind = "single"
    num_shards = 1

    def __init__(
        self,
        searcher: HybridSearcher,
        radius: float | None = None,
        dedup: str = "vectorized",
    ) -> None:
        if dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        self.searcher = searcher
        self.radius = None if radius is None else float(radius)
        self.dedup = dedup
        # Online cost-model recalibration state; created lazily by the
        # first batch whose AdaptivePolicy asks for it.
        self._tuner: CostModelTuner | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The underlying :class:`~repro.index.lsh_index.LSHIndex`."""
        return self.searcher.index

    @property
    def cost_model(self) -> CostModel:
        """The cost model driving the per-query dispatch."""
        return self.searcher.cost_model

    @property
    def shards(self) -> list[BatchQueryEngine]:
        """The in-process shard engines (like the thread fan-out's): itself."""
        return [self]

    @property
    def n(self) -> int:
        """Number of indexed points (reflects inserts immediately)."""
        return self.index.n

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.index.dim

    def _resolve_radius(self, radius: float | None) -> float:
        if radius is not None:
            return float(radius)
        if self.radius is None:
            raise ConfigurationError(
                "no radius given and the engine has no default radius"
            )
        return self.radius

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query(self, query: np.ndarray, radius: float | None = None) -> QueryResult:
        """Answer one query (a batch of size one)."""
        return self.query_batch(np.asarray(query)[None, :], radius)[0]

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float | None = None,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        """Answer a ``(q, d)`` query matrix.

        Returns exactly the same results (ids, distances, and decision
        stats) as looping :meth:`HybridSearcher.query` over the rows.
        ``trace`` opts into per-stage timing (forwarded to the searcher;
        answers are unaffected).  ``adaptive`` forwards an
        :class:`~repro.core.adaptive.AdaptivePolicy` to the searcher
        (per-query probe budgets) and, when the policy asks for
        ``recalibrate``, feeds the batch's observed per-stage timings
        into a :class:`~repro.core.adaptive.CostModelTuner` so
        subsequent batches dispatch with EWMA-recalibrated coefficients.
        ``allow_partial`` is accepted for surface parity with the process
        pool and ignored: one in-process shard cannot fail on its own.
        """
        recalibrate = adaptive is not None and adaptive.enabled and adaptive.recalibrate
        inner_trace = trace
        if recalibrate and inner_trace is None:
            inner_trace = StageTrace()
        results = self.searcher.query_batch(
            np.asarray(queries),
            self._resolve_radius(radius),
            dedup=self.dedup,
            trace=inner_trace,
            adaptive=adaptive,
        )
        if recalibrate:
            self._observe_timings(results, inner_trace, adaptive)
        return results

    def shard_query_batch(
        self,
        shard: int,
        queries: np.ndarray,
        radius: float,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        """The only shard's answers (its ids are already global)."""
        return self.query_batch(queries, radius, adaptive=adaptive)

    def merge_radius(self, shard_results: list[QueryResult], radius: float) -> QueryResult:
        """One shard's answer is the whole answer."""
        return shard_results[0]

    def map_shards(
        self, work: Callable[[int], list[QueryResult]]
    ) -> list[list[QueryResult]]:
        """Run ``work(0)`` for the one shard, on the calling thread."""
        return [work(0)]

    def query_topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
    ) -> list[QueryResult]:
        """Exact k-NN for a query matrix (one distance block, no merge).

        Ordered by ascending distance with ``(distance, id)`` ties, like
        the sharded engines; ``allow_partial`` is ignored.
        """
        index = self.index
        if k > index.n:
            raise ConfigurationError(f"k ({k}) must not exceed the index size ({index.n})")
        with stage_timer(trace, "linear"):
            block = pairwise_distances(queries, index.points, index.family.metric)
        with stage_timer(trace, "merge"):
            return exact_topk_results(
                np.arange(index.n, dtype=np.int64), [block], k, index.n
            )

    def _observe_timings(
        self,
        results: list[QueryResult],
        trace: StageTrace,
        adaptive: AdaptivePolicy,
    ) -> None:
        """Fold one batch's stage timings into the cost-model tuner."""
        tuner = self._tuner
        if tuner is None or tuner.ewma_weight != adaptive.ewma_weight:
            tuner = CostModelTuner(
                self.searcher.cost_model, ewma_weight=adaptive.ewma_weight
            )
            self._tuner = tuner
        linear_ops = sum(
            self.n for r in results if r.stats.strategy is Strategy.LINEAR
        )
        candidate_ops = sum(
            r.stats.exact_candidates
            for r in results
            if r.stats.strategy is Strategy.LSH and r.stats.exact_candidates >= 0
        )
        tuner.observe_batch(
            linear_ops,
            trace.seconds.get("linear", 0.0),
            candidate_ops,
            trace.seconds.get("candidates", 0.0),
        )
        self.searcher.cost_model = tuner.model

    @property
    def recalibrations(self) -> int:
        """Completed cost-model coefficient updates (0 when never tuned)."""
        return 0 if self._tuner is None else self._tuner.recalibrations

    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Add points to the served index; returns their assigned ids.

        Subsequent queries — single or batched — see the new points at
        once (the searcher refreshes its scan on the next query).
        """
        return self.index.insert(new_points)

    def peek_assignment(self, count: int) -> np.ndarray:
        """Shard ids the next ``count`` inserted points go to (all 0)."""
        return np.zeros(count, dtype=np.int64)

    def close(self) -> None:
        """Nothing to release: the engine owns no threads or processes."""

    def __repr__(self) -> str:
        return (
            f"BatchQueryEngine(n={self.n}, dim={self.dim}, "
            f"radius={self.radius}, dedup={self.dedup!r})"
        )
