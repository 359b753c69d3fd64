"""Property-based tests for the serving subsystem (hypothesis optional).

The serving layer's contract is *exact agreement* with the single-query
reference paths, so these properties generate random data, queries, and
configurations and require bit-level equality:

* batched results == sequential single-query results;
* sharded exact top-k == unsharded exact top-k;
* HLL merging on the batch path is order-independent (commutative and
  associative register maxima), and identical to per-query merging.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Index, IndexSpec, QuerySpec
from repro.distances.matrix import pairwise_distances
from repro.sketches import HyperLogLog


@st.composite
def dataset_and_queries(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(40, 120))
    dim = draw(st.integers(3, 10))
    num_queries = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    # Half clustered, half scattered: both decision branches reachable.
    tight = rng.normal(scale=0.2, size=(n // 2, dim))
    loose = rng.uniform(-4.0, 4.0, size=(n - n // 2, dim))
    points = np.concatenate([tight, loose])
    queries = points[rng.choice(n, size=num_queries, replace=False)]
    return points, queries, seed


class TestBatchEqualsSequential:
    @given(
        dataset_and_queries(),
        st.floats(0.3, 3.0),
        st.floats(0.05, 50.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_engine_matches_query_loop(self, data, radius, ratio):
        points, queries, seed = data
        engine = Index.build(points, IndexSpec(
            metric="l2", radius=radius, num_tables=5, cost_ratio=ratio, seed=seed
        )).engine
        sequential = [engine.searcher.query(q, radius) for q in queries]
        for exp, act in zip(sequential, engine.query_batch(queries)):
            assert np.array_equal(exp.ids, act.ids)
            assert np.array_equal(exp.distances, act.distances)
            assert exp.stats.strategy == act.stats.strategy
            assert exp.stats.estimated_candidates == act.stats.estimated_candidates
            assert exp.stats.estimated_lsh_cost == act.stats.estimated_lsh_cost


class TestShardedTopK:
    @given(dataset_and_queries(), st.integers(1, 12), st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_sharded_topk_equals_unsharded(self, data, k, num_shards):
        """Sharded top-k equals unsharded top-k — exactly when the k-th
        gap is clear, and up to kernel ulps (the per-shard distance
        kernel can differ from the monolithic one by summation-order
        noise, ~1e-7 absolute near zero) when candidates are tied."""
        atol = 1e-5
        points, queries, seed = data
        sharded = Index.build(points, IndexSpec(
            metric="l2", radius=1.0, num_shards=num_shards, num_tables=4,
            cost_ratio=6.0, seed=seed,
        ))
        for query in queries:
            result = sharded.query(QuerySpec(query, k=k))
            distances = pairwise_distances(query, points, "l2")[0]
            order = np.lexsort((np.arange(points.shape[0]), distances))[:k]
            kth = distances[order][-1]
            assert len(result.ids) == k
            # Every reported id lies within the true k-th distance band
            # and carries (up to kernel noise) its true distance.
            assert np.all(distances[result.ids] <= kth + atol)
            assert np.allclose(result.distances, distances[result.ids], atol=atol)
            assert np.all(np.diff(result.distances) >= -atol)
            tie_free = (
                k == points.shape[0]
                or distances[np.argsort(distances)[k]] - kth > 2 * atol
            )
            if tie_free and np.all(np.diff(distances[order]) > 2 * atol):
                assert np.array_equal(result.ids, order)


class TestHllMergeOnBatchPath:
    @given(dataset_and_queries())
    @settings(max_examples=10, deadline=None)
    def test_batch_merge_identical_to_single(self, data):
        points, queries, seed = data
        index = Index.build(points, IndexSpec(
            metric="l2", radius=1.0, num_tables=5, cost_ratio=6.0, seed=seed
        )).engine.index
        lookups = index.lookup_batch(queries)
        for lookup, batched in zip(lookups, index.merged_sketches_batch(lookups)):
            single = index.merged_sketch(lookup)
            assert np.array_equal(single.registers, batched.registers)
            assert single.estimate() == batched.estimate()

    @given(
        st.lists(st.integers(0, 10**9), min_size=0, max_size=300),
        st.integers(2, 6),
        st.integers(0, 2**8),
    )
    @settings(max_examples=20, deadline=None)
    def test_merge_commutative_in_any_order(self, elements, pieces, seed):
        """Merging a partition's sketches in any order gives the same
        registers — the invariant merged_sketches_batch relies on."""
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, pieces, size=len(elements))
        sketches = []
        for piece in range(pieces):
            sketch = HyperLogLog(p=6, seed=1)
            chunk = [e for e, a in zip(elements, assignment) if a == piece]
            if chunk:
                sketch.add_batch(np.array(chunk, dtype=np.uint64))
            sketches.append(sketch)
        forward = HyperLogLog(p=6, seed=1)
        for sketch in sketches:
            forward.merge_in_place(sketch)
        backward = HyperLogLog(p=6, seed=1)
        for sketch in reversed(sketches):
            backward.merge_in_place(sketch)
        assert forward == backward
        assert forward.estimate() == backward.estimate()
