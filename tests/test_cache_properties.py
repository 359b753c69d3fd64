"""Hypothesis: the result cache never changes an answer.

An :class:`~repro.api.Index` with ``cache_size > 0`` assembles each
radius answer from per-shard partials (``shard_query_batch`` /
``map_shards`` / ``merge_radius`` on the engine), some of them cached
from earlier batches.  The same spec with the cache off answers each
batch in one engine call.  Across shard counts and random insert
schedules, both must return the same ids and distances, bit for bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import capped, clustered_points, insert_schedules

from repro.api import Index, IndexSpec, QuerySpec

N, DIM = 120, 6


@given(
    num_shards=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**16),
    schedule=insert_schedules(),
)
@example(
    num_shards=1, seed=0, schedule=[("query", [0, 0, 1]), ("insert", 2), ("query", [0, 1])]
)
@settings(max_examples=capped(20), deadline=None)
def test_cached_index_answers_like_uncached(num_shards, seed, schedule):
    points = clustered_points(seed, N, DIM)
    rng = np.random.default_rng(seed + 1)
    probes = np.concatenate(
        [points[rng.choice(N, size=4, replace=False)], rng.normal(size=(4, DIM))]
    )
    extra = rng.normal(scale=0.5, size=(40, DIM))
    spec = IndexSpec(
        metric="l2", radius=0.8, num_tables=5, num_shards=num_shards,
        cost_ratio=6.0, seed=seed,
    )
    cached = Index.build(points, spec.with_overrides(cache_size=64))
    plain = Index.build(points, spec)
    try:
        used = 0
        for kind, arg in schedule:
            if kind == "insert":
                new = extra[used:used + arg]
                used += arg
                assert np.array_equal(cached.insert(new), plain.insert(new))
                continue
            batch = probes[arg]
            for got, want in zip(
                cached.query(QuerySpec(batch)), plain.query(QuerySpec(batch))
            ):
                assert np.array_equal(got.ids, want.ids)
                assert np.array_equal(got.distances, want.distances)
    finally:
        cached.close()
        plain.close()
