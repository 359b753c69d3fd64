"""Tests for hybrid search (Algorithm 2) and building it through the facade."""

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.core import (
    CostModel,
    HybridSearcher,
    LinearScan,
    LSHSearch,
    Strategy,
)
from repro.exceptions import ConfigurationError, EmptyIndexError
from repro.hashing import PStableLSH
from repro.index import LSHIndex


@pytest.fixture
def hybrid(l2_index):
    return HybridSearcher(l2_index, CostModel.from_ratio(6.0))


class TestConstruction:
    def test_requires_built_index(self):
        index = LSHIndex(PStableLSH(4, w=1.0, p=2, seed=0), k=2, num_tables=2)
        with pytest.raises(EmptyIndexError):
            HybridSearcher(index, CostModel.from_ratio(1.0))

    def test_requires_sketches(self, gaussian_points):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=0), k=2, num_tables=2, with_sketches=False
        ).build(gaussian_points)
        with pytest.raises(ConfigurationError):
            HybridSearcher(index, CostModel.from_ratio(1.0))


class TestDecision:
    def test_stats_record_both_costs(self, hybrid, gaussian_points):
        result = hybrid.query(gaussian_points[0], radius=1.0)
        stats = result.stats
        assert stats.estimated_lsh_cost > 0
        assert stats.linear_cost == hybrid.cost_model.linear_cost(hybrid.index.n)
        assert not np.isnan(stats.estimated_candidates)

    def test_dispatch_matches_cost_comparison(self, hybrid, gaussian_points):
        """The strategy recorded must agree with the recorded costs."""
        for i in range(0, 60, 7):
            stats = hybrid.query(gaussian_points[i], radius=1.5).stats
            if stats.estimated_lsh_cost < stats.linear_cost:
                assert stats.strategy == Strategy.LSH
            else:
                assert stats.strategy == Strategy.LINEAR

    def test_forced_linear_by_extreme_model(self, l2_index, gaussian_points):
        """With alpha astronomically high every query goes linear."""
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e12, beta=1.0))
        result = searcher.query(gaussian_points[0], radius=1.0)
        assert result.stats.strategy == Strategy.LINEAR

    def test_forced_lsh_by_extreme_model(self, l2_index, gaussian_points):
        """With beta astronomically high (linear cost huge) LSH always wins."""
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e-12, beta=1.0))
        result = searcher.query(gaussian_points[0], radius=1.0)
        assert result.stats.strategy == Strategy.LSH

    def test_decide_matches_query(self, hybrid, gaussian_points):
        for i in (0, 13, 57):
            decided = hybrid.decide(gaussian_points[i])
            ran = hybrid.query(gaussian_points[i], radius=1.5).stats.strategy
            assert decided == ran


class TestAnswers:
    def test_linear_branch_is_exact(self, l2_index, gaussian_points):
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e12, beta=1.0))
        scan = LinearScan(gaussian_points, "l2")
        q = gaussian_points[4]
        hybrid_ids = searcher.query(q, radius=1.5).ids
        exact_ids = scan.query(q, radius=1.5).ids
        assert np.array_equal(hybrid_ids, exact_ids)

    def test_lsh_branch_matches_pure_lsh(self, l2_index, gaussian_points):
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e-12, beta=1.0))
        pure = LSHSearch(l2_index)
        q = gaussian_points[4]
        assert np.array_equal(
            searcher.query(q, radius=1.5).ids, pure.query(q, radius=1.5).ids
        )

    def test_no_false_positives_either_branch(self, hybrid, gaussian_points):
        for i in (0, 30, 55):
            q = gaussian_points[i]
            result = hybrid.query(q, radius=1.2)
            dists = np.linalg.norm(gaussian_points[result.ids] - q, axis=1)
            assert np.all(dists <= 1.2)


class TestHybridLSHFacade:
    """The paper's Hybrid LSH, built and served through ``Index.build``."""

    def test_end_to_end_l2(self, gaussian_points):
        index = Index.build(gaussian_points, IndexSpec(
            metric="l2", radius=1.0, num_tables=10, cost_ratio=6.0, seed=3
        ))
        result = index.query(QuerySpec(gaussian_points[0]))
        assert 0 in result.ids
        assert result.radius == 1.0

    def test_query_batch(self, gaussian_points):
        index = Index.build(gaussian_points, IndexSpec(
            metric="l2", radius=1.0, num_tables=6, cost_ratio=6.0, seed=3
        ))
        results = index.query(QuerySpec(gaussian_points[:5]))
        assert len(results) == 5

    def test_radius_override(self, gaussian_points):
        index = Index.build(gaussian_points, IndexSpec(
            metric="l2", radius=1.0, num_tables=6, cost_ratio=6.0, seed=3
        ))
        assert index.query(QuerySpec(gaussian_points[0], radius=0.4)).radius == 0.4

    def test_calibration_path(self, gaussian_points):
        """cost_ratio=None triggers timing calibration and still works."""
        index = Index.build(gaussian_points[:200], IndexSpec(
            metric="l2", radius=1.0, num_tables=4, cost_ratio=None, seed=3
        ))
        assert index.cost_model.beta_over_alpha > 0
        result = index.query(QuerySpec(gaussian_points[0]))
        assert result.output_size >= 1

    def test_binary_facade(self, binary_points):
        index = Index.build(binary_points, IndexSpec(
            metric="hamming", radius=4.0, num_tables=10, cost_ratio=1.0, seed=2
        ))
        result = index.query(QuerySpec(binary_points[0]))
        assert 0 in result.ids

    def test_repr(self, gaussian_points):
        index = Index.build(gaussian_points, IndexSpec(
            metric="l2", radius=1.0, num_tables=4, cost_ratio=6.0, seed=3
        ))
        assert "Index(" in repr(index)
        assert "BatchQueryEngine(" in repr(index.engine)
