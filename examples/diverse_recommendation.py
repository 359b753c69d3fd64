"""k-diverse near neighbor search — the paper's second motivating use.

Abbar et al. (WWW 2013) recommend *diverse* related articles by first
reporting all r-near neighbors of a query article and then selecting
the k most mutually distant among them.  rNNR is the expensive first
stage; this example builds it on a hybrid index and implements
the greedy max-min diversification on top.

Run:  python examples/diverse_recommendation.py
"""

from __future__ import annotations

import numpy as np

from repro import Index, IndexSpec, QuerySpec
from repro.datasets import gaussian_mixture
from repro.distances import get_metric


def greedy_diverse_subset(
    candidates: np.ndarray, k: int, metric_name: str = "l2"
) -> np.ndarray:
    """Greedy max-min selection of ``k`` mutually distant rows.

    Starts from the pair-independent first candidate and repeatedly adds
    the candidate maximising its minimum distance to the picked set —
    the standard 2-approximation of the max-min dispersion problem.
    """
    metric = get_metric(metric_name)
    if candidates.shape[0] <= k:
        return np.arange(candidates.shape[0])
    picked = [0]
    min_dist = metric.distances_to(candidates, candidates[0])
    while len(picked) < k:
        nxt = int(np.argmax(min_dist))
        picked.append(nxt)
        np.minimum(min_dist, metric.distances_to(candidates, candidates[nxt]), out=min_dist)
    return np.asarray(picked)


def main() -> None:
    rng = np.random.default_rng(11)
    # Articles as topic-mixture embeddings: several topical clusters.
    centers = rng.uniform(-10, 10, size=(15, 32))
    points = gaussian_mixture(
        6000, 32, centers, spreads=np.full(15, 1.0), seed=rng
    )

    # Within-topic article distances concentrate near sqrt(2 * 32) ~ 8,
    # so r = 9 reports the query's whole topical neighborhood.
    radius, k = 9.0, 5
    index = Index.build(
        points,
        IndexSpec(metric="l2", radius=radius, num_tables=50, cost_ratio=6.0, seed=2),
    )

    result = index.query(QuerySpec(points[123]))
    print(f"query article 123: {result.output_size} related articles within r={radius} "
          f"(strategy: {result.strategy})")

    related = points[result.ids]
    chosen = greedy_diverse_subset(related, k)
    chosen_ids = result.ids[chosen]
    print(f"\ntop-{k} diverse recommendations: {chosen_ids.tolist()}")

    metric = get_metric("l2")
    # Diversity diagnostic: min pairwise distance of the chosen set vs a
    # naive nearest-k baseline.
    def min_pairwise(rows: np.ndarray) -> float:
        dists = [
            metric(rows[i], rows[j])
            for i in range(rows.shape[0])
            for j in range(i + 1, rows.shape[0])
        ]
        return min(dists) if dists else 0.0

    nearest_k_ids = result.ids[np.argsort(result.distances)[:k]]
    print(f"min pairwise distance, diverse set : {min_pairwise(points[chosen_ids]):.2f}")
    print(f"min pairwise distance, nearest-k    : {min_pairwise(points[nearest_k_ids]):.2f}")
    print("\nDiversification needs the *complete* neighbor report — exactly "
          "what rNNR (and hence hybrid search) provides.")


if __name__ == "__main__":
    main()
