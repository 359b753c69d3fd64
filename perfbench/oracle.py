"""Brute-force ground truth and the checks every benchmark answer must pass.

The truth is computed here with NumPy alone, never with the program's
own scan: squared distances are screened with one float64 matrix product
per block of queries, and every point that survives the screen has its
distance recomputed from direct coordinate differences.

Two kinds of answer are checked differently:

* an exact answer (the linear scan, or a merged answer whose every part
  was exact) must report every point within ``radius - RADIUS_TOL`` and
  nothing beyond ``radius + RADIUS_TOL``;
* an LSH answer may miss points, but every id it reports must lie
  within ``radius + RADIUS_TOL``.

In both, ids are distinct and every reported distance equals the exact
distance to within ``DIST_ATOL``.  The tolerances exist because the
program's kernels sum in BLAS order, which moves distances by ulps; near
zero the expanded ``|x|^2 - 2 x.q + |q|^2`` form loses up to ~1e-6.
"""

from __future__ import annotations

import numpy as np

#: Largest accepted gap between a reported and the exact distance.
DIST_ATOL = 1e-5
#: Half-width of the band around the radius where either verdict is accepted.
RADIUS_TOL = 1e-7
#: Screen margin on the distance; far wider than the matrix product's error.
_SCREEN = 0.05
_BLOCK = 128


class Violation(AssertionError):
    """An answer that the brute force contradicts."""


class Truth:
    """Every point within ``radius + RADIUS_TOL`` of each query, with distances.

    ``ids[i]`` is sorted ascending and ``dists[i]`` aligned with it.
    An answer byte-identical to one already checked for the same query
    and the same ``present`` reuses that verdict, so repeated queries to
    an unchanged index cost one array comparison each.
    """

    def __init__(self, points: np.ndarray, queries: np.ndarray, radius: float) -> None:
        points = np.asarray(points, dtype=np.float64)
        queries = np.asarray(queries, dtype=np.float64)
        self.radius = float(radius)
        self.ids: list[np.ndarray] = []
        self.dists: list[np.ndarray] = []
        point_sq = np.einsum("ij,ij->i", points, points)
        screen_sq = (self.radius + _SCREEN) ** 2
        for lo in range(0, queries.shape[0], _BLOCK):
            block = queries[lo : lo + _BLOCK]
            block_sq = np.einsum("ij,ij->i", block, block)
            approx = block_sq[:, None] - 2.0 * (block @ points.T) + point_sq[None, :]
            for row, query in zip(approx, block):
                near = np.flatnonzero(row <= screen_sq)
                exact = np.sqrt(((points[near] - query) ** 2).sum(axis=1))
                keep = exact <= self.radius + RADIUS_TOL
                self.ids.append(near[keep])
                self.dists.append(exact[keep])
        self._verified: dict[
            tuple[int, int | None], tuple[np.ndarray, np.ndarray, bool, float]
        ] = {}

    def check(
        self,
        qi: int,
        ids: np.ndarray,
        distances: np.ndarray,
        exact: bool,
        present: int | None = None,
    ) -> float:
        """Check one answer to query ``qi``; returns its recall.

        ``present`` limits the truth to ids below it: the points an
        index held when it answered.  Raises :class:`Violation`.
        """
        ids = np.asarray(ids, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        seen = self._verified.get((qi, present))
        if (
            seen is not None
            and seen[2] == exact
            and np.array_equal(seen[0], ids)
            and np.array_equal(seen[1], distances)
        ):
            return seen[3]
        recall = self._check(qi, ids, distances, exact, present)
        self._verified[(qi, present)] = (ids.copy(), distances.copy(), exact, recall)
        return recall

    def _check(
        self,
        qi: int,
        ids: np.ndarray,
        distances: np.ndarray,
        exact: bool,
        present: int | None,
    ) -> float:
        truth_ids, truth_d = self.ids[qi], self.dists[qi]
        if present is not None:
            keep = truth_ids < present
            truth_ids, truth_d = truth_ids[keep], truth_d[keep]
        if ids.shape != distances.shape or ids.ndim != 1:
            raise Violation(f"query {qi}: ids and distances are not aligned")
        if np.unique(ids).size != ids.size:
            raise Violation(f"query {qi}: duplicate ids in the answer")
        pos = np.searchsorted(truth_ids, ids)
        known = pos < truth_ids.size
        known[known] = truth_ids[pos[known]] == ids[known]
        if not known.all():
            raise Violation(
                f"query {qi}: id {int(ids[~known][0])} is not within "
                f"r={self.radius} of the query"
            )
        gap = np.abs(distances - truth_d[pos]) if ids.size else np.zeros(0)
        if (gap > DIST_ATOL).any():
            raise Violation(
                f"query {qi}: reported distance off by {float(gap.max()):.3g}"
            )
        if (distances > self.radius + DIST_ATOL).any():
            raise Violation(f"query {qi}: reported distance beyond the radius")
        within = truth_ids[truth_d <= self.radius]
        if exact:
            must = truth_ids[truth_d <= self.radius - RADIUS_TOL]
            missing = np.setdiff1d(must, ids, assume_unique=True)
            if missing.size:
                raise Violation(
                    f"query {qi}: exact answer misses {missing.size} of "
                    f"{must.size} neighbours"
                )
        if within.size == 0:
            return 1.0
        return float(np.isin(within, ids, assume_unique=True).mean())
