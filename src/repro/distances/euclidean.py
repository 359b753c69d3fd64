"""Euclidean (L2) distance, the metric of the Corel experiment.

The paper indexes Corel Images (``d = 32``) under L2 using the p-stable
LSH of Datar et al. with Gaussian projections; the verification step
(Step S3 of the cost model) computes these distances for every
candidate, which is why a fast batch kernel matters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distances.base import Metric, register_metric

__all__ = [
    "euclidean_distance",
    "euclidean_distance_batch",
    "euclidean_prepare",
    "euclidean_distance_batch_prepared",
    "EUCLIDEAN",
]


def euclidean_distance(x: np.ndarray, y: np.ndarray) -> float:
    """L2 distance between two equal-length vectors.

    Examples
    --------
    >>> euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    5.0
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = x - y
    return math.sqrt(float(np.dot(diff, diff)))


def euclidean_distance_batch(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """L2 distances from every row of ``points`` to ``query``.

    Uses the expansion ``|x - q|^2 = |x|^2 - 2 x.q + |q|^2`` which turns
    the scan into one matrix-vector product. Rows within cancellation
    range of the query are recomputed from their difference (see
    :func:`_finish`), so a point's distance to itself is exactly zero.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    return _finish(euclidean_prepare(points), points, query)


def euclidean_prepare(points: np.ndarray) -> np.ndarray:
    """Reusable squared row norms — the query-independent einsum term."""
    points = np.asarray(points, dtype=np.float64)
    return np.einsum("ij,ij->i", points, points)


def euclidean_distance_batch_prepared(
    points: np.ndarray, query: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """:func:`euclidean_distance_batch` with the row norms precomputed.

    Bit-identical: ``norms`` holds exactly the per-row einsum values the
    plain kernel recomputes (the reduction is per row, so a cached or
    gathered norm carries the same float), and the remaining ops match
    term for term.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    return _finish(norms, points, query)


#: Squared distances below this fraction of ``|q|^2`` are recomputed from
#: the difference vector: there the expansion's cancellation error (about
#: ``eps * |q|^2``, and dependent on the BLAS reduction order of the
#: matrix a row sits in) would swamp the true value.
_CANCELLATION_RTOL = 1e-6


def _finish(norms: np.ndarray, points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Expansion distances, exact near the query, clipped and rooted."""
    qq = np.dot(query, query)
    sq = norms - 2.0 * (points @ query) + qq
    tol = _CANCELLATION_RTOL * qq
    if sq.size and sq.min() < tol:
        near = np.flatnonzero(sq < tol)
        diff = points[near] - query
        sq[near] = np.einsum("ij,ij->i", diff, diff)
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)


EUCLIDEAN = register_metric(
    Metric(
        name="l2",
        scalar=euclidean_distance,
        batch=euclidean_distance_batch,
        description="Euclidean distance (p-stable LSH with Gaussian projections)",
        aliases=("euclidean",),
        prepare=euclidean_prepare,
        batch_prepared=euclidean_distance_batch_prepared,
    )
)
