"""Data-mining operations: k-means clustering and PCA.

PerfExplorer's original contribution was applying data-mining toolkits
(Weka, R) to parallel profiles — clustering threads by behaviour and
projecting onto principal components to find structure in large thread
counts.  Both algorithms are implemented here directly on NumPy, seeded and
deterministic.

The observation matrix is threads × events for one metric: each thread is
a point in "event-time space".  Clustering MPI ranks typically separates
e.g. boundary ranks from interior ranks; for the MSA study it separates
overloaded from underloaded threads.
"""

from __future__ import annotations

import numpy as np

from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation


def _observation_matrix(
    result: PerformanceResult, metric: str, *, normalize: bool
) -> np.ndarray:
    # threads × events, a C-ordered copy: each thread's row is contiguous,
    # so the Lloyd steps' row gathers and per-row reductions read memory in
    # order, and normalizing in place leaves the trial's array as it was
    data = np.array(result.exclusive(metric).T, dtype=float, order="C")
    if normalize:
        low = data.min(axis=0)
        span = data.max(axis=0) - low
        span[span == 0] = 1.0
        data -= low
        data /= span
    return data


#: Lloyd iterations before :func:`kmeans` stops without converging.
KMEANS_MAX_ITER = 100


def kmeans(
    data: np.ndarray, k: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd's algorithm with k-means++ seeding.

    Returns (labels, centroids, inertia).  Deterministic for a given seed.
    """
    labels, centroids = _lloyd(data, k, seed)
    return labels, centroids, _inertia(data, labels, centroids)


def _inertia(data: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances from each observation to its centroid."""
    return float(((data - centroids[labels]) ** 2).sum())


def _lloyd(data: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kmeans` without the inertia: (labels, centroids)."""
    n, d = data.shape
    if not 1 <= k <= n:
        raise AnalysisError(f"k={k} invalid for {n} observations")
    rng = np.random.default_rng(seed)
    # k-means++ initialization
    centroids = np.empty((k, d))
    centroids[0] = data[rng.integers(n)]
    closest_sq = ((data - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total == 0:
            centroids[i:] = data[rng.integers(n, size=k - i)]
            break
        probs = closest_sq / total
        centroids[i] = data[rng.choice(n, p=probs)]
        dist_sq = ((data - centroids[i]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)

    labels = np.zeros(n, dtype=int)
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is constant
    # per row so the argmin only needs the cross and centroid terms.  This
    # keeps the iteration at an (n, k) matmul instead of materializing the
    # (n, k, d) difference cube.
    for _ in range(KMEANS_MAX_ITER):
        dists = (centroids**2).sum(axis=1) - 2.0 * (data @ centroids.T)
        new_labels = dists.argmin(axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            members = data[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return labels, centroids


class KMeansOperation(PerformanceAnalysisOperation):
    """Cluster threads by their per-event profile of one metric.

    Output: a result with one synthetic "thread" per cluster whose values
    are the cluster centroids; ``labels()`` gives thread → cluster.
    """

    def __init__(
        self,
        input_result: PerformanceResult,
        metric: str,
        k: int,
        *,
        seed: int = 0,
        normalize: bool = True,
    ) -> None:
        super().__init__(input_result)
        self._require_metric(input_result, metric)
        self.metric = metric
        self.k = k
        self.seed = seed
        self.normalize = normalize
        self._data: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._centroids: np.ndarray | None = None

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        data = _observation_matrix(src, self.metric, normalize=self.normalize)
        labels, centroids = _lloyd(data, self.k, self.seed)
        self._data, self._labels, self._centroids = data, labels, centroids
        builder = PerformanceResult.like(
            src, name=f"{src.name}:kmeans{self.k}({self.metric})", n_threads=self.k
        )
        builder.with_metric(self.metric, centroids.T, derived=True)
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs

    def labels(self) -> np.ndarray:
        if self._labels is None:
            self.process_data()
        return self._labels

    def inertia(self) -> float:
        if self._labels is None:
            self.process_data()
        return _inertia(self._data, self._labels, self._centroids)

    def cluster_sizes(self) -> list[int]:
        labels = self.labels()
        return [int((labels == c).sum()) for c in range(self.k)]


class PCAOperation(PerformanceAnalysisOperation):
    """Principal component analysis of the threads × events matrix.

    Output: component loadings as a result (components on the thread axis);
    ``scores()`` gives the thread projections, ``explained_variance_ratio()``
    the spectrum.
    """

    def __init__(
        self,
        input_result: PerformanceResult,
        metric: str,
        *,
        n_components: int = 2,
    ) -> None:
        super().__init__(input_result)
        self._require_metric(input_result, metric)
        max_rank = min(input_result.thread_count, len(input_result.events))
        if not 1 <= n_components <= max_rank:
            raise AnalysisError(
                f"n_components={n_components} invalid (max {max_rank})"
            )
        self.metric = metric
        self.n_components = n_components
        self._scores: np.ndarray | None = None
        self._ratio: np.ndarray | None = None

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        data = _observation_matrix(src, self.metric, normalize=False)
        centered = data - data.mean(axis=0)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        # deterministic sign: make each component's largest loading positive
        for i in range(vt.shape[0]):
            j = np.argmax(np.abs(vt[i]))
            if vt[i, j] < 0:
                vt[i] = -vt[i]
                u[:, i] = -u[:, i]
        k = self.n_components
        self._scores = u[:, :k] * s[:k]
        var = s**2
        self._ratio = var / var.sum() if var.sum() > 0 else np.zeros_like(var)
        builder = PerformanceResult.like(
            src, name=f"{src.name}:pca({self.metric})", n_threads=k
        )
        builder.with_metric(f"loading:{self.metric}", vt[:k].T, derived=True)
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs

    def scores(self) -> np.ndarray:
        if self._scores is None:
            self.process_data()
        return self._scores

    def explained_variance_ratio(self) -> np.ndarray:
        if self._ratio is None:
            self.process_data()
        return self._ratio[: self.n_components]
