"""Depth-map / point-cloud operations.

Depth maps are (H, W) float arrays in mm with 0 marking an invalid pixel;
binary masks are (H, W) bool arrays; point clouds are (N, 3) float arrays
in the sensor frame (mm). ``CameraIntrinsics`` owns the pinhole model:
every projection of a point to a pixel and every ray through a pixel goes
through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree


class EmptyCloudError(ValueError):
    """An operation that needs points received an empty cloud."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def project(self, x, y, z):
        """Pixel coordinates (u, v) of camera-frame coordinates (x, y, z).

        Takes scalars or 1-D arrays; z must be positive.
        """
        return self.fx * x / z + self.cx, self.fy * y / z + self.cy

    def rays(self, px: np.ndarray) -> np.ndarray:
        """Unit ray directions through (M, 2) pixels, camera frame."""
        d = np.ones((px.shape[0], 3))
        d[:, 0] = (px[:, 0] - self.cx) / self.fx
        d[:, 1] = (px[:, 1] - self.cy) / self.fy
        return d / np.sqrt(np.vecdot(d, d))[:, None]


def depth_to_cloud(depth: np.ndarray, intr: CameraIntrinsics,
                   mask: np.ndarray) -> np.ndarray:
    """Back-project the mask-true pixels of valid depth to 3D sensor-frame points.

    Pixel (u, v) with depth d maps to (d·(u−cx)/fx, d·(v−cy)/fy, d).
    """
    depth = np.asarray(depth, dtype=float)
    if depth.shape != (intr.height, intr.width):
        raise ValueError(f"depth shape {depth.shape} does not match intrinsics "
                         f"({intr.height}, {intr.width})")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != depth.shape:
        raise ValueError(f"mask shape {mask.shape} does not match depth {depth.shape}")
    # flat indices: numpy 2.4's 2-D np.nonzero costs about 0.45 ms on a
    # 400x300 image even when nothing is set; flatnonzero and a divmod by
    # the width give the same (v, u) in the same row-major order in a
    # fraction of that
    idx = np.flatnonzero(mask)
    d = depth.ravel()[idx]
    valid = d > 0
    idx, d = idx[valid], d[valid]
    v, u = np.divmod(idx, intr.width)
    x = d * (u - intr.cx) / intr.fx
    y = d * (v - intr.cy) / intr.fy
    return np.column_stack([x, y, d])


def centroid(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise EmptyCloudError("centroid of an empty cloud")
    return points.reshape(-1, 3).mean(axis=0)


# 8-connectivity: diagonal neighbours join a component
_CONN8 = np.ones((3, 3), dtype=int)


def largest_component(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 8-connected true region of a binary mask.

    Ties are broken in favour of the component whose first pixel comes
    earliest in row-major order. An all-false mask passes through.
    """
    mask = np.asarray(mask, dtype=bool)
    labels, n = ndimage.label(mask, structure=_CONN8)
    if n == 0:
        return np.zeros_like(mask)
    counts = np.bincount(labels.ravel())[1:]
    # ndimage numbers components in row-major discovery order, so argmax's
    # first-maximum rule implements the tie-break
    best = int(np.argmax(counts)) + 1
    return labels == best


def voxel_subsample(points: np.ndarray, size_mm: float) -> np.ndarray:
    """Indices of the first point in each occupied voxel, in ascending order.

    Voxels are cubes of ``size_mm`` on a grid anchored at the origin of the
    points' frame, so the subset depends only on the points and their order.
    A grid too fine to number its voxels in an int64 raises ValueError.
    """
    if not size_mm > 0:
        raise ValueError("voxel size must be positive")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    keys = np.floor(points / size_mm).astype(np.int64)
    keys -= keys.min(axis=0)
    voxel = np.ravel_multi_index(keys.T, keys.max(axis=0) + 1)
    # unique sorts stably when asked for indices, so each is a first occurrence
    _, first = np.unique(voxel, return_index=True)
    return np.sort(first)


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (N, 3) array, which it overwrites
    with its squares. The squares are summed as cKDTree sums a squared
    distance, so a pair's length has the tree's bits."""
    d *= d
    return np.sqrt((d[:, 0] + d[:, 1]) + d[:, 2])


def _inside(queries: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows of an (N, 3) array lie inside the box [lo, hi]."""
    (x0, y0, z0), (x1, y1, z1) = lo.tolist(), hi.tolist()
    x, y, z = queries[:, 0], queries[:, 1], queries[:, 2]
    # six 1-D compares cost a third of one (N, 3) compare and an all()
    return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1) & (z >= z0) & (z <= z1)


class QueryCache:
    """What one ICP loop's queries last found, per scene point.

    Sized to the loop's fixed scene of ``n`` points and handed to
    ``NearestNeighborIndex.query`` on every iteration, with the same index
    and ``max_dist``; the scene may be re-posed between calls. For each
    point it keeps the position of its last search (``at``), the neighbour
    found there (``nbr``, -1 for none) and how far the point may move from
    ``at`` before that answer has to be searched again (``slack``).
    """

    def __init__(self, n: int):
        self.at = np.zeros((n, 3))
        self.nbr = np.full(n, -1, dtype=np.intp)
        self.slack = np.full(n, -np.inf)
        self.owner = None


class NearestNeighborIndex:
    """Immutable KD-tree over a reference cloud; safe for concurrent queries,
    each with its own cache if any.

    A ``QueryCache`` passed to ``query`` lets a loop over one fixed scene
    skip the tree for every point whose answer provably cannot have changed
    since its last search:

    - a point that found its nearest reference point at distance d1, with
      the second nearest at d2 (``max_dist`` when there is none within
      ``max_dist``), keeps that neighbour while it has moved less than
      (d2 - d1) / 2: the neighbour is then still strictly the nearest;
    - a point outside the padded box keeps having no neighbour while it has
      moved less than its distance to that box.

    The box distance is shrunk by 1e-7 of itself and the half gap by 1e-7 of
    d2. Each length in these tests is a difference of two stored points, so
    its rounding error is a few ulps of that length, not of the coordinates;
    the margins lie far above that, so rounding cannot flip a test. A point
    with no neighbour inside the box, or with two neighbours at exactly the
    same distance, is searched on every call. The distance of every kept
    pair is summed again as the tree sums it, so the result has the bytes
    of the call without a cache.

    A cache only pays in a loop over one scene. A single query of a new
    cloud, as each interaction frame's ``register.update_pose`` makes,
    takes none and goes to the tree with ``k=1``.
    """

    def __init__(self, reference: np.ndarray):
        reference = np.asarray(reference, dtype=float).reshape(-1, 3)
        if reference.shape[0] == 0:
            raise EmptyCloudError("cannot index an empty reference cloud")
        self.reference = reference
        self._lo = reference.min(axis=0)
        self._hi = reference.max(axis=0)
        self._tree = cKDTree(reference)

    def query(self, queries: np.ndarray, max_dist: float,
              cache: QueryCache | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest reference point per query, kept only strictly within max_dist.

        Returns (query_indices, reference_indices, distances). ``cache``,
        if given, must be sized to ``queries`` and used only with this
        index and this ``max_dist``; the result is the same either way.
        """
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        # a query outside the reference's bounding box widened by max_dist
        # has no neighbour within max_dist, so only the rest go to the tree;
        # the widening is rounded outwards, so no pair is lost to rounding
        pad = max_dist * (1.0 + 1e-9)
        lo = np.nextafter(self._lo - pad, -np.inf)
        hi = np.nextafter(self._hi + pad, np.inf)
        if cache is None:
            near = np.flatnonzero(_inside(queries, lo, hi))
            dist, idx = self._tree.query(queries.take(near, axis=0), k=1,
                                         distance_upper_bound=max_dist, workers=1)
            # scipy keeps d**2 < max_dist**2, but sqrt(d**2) can round up to
            # max_dist; a missing neighbour is inf and fails the test too
            found = dist < max_dist
            return near[found], idx[found], dist[found]

        if cache.owner is None:
            cache.owner = (self, max_dist)
        if cache.owner != (self, max_dist) or cache.at.shape != queries.shape:
            raise ValueError("a QueryCache serves one index, one max_dist and "
                             "one number of queries")
        stale = np.flatnonzero(~(_norms(queries - cache.at) < cache.slack))
        q = queries.take(stale, axis=0)
        cache.at[stale] = q
        inside = _inside(q, lo, hi)
        # a point outside the box stays outside while it moves less than
        # its distance to the box
        out = ~inside
        qf, far = q[out], stale[out]
        cache.nbr[far] = -1
        cache.slack[far] = _norms(np.maximum(np.maximum(lo - qf, qf - hi), 0.0)
                                  ) * (1.0 - 1e-7)

        near = np.flatnonzero(inside)
        qn, searched = q.take(near, axis=0), stale.take(near)
        dist, idx = self._tree.query(qn, k=2, distance_upper_bound=max_dist,
                                     workers=1)
        d1, d2 = dist[:, 0], np.minimum(dist[:, 1], max_dist)
        nbr = idx[:, 0]
        # of two neighbours at one distance, k=2 may list first the one that
        # k=1 does not return
        tie = np.flatnonzero(d1 == d2)
        if tie.size:
            nbr[tie] = self._tree.query(qn.take(tie, axis=0), k=1,
                                        distance_upper_bound=max_dist,
                                        workers=1)[1]
        nbr[d1 == np.inf] = -1
        cache.nbr[searched] = nbr
        # a miss has d1 = inf and so a slack of -inf: it is searched again
        cache.slack[searched] = (d2 - d1) * 0.5 - d2 * 1e-7

        has = np.flatnonzero(cache.nbr >= 0)
        ridx = cache.nbr.take(has)
        dist = _norms(queries.take(has, axis=0) - self.reference.take(ridx, axis=0))
        found = dist < max_dist
        return has[found], ridx[found], dist[found]
