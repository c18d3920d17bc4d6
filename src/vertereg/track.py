"""Drill-sleeve pose from stereo corner observations.

Corner detection happens upstream; this module consumes undistorted pixel
coordinates of marker corners in both views, triangulates them, fits the
sleeve pose against the known marker geometry, and smooths the pose with a
constant-acceleration Kalman filter (one scalar filter per translation axis
and per hemisphere-aligned quaternion component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import CameraIntrinsics
from .geom import RigidTransform, hemisphere_align, quat_normalize, quat_to_matrix, umeyama


class UnreliableTriangulationError(RuntimeError):
    """Rays are near-parallel or miss each other by too much."""


class InsufficientMarkersError(ValueError):
    """Fewer than two markers were observed in both views."""


@dataclass(frozen=True)
class StereoRig:
    """Two pinhole cameras; ``baseline`` is the right camera's pose in the
    left camera frame."""

    left: CameraIntrinsics
    right: CameraIntrinsics
    baseline: RigidTransform

    def __post_init__(self):
        if np.linalg.norm(np.asarray(self.baseline.t, dtype=float)) <= 0:
            raise ValueError("stereo baseline must be nonzero")


@dataclass
class MarkerObservation:
    """Four corner pixel coordinates of one marker in each view.

    Corners are ordered consistently (counter-clockwise from a fixed
    corner) so left/right/reference correspondences line up by index.
    """

    marker_id: int
    left_px: np.ndarray    # (4, 2)
    right_px: np.ndarray   # (4, 2)

    def __post_init__(self):
        self.left_px = np.asarray(self.left_px, dtype=float).reshape(4, 2)
        self.right_px = np.asarray(self.right_px, dtype=float).reshape(4, 2)


def _pixel_ray(px: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Unit ray direction through a pixel, camera frame."""
    d = np.array([(px[0] - intr.cx) / intr.fx, (px[1] - intr.cy) / intr.fy, 1.0])
    return d / np.linalg.norm(d)


def triangulate(obs: MarkerObservation, rig: StereoRig,
                max_gap_mm: float = 10.0) -> np.ndarray:
    """Midpoint triangulation of the four corners, left-camera frame (mm).

    For each corner pair the closest points of the two viewing rays are
    found; their midpoint is the estimate. Near-parallel rays or a
    closest-approach gap above ``max_gap_mm`` raise
    UnreliableTriangulationError.
    """
    r_right = quat_to_matrix(rig.baseline.q)
    o2 = np.asarray(rig.baseline.t, dtype=float)
    out = np.empty((4, 3))
    for k in range(4):
        d1 = _pixel_ray(obs.left_px[k], rig.left)
        d2 = r_right @ _pixel_ray(obs.right_px[k], rig.right)
        # closest points on the two lines o1 + s d1 and o2 + u d2 (o1 = 0)
        w0 = -o2
        b = float(d1 @ d2)
        d = float(d1 @ w0)
        e = float(d2 @ w0)
        denom = 1.0 - b * b
        if denom < 1e-12:
            raise UnreliableTriangulationError(
                f"corner {k} of marker {obs.marker_id}: viewing rays are parallel")
        s = (b * e - d) / denom
        u = (e - b * d) / denom
        p1 = s * d1
        p2 = o2 + u * d2
        gap = float(np.linalg.norm(p1 - p2))
        if gap > max_gap_mm:
            raise UnreliableTriangulationError(
                f"corner {k} of marker {obs.marker_id}: ray gap {gap:.2f} mm")
        out[k] = 0.5 * (p1 + p2)
    return out


def marker_pose(observed_3d: np.ndarray, reference: dict[int, np.ndarray],
                ids: list[int]) -> RigidTransform:
    """Sleeve pose from triangulated corner coordinates.

    ``observed_3d`` stacks four corners per marker in the order given by
    ``ids``; ``reference`` maps marker id to the matching corners in the
    sleeve frame (known by design). Needs at least two markers; returns the
    sleeve-to-camera transform from the least-squares rigid fit.
    """
    known = [i for i in ids if i in reference]
    if len(known) < 2:
        raise InsufficientMarkersError(
            f"need at least 2 known markers, got {len(known)}")
    observed_3d = np.asarray(observed_3d, dtype=float).reshape(-1, 3)
    if observed_3d.shape[0] != 4 * len(ids):
        raise ValueError(f"expected {4 * len(ids)} corners for {len(ids)} "
                         f"markers, got {observed_3d.shape[0]}")
    keep = np.concatenate([np.arange(4 * k, 4 * k + 4)
                           for k, i in enumerate(ids) if i in reference])
    ref = np.vstack([np.asarray(reference[i], dtype=float).reshape(4, 3)
                     for i in ids if i in reference])
    return umeyama(ref, observed_3d[keep])


def track_pose(observations: list[MarkerObservation], rig: StereoRig,
               reference: dict[int, np.ndarray]) -> RigidTransform:
    """Triangulate every known observed marker and fit the sleeve pose."""
    usable = [o for o in observations if o.marker_id in reference]
    if len(usable) < 2:
        raise InsufficientMarkersError(
            f"need at least 2 known markers, got {len(usable)}")
    obs3d = np.vstack([triangulate(o, rig) for o in usable])
    return marker_pose(obs3d, reference, [o.marker_id for o in usable])


@dataclass(frozen=True)
class KalmanConfig:
    # process noise tuned so the filter at 30 fps roughly halves the standard
    # deviation of white measurement noise at steady state
    sigma_a: float = 2.0     # mm/s^2 (white acceleration)
    sigma_m: float = 0.5     # measurement noise, mm


class _ScalarCAFilter:
    """Constant-acceleration Kalman filter for one scalar channel."""

    def __init__(self, cfg: KalmanConfig):
        self.cfg = cfg
        self.x: np.ndarray | None = None   # [position, velocity, acceleration]
        self.p: np.ndarray | None = None

    def step(self, z: float, dt: float) -> float:
        if self.x is None:
            self.x = np.array([z, 0.0, 0.0])
            self.p = np.diag([self.cfg.sigma_m ** 2, 1e2, 1e2])
            return z
        f = np.array([[1.0, dt, 0.5 * dt * dt],
                      [0.0, 1.0, dt],
                      [0.0, 0.0, 1.0]])
        g = np.array([0.5 * dt * dt, dt, 1.0])
        q = self.cfg.sigma_a ** 2 * np.outer(g, g)
        r = self.cfg.sigma_m ** 2

        x = f @ self.x
        p = f @ self.p @ f.T + q
        innov = z - x[0]
        s = p[0, 0] + r
        k = p[:, 0] / s
        self.x = x + k * innov
        p = p - np.outer(k, p[0, :])
        self.p = 0.5 * (p + p.T)
        return float(self.x[0])


class PoseKalman:
    """Constant-acceleration smoothing of a rigid pose stream.

    Translations are filtered per axis in mm; the quaternion is hemisphere
    aligned against the last smoothed estimate, filtered per component with
    the same scalar filter, and renormalized. The first measurement
    initializes the state, so the first output equals the first input.
    """

    def __init__(self, cfg: KalmanConfig = KalmanConfig()):
        self.cfg = cfg
        self._filters = [_ScalarCAFilter(cfg) for _ in range(7)]
        self._last_q: np.ndarray | None = None

    def step(self, measured: RigidTransform, dt: float) -> RigidTransform:
        if dt <= 0:
            raise ValueError("dt must be positive")
        q = quat_normalize(measured.q)
        if self._last_q is not None:
            q = hemisphere_align(self._last_q, q)
        t = np.asarray(measured.t, dtype=float)
        smoothed_t = np.array([self._filters[i].step(float(t[i]), dt) for i in range(3)])
        smoothed_q = np.array([self._filters[3 + i].step(float(q[i]), dt)
                               for i in range(4)])
        smoothed_q = quat_normalize(smoothed_q)
        self._last_q = smoothed_q
        return RigidTransform(smoothed_q, smoothed_t)
