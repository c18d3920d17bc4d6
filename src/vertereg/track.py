"""Drill-sleeve pose from stereo corner observations.

Corner detection happens upstream; this module consumes undistorted pixel
coordinates of marker corners in both views, triangulates them, fits the
sleeve pose against the known marker geometry, and smooths the pose with a
constant-acceleration Kalman filter (one channel per translation axis and
per hemisphere-aligned quaternion component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import CameraIntrinsics
from .geom import RigidTransform, hemisphere_align, quat_normalize, quat_to_matrix, umeyama


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


# a corner whose two viewing rays miss each other by more than this is unreliable
MAX_RAY_GAP_MM = 10.0


def _triangulate_corners(left_px: np.ndarray, right_px: np.ndarray,
                         rig: StereoRig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint triangulation of corresponding (M, 2) pixel rows.

    Returns (points (M, 3) in the left-camera frame, parallel (M,) bool
    marking near-parallel rays, gap (M,) closest-approach distance in mm).
    np.vecdot and np.matvec take each row's product with the same inner
    loop as a 1-D ``@``, so every row matches a corner-by-corner loop bit
    for bit.
    """
    d1 = rig.left.rays(left_px)
    d2 = np.matvec(quat_to_matrix(rig.baseline.q), rig.right.rays(right_px))
    o2 = np.asarray(rig.baseline.t, dtype=float)
    # closest points on the lines o1 + s d1 and o2 + u d2 (o1 = 0)
    w0 = -o2
    b = np.vecdot(d1, d2)
    d = np.vecdot(d1, w0)
    e = np.vecdot(d2, w0)
    denom = 1.0 - b * b
    parallel = denom < 1e-12
    denom[parallel] = 1.0   # keeps the division finite; callers reject these
    s = (b * e - d) / denom
    u = (e - b * d) / denom
    p1 = s[:, None] * d1
    p2 = o2 + u[:, None] * d2
    diff = p1 - p2
    return 0.5 * (p1 + p2), parallel, np.sqrt(np.vecdot(diff, diff))


def track_pose(observations: list[MarkerObservation], rig: StereoRig,
               reference: dict[int, np.ndarray]) -> RigidTransform:
    """Triangulate every known observed marker and fit the sleeve pose.

    ``reference`` maps marker id to its four corners in the sleeve frame
    (known by design). Returns the sleeve-to-camera transform from the
    least-squares rigid fit of those corners onto the triangulated ones.
    A marker with an unreliable corner, one whose viewing rays are
    near-parallel or miss each other by more than ``MAX_RAY_GAP_MM``, is
    left out of the fit; fewer than two markers left raise
    InsufficientMarkersError.
    """
    usable = [o for o in observations if o.marker_id in reference]
    if len(usable) < 2:
        raise InsufficientMarkersError(
            f"need at least 2 known markers, got {len(usable)}")
    points, parallel, gap = _triangulate_corners(
        np.vstack([o.left_px for o in usable]),
        np.vstack([o.right_px for o in usable]), rig)
    reliable = ~(parallel | (gap > MAX_RAY_GAP_MM)).reshape(-1, 4).any(axis=1)
    ids = [o.marker_id for o, ok in zip(usable, reliable) if ok]
    if len(ids) < 2:
        raise InsufficientMarkersError(
            f"need at least 2 reliably triangulated markers, got {len(ids)}")
    return umeyama(np.vstack([reference[i] for i in ids]),
                   points[np.repeat(reliable, 4)])


# process noise tuned so the filter at 30 fps roughly halves the standard
# deviation of white measurement noise at steady state
SIGMA_A = 2.0     # mm/s^2 (white acceleration)
SIGMA_M = 0.5     # measurement noise, mm


class PoseKalman:
    """Constant-acceleration smoothing of a rigid pose stream.

    Translations are filtered per axis in mm; the quaternion is hemisphere
    aligned against the last smoothed estimate, filtered per component in
    the same way, and renormalized. The first measurement initializes the
    state, so the first output equals the first input.

    The seven channels share the transition, the noises and the initial
    covariance, and they always step together, so their covariances stay
    equal: one 3x3 covariance and a (7, 3) state (one row of position,
    velocity and acceleration per channel) carry them all.
    """

    def __init__(self):
        self._x: np.ndarray | None = None
        self._p: np.ndarray | None = None
        self._last_q: np.ndarray | None = None

    def step(self, measured: RigidTransform, dt: float) -> RigidTransform:
        if dt <= 0:
            raise ValueError("dt must be positive")
        q = quat_normalize(measured.q)
        if self._last_q is not None:
            q = hemisphere_align(self._last_q, q)
        z = np.concatenate([np.asarray(measured.t, dtype=float), q])
        if self._x is None:
            self._x = np.zeros((7, 3))
            self._x[:, 0] = z
            self._p = np.diag([SIGMA_M ** 2, 1e2, 1e2])
        else:
            f = np.array([[1.0, dt, 0.5 * dt * dt],
                          [0.0, 1.0, dt],
                          [0.0, 0.0, 1.0]])
            g = np.array([0.5 * dt * dt, dt, 1.0])
            x = np.matvec(f, self._x)
            p = f @ self._p @ f.T + SIGMA_A ** 2 * np.outer(g, g)
            k = p[:, 0] / (p[0, 0] + SIGMA_M ** 2)
            self._x = x + np.outer(z - x[:, 0], k)
            p = p - np.outer(k, p[0, :])
            self._p = 0.5 * (p + p.T)
        smoothed_q = quat_normalize(self._x[3:, 0])
        self._last_q = smoothed_q
        return RigidTransform(smoothed_q, self._x[:3, 0].copy())
