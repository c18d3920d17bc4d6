"""Ground-truth mask synthesis.

This provides the oracle stand-in for a learned segmenter: a depth render
of posed anatomy models is compared against the sensor depth image, the
agreement mask is smoothed, and the result pairs with a reference
orientation quaternion.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .cloud import CameraIntrinsics

MATCH_MM = 10.0  # sensor depth within this of the render counts as anatomy
SMOOTH_K = 15    # side of the box kernel that smooths the mask, px


def render_depth(points: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Z-buffer point-splat render of sensor-frame points.

    Each point with z > 0 lands on its nearest pixel; the smallest depth
    per pixel wins. Uncovered pixels are 0 (invalid).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    depth = np.zeros((intr.height, intr.width))
    if points.shape[0] == 0:
        return depth
    z = points[:, 2]
    front = z > 0
    z = z[front]
    u, v = intr.project(points[front, 0], points[front, 1], z)
    u = np.rint(u).astype(np.int64)
    v = np.rint(v).astype(np.int64)
    inside = (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    u, v, z = u[inside], v[inside], z[inside]

    buf = np.full(intr.height * intr.width, np.inf)
    np.minimum.at(buf, v * intr.width + u, z)
    covered = np.isfinite(buf)
    flat = depth.ravel()
    flat[covered] = buf[covered]
    return depth


def synth_mask(rendered: np.ndarray, sensor: np.ndarray) -> np.ndarray:
    """Pixels where both depths are valid and differ by less than MATCH_MM."""
    rendered = np.asarray(rendered, dtype=float)
    sensor = np.asarray(sensor, dtype=float)
    if rendered.shape != sensor.shape:
        raise ValueError(f"depth shapes differ: {rendered.shape} vs {sensor.shape}")
    return (rendered > 0) & (sensor > 0) & (np.abs(rendered - sensor) < MATCH_MM)


def smooth_mask(mask: np.ndarray) -> np.ndarray:
    """Box-filter a binary mask with a SMOOTH_K x SMOOTH_K uniform kernel,
    threshold at 0.5.

    Zero padding at the borders, so thin structures and isolated pixels
    disappear while solid regions keep their interior.
    """
    mask = np.asarray(mask, dtype=bool)
    filtered = ndimage.uniform_filter(mask.astype(float), size=SMOOTH_K,
                                      mode="constant", cval=0.0)
    return filtered > 0.5
