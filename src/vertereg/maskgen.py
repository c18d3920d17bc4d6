"""Ground-truth mask synthesis.

This provides the oracle stand-in for a learned segmenter: a depth render
of posed anatomy models is compared against the sensor depth image, the
agreement mask is smoothed, and the result pairs with a reference
orientation quaternion.

Every step works only inside the pixel box its input covers, then writes
that box into a full-size zero image: ``render_depth`` splats into the
bounding box of the points that land on the image, and ``smooth_mask``
counts windows over the box of True pixels. Outside those boxes the
full-image result is 0 (or False) anyway, so the output is the same, bit
for bit, as a full-image pass.
"""

from __future__ import annotations

import numpy as np

from .cloud import CameraIntrinsics

MATCH_MM = 10.0  # sensor depth within this of the render counts as anatomy
SMOOTH_K = 15    # side of the box kernel that smooths the mask, px


def covered_box(image: np.ndarray) -> tuple[int, int, int, int] | None:
    """(v0, v1, u0, u1) half-open bounds of the nonzero pixels, or None."""
    rows = np.flatnonzero(image.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(image.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def render_depth(points: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Z-buffer point-splat render of sensor-frame points.

    Each point with z > 0 lands on its nearest pixel; the smallest depth
    per pixel wins. Uncovered pixels are 0 (invalid). The z-buffer spans
    only the pixel box the landing points cover, and the boolean selects
    run only when some point is behind the sensor or off the image.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    depth = np.zeros((intr.height, intr.width))
    z = points[:, 2]
    if z.size and not z.min() > 0:
        front = z > 0
        points, z = points[front], z[front]
    u, v = intr.project(points[:, 0], points[:, 1], z)
    np.rint(u, out=u)
    np.rint(v, out=v)
    if u.size and not (u.min() >= 0 and u.max() < intr.width
                       and v.min() >= 0 and v.max() < intr.height):
        inside = (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
        u, v, z = u[inside], v[inside], z[inside]
    if u.size == 0:
        return depth

    u0, u1, v0, v1 = int(u.min()), int(u.max()) + 1, int(v.min()), int(v.max()) + 1
    w = u1 - u0
    # the flat index into the box, in place: integral floats below 2**53
    # are exact under these steps
    u -= u0
    v -= v0
    v *= w
    v += u
    buf = np.full((v1 - v0) * w, np.inf)
    np.minimum.at(buf, v.astype(np.int64), z)
    buf[~np.isfinite(buf)] = 0.0
    depth[v0:v1, u0:u1] = buf.reshape(v1 - v0, w)
    return depth


def synth_mask(rendered: np.ndarray, sensor: np.ndarray) -> np.ndarray:
    """Pixels where both depths are valid and differ by less than MATCH_MM."""
    rendered = np.asarray(rendered, dtype=float)
    sensor = np.asarray(sensor, dtype=float)
    if rendered.shape != sensor.shape:
        raise ValueError(f"depth shapes differ: {rendered.shape} vs {sensor.shape}")
    return (rendered > 0) & (sensor > 0) & (np.abs(rendered - sensor) < MATCH_MM)


def smooth_mask(mask: np.ndarray) -> np.ndarray:
    """Keep the pixels whose SMOOTH_K x SMOOTH_K window is more than half True.

    Pixels beyond the borders count as False (zero padding), so thin
    structures and isolated pixels disappear while solid regions keep their
    interior. This is a box filter thresholded at 0.5, with each window
    counted exactly from an integer summed-area table over the box of True
    pixels. No pixel outside that box is kept: at most SMOOTH_K // 2 of its
    window's rows or columns reach into the box, under half the window.
    """
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros(mask.shape, dtype=bool)
    box = covered_box(mask)
    if box is None:
        return out
    v0, v1, u0, u1 = box
    h, w, k, r = v1 - v0, u1 - u0, SMOOTH_K, SMOOTH_K // 2
    # a leading zero row and column for the table, then r zeros around the box
    table = np.zeros((h + 2 * r + 1, w + 2 * r + 1), dtype=np.int32)
    table[r + 1:r + 1 + h, r + 1:r + 1 + w] = mask[v0:v1, u0:u1]
    table = table.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)
    count = (table[k:k + h, k:k + w] - table[:h, k:k + w]
             - table[k:k + h, :w] + table[:h, :w])
    out[v0:v1, u0:u1] = 2 * count > k * k
    return out
