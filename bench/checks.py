"""Reference computations the benchmark checks vertereg's outputs against.

Everything here is written independently of the package: its own
quaternion algebra, error formulas, z-buffer and CSV/JSON parsing. Only
plain numpy and the standard library are used, so a change inside
``vertereg`` cannot move the reference along with the result.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Limits an output must meet to count as correct. The synthetic scenes give
# errors well below the paper's clinical figures (TRE 2.73 mm, trajectory
# 1.79 deg, entry 2.43 mm); a slip to the neighbouring level costs ~33 mm.
MEAN_TRE_LIMIT_MM = 2.0
MEAN_TRAJ_LIMIT_DEG = 2.0
MEAN_ENTRY_LIMIT_MM = 2.0
FRAME_TRE_LIMIT_MM = 5.0
DRILL_LIMIT_MM = 2.0
# recomputed TREs may differ from the program's in the last digits only,
# because the two sum in a different order
RECOMPUTE_RTOL = 1e-9


def rotation(q) -> np.ndarray:
    """Rotation matrix of a scalar-first quaternion, normalised first."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def transform(q, t, points) -> np.ndarray:
    return np.asarray(points, dtype=float) @ rotation(q).T + np.asarray(t, dtype=float)


def landmark_error(gt, est, landmarks) -> float:
    """Mean distance of the landmarks under two (q, t) poses, mm."""
    d = transform(*gt, landmarks) - transform(*est, landmarks)
    return float(np.sqrt((d * d).sum(axis=1)).mean())


def trajectory_error(gt, est, direction) -> float:
    """Angle between the planned screw axis under two poses, degrees."""
    a = rotation(gt[0]) @ direction
    b = rotation(est[0]) @ direction
    c = float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def entry_error(gt, est, entry) -> float:
    """Distance between the planned entry point under two poses, mm."""
    return float(np.linalg.norm(transform(*gt, entry) - transform(*est, entry)))


class Accuracy:
    """Accumulates TRE and screw errors of estimated against true poses."""

    def __init__(self):
        self.tre: list[float] = []
        self.traj: list[float] = []
        self.entry: list[float] = []

    def add(self, gt, est, landmarks, screws) -> float:
        """Score one vertebra pose; returns its TRE."""
        tre = landmark_error(gt, est, landmarks)
        self.tre.append(tre)
        for entry, direction in screws:
            self.traj.append(trajectory_error(gt, est, direction))
            self.entry.append(entry_error(gt, est, entry))
        return tre

    def means(self) -> tuple[float, float, float]:
        return (float(np.mean(self.tre)), float(np.mean(self.traj)),
                float(np.mean(self.entry)))

    def problems(self) -> list[str]:
        """Every limit the accumulated errors break."""
        if not self.tre:
            return ["no poses were scored"]
        tre, traj, entry = self.means()
        out = []
        if tre > MEAN_TRE_LIMIT_MM:
            out.append(f"mean TRE {tre:.3f} mm above {MEAN_TRE_LIMIT_MM} mm")
        if traj > MEAN_TRAJ_LIMIT_DEG:
            out.append(f"mean trajectory error {traj:.3f} deg above "
                       f"{MEAN_TRAJ_LIMIT_DEG} deg")
        if entry > MEAN_ENTRY_LIMIT_MM:
            out.append(f"mean entry error {entry:.3f} mm above "
                       f"{MEAN_ENTRY_LIMIT_MM} mm")
        worst = max(self.tre)
        if worst > FRAME_TRE_LIMIT_MM:
            out.append(f"a single pose has TRE {worst:.3f} mm, above "
                       f"{FRAME_TRE_LIMIT_MM} mm (slipped level?)")
        return out


def pose_of(pose) -> tuple[np.ndarray, np.ndarray]:
    """(q, t) arrays of any object with ``q`` and ``t`` attributes."""
    return np.asarray(pose.q, dtype=float), np.asarray(pose.t, dtype=float)


def same_pose(a, b) -> bool:
    """Bit-for-bit equality of two poses."""
    return (np.array_equal(np.asarray(a.q), np.asarray(b.q))
            and np.array_equal(np.asarray(a.t), np.asarray(b.t)))


def brute_force_zbuffer(points: np.ndarray, fx: float, fy: float, cx: float,
                        cy: float, width: int, height: int) -> np.ndarray:
    """Nearest-depth splat of sensor-frame points, one point at a time.

    Pixel coordinates are rounded as a pinhole projection to the nearest
    pixel; each pixel keeps the smallest positive depth that lands on it.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    depth = np.zeros((height, width))
    z = points[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.rint(fx * points[:, 0] / z + cx)
        v = np.rint(fy * points[:, 1] / z + cy)
    for uu, vv, zz in zip(u.tolist(), v.tolist(), z.tolist()):
        if zz <= 0 or not (0 <= uu < width and 0 <= vv < height):
            continue
        cur = depth[int(vv), int(uu)]
        if cur == 0.0 or zz < cur:
            depth[int(vv), int(uu)] = zz
    return depth


def read_pose_table(path) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """{(frame, slot): (q, t)} from a poses CSV."""
    out = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            q = np.array([float(row[k]) for k in ("qw", "qx", "qy", "qz")])
            t = np.array([float(row[k]) for k in ("tx", "ty", "tz")])
            out[(int(row["frame"]), int(row["vertebra"]))] = (q, t)
    return out


def read_sidecar(path) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Landmarks and (entry, unit direction) screw plans of a model sidecar."""
    doc = json.loads(Path(path).read_text())
    screws = []
    for plan in doc["screw_plans"]:
        d = np.array(plan["direction"], dtype=float)
        screws.append((np.array(plan["entry"], dtype=float), d / np.linalg.norm(d)))
    return np.array(doc["landmarks"], dtype=float), screws
