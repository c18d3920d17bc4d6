"""Outcome metrics for registration quality and screw placement safety.

Frame indices are 1-based. A recording-level error is the mean over the
valid rows whose frame number is ``TRE_START_FRAME`` (61) or later, giving
the pipeline roughly two seconds of updates to settle before being judged;
invalid rows are skipped, so they do not shift the judged frames.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .geom import RigidTransform, quat_to_matrix, transform_points
from .register import (RegistrationConfig, ScrewPlan, VertebraModel,
                       run_recording)

# Interaction frames that update in each ablation mode (None: every frame);
# General also shows the en-bloc pose in place of the refinement.
UPDATE_FRAMES = {"General": 0, "Refinement": 0, "First-60": 60, "Full": None}
ABLATION_MODES = tuple(UPDATE_FRAMES)

TRE_START_FRAME = 61
# the screw whose success rate, trajectory and entry error a recording reports
TARGET_VERTEBRA = 3
TARGET_SCREW = 0
SAFE_PERFORATION_MM = 2.0
MAX_VIEWPOINT_ANGLE_DEG = 30.0


def tre(gt_pose: RigidTransform, est_pose: RigidTransform,
        landmarks: np.ndarray) -> float:
    """Mean distance between landmarks mapped by the true and estimated pose."""
    landmarks = np.asarray(landmarks, dtype=float).reshape(-1, 3)
    return _mean_distance(gt_pose.apply(landmarks), est_pose.apply(landmarks))


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b, axis=1).mean())


def tre_start_frame(frames: int) -> int:
    """First frame a recording of ``frames`` frames is judged from:
    ``TRE_START_FRAME``, or frame 1 when the recording is shorter."""
    return TRE_START_FRAME if frames >= TRE_START_FRAME else 1


def recording_tre(rows: Iterable[tuple[int, float]], start_frame: int) -> float:
    """Mean of the values of ``(frame, value)`` rows whose frame is at or
    after ``start_frame``, taken in row order."""
    tail = [value for frame, value in rows if frame >= start_frame]
    if not tail:
        raise ValueError(f"no row at or after frame {start_frame}")
    return float(np.mean(tail))


def _trajectory_angle(planned_dir: np.ndarray, r_gt: np.ndarray,
                      r_est: np.ndarray) -> float:
    d = np.asarray(planned_dir, dtype=float)
    d = d / np.linalg.norm(d)
    c = float(np.clip((r_gt @ d) @ (r_est @ d), -1.0, 1.0))
    return math.degrees(math.acos(c))


def perforation(pedicle_points: np.ndarray, screw: ScrewPlan,
                gt_pose: RigidTransform, est_pose: RigidTransform) -> float | None:
    """Depth by which pedicle surface points intrude into the planned screw.

    The pedicle points follow the ground-truth pose, the screw cylinder the
    estimated pose. Points inside the finite cylinder contribute their
    distance to the cylinder surface, end caps included; returns the
    maximum, or None when no point is inside.
    """
    pts = gt_pose.apply(np.asarray(pedicle_points, dtype=float).reshape(-1, 3))
    return _intrusion(pts, screw, est_pose.apply(screw.entry),
                      quat_to_matrix(est_pose.q) @ screw.direction)


def _intrusion(pts: np.ndarray, screw: ScrewPlan, entry: np.ndarray,
               axis: np.ndarray) -> float | None:
    """``perforation`` of sensor-frame points into the screw posed at
    ``entry`` along ``axis``."""
    w = pts - entry
    axial = w @ axis
    # the row norms of w - np.outer(axial, axis), one column at a time:
    # np.linalg.norm(axis=1) of an (N, 3) array sums the squares as
    # (a + b) + c, so the bits are the same, at a fraction of the cost
    x, y, z = (w[:, k] - axial * axis[k] for k in range(3))
    radial = np.sqrt((x * x + y * y) + z * z)
    inside = (axial >= 0.0) & (axial <= screw.length_mm) & (radial < screw.radius_mm)
    if not inside.any():
        return None
    depth = np.minimum(screw.radius_mm - radial[inside],
                       np.minimum(axial[inside], screw.length_mm - axial[inside]))
    return float(depth.max())


def vertebra_errors(model: VertebraModel, gt_pose: RigidTransform,
                    est_pose: RigidTransform
                    ) -> tuple[float, list[tuple[float, float, float | None]]]:
    """``tre`` of the model's landmarks and, per screw plan, its trajectory
    error (degrees between the axis under the true and the estimated pose),
    entry-point error (mm between the two posed entry points) and
    ``perforation``.

    ``tre`` and ``perforation`` are bit for bit those functions' values;
    each pose's rotation matrix and the ground-truth-posed pedicle points
    are built once for all of them.
    """
    r_gt, r_est = quat_to_matrix(gt_pose.q), quat_to_matrix(est_pose.q)

    def true(points):
        return transform_points(r_gt, gt_pose.t, points)

    def estimated(points):
        return transform_points(r_est, est_pose.t, points)

    target = _mean_distance(true(model.landmarks), estimated(model.landmarks))
    pedicle = true(model.pedicle_points)
    screws = []
    for plan in model.screw_plans:
        entry = estimated(plan.entry)
        screws.append((_trajectory_angle(plan.direction, r_gt, r_est),
                       float(np.linalg.norm(true(plan.entry) - entry)),
                       _intrusion(pedicle, plan, entry, r_est @ plan.direction)))
    return target, screws


def is_safe(depth: float | None) -> bool:
    return depth is None or depth < SAFE_PERFORATION_MM


def success_rate(per_frame_perforation: list[float | None]) -> float:
    """Fraction of frames whose target-screw perforation stays in the safe zone."""
    if len(per_frame_perforation) == 0:
        raise ValueError("empty recording")
    safe = sum(1 for d in per_frame_perforation if is_safe(d))
    return safe / len(per_frame_perforation)


def viewpoint_angle(sensor_forward: np.ndarray, coronal_normal: np.ndarray) -> float:
    """Angle in degrees between the sensor axis and the coronal plane normal.

    The normal is treated as an undirected line, so parallel and
    antiparallel both give 0.
    """
    f = np.asarray(sensor_forward, dtype=float)
    n = np.asarray(coronal_normal, dtype=float)
    f = f / np.linalg.norm(f)
    n = n / np.linalg.norm(n)
    return math.degrees(math.acos(min(1.0, abs(float(f @ n)))))


def viewpoint_acceptable(angle_deg: float) -> bool:
    return angle_deg < MAX_VIEWPOINT_ANGLE_DEG


def run_ablation(frames, models: list[VertebraModel], segmenter,
                 cfg: RegistrationConfig, gt_lookup
                 ) -> dict[str, dict[int, list[tuple[int, float]]]]:
    """Per-mode, per-vertebra ``(frame, tre)`` rows from one streamed pass
    over ``frames``.

    Only Full runs (``run_recording``), and it registers the initial frame
    once. A mode that updates for the first n interaction frames
    (``UPDATE_FRAMES``) shows Full's poses up to interaction frame n and
    holds them afterwards; General holds every vertebra at Full's en-bloc
    pose, unrefined. ``gt_lookup(vid, frame_index)`` gives the true pose.

    Each value is ``tre``'s. The landmarks are posed by the truth and by
    Full once per frame, and by a held mode's poses once.
    """
    landmarks = {m.id: m.landmarks for m in models}
    held: dict[str, dict[int, np.ndarray]] = {}
    series = {mode: {m.id: [] for m in models} for mode in ABLATION_MODES}
    for interaction, state in enumerate(run_recording(frames, models, segmenter,
                                                      cfg)):
        posed = {vid: track.pose.apply(landmarks[vid])
                 for vid, track in state.vertebrae.items()}
        truth = {vid: gt_lookup(vid, state.frame_index).apply(landmarks[vid])
                 for vid in posed}
        if interaction == 0:
            held["General"] = {vid: state.en_bloc.apply(landmarks[vid])
                               for vid in posed}
        for mode, limit in UPDATE_FRAMES.items():
            if interaction == limit:
                held.setdefault(mode, posed)
            for vid, est in held.get(mode, posed).items():
                series[mode][vid].append((state.frame_index,
                                          _mean_distance(truth[vid], est)))
    return series
