"""Synthetic scenes and depth recordings for the registration pipeline.

A scene holds five parametric vertebra proxies (body ellipsoid plus
spinous/transverse process lobes and pedicle tubes) sampled as oriented
point sets, with landmarks, pedicle points and screw plans placed
parametrically. A recording poses the proxies per frame, renders a depth
image, applies occluders, noise and dropout, and attaches the oracle data
(segmentation mask, orientation prior, ground-truth poses) a learned
segmenter would otherwise provide.

Model-frame conventions: x = left-right, y = cranio-caudal, z = posterior
(toward the sensor). The shared model frame has its origin at the centroid
of all registration points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import CameraIntrinsics, select_posterior_visible
from .geom import RigidTransform, axis_angle_quat, quat_mul
from .maskgen import render_depth, smooth_mask, synth_mask
from .register import ScrewPlan, VertebraModel
from .track import MarkerObservation, StereoRig

POSTERIOR_VIEW_DIR = np.array([0.0, 0.0, -1.0])
# the vertebra whose true orientation the oracle's orientation prior reports
PRIOR_VERTEBRA = 3
DEFAULT_BASELINE_MM = 63.0

# |half-normal| median factor: median(|N(0, s)|) = 0.6745 s
_HALF_NORMAL_MEDIAN = 0.6744897501960817


# ---------------------------------------------------------------------------
# surface sampling helpers
# ---------------------------------------------------------------------------

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * _GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _ellipsoid_area(axes: np.ndarray) -> float:
    # Thomsen's approximation, good to ~1 %
    p = 1.6075
    a, b, c = axes
    return 4.0 * math.pi * (((a * b) ** p + (a * c) ** p + (b * c) ** p) / 3.0) ** (1.0 / p)


def _sample_ellipsoid(center, axes, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    center = np.asarray(center, dtype=float)
    axes = np.asarray(axes, dtype=float)
    n = max(64, int(_ellipsoid_area(axes) / (spacing * spacing)))
    u = _fibonacci_directions(n)
    pts = center + u * axes
    normals = u / axes
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return pts, normals


def _sample_tube(start, direction, radius: float, length: float,
                 spacing: float) -> tuple[np.ndarray, np.ndarray]:
    start = np.asarray(start, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    helper = np.array([1.0, 0.0, 0.0]) if abs(direction[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(direction, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(direction, e1)
    n_axial = max(2, int(round(length / spacing)))
    n_circ = max(8, int(round(2.0 * math.pi * radius / spacing)))
    s = np.linspace(0.0, length, n_axial)
    theta = np.arange(n_circ) * (2.0 * math.pi / n_circ)
    ss, tt = np.meshgrid(s, theta, indexing="ij")
    ring = np.cos(tt)[..., None] * e1 + np.sin(tt)[..., None] * e2
    pts = start + ss[..., None] * direction + radius * ring
    normals = ring
    return pts.reshape(-1, 3), normals.reshape(-1, 3)


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    models: list[VertebraModel]
    sensor_pose: RigidTransform       # sensor in the model frame
    intrinsics: CameraIntrinsics
    seed: int
    scale: float
    spacing: float

    def base_vertebra_pose(self, tilt_deg: float = 0.0) -> RigidTransform:
        """Model-to-sensor pose shared by all vertebrae before any motion."""
        sensor = self.sensor_pose
        if tilt_deg != 0.0:
            tilt = RigidTransform(axis_angle_quat([1.0, 0.0, 0.0],
                                                  math.radians(tilt_deg)),
                                  np.zeros(3))
            sensor = tilt.compose(sensor)
        return sensor.inverse()


def make_scene(seed: int = 0, scale: float = 1.0, spacing: float = 0.5) -> Scene:
    """Deterministic five-vertebra scene.

    ``scale`` shrinks or grows the whole anatomy; ``spacing`` is the surface
    sampling distance in mm. The per-vertebra shape jitter depends only on
    the seed, so two scenes with the same seed and different scales are
    exact similarity transforms of each other.
    """
    if scale <= 0:
        raise ValueError("anatomy scale must be positive")
    intr = CameraIntrinsics(fx=380.0, fy=380.0, cx=200.0, cy=150.0,
                            width=400, height=300)
    rng = np.random.default_rng([seed, 0x5CE7E])

    models = []
    for vid in range(1, 6):
        jb = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=3)   # body axes
        js = 1.0 + 0.08 * rng.uniform(-1.0, 1.0)           # spinous length
        jt = 1.0 + 0.05 * rng.uniform(-1.0, 1.0)           # transverse length
        cy = (3 - vid) * 33.0
        c = np.array([0.0, cy, 0.0])

        body_axes = np.array([17.0, 12.5, 11.0]) * jb
        spin_len = 13.0 * js
        trans_len = 11.0 * jt

        parts = [
            _sample_ellipsoid(c + [0.0, 0.0, -10.0], body_axes, spacing / scale),
            _sample_ellipsoid(c + [0.0, -2.0, 18.0], [3.5, 5.0, spin_len], spacing / scale),
            _sample_ellipsoid(c + [-19.0, 0.0, 6.0], [trans_len, 3.5, 3.5], spacing / scale),
            _sample_ellipsoid(c + [19.0, 0.0, 6.0], [trans_len, 3.5, 3.5], spacing / scale),
        ]
        screw_dirs = []
        entries = []
        pedicle_start = sum(p.shape[0] for p, _ in parts)
        for side in (-1.0, 1.0):
            entry = c + np.array([side * 9.0, 0.0, 12.0])
            direction = np.array([-side * 0.3, 0.0, -1.0])
            direction /= np.linalg.norm(direction)
            parts.append(_sample_tube(entry, direction, 4.0, 12.0, spacing / scale))
            entries.append(entry)
            screw_dirs.append(direction)
        points = np.vstack([p for p, _ in parts])
        normals = np.vstack([n for _, n in parts])
        pedicle_indices = np.arange(pedicle_start, points.shape[0])

        landmarks = np.array([
            c + [0.0, -2.0, 18.0 + spin_len],      # spinous process tip
            c + [-19.0 - trans_len, 0.0, 6.0],     # left transverse tip
            c + [19.0 + trans_len, 0.0, 6.0],      # right transverse tip
        ])
        models.append(dict(id=vid, points=points * scale, normals=normals,
                           landmarks=landmarks * scale,
                           pedicle_indices=pedicle_indices,
                           entries=[e * scale for e in entries],
                           dirs=screw_dirs))

    # posterior-visible registration subsets, then move the shared origin to
    # the centroid of all registration points
    reg_sets = [select_posterior_visible(m["points"], m["normals"], POSTERIOR_VIEW_DIR)
                for m in models]
    origin = np.vstack([m["points"][sel] for m, sel in zip(models, reg_sets)]).mean(axis=0)

    final = []
    for m, sel in zip(models, reg_sets):
        plans = tuple(ScrewPlan(m["entries"][k] - origin, m["dirs"][k],
                                radius_mm=2.5, length_mm=40.0 * scale)
                      for k in range(2))
        final.append(VertebraModel(
            id=m["id"],
            points=m["points"] - origin,
            normals=m["normals"],
            reg_indices=sel,
            landmarks=m["landmarks"] - origin,
            pedicle_indices=m["pedicle_indices"],
            screw_plans=plans,
        ))

    distance = 450.0 * scale
    sensor_rot = axis_angle_quat([1.0, 0.0, 0.0], math.pi)
    sensor_pose = RigidTransform(sensor_rot, np.array([0.0, 0.0, distance]))
    scene = Scene(final, sensor_pose, intr, seed, scale, spacing)

    base = scene.base_vertebra_pose()
    for m in final:
        u, v = intr.project(*base.apply(m.points).T)
        if u.min() < 0 or u.max() >= intr.width or v.min() < 0 or v.max() >= intr.height:
            raise ValueError("scene does not fit the sensor field of view")
    return scene


# ---------------------------------------------------------------------------
# recording specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotionSpec:
    """Rigid perturbation of one vertebra over time, in the sensor frame.

    ``kind`` is ``none``, ``sine`` (vector = amplitude in mm) or ``drift``
    (vector = velocity in mm/s). The constant offset parts model static
    deformation between the preoperative models and the scene.
    """

    kind: str = "none"
    vector: tuple[float, float, float] = (0.0, 0.0, 0.0)
    freq_hz: float = 0.0
    offset_translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    offset_rotvec: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def pose_at(self, t: float) -> RigidTransform:
        if self.kind == "none":
            shift = np.zeros(3)
        elif self.kind == "sine":
            shift = np.asarray(self.vector) * math.sin(2.0 * math.pi * self.freq_hz * t)
        elif self.kind == "drift":
            shift = np.asarray(self.vector) * t
        else:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        rotvec = np.asarray(self.offset_rotvec, dtype=float)
        angle = float(np.linalg.norm(rotvec))
        q = (axis_angle_quat(rotvec / angle, angle) if angle > 0
             else np.array([1.0, 0.0, 0.0, 0.0]))
        return RigidTransform(q, np.asarray(self.offset_translation) + shift)


@dataclass(frozen=True)
class Occluder:
    """Axis-aligned box in the sensor frame, active on a frame range."""

    start_frame: int
    end_frame: int
    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def active(self, frame_index: int) -> bool:
        return self.start_frame <= frame_index <= self.end_frame

    def pixel_region(self, intr: CameraIntrinsics) -> tuple[int, int, int, int, float]:
        """(u0, u1, v0, v1) half-open pixel bounds of the front face + its depth."""
        x, y, z = self.center
        sx, sy, sz = self.size
        z0 = z - sz / 2.0
        if z0 <= 0:
            raise ValueError("occluder must sit in front of the sensor")
        u0, v0 = intr.project(x - sx / 2.0, y - sy / 2.0, z0)
        u1, v1 = intr.project(x + sx / 2.0, y + sy / 2.0, z0)
        return (max(0, int(np.rint(u0))), min(intr.width, int(np.rint(u1)) + 1),
                max(0, int(np.rint(v0))), min(intr.height, int(np.rint(v1)) + 1), z0)


def default_marker_reference() -> dict[int, np.ndarray]:
    """Corner coordinates of the three sleeve markers, sleeve frame (mm)."""
    square = np.array([[-12.0, -12.0, 0.0], [12.0, -12.0, 0.0],
                       [12.0, 12.0, 0.0], [-12.0, 12.0, 0.0]])

    def tilted(center, angle_deg):
        a = math.radians(angle_deg)
        r = np.array([[math.cos(a), 0.0, math.sin(a)],
                      [0.0, 1.0, 0.0],
                      [-math.sin(a), 0.0, math.cos(a)]])
        return square @ r.T + np.asarray(center)

    return {0: square.copy(),
            1: tilted([40.0, 0.0, 18.0], 30.0),
            2: tilted([-40.0, 0.0, 18.0], -30.0)}


@dataclass(frozen=True)
class ToolSpec:
    """Synthetic drill sleeve: base pose in the sensor frame plus motion."""

    base_pose: RigidTransform
    motion: MotionSpec = MotionSpec()
    corner_sigma_px: float = 0.0


@dataclass
class RecordingSpec:
    frames: int
    fps: float = 30.0
    depth_sigma: float = 0.0          # mm
    dropout: float = 0.0              # fraction of valid pixels invalidated
    occluders: list[Occluder] = field(default_factory=list)
    motions: dict[int, MotionSpec] = field(default_factory=dict)
    tilt_deg: float = 0.0             # sensor tilt vs the coronal normal
    orientation_error_deg: float = 0.0  # median corruption of the prior
    mask_smooth_k: int = 15
    tool: ToolSpec | None = None

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("a recording needs at least one frame")
        if not 0.0 < self.fps < math.inf:
            raise ValueError(f"fps {self.fps!r} is not positive and finite")
        if self.depth_sigma < 0:
            raise ValueError("depth noise sigma must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not (self.mask_smooth_k >= 1 and self.mask_smooth_k % 2 == 1):
            raise ValueError(f"mask_smooth_k {self.mask_smooth_k!r} is not a "
                             f"positive odd integer")


# ---------------------------------------------------------------------------
# frames and recordings
# ---------------------------------------------------------------------------

@dataclass
class Frame:
    """One timestep: sensor depth plus the simulation-side oracle data."""

    index: int                   # 1-based
    timestamp: float             # seconds
    depth: np.ndarray
    intrinsics: CameraIntrinsics
    oracle_mask: np.ndarray | None = None
    oracle_quat: np.ndarray | None = None
    gt_poses: dict[int, RigidTransform] | None = None
    observations: list[MarkerObservation] | None = None


def oracle_segmenter(frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Segmenter stand-in that reads the frame's stored oracle outputs."""
    if frame.oracle_mask is None or frame.oracle_quat is None:
        raise ValueError(f"frame {frame.index} carries no oracle data")
    return frame.oracle_mask, frame.oracle_quat


class Recording:
    """Lazily generated frame sequence; frame(f) is deterministic in (seed, f)."""

    def __init__(self, scene: Scene, spec: RecordingSpec, seed: int):
        self.scene = scene
        self.spec = spec
        self.seed = seed
        self.base_pose = scene.base_vertebra_pose(spec.tilt_deg)
        for occ in spec.occluders:
            if occ.active(1):
                u0, u1, v0, v1, _ = occ.pixel_region(scene.intrinsics)
                intr = scene.intrinsics
                if u0 == 0 and v0 == 0 and u1 >= intr.width and v1 >= intr.height:
                    raise ValueError("initial frame must not be fully occluded")

    @property
    def frame_count(self) -> int:
        return self.spec.frames

    @property
    def fps(self) -> float:
        return self.spec.fps

    def gt_pose(self, vertebra_id: int, frame_index: int) -> RigidTransform:
        t = (frame_index - 1) / self.spec.fps
        motion = self.spec.motions.get(vertebra_id)
        if motion is None:
            return self.base_pose
        return motion.pose_at(t).compose(self.base_pose)

    def frame(self, f: int) -> Frame:
        """Frame ``f`` (1-based), generated from ``(seed, f)`` alone.

        The oracle orientation prior is the true orientation of vertebra
        ``PRIOR_VERTEBRA``, corrupted by ``orientation_error_deg``.
        """
        if not 1 <= f <= self.spec.frames:
            raise IndexError(f"frame {f} outside 1..{self.spec.frames}")
        intr = self.scene.intrinsics
        t = (f - 1) / self.spec.fps
        gt = {m.id: self.gt_pose(m.id, f) for m in self.scene.models}
        posed = np.vstack([gt[m.id].apply(m.points) for m in self.scene.models])
        clean = render_depth(posed, intr)

        sensor = clean.copy()
        for occ in self.spec.occluders:
            if occ.active(f):
                u0, u1, v0, v1, z0 = occ.pixel_region(intr)
                region = sensor[v0:v1, u0:u1]
                region[(region == 0) | (region > z0)] = z0

        rng = np.random.default_rng([self.seed, f])
        if self.spec.depth_sigma > 0:
            valid = sensor > 0
            noise = rng.normal(0.0, self.spec.depth_sigma, size=int(valid.sum()))
            sensor[valid] = np.maximum(sensor[valid] + noise, 1e-3)
        if self.spec.dropout > 0:
            # flat indices, as in cloud.depth_to_cloud: same pixels, same
            # order, without the cost of a 2-D np.nonzero
            valid = np.flatnonzero(sensor > 0)
            drop = rng.random(size=valid.size) < self.spec.dropout
            np.put(sensor, valid[drop], 0.0)

        mask = synth_mask(clean, sensor, 10.0)
        if self.spec.mask_smooth_k > 1:
            mask = smooth_mask(mask, self.spec.mask_smooth_k)

        q_p = gt[PRIOR_VERTEBRA].q.copy()
        if self.spec.orientation_error_deg > 0:
            sigma = math.radians(self.spec.orientation_error_deg) / _HALF_NORMAL_MEDIAN
            angle = abs(rng.normal(0.0, sigma))
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            q_p = quat_mul(axis_angle_quat(axis, angle), q_p)

        observations = None
        if self.spec.tool is not None:
            observations = self._observe_tool(f, t, rng)

        return Frame(index=f, timestamp=t, depth=sensor, intrinsics=intr,
                     oracle_mask=mask, oracle_quat=q_p, gt_poses=gt,
                     observations=observations)

    def stereo_rig(self) -> StereoRig:
        intr = self.scene.intrinsics
        baseline = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                                  np.array([DEFAULT_BASELINE_MM, 0.0, 0.0]))
        return StereoRig(intr, intr, baseline)

    def tool_pose(self, frame_index: int) -> RigidTransform:
        t = (frame_index - 1) / self.spec.fps
        tool = self.spec.tool
        return tool.motion.pose_at(t).compose(tool.base_pose)

    def _observe_tool(self, f: int, t: float, rng) -> list[MarkerObservation]:
        rig = self.stereo_rig()
        pose = self.tool_pose(f)
        right_inv = rig.baseline.inverse()
        obs = []
        for mid, corners in sorted(default_marker_reference().items()):
            cam = pose.apply(corners)
            left = np.column_stack(rig.left.project(*cam.T))
            right = np.column_stack(rig.right.project(*right_inv.apply(cam).T))
            if self.spec.tool.corner_sigma_px > 0:
                left = left + rng.normal(0.0, self.spec.tool.corner_sigma_px, left.shape)
                right = right + rng.normal(0.0, self.spec.tool.corner_sigma_px, right.shape)
            obs.append(MarkerObservation(mid, left, right))
        return obs

    def __iter__(self):
        return (self.frame(f) for f in range(1, self.spec.frames + 1))


def render_recording(scene: Scene, spec: RecordingSpec, seed: int) -> Recording:
    """Bind a scene and recording spec into a deterministic frame source."""
    return Recording(scene, spec, seed)


def perturbation(rng: np.random.Generator, angle_rad: float,
                 translation_mm: float) -> RigidTransform:
    """Rigid perturbation with the given exact magnitudes, random direction."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return RigidTransform(axis_angle_quat(axis, angle_rad),
                          direction * translation_mm)
