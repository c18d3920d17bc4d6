"""Staged registration of vertebra models to segmented depth clouds.

The pipeline runs in three stages on an initial (unoccluded) frame:

1. initial pose — predicted orientation + centroid of the largest
   segmented component,
2. general alignment — en-bloc point-to-point ICP of the combined models,
   matching the coarse subset of the scene (one point per occupied 2 mm
   voxel) into the coarse subset of the models,
3. piecewise refinement — per-vertebra ICP with a 2 mm inlier gate, matched
   into the full registration subset.

Subsequent interaction frames receive a single gated refinement step per
vertebra: a vertebra is only moved when it still shows at least 90 % of the
inlier count it had when refinement finished, which freezes poses under
occlusion instead of dragging them toward the occluder.

Every stage matches scene points into the model: the segmented cloud is
mapped into the model frame by the inverse pose and each of its points
takes its nearest registration point from a KD-tree built once, over the
models, not per frame. Every stage counts only the pairs strictly within
its gate (``NearestNeighborIndex.query``), so an inlier count is the number
of scene points strictly within the gate of the posed model, and the
update gate compares two counts of that one kind. The en-bloc stage only
has to land inside the per-vertebra capture range, so it matches the coarse
subset of the scene into the coarse subset of the models. The prior's
centroid is taken over the full segmented cloud, and the refinement, its
baseline and every interaction-frame update match the full cloud into the
full registration subset, which sets the final accuracy.

Both ICP loops of the initial frame re-pose one fixed scene on every
iteration, and late in a loop most scene points barely move. Each loop
therefore passes one ``QueryCache`` to every query: a point whose nearest
model point provably cannot have changed since its last search keeps it
without a tree search, and the pairs are the bytes that searching every
point would give. ``update_pose`` makes one query per vertebra on a new
frame's cloud, so it has no earlier answer to keep and takes no cache.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud import (NearestNeighborIndex, QueryCache, centroid, depth_to_cloud,
                    largest_component, voxel_subsample)
from .geom import (RigidTransform, pose_difference, quat_mul, quat_normalize,
                   umeyama)

# voxel edge of the coarse subset that en-bloc ICP matches into, mm
COARSE_VOXEL_MM = 2.0


class NoOverlapError(RuntimeError):
    """General alignment found no correspondences in its first iteration."""


class EmptyMaskError(ValueError):
    """Segmentation produced no usable pixels for the initial frame."""


class RefinementDegenerateError(RuntimeError):
    """A vertebra had fewer than 3 inliers during piecewise refinement."""

    def __init__(self, vertebra_id: int, iteration: int):
        super().__init__(f"vertebra {vertebra_id} degenerate at refinement "
                         f"iteration {iteration}")
        self.vertebra_id = vertebra_id
        self.iteration = iteration


@dataclass(frozen=True)
class ScrewPlan:
    """Planned pedicle screw in the model frame."""

    entry: np.ndarray       # entry point, mm
    direction: np.ndarray   # unit trajectory
    radius_mm: float
    length_mm: float

    def __post_init__(self):
        object.__setattr__(self, "entry", np.asarray(self.entry, dtype=float).reshape(3))
        d = np.asarray(self.direction, dtype=float).reshape(3)
        norm = np.linalg.norm(d)
        if not (np.isfinite(norm) and norm > 0):
            raise ValueError("screw direction must be a finite nonzero vector")
        object.__setattr__(self, "direction", d / norm)
        if self.radius_mm <= 0 or self.length_mm <= 0:
            raise ValueError("screw radius and length must be positive")


@dataclass
class VertebraModel:
    """One preoperative vertebra model, all coordinates in the shared model frame.

    ``points``/``normals`` hold the full sampled surface, ``reg_indices``
    the rows of ``points`` actually used for registration (the posterior-
    visible subset) and ``reg_points`` those rows. ``coarse_points`` keeps
    the first of ``reg_points`` in each occupied ``COARSE_VOXEL_MM`` voxel of
    the model frame, for en-bloc ICP. ``landmarks`` are the three evaluation
    landmarks (spinous process tip, left and right transverse process tips).
    ``index`` is the KD-tree over ``reg_points`` that the per-vertebra stages
    match scene points into, and ``pedicle_points`` the rows of
    ``pedicle_indices``. All are derived once here, so ``points`` and the
    index arrays must not be reassigned afterwards.
    """

    id: int
    points: np.ndarray
    normals: np.ndarray
    reg_indices: np.ndarray
    landmarks: np.ndarray
    pedicle_indices: np.ndarray
    screw_plans: tuple[ScrewPlan, ...]
    reg_points: np.ndarray = field(init=False, repr=False, compare=False)
    coarse_points: np.ndarray = field(init=False, repr=False, compare=False)
    pedicle_points: np.ndarray = field(init=False, repr=False, compare=False)
    index: NearestNeighborIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        self.landmarks = np.asarray(self.landmarks, dtype=float).reshape(-1, 3)
        n = self.points.shape[0]
        for name in ("reg_indices", "pedicle_indices"):
            idx = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1)
            if idx.size and not (idx.min() >= 0 and idx.max() < n):
                raise ValueError(f"vertebra {self.id}: {name} outside 0..{n - 1}")
            setattr(self, name, idx)
        if self.reg_indices.size == 0:
            raise ValueError(f"vertebra {self.id}: registration point set is empty")
        if self.landmarks.shape[0] != 3:
            raise ValueError(f"vertebra {self.id}: expected 3 landmarks, "
                             f"got {self.landmarks.shape[0]}")
        self.reg_points = self.points[self.reg_indices]
        self.coarse_points = self.reg_points[voxel_subsample(self.reg_points,
                                                             COARSE_VOXEL_MM)]
        self.pedicle_points = self.points[self.pedicle_indices]
        self.index = NearestNeighborIndex(self.reg_points)


@dataclass(frozen=True)
class RegistrationConfig:
    general_max_corr: float = 5.0        # mm, correspondence cap for en-bloc ICP
    general_max_iters: int = 50
    epsilon: float = 1e-8
    piecewise_inlier: float = 2.0        # mm, strict inlier gate
    piecewise_max_iters: int = 50
    update_gate: float = 0.9             # fraction of the refinement baseline
                                         # (scene points within the inlier gate)

    def __post_init__(self):
        if min(self.general_max_corr, self.piecewise_inlier) <= 0:
            raise ValueError("correspondence distances must be positive")
        if min(self.general_max_iters, self.piecewise_max_iters) < 0:
            raise ValueError("iteration caps must be nonnegative")
        if not 0.0 < self.update_gate <= 1.0:
            raise ValueError("update gate must be in (0, 1]")


@dataclass(frozen=True)
class VertebraTrack:
    """Per-vertebra registration state across frames."""

    pose: RigidTransform
    baseline_inliers: int    # scene points within the inlier gate of the posed
                             # model at the end of piecewise refinement
    updated: bool            # pose moved this frame
    frozen: bool             # refinement was degenerate; never updated again
    inliers: int = 0         # inlier count observed this frame


@dataclass
class RegistrationState:
    vertebrae: dict[int, VertebraTrack]
    frame_index: int
    en_bloc: RigidTransform    # general-alignment pose of the initial frame


def _gated_pairs(index: NearestNeighborIndex, pose: RigidTransform,
                 scene: np.ndarray, gate: float, cache: QueryCache | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scene points strictly within ``gate`` of the model posed by ``pose``.

    The scene is mapped into the model frame by the inverse pose and each
    of its points takes its nearest point of ``index``; ``cache`` is the
    calling loop's ``QueryCache``. Returns (model indices, scene indices,
    distances).
    """
    sidx, midx, dist = index.query(pose.inverse().apply(scene), gate, cache)
    return midx, sidx, dist


def general_alignment(index: NearestNeighborIndex, t_init: RigidTransform,
                      scene: np.ndarray, cfg: RegistrationConfig
                      ) -> RigidTransform:
    """En-bloc ICP of the combined models (indexed by ``index``) to the scene.

    ``index`` holds the stacked ``coarse_points`` of the models, and
    ``register_initial_frame`` passes the coarse subset of the segmented
    cloud as ``scene``: one point per occupied ``COARSE_VOXEL_MM`` voxel.

    Correspondences are capped at ``general_max_corr``; iteration stops
    after ``general_max_iters`` rounds or when the incremental transform
    change drops below ``epsilon``. Returns the full pose (prior composed
    with the ICP correction).
    """
    pose = t_init.normalized()
    identity = RigidTransform.identity()
    cache = QueryCache(len(scene))
    for it in range(cfg.general_max_iters):
        midx, sidx, _ = _gated_pairs(index, pose, scene, cfg.general_max_corr,
                                     cache)
        if midx.size < 3:
            if it == 0:
                raise NoOverlapError(
                    f"no correspondences within {cfg.general_max_corr} mm at the "
                    "initial pose")
            break
        delta = umeyama(pose.apply(index.reference.take(midx, axis=0)),
                        scene.take(sidx, axis=0))
        pose = delta.compose(pose)
        angle, dist = pose_difference(delta, identity)
        if angle + dist < cfg.epsilon:
            break
    return pose


def piecewise_refine(model: VertebraModel, t_gen: RigidTransform,
                     scene: np.ndarray, cfg: RegistrationConfig
                     ) -> tuple[RigidTransform, int]:
    """Per-vertebra ICP from the general alignment, 2 mm strict inlier gate.

    Iterates nearest-neighbor matching and a rigid fit on the inliers until
    the mean inlier distance stops decreasing (by more than ``epsilon``) or
    ``piecewise_max_iters`` rounds have run. Returns the refined pose and
    the inlier count at that pose, which becomes the update-gate baseline;
    after the last round one more match only counts.
    """
    pose = t_gen.normalized()
    prev_mean = np.inf
    cache = QueryCache(len(scene))
    for it in range(cfg.piecewise_max_iters + 1):
        midx, sidx, dist = _gated_pairs(model.index, pose, scene,
                                        cfg.piecewise_inlier, cache)
        if midx.size < 3:
            raise RefinementDegenerateError(model.id, it)
        mean = float(dist.mean())
        if prev_mean - mean <= cfg.epsilon or it == cfg.piecewise_max_iters:
            return pose, int(midx.size)
        delta = umeyama(pose.apply(model.reg_points.take(midx, axis=0)),
                        scene.take(sidx, axis=0))
        pose = delta.compose(pose)
        prev_mean = mean


def update_pose(track: VertebraTrack, model: VertebraModel, scene: np.ndarray,
                cfg: RegistrationConfig) -> VertebraTrack:
    """Single gated refinement step for one vertebra on a new frame.

    The pose only moves when the current inlier count reaches
    ``update_gate`` times the refinement baseline; otherwise the previous
    pose is returned untouched.
    """
    midx, sidx, _ = _gated_pairs(model.index, track.pose, scene,
                                 cfg.piecewise_inlier)
    count = int(midx.size)
    if count < 3 or count < cfg.update_gate * track.baseline_inliers:
        return replace(track, updated=False, inliers=count)
    delta = umeyama(track.pose.apply(model.reg_points.take(midx, axis=0)),
                    scene.take(sidx, axis=0))
    return replace(track, pose=delta.compose(track.pose), updated=True, inliers=count)


def register_initial_frame(frame, models: list[VertebraModel], segmenter,
                           cfg: RegistrationConfig,
                           initial_perturbation: RigidTransform | None = None
                           ) -> RegistrationState:
    """Full registration on an unoccluded initial frame.

    Runs segmentation, largest-component selection, cloud conversion, the
    pose prior, general alignment and per-vertebra refinement.
    ``initial_perturbation`` degrades the pose prior to stress-test
    convergence: its rotation turns the prior about the prior's own centre,
    the centroid of the segmented cloud, and its translation shifts that
    centre. The returned state keeps the en-bloc pose as ``en_bloc``.
    """
    mask, q_p = segmenter(frame)
    comp = largest_component(mask)
    if not comp.any():
        raise EmptyMaskError("segmentation mask is empty on the initial frame")
    pc_s = depth_to_cloud(frame.depth, frame.intrinsics, comp)
    if pc_s.shape[0] == 0:
        raise EmptyMaskError("no valid depth under the segmentation mask")

    # pose prior: the predicted orientation at the centroid of the segmented
    # cloud; the model frame's origin is the centroid of all registration
    # points, so this maps the combined models roughly onto the anatomy
    t_init = RigidTransform(quat_normalize(q_p), centroid(pc_s))
    if initial_perturbation is not None:
        t_init = RigidTransform(
            quat_normalize(quat_mul(initial_perturbation.q, t_init.q)),
            t_init.t + initial_perturbation.t)

    combined = NearestNeighborIndex(np.vstack([m.coarse_points for m in models]))
    t_gen = general_alignment(combined, t_init,
                              pc_s[voxel_subsample(pc_s, COARSE_VOXEL_MM)], cfg)

    vertebrae: dict[int, VertebraTrack] = {}
    for model in sorted(models, key=lambda m: m.id):
        try:
            pose, baseline = piecewise_refine(model, t_gen, pc_s, cfg)
            vertebrae[model.id] = VertebraTrack(pose, baseline, True, False,
                                                inliers=baseline)
        except RefinementDegenerateError:
            vertebrae[model.id] = VertebraTrack(t_gen, 0, False, True)
    return RegistrationState(vertebrae, frame.index, t_gen)


def process_interaction_frame(state: RegistrationState, frame,
                              models: list[VertebraModel], segmenter,
                              cfg: RegistrationConfig) -> RegistrationState:
    """Gated per-vertebra pose update on an interaction frame.

    Builds no KD-tree: the models carry theirs. An empty cloud gives every
    vertebra zero inliers, so every vertebra holds.
    """
    mask, _ = segmenter(frame)
    pc_s = depth_to_cloud(frame.depth, frame.intrinsics, mask)
    by_id = {m.id: m for m in models}
    vertebrae: dict[int, VertebraTrack] = {}
    for vid, track in state.vertebrae.items():
        if track.frozen:
            vertebrae[vid] = replace(track, updated=False, inliers=0)
            continue
        vertebrae[vid] = update_pose(track, by_id[vid], pc_s, cfg)
    return RegistrationState(vertebrae, frame.index, state.en_bloc)


def run_recording(frames, models: list[VertebraModel], segmenter,
                  cfg: RegistrationConfig,
                  initial_perturbation: RigidTransform | None = None
                  ) -> Iterator[RegistrationState]:
    """Run the Full pipeline over a frame sequence, one state per frame.

    A generator: it yields each frame's state as soon as that frame is
    registered and reads the next frame only when asked for the next state.
    """
    it = iter(frames)
    state = register_initial_frame(next(it), models, segmenter, cfg,
                                   initial_perturbation=initial_perturbation)
    yield state
    for frame in it:
        state = process_interaction_frame(state, frame, models, segmenter, cfg)
        yield state
