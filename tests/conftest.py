import numpy as np
import pytest

from vertereg import cloud, maskgen, register, sim


@pytest.fixture(scope="session")
def coarse_scene():
    """Small scene for fast tests (coarser sampling than the default)."""
    return sim.make_scene(seed=0, spacing=1.2)


@pytest.fixture(scope="session")
def default_cfg():
    return register.RegistrationConfig()


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed unit quaternion (uniform rotation)."""
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def brute_force_depth(points, intr) -> np.ndarray:
    """Nearest positive depth per pixel of the whole image, one point at a
    time, each rounded to its nearest pixel as in ``CameraIntrinsics.project``."""
    depth = np.zeros((intr.height, intr.width))
    for x, y, z in np.asarray(points, dtype=float).reshape(-1, 3).tolist():
        if not z > 0:
            continue
        u = round(intr.fx * x / z + intr.cx)
        v = round(intr.fy * y / z + intr.cy)
        if 0 <= u < intr.width and 0 <= v < intr.height and (
                depth[v, u] == 0.0 or z < depth[v, u]):
            depth[v, u] = z
    return depth


def bake_selfconsistent_models(scene, seed=0):
    """Rebuild the scene's models from their own rendered cloud.

    The returned models back-project exactly onto the pixel rays of a
    static rendering, so every registration stage is an exact no-op: the
    cloud of any static frame equals the posed model points bit-for-bit.
    """
    base = scene.base_vertebra_pose()
    intr = scene.intrinsics
    posed = np.vstack([base.apply(m.points) for m in scene.models])
    owner = np.concatenate([np.full(m.points.shape[0], m.id)
                            for m in scene.models])
    depth = maskgen.render_depth(posed, intr)
    pts = cloud.depth_to_cloud(depth, intr, depth > 0)
    # assign each cloud point to the vertebra that produced its pixel
    idx = cloud.NearestNeighborIndex(posed).query(pts, np.inf)[1]
    inv = base.inverse()
    models = []
    for m in scene.models:
        mine = inv.apply(pts[owner[idx] == m.id])
        models.append(register.VertebraModel(
            id=m.id, points=mine, normals=np.zeros_like(mine),
            reg_indices=np.arange(mine.shape[0]), landmarks=m.landmarks,
            pedicle_indices=np.array([], dtype=np.int64),
            screw_plans=m.screw_plans))
    return models, base


class StaticFrames:
    """Static frame source whose depth renders the baked models exactly."""

    def __init__(self, models, pose, intr, count):
        self.models = models
        self.pose = pose
        self.intr = intr
        self.count = count
        posed = np.vstack([pose.apply(m.points) for m in models])
        self.depth = maskgen.render_depth(posed, intr)
        self.mask = self.depth > 0

    def frame(self, f):
        return sim.Frame(index=f, timestamp=(f - 1) / 30.0, depth=self.depth,
                         intrinsics=self.intr, oracle_mask=self.mask,
                         oracle_quat=self.pose.q,
                         gt_poses={m.id: self.pose for m in self.models})

    def __iter__(self):
        return (self.frame(f) for f in range(1, self.count + 1))
