import math
import threading

import numpy as np
import pytest
from scipy import ndimage

from conftest import brute_force_depth
from vertereg import maskgen, sim
from vertereg.geom import RigidTransform, axis_angle_quat, quat_mul

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
BREATHING = sim.MotionSpec("sine", (0.0, 0.0, 1.0), 0.2)
ROADMAP_OCCLUDER = sim.Occluder(70, 110, (0.0, 0.0, 300.0), (40.0, 40.0, 20.0))
FILLS_THE_VIEW = sim.Occluder(2, 3, (0.0, 0.0, 200.0), (2000.0, 2000.0, 20.0))
AWAY_FROM_ANATOMY = sim.Occluder(1, 4, (150.0, -100.0, 350.0), (40.0, 30.0, 20.0))


def _frame_bytes(frame):
    out = [frame.depth.tobytes(), frame.oracle_mask.tobytes(),
           frame.oracle_quat.tobytes(), repr(frame.timestamp).encode()]
    for vid, pose in sorted(frame.gt_poses.items()):
        out += [pose.q.tobytes(), pose.t.tobytes()]
    for obs in frame.observations:
        out += [obs.left_px.tobytes(), obs.right_px.tobytes()]
    return out


def test_frame_depends_only_on_seed_and_index(coarse_scene):
    tool = sim.ToolSpec(base_pose=RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                                                 np.array([0.0, -40.0, 320.0])),
                        corner_sigma_px=0.3)
    spec = sim.RecordingSpec(frames=6, depth_sigma=0.5, dropout=0.05,
                             orientation_error_deg=3.0, tool=tool,
                             motions={2: sim.MotionSpec("sine", (0.0, 0.0, 1.0), 0.2)})
    fresh = sim.render_recording(coarse_scene, spec, seed=7).frame(4)

    used = sim.render_recording(coarse_scene, spec, seed=7)
    for f in (6, 1, 2, 4, 5):
        used.frame(f)
    assert _frame_bytes(used.frame(4)) == _frame_bytes(fresh)
    other = sim.render_recording(coarse_scene, spec, seed=8).frame(4)
    assert other.depth.tobytes() != fresh.depth.tobytes()


def test_orientation_prior_is_the_prior_vertebra_orientation(coarse_scene):
    motion = sim.MotionSpec(offset_rotvec=(0.0, 0.0, 0.05))
    spec = sim.RecordingSpec(frames=1, motions={sim.PRIOR_VERTEBRA: motion})
    frame = sim.render_recording(coarse_scene, spec, seed=0).frame(1)
    want = frame.gt_poses[sim.PRIOR_VERTEBRA].q
    assert frame.oracle_quat.tobytes() == want.tobytes()
    other = frame.gt_poses[sim.PRIOR_VERTEBRA % 5 + 1].q
    assert frame.oracle_quat.tobytes() != other.tobytes()


def test_dropout_clears_the_pixels_the_2d_index_formula_picks(coarse_scene):
    occluder = sim.Occluder(1, 3, (0.0, 0.0, 300.0), (40.0, 40.0, 20.0))
    spec = sim.RecordingSpec(frames=2, occluders=[occluder])
    before = sim.render_recording(coarse_scene, spec, seed=3).frame(2).depth
    spec.dropout = 0.3
    after = sim.render_recording(coarse_scene, spec, seed=3).frame(2).depth
    # the draw and the row-major (v, u) order of a 2-D np.nonzero
    want = before.copy()
    valid = want > 0
    drop = np.random.default_rng([3, 2]).random(size=int(valid.sum())) < 0.3
    vv, uu = np.nonzero(valid)
    want[vv[drop], uu[drop]] = 0.0
    assert after.tobytes() == want.tobytes()
    assert (after == 0).sum() > (before == 0).sum()


@pytest.mark.parametrize("center_z, depth", [(10.0, 20.0), (5.0, 20.0), (-300.0, 1.0)])
def test_an_occluder_at_or_behind_the_sensor_is_rejected_when_built(center_z, depth):
    with pytest.raises(ValueError, match="in front of the sensor"):
        sim.Occluder(1, 2, (0.0, 0.0, center_z), (10.0, 10.0, depth))


def test_an_occluder_just_in_front_of_the_sensor_is_built(coarse_scene):
    box = sim.Occluder(1, 2, (0.0, 0.0, 10.5), (10.0, 10.0, 20.0))
    assert box.pixel_region(coarse_scene.intrinsics)[4] == 0.5


class TestPosteriorVisible:
    def test_sphere_hemisphere(self):
        # density chosen so the 0.5 mm z-buffer grid resolves the samples;
        # denser sampling would cull grazing rim points by design
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = 30.0 * dirs
        sel = sim.select_posterior_visible(pts, dirs, [0.0, 0.0, -1.0])
        # viewer above +z: the n_z > 0 hemisphere is kept
        assert (dirs[sel][:, 2] > 0).all()
        assert sel.size == pytest.approx(1000, rel=0.05)

    def test_plane_facing_viewer(self):
        xs, ys = np.meshgrid(np.linspace(0, 10, 21), np.linspace(0, 10, 21))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        normals = np.tile([0.0, 0.0, 1.0], (pts.shape[0], 1))
        sel = sim.select_posterior_visible(pts, normals, [0.0, 0.0, -1.0])
        assert sel.size == pts.shape[0]

    def test_stacked_planes_keep_nearer(self):
        xs, ys = np.meshgrid(np.linspace(0, 10, 21), np.linspace(0, 10, 21))
        near = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 5.0)])
        far = near.copy()
        far[:, 2] = 0.0
        pts = np.vstack([near, far])
        normals = np.tile([0.0, 0.0, 1.0], (pts.shape[0], 1))
        # viewer at +z looking along -z: larger z is nearer
        sel = sim.select_posterior_visible(pts, normals, [0.0, 0.0, -1.0])
        assert set(sel) == set(range(near.shape[0]))

    @pytest.mark.parametrize("view_dir", [[0.0, 0.0, -1.0], [0.95, 0.1, -0.3]])
    def test_keeps_what_a_per_point_loop_keeps(self, view_dir):
        # about 20 points per 0.5 mm cell, spread over 2 mm of depth, so each
        # cell has points inside and outside the tolerance; the reference
        # takes the same projections and groups them one point at a time
        rng = np.random.default_rng(3)
        pts = rng.uniform([0.0, 0.0, 0.0], [5.0, 5.0, 2.0], size=(2000, 3))
        normals = rng.normal(size=(2000, 3))
        view = np.asarray(view_dir) / np.linalg.norm(view_dir)
        a = np.array([1.0, 0.0, 0.0]) if abs(view[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(view, a)
        u /= np.linalg.norm(u)
        v = np.cross(view, u)
        facing = np.nonzero(normals @ view < 0.0)[0]
        p = pts[facing]
        cells = list(zip(np.floor((p @ u) / sim.VISIBLE_GRID_MM).tolist(),
                         np.floor((p @ v) / sim.VISIBLE_GRID_MM).tolist()))
        depths = (p @ view).tolist()
        nearest = {}
        for cell, d in zip(cells, depths):
            nearest[cell] = min(nearest.get(cell, math.inf), d)
        want = [int(i) for i, cell, d in zip(facing, cells, depths)
                if d <= nearest[cell] + sim.VISIBLE_DEPTH_TOL_MM]
        assert 0 < len(want) < facing.size
        assert sim.select_posterior_visible(pts, normals, view_dir).tolist() == want


def _full_image_frame(rec, f):
    """Depth, mask, prior and tool corners of frame ``f`` by the simulator's
    rule computed over the whole image: the z-buffer, occluder fill, noise,
    dropout and a 0.5-thresholded box filter run on every pixel."""
    spec, intr = rec.spec, rec.scene.intrinsics
    gt = {m.id: rec.gt_pose(m.id, f) for m in rec.scene.models}
    clean = brute_force_depth(np.vstack([gt[m.id].apply(m.points)
                                         for m in rec.scene.models]), intr)
    sensor = clean.copy()
    for occ in spec.occluders:
        if occ.active(f):
            u0, u1, v0, v1, z0 = occ.pixel_region(intr)
            region = sensor[v0:v1, u0:u1]
            region[(region == 0) | (region > z0)] = z0
    rng = np.random.default_rng([rec.seed, f])
    if spec.depth_sigma > 0:
        valid = sensor > 0
        noise = rng.normal(0.0, spec.depth_sigma, size=int(valid.sum()))
        sensor[valid] = np.maximum(sensor[valid] + noise, 1e-3)
    if spec.dropout > 0:
        vv, uu = np.nonzero(sensor > 0)
        drop = rng.random(size=vv.size) < spec.dropout
        sensor[vv[drop], uu[drop]] = 0.0
    agree = (clean > 0) & (sensor > 0) & (np.abs(clean - sensor) < maskgen.MATCH_MM)
    mask = ndimage.uniform_filter(agree.astype(float), size=maskgen.SMOOTH_K,
                                  mode="constant", cval=0.0) > 0.5
    q = gt[sim.PRIOR_VERTEBRA].q.copy()
    if spec.orientation_error_deg > 0:
        sigma = math.radians(spec.orientation_error_deg) / sim._HALF_NORMAL_MEDIAN
        angle = abs(rng.normal(0.0, sigma))
        axis = rng.normal(size=3)
        q = quat_mul(axis_angle_quat(axis / np.linalg.norm(axis), angle), q)
    corners = []
    if spec.tool is not None:
        corners = [c for obs in rec._observe_tool(f, (f - 1) / spec.fps, rng)
                   for c in (obs.left_px, obs.right_px)]
    return sensor, mask, q, corners


TOOL = sim.ToolSpec(base_pose=RigidTransform(IDENTITY_Q, np.array([0.0, -40.0, 320.0])),
                    corner_sigma_px=0.3)
ROADMAP_SPEC = sim.RecordingSpec(frames=120, depth_sigma=0.5, dropout=0.05,
                                 occluders=[ROADMAP_OCCLUDER],
                                 motions={vid: BREATHING for vid in range(1, 6)},
                                 tool=TOOL)
FRAME_CASES = {
    "ROADMAP before the occluder": (ROADMAP_SPEC, (1, 69)),
    "ROADMAP inside the occluder range": (ROADMAP_SPEC, (70, 95)),
    "an occluder filling the view": (
        sim.RecordingSpec(frames=3, depth_sigma=0.5, dropout=0.05,
                          occluders=[FILLS_THE_VIEW]), (2, 3)),
    "an occluder away from the anatomy": (
        sim.RecordingSpec(frames=4, depth_sigma=0.5, dropout=0.1,
                          occluders=[AWAY_FROM_ANATOMY]), (1, 4)),
    "no noise or dropout": (
        sim.RecordingSpec(frames=3, occluders=[AWAY_FROM_ANATOMY]), (2,)),
    "a 9 degree tilt": (
        sim.RecordingSpec(frames=3, depth_sigma=0.7, dropout=0.1, tilt_deg=9.0,
                          orientation_error_deg=2.0,
                          motions={vid: BREATHING for vid in range(1, 6)}), (3,)),
}


@pytest.mark.parametrize("name", FRAME_CASES)
def test_frame_equals_the_full_image_rule_byte_for_byte(coarse_scene, name):
    spec, frames = FRAME_CASES[name]
    rec = sim.render_recording(coarse_scene, spec, seed=5)
    for f in frames:
        frame = rec.frame(f)
        depth, mask, q, corners = _full_image_frame(rec, f)
        assert frame.depth.tobytes() == depth.tobytes(), (name, f)
        assert frame.oracle_mask.tobytes() == mask.tobytes(), (name, f)
        assert frame.oracle_quat.tobytes() == q.tobytes(), (name, f)
        got = [c for obs in frame.observations or []
               for c in (obs.left_px, obs.right_px)]
        assert [c.tobytes() for c in got] == [c.tobytes() for c in corners], (name, f)
        assert mask.any() or name == "an occluder filling the view"


def test_an_occluder_off_the_image_fills_no_pixel(coarse_scene):
    intr = coarse_scene.intrinsics
    off = [sim.Occluder(1, 2, (-230.0, 0.0, 300.0), (40.0, 40.0, 20.0)),   # left
           sim.Occluder(1, 2, (0.0, -180.0, 300.0), (40.0, 40.0, 20.0)),   # top
           sim.Occluder(1, 2, (330.0, 0.0, 300.0), (40.0, 40.0, 20.0))]    # right
    plain = sim.render_recording(coarse_scene, sim.RecordingSpec(frames=2), seed=1)
    for occ in off:
        u0, u1, v0, v1, _ = occ.pixel_region(intr)
        assert 0 <= u0 <= u1 <= intr.width and 0 <= v0 <= v1 <= intr.height
        assert u0 == u1 or v0 == v1
        rec = sim.render_recording(coarse_scene, sim.RecordingSpec(frames=2, occluders=[occ]),
                                   seed=1)
        assert rec.frame(2).depth.tobytes() == plain.frame(2).depth.tobytes()


def test_an_unknown_motion_kind_is_refused_when_the_spec_is_made():
    with pytest.raises(ValueError, match="sinus"):
        sim.MotionSpec(kind="sinus")
    for kind in ("none", "sine", "drift"):
        sim.MotionSpec(kind=kind)


def test_frame_renders_the_points_that_posing_each_model_and_stacking_gives(
        coarse_scene, monkeypatch):
    # the models are posed into one buffer kept across frames and
    # recordings; what reaches the renderer must be the bytes of the stacked
    # per-model poses, whatever frame or recording came before
    motions = {1: BREATHING, 2: sim.MotionSpec("drift", (0.5, -1.0, 0.0)),
               4: sim.MotionSpec("sine", (2.0, 0.0, 1.0), 0.7,
                                 offset_rotvec=(0.05, 0.0, 0.02))}
    spec = sim.RecordingSpec(frames=8, tilt_deg=-7.0, motions=motions)
    three = sim.Scene(coarse_scene.models[1:4], coarse_scene.sensor_pose,
                      coarse_scene.intrinsics)
    recs = [sim.render_recording(scene, spec, seed=3) for scene in (coarse_scene, three)]
    rendered = []

    def spy(points, intr):
        rendered.append(np.array(points, copy=True))
        return maskgen.render_depth(points, intr)

    monkeypatch.setattr(sim, "render_depth", spy)
    # a new thread's buffer, first made for the smaller scene
    monkeypatch.setattr(sim, "_POSE_BUFFERS", threading.local())
    for rec, f in ((recs[1], 1), (recs[0], 5), (recs[0], 8), (recs[1], 7),
                   (recs[0], 2), (recs[0], 5)):
        rec.frame(f)
        want = np.vstack([rec.gt_pose(m.id, f).apply(m.points)
                          for m in rec.scene.models])
        assert rendered[-1].tobytes() == want.tobytes(), f
