import numpy as np
import pytest

from vertereg import sim
from vertereg.geom import RigidTransform


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
