import numpy as np

from vertereg import sim, track
from vertereg.geom import RigidTransform, axis_angle_quat


def test_kalman_returns_its_first_measurement():
    pose = RigidTransform(axis_angle_quat(np.array([1.0, -2.0, 0.5]), 0.7),
                          np.array([12.5, -40.25, 318.0]))
    out = track.PoseKalman().step(pose, 1.0 / 30.0)
    assert out.t.tobytes() == pose.t.tobytes()
    np.testing.assert_allclose(out.q, pose.q, rtol=0, atol=1e-15)


def test_noiseless_corners_recover_the_sleeve_pose(coarse_scene):
    base = RigidTransform(axis_angle_quat(np.array([0.2, 1.0, 0.1]), 0.3),
                          np.array([5.0, -40.0, 320.0]))
    spec = sim.RecordingSpec(frames=1, tool=sim.ToolSpec(base_pose=base))
    rec = sim.render_recording(coarse_scene, spec, seed=0)
    frame = rec.frame(1)
    got = track.track_pose(frame.observations, rec.stereo_rig(),
                           sim.default_marker_reference())
    want = rec.tool_pose(1)
    np.testing.assert_allclose(got.t, want.t, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.abs(got.q @ want.q), 1.0, rtol=0, atol=1e-12)
