import numpy as np
import pytest

from vertereg import sim, track
from vertereg.geom import (RigidTransform, axis_angle_quat, hemisphere_align,
                           quat_normalize, quat_to_matrix, umeyama)


def test_kalman_returns_its_first_measurement():
    pose = RigidTransform(axis_angle_quat(np.array([1.0, -2.0, 0.5]), 0.7),
                          np.array([12.5, -40.25, 318.0]))
    out = track.PoseKalman().step(pose, 1.0 / 30.0)
    assert out.t.tobytes() == pose.t.tobytes()
    np.testing.assert_allclose(out.q, pose.q, rtol=0, atol=1e-15)


def _tool_frame(scene, sigma_px=0.3):
    base = RigidTransform(axis_angle_quat(np.array([0.2, 1.0, 0.1]), 0.3),
                          np.array([5.0, -40.0, 320.0]))
    spec = sim.RecordingSpec(frames=1, tool=sim.ToolSpec(base_pose=base,
                                                        corner_sigma_px=sigma_px))
    rec = sim.render_recording(scene, spec, seed=0)
    return rec, rec.frame(1)


def test_noiseless_corners_recover_the_sleeve_pose(coarse_scene):
    rec, frame = _tool_frame(coarse_scene, sigma_px=0.0)
    got = track.track_pose(frame.observations, rec.stereo_rig(),
                           sim.default_marker_reference())
    want = rec.tool_pose(1)
    np.testing.assert_allclose(got.t, want.t, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.abs(got.q @ want.q), 1.0, rtol=0, atol=1e-12)


class _ScalarFilterReference:
    """One scalar constant-acceleration filter, the form PoseKalman merges."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.x = None
        self.p = None

    def step(self, z, dt):
        if self.x is None:
            self.x = np.array([z, 0.0, 0.0])
            self.p = np.diag([self.cfg.sigma_m ** 2, 1e2, 1e2])
            return z
        f = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
        g = np.array([0.5 * dt * dt, dt, 1.0])
        x = f @ self.x
        p = f @ self.p @ f.T + self.cfg.sigma_a ** 2 * np.outer(g, g)
        k = p[:, 0] / (p[0, 0] + self.cfg.sigma_m ** 2)
        self.x = x + k * (z - x[0])
        p = p - np.outer(k, p[0, :])
        self.p = 0.5 * (p + p.T)
        return float(self.x[0])


def test_kalman_matches_seven_independent_scalar_filters():
    rng = np.random.default_rng(18)
    cfg = track.KalmanConfig(sigma_a=3.0, sigma_m=0.7)
    kalman = track.PoseKalman(cfg)
    filters = [_ScalarFilterReference(cfg) for _ in range(7)]
    last_q = None
    q0 = axis_angle_quat(np.array([0.3, 1.0, -0.2]), 0.4)
    for i in range(80):
        dt = float(rng.uniform(0.02, 0.05))
        q = quat_normalize(q0 + rng.normal(0, 0.01, 4))
        if i % 7 == 3:
            q = -q   # the double cover: the filter must align it back
        pose = RigidTransform(q, np.array([5.0, -40.0, 320.0]) + rng.normal(0, 2.0, 3))
        got = kalman.step(pose, dt)
        qa = q if last_q is None else hemisphere_align(last_q, q)
        want_t = [filters[j].step(float(pose.t[j]), dt) for j in range(3)]
        want_q = quat_normalize(np.array([filters[3 + j].step(float(qa[j]), dt)
                                          for j in range(4)]))
        last_q = want_q
        np.testing.assert_allclose(got.t, want_t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.q, want_q, rtol=0, atol=1e-12)


def _triangulate_reference(obs, rig):
    """Corner-by-corner midpoint triangulation, no reliability checks."""
    def ray(px, intr):
        d = np.array([(px[0] - intr.cx) / intr.fx, (px[1] - intr.cy) / intr.fy, 1.0])
        return d / np.linalg.norm(d)

    r_right = quat_to_matrix(rig.baseline.q)
    o2 = np.asarray(rig.baseline.t, dtype=float)
    out = np.empty((4, 3))
    for k in range(4):
        d1 = ray(obs.left_px[k], rig.left)
        d2 = r_right @ ray(obs.right_px[k], rig.right)
        w0 = -o2
        b, d, e = float(d1 @ d2), float(d1 @ w0), float(d2 @ w0)
        denom = 1.0 - b * b
        s = (b * e - d) / denom
        u = (e - b * d) / denom
        out[k] = 0.5 * (s * d1 + (o2 + u * d2))
    return out


def test_vectorised_triangulation_matches_the_corner_loop(coarse_scene):
    rec, frame = _tool_frame(coarse_scene)
    turned = RigidTransform(axis_angle_quat(np.array([0.1, 1.0, 0.0]), -0.05),
                            np.array([60.0, 1.5, -2.0]))
    for rig in (rec.stereo_rig(), track.StereoRig(rec.scene.intrinsics,
                                                  rec.scene.intrinsics, turned)):
        for obs in frame.observations:
            got, _, _ = track._triangulate_corners(obs.left_px, obs.right_px, rig)
            assert got.tobytes() == _triangulate_reference(obs, rig).tobytes()


def _corrupt(observations, ids):
    out = []
    for o in observations:
        right = o.right_px.copy()
        if o.marker_id in ids:
            right[0, 1] += 60.0   # off the epipolar line
        out.append(track.MarkerObservation(o.marker_id, o.left_px, right))
    return out


def test_a_marker_with_an_unreliable_corner_is_left_out(coarse_scene):
    rec, frame = _tool_frame(coarse_scene, sigma_px=0.0)
    markers = sim.default_marker_reference()
    got = track.track_pose(_corrupt(frame.observations, {0}), rec.stereo_rig(), markers)
    want = rec.tool_pose(1)
    np.testing.assert_allclose(got.t, want.t, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.abs(got.q @ want.q), 1.0, rtol=0, atol=1e-12)


def test_a_marker_with_parallel_viewing_rays_is_left_out(coarse_scene):
    rec, frame = _tool_frame(coarse_scene, sigma_px=0.0)
    rig, markers = rec.stereo_rig(), sim.default_marker_reference()
    # the baseline runs along x, so equal pixels in both views give parallel rays
    obs = [track.MarkerObservation(o.marker_id, o.left_px,
                                   o.left_px if o.marker_id == 0 else o.right_px)
           for o in frame.observations]
    _, parallel, _ = track._triangulate_corners(obs[0].left_px, obs[0].right_px, rig)
    assert parallel.all()
    got = track.track_pose(obs, rig, markers)
    want = rec.tool_pose(1)
    np.testing.assert_allclose(got.t, want.t, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.abs(got.q @ want.q), 1.0, rtol=0, atol=1e-12)


def test_two_unreliable_markers_of_three_leave_too_few(coarse_scene):
    rec, frame = _tool_frame(coarse_scene)
    with pytest.raises(track.InsufficientMarkersError):
        track.track_pose(_corrupt(frame.observations, {0, 2}), rec.stereo_rig(),
                         sim.default_marker_reference())


def test_one_pass_over_all_markers_matches_marker_by_marker(coarse_scene):
    rec, frame = _tool_frame(coarse_scene)
    rig, markers = rec.stereo_rig(), sim.default_marker_reference()
    obs = frame.observations
    per_marker = np.vstack([track._triangulate_corners(o.left_px, o.right_px, rig)[0]
                            for o in obs])
    want = umeyama(np.vstack([markers[o.marker_id] for o in obs]), per_marker)
    got = track.track_pose(obs, rig, markers)
    assert got.q.tobytes() == want.q.tobytes()
    assert got.t.tobytes() == want.t.tobytes()
