import numpy as np
import pytest

from conftest import StaticFrames, bake_selfconsistent_models
from vertereg import cloud, register, sim
from vertereg.geom import RigidTransform, axis_angle_quat


def test_run_recording_yields_first_state_before_reading_frame_two(coarse_scene,
                                                                   default_cfg):
    models, pose = bake_selfconsistent_models(coarse_scene)
    source = StaticFrames(models, pose, coarse_scene.intrinsics, 3)
    read = []

    def frames():
        for frame in source:
            read.append(frame.index)
            yield frame

    states = register.run_recording(frames(), models, sim.oracle_segmenter,
                                    default_cfg)
    first = next(states)
    assert first.frame_index == 1
    assert read == [1]
    assert [s.frame_index for s in states] == [2, 3]
    assert read == [1, 2, 3]


def test_run_recording_rejects_unknown_mode(coarse_scene, default_cfg):
    with pytest.raises(ValueError, match="unknown mode"):
        next(register.run_recording([], coarse_scene.models, sim.oracle_segmenter,
                                    default_cfg, mode="Partial"))


def test_pairs_reported_at_exactly_the_gate_are_not_inliers():
    # scipy keeps a pair when d**2 < gate**2, yet sqrt(d**2) can round up to the
    # gate itself; at 2.5 mm (unlike a power of two) that happens often
    cfg = register.RegistrationConfig(piecewise_inlier=2.5)
    gate = cfg.piecewise_inlier
    scene = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    index = cloud.NearestNeighborIndex(scene)
    rng = np.random.default_rng(0)
    model_pts = []
    for ref in scene:
        u = rng.normal(size=(200, 3))
        candidates = ref + gate * u / np.linalg.norm(u, axis=1)[:, None]
        qidx, _, dist = index.query(candidates, gate)
        model_pts.append(candidates[qidx[dist == gate][0]])
    model_pts = np.array(model_pts)
    qidx, ridx, dist = index.query(model_pts, gate)
    assert qidx.tolist() == ridx.tolist() == [0, 1, 2]
    assert np.all(dist == gate)

    model = register.VertebraModel(
        id=1, points=model_pts, normals=np.zeros_like(model_pts),
        reg_points=model_pts, landmarks=model_pts,
        pedicle_indices=np.array([], dtype=np.int64), screw_plans=())
    track = register.VertebraTrack(RigidTransform.identity(), baseline_inliers=0,
                                   updated=True, frozen=False)
    out = register.update_pose(track, model, index, cfg)
    assert out.inliers == 0
    assert not out.updated
    assert out.pose is track.pose


@pytest.fixture(scope="module")
def initial_frame(coarse_scene):
    return sim.render_recording(coarse_scene, sim.RecordingSpec(frames=1), seed=0).frame(1)


def _prior(monkeypatch, frame, models, cfg, perturbation):
    """The pose prior register_initial_frame hands to general alignment."""
    seen = []

    def capture(reg_points, t_init, index, cfg):
        seen.append(t_init)
        return t_init

    monkeypatch.setattr(register, "general_alignment", capture)
    register.register_initial_frame(frame, models, sim.oracle_segmenter, cfg,
                                    initial_perturbation=perturbation, refine=False)
    return seen[0]


def test_perturbation_rotation_turns_prior_about_its_centre(
        monkeypatch, initial_frame, coarse_scene, default_cfg):
    models = coarse_scene.models
    base = _prior(monkeypatch, initial_frame, models, default_cfg, None)
    turn = RigidTransform(axis_angle_quat(np.array([1.0, 2.0, 2.0]) / 3.0, 0.2),
                          np.zeros(3))
    got = _prior(monkeypatch, initial_frame, models, default_cfg, turn)
    np.testing.assert_array_equal(got.t, base.t)
    np.testing.assert_array_equal(got.q, turn.compose(base).q)
    # the sensor-origin rotation would have moved the centre by tens of mm
    assert np.linalg.norm(turn.compose(base).t - base.t) > 20.0


def test_perturbation_translation_matches_composed_prior(
        monkeypatch, initial_frame, coarse_scene, default_cfg):
    models = coarse_scene.models
    base = _prior(monkeypatch, initial_frame, models, default_cfg, None)
    shift = sim.perturbation(np.random.default_rng(1), 0.0, 5.0)
    got = _prior(monkeypatch, initial_frame, models, default_cfg, shift)
    want = shift.compose(base)
    np.testing.assert_array_equal(got.q, want.q)
    np.testing.assert_array_equal(got.t, want.t)
