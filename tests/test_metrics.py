import numpy as np
import pytest

from conftest import random_unit_quat
from vertereg import metrics, register, sim
from vertereg.geom import RigidTransform, axis_angle_quat, quat_to_matrix


@pytest.fixture(scope="module")
def drifting_recording(coarse_scene):
    """64 frames of steady drift, so holding after frame 61 shows in the TRE."""
    drift = sim.MotionSpec(kind="drift", vector=(0.0, 0.0, 6.0))
    spec = sim.RecordingSpec(frames=64, motions={vid: drift for vid in range(1, 6)})
    return sim.render_recording(coarse_scene, spec, seed=0)


def reference_series(rec, models, cfg, mode):
    """The ablation's definition, from ``mode``'s own run: ``(frame, TRE)``
    of the poses it shows on each frame. The mode updates on its first
    ``UPDATE_FRAMES[mode]`` interaction frames (on all when None) and holds
    the poses after the last of them; General shows the en-bloc pose."""
    limit = metrics.UPDATE_FRAMES[mode]
    by_id = {m.id: m for m in models}
    series = {m.id: [] for m in models}

    def show(frame_index, state):
        for vid, track in state.vertebrae.items():
            pose = state.en_bloc if mode == "General" else track.pose
            gt = rec.gt_pose(vid, frame_index)
            series[vid].append((frame_index,
                                metrics.tre(gt, pose, by_id[vid].landmarks)))

    frames = iter(rec)
    first = next(frames)
    state = register.register_initial_frame(first, models, sim.oracle_segmenter, cfg)
    show(first.index, state)
    for interaction, frame in enumerate(frames, start=1):
        if limit is None or interaction <= limit:
            state = register.process_interaction_frame(state, frame, models,
                                                       sim.oracle_segmenter, cfg)
        show(frame.index, state)
    return series


def test_single_pass_ablation_equals_per_mode_runs(drifting_recording, coarse_scene,
                                                   default_cfg):
    models = coarse_scene.models
    got = metrics.run_ablation(drifting_recording, models, sim.oracle_segmenter,
                               default_cfg, drifting_recording.gt_pose)
    assert list(got) == list(metrics.ABLATION_MODES)
    for mode in metrics.ABLATION_MODES:
        assert got[mode] == reference_series(drifting_recording, models,
                                             default_cfg, mode), mode
    assert got["First-60"] != got["Full"]
    assert got["General"] != got["Refinement"]


def test_ablation_registers_the_initial_frame_once(monkeypatch, coarse_scene,
                                                    default_cfg):
    rec = sim.render_recording(coarse_scene, sim.RecordingSpec(frames=3), seed=0)
    calls = []
    initial = register.register_initial_frame

    def counting(*args, **kwargs):
        calls.append(args[0].index)
        return initial(*args, **kwargs)

    monkeypatch.setattr(register, "register_initial_frame", counting)
    metrics.run_ablation(rec, coarse_scene.models, sim.oracle_segmenter,
                         default_cfg, rec.gt_pose)
    assert calls == [1]


def test_recording_tre_is_the_mean_from_the_start_frame():
    assert metrics.recording_tre([(1, 9.0), (2, 1.0), (3, 2.0)], start_frame=2) == 1.5
    with pytest.raises(ValueError):
        metrics.recording_tre([(1, 1.0)], start_frame=2)


def test_recording_tre_judges_by_frame_number_not_by_position():
    # frame 1 has no row (it was invalid): from frame 3 on means frames 3
    # and 4, where the third row on would be frame 4 alone
    rows = [(2, 9.0), (3, 4.0), (4, 8.0)]
    assert metrics.recording_tre(rows, start_frame=3) == 6.0
    assert metrics.recording_tre(rows, start_frame=1) == 7.0
    with pytest.raises(ValueError):
        metrics.recording_tre(rows, start_frame=5)


@pytest.mark.parametrize("normal,want", [([0.0, 0.0, 2.0], 0.0), ([0.0, 0.0, -1.0], 0.0),
                                         ([1.0, 0.0, 0.0], 90.0)])
def test_viewpoint_angle_treats_the_normal_as_a_line(normal, want):
    got = metrics.viewpoint_angle(np.array([0.0, 0.0, 1.0]), np.array(normal))
    assert got == pytest.approx(want, abs=1e-12)


def test_viewpoint_at_exactly_the_limit_is_not_acceptable():
    assert metrics.viewpoint_acceptable(np.nextafter(metrics.MAX_VIEWPOINT_ANGLE_DEG, 0))
    assert not metrics.viewpoint_acceptable(metrics.MAX_VIEWPOINT_ANGLE_DEG)


def test_perforation_depth_counts_a_nearby_end_cap():
    plan = register.ScrewPlan(entry=[0.0, 0.0, 0.0], direction=[0.0, 0.0, 1.0],
                              radius_mm=3.0, length_mm=40.0)
    pose = RigidTransform.identity()
    # 2.5 mm in from the wall and 0.2 mm in from the entry cap, then 0.3 mm
    # in from the far cap
    for point, want in [([0.5, 0.0, 0.2], 0.2), ([0.5, 0.0, 39.7], 0.3)]:
        got = metrics.perforation(np.array([point]), plan, pose, pose)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def gt_pose():
    return RigidTransform(axis_angle_quat(np.array([2.0, -1.0, 2.0]) / 3.0, 0.7),
                          np.array([10.0, -20.0, 350.0]))


def _errors(gt_pose, est, landmarks, entry, direction):
    """``vertebra_errors`` of a model with ``landmarks`` and one screw plan."""
    model = register.VertebraModel(
        id=1, points=landmarks, normals=np.zeros_like(landmarks),
        reg_indices=np.arange(len(landmarks)), landmarks=landmarks,
        pedicle_indices=np.array([], dtype=np.int64),
        screw_plans=(register.ScrewPlan(entry, direction, 3.0, 40.0),))
    tre, [(traj, entry_err, depth)] = metrics.vertebra_errors(model, gt_pose, est)
    assert depth is None
    return tre, traj, entry_err


_LANDMARKS = np.array([[0.0, 0.0, 0.0], [30.0, -5.0, 2.0], [-7.0, 12.0, 40.0]])


def test_a_pure_translation_gives_its_length_as_every_error(gt_pose):
    shift = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.array([3.0, 4.0, 12.0]))
    est = shift.compose(gt_pose)
    assert metrics.tre(gt_pose, est, _LANDMARKS) == pytest.approx(13.0, abs=1e-9)
    tre, traj, entry = _errors(gt_pose, est, _LANDMARKS, _LANDMARKS[1],
                               np.array([0.0, 1.0, 1.0]))
    assert tre == pytest.approx(13.0, abs=1e-9)
    assert entry == pytest.approx(13.0, abs=1e-9)
    assert traj == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("angle_deg", [5.0, 40.0])
def test_a_turn_about_the_screw_axis_moves_neither_trajectory_nor_entry(
        gt_pose, angle_deg):
    entry, direction = np.array([12.0, -3.0, 8.0]), np.array([0.0, 0.6, 0.8])
    # about the axis through the entry point, in the model frame
    to_entry = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), entry)
    turn = RigidTransform(axis_angle_quat(direction, np.radians(angle_deg)), np.zeros(3))
    est = gt_pose.compose(to_entry).compose(turn).compose(to_entry.inverse())
    _, traj, entry_err = _errors(gt_pose, est, _LANDMARKS, entry, direction)
    assert traj == pytest.approx(0.0, abs=1e-5)
    assert entry_err == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("angle_deg", [5.0, 40.0])
def test_a_turn_across_the_screw_axis_tilts_the_trajectory_by_its_angle(
        gt_pose, angle_deg):
    direction, across = np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    est = gt_pose.compose(RigidTransform(
        axis_angle_quat(across, np.radians(angle_deg)), np.zeros(3)))
    # the entry point sits on the rotation axis (the model origin), so only
    # the trajectory moves
    _, traj, entry_err = _errors(gt_pose, est, _LANDMARKS, np.zeros(3), direction)
    assert traj == pytest.approx(angle_deg, abs=1e-9)
    assert entry_err == pytest.approx(0.0, abs=1e-9)


def _first_perforation(pedicle_points, screw, gt, est):
    """``perforation`` as first written, with np.linalg.norm and np.outer."""
    pts = gt.apply(pedicle_points)
    entry = est.apply(screw.entry)
    axis = quat_to_matrix(est.q) @ screw.direction
    w = pts - entry
    axial = w @ axis
    radial = np.linalg.norm(w - np.outer(axial, axis), axis=1)
    inside = (axial >= 0.0) & (axial <= screw.length_mm) & (radial < screw.radius_mm)
    if not inside.any():
        return None
    depth = np.minimum(screw.radius_mm - radial[inside],
                       np.minimum(axial[inside], screw.length_mm - axial[inside]))
    return float(depth.max())


def test_vertebra_errors_equal_tre_and_perforation_bit_for_bit(coarse_scene):
    rng = np.random.default_rng(12)
    depths = []
    for model in coarse_scene.models:
        gt = RigidTransform(random_unit_quat(rng), rng.normal(0.0, 50.0, 3))
        for angle_deg, shift_mm in [(0.0, 0.0), (0.3, 0.5), (1.0, 2.0), (4.0, 3.0)]:
            est = sim.perturbation(rng, np.radians(angle_deg), shift_mm).compose(gt)
            t, screws = metrics.vertebra_errors(model, gt, est)
            assert repr(t) == repr(metrics.tre(gt, est, model.landmarks))
            assert len(screws) == len(model.screw_plans)
            for plan, (_, _, depth) in zip(model.screw_plans, screws):
                want = metrics.perforation(model.pedicle_points, plan, gt, est)
                assert repr(depth) == repr(want)
                assert repr(want) == repr(_first_perforation(
                    model.pedicle_points, plan, gt, est))
                depths.append(depth)
    # both outcomes of the perforation test are covered
    assert None in depths and any(d is not None for d in depths)
