import numpy as np
import pytest

from vertereg import metrics, register, sim
from vertereg.geom import RigidTransform


@pytest.fixture(scope="module")
def drifting_recording(coarse_scene):
    """64 frames of steady drift, so holding after frame 61 shows in the TRE."""
    drift = sim.MotionSpec(kind="drift", vector=(0.0, 0.0, 6.0))
    spec = sim.RecordingSpec(frames=64, motions={vid: drift for vid in range(1, 6)})
    return sim.render_recording(coarse_scene, spec, seed=0)


def reference_series(rec, models, cfg, mode):
    """The ablation's definition: TRE of every state of ``mode``'s own run."""
    by_id = {m.id: m for m in models}
    series = {m.id: [] for m in models}
    for state in register.run_recording(rec, models, sim.oracle_segmenter, cfg,
                                        mode=mode):
        for vid, track in state.vertebrae.items():
            gt = rec.gt_pose(vid, state.frame_index)
            series[vid].append(metrics.tre(gt, track.pose, by_id[vid].landmarks))
    return series


def test_single_pass_ablation_equals_per_mode_runs(drifting_recording, coarse_scene,
                                                   default_cfg):
    models = coarse_scene.models
    got = metrics.run_ablation(drifting_recording, models, sim.oracle_segmenter,
                               default_cfg, drifting_recording.gt_pose)
    assert list(got) == list(register.ABLATION_MODES)
    for mode in register.ABLATION_MODES:
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
    assert metrics.recording_tre([9.0, 1.0, 2.0], start_frame=2) == 1.5
    with pytest.raises(ValueError):
        metrics.recording_tre([1.0], start_frame=2)


@pytest.mark.parametrize("normal,want", [([0.0, 0.0, 2.0], 0.0), ([0.0, 0.0, -1.0], 0.0),
                                         ([1.0, 0.0, 0.0], 90.0)])
def test_viewpoint_angle_treats_the_normal_as_a_line(normal, want):
    got = metrics.viewpoint_angle(np.array([0.0, 0.0, 1.0]), np.array(normal))
    assert got == pytest.approx(want, abs=1e-12)


def test_viewpoint_at_exactly_the_limit_is_not_acceptable():
    assert metrics.viewpoint_acceptable(np.nextafter(metrics.MAX_VIEWPOINT_ANGLE_DEG, 0))
    assert not metrics.viewpoint_acceptable(metrics.MAX_VIEWPOINT_ANGLE_DEG)


def test_lateral_perforation_ignores_a_nearby_end_cap():
    plan = register.ScrewPlan(entry=[0.0, 0.0, 0.0], direction=[0.0, 0.0, 1.0],
                              radius_mm=3.0, length_mm=40.0)
    # 2.5 mm in from the wall, 0.2 mm in from the entry cap
    point = np.array([[0.5, 0.0, 0.2]])
    pose = RigidTransform.identity()
    capped = metrics.perforation(point, plan, pose, pose)
    lateral = metrics.perforation(point, plan, pose, pose, include_caps=False)
    assert capped == pytest.approx(0.2, abs=1e-12)
    assert lateral == pytest.approx(2.5, abs=1e-12)
