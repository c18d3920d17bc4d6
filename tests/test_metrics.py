import pytest

from vertereg import metrics, register, sim


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
        calls.append(kwargs.get("refine", True))
        return initial(*args, **kwargs)

    monkeypatch.setattr(register, "register_initial_frame", counting)
    metrics.run_ablation(rec, coarse_scene.models, sim.oracle_segmenter,
                         default_cfg, rec.gt_pose)
    assert calls == [True]


def test_recording_tre_is_the_mean_from_the_start_frame():
    assert metrics.recording_tre([9.0, 1.0, 2.0], start_frame=2) == 1.5
    with pytest.raises(ValueError):
        metrics.recording_tre([1.0], start_frame=2)
