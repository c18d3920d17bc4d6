from dataclasses import replace

import numpy as np
import pytest

from conftest import StaticFrames, bake_selfconsistent_models, random_unit_quat
from vertereg import cloud, metrics, register, sim
from vertereg.geom import RigidTransform, axis_angle_quat, pose_difference


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


def test_pairs_reported_at_exactly_the_gate_are_not_inliers():
    # scipy keeps a pair when d**2 < gate**2, yet sqrt(d**2) can round up to the
    # gate itself; at 2.5 mm (unlike a power of two) that happens often
    cfg = register.RegistrationConfig(piecewise_inlier=2.5)
    gate = cfg.piecewise_inlier
    model_pts = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    model = register.VertebraModel(
        id=1, points=model_pts, normals=np.zeros_like(model_pts),
        reg_indices=np.arange(3), landmarks=model_pts,
        pedicle_indices=np.array([], dtype=np.int64), screw_plans=())
    rng = np.random.default_rng(0)
    scene = []
    for ref in model_pts:
        u = rng.normal(size=(200, 3))
        candidates = ref + gate * u / np.linalg.norm(u, axis=1)[:, None]
        dist, _ = model.index._tree.query(candidates, k=1, distance_upper_bound=gate)
        scene.append(candidates[np.flatnonzero(dist == gate)[0]])
    scene = np.array(scene)
    dist, idx = model.index._tree.query(scene, k=1, distance_upper_bound=gate)
    assert idx.tolist() == [0, 1, 2]
    assert np.all(dist == gate)
    # at the identity pose the scene enters the model frame unchanged
    assert all(a.size == 0 for a in model.index.query(scene, gate))

    track = register.VertebraTrack(RigidTransform.identity(), baseline_inliers=0,
                                   updated=True, frozen=False)
    out = register.update_pose(track, model, scene, cfg)
    assert out.inliers == 0
    assert not out.updated
    assert out.pose is track.pose


@pytest.fixture(scope="module")
def initial_frame(coarse_scene):
    return sim.render_recording(coarse_scene, sim.RecordingSpec(frames=1), seed=0).frame(1)


def _prior(monkeypatch, frame, models, cfg, perturbation):
    """The pose prior register_initial_frame hands to general alignment."""
    seen = []

    def capture(index, t_init, scene, cfg):
        seen.append(t_init)
        return t_init

    monkeypatch.setattr(register, "general_alignment", capture)
    register.register_initial_frame(frame, models, sim.oracle_segmenter, cfg,
                                    initial_perturbation=perturbation)
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


@pytest.mark.parametrize("gate", [2.0, 5.0])
def test_matcher_pairs_match_brute_force_over_posed_model(coarse_scene, gate):
    rng = np.random.default_rng(3)
    model = coarse_scene.models[1]
    pose = RigidTransform(random_unit_quat(rng), rng.normal(0.0, 50.0, 3))
    posed = pose.apply(model.reg_points)
    near = posed[rng.choice(posed.shape[0], 400)] + rng.normal(0.0, 1.5, (400, 3))
    far = posed.mean(axis=0) + rng.normal(0.0, 60.0, (100, 3))
    scene = np.vstack([near, far])

    midx, sidx, dist = register._gated_pairs(model.index, pose, scene, gate)

    full = np.linalg.norm(scene[:, None] - posed[None], axis=-1)
    brute_dist = full.min(axis=1)
    keep = brute_dist < gate
    assert 0 < keep.sum() < scene.shape[0]
    np.testing.assert_array_equal(sidx, np.nonzero(keep)[0])
    np.testing.assert_array_equal(midx, full.argmin(axis=1)[keep])
    np.testing.assert_allclose(dist, brute_dist[keep], rtol=0, atol=1e-9)


def _initial_cloud(frame):
    mask, _ = sim.oracle_segmenter(frame)
    return cloud.depth_to_cloud(frame.depth, frame.intrinsics,
                                cloud.largest_component(mask))


# 50 iterations converge early; 1 runs out, so its last match only counts;
# 0 only counts, at the en-bloc pose
@pytest.mark.parametrize("max_iters", [50, 1, 0])
def test_refinement_baseline_is_the_matcher_count_at_the_refined_pose(
        initial_frame, coarse_scene, max_iters):
    cfg = register.RegistrationConfig(piecewise_max_iters=max_iters)
    state = register.register_initial_frame(initial_frame, coarse_scene.models,
                                            sim.oracle_segmenter, cfg)
    scene = _initial_cloud(initial_frame)
    for model in coarse_scene.models:
        track = state.vertebrae[model.id]
        if max_iters == 0:
            want = state.en_bloc.normalized()
            assert track.pose.q.tobytes() == want.q.tobytes()
            assert track.pose.t.tobytes() == want.t.tobytes()
        midx, _, _ = register._gated_pairs(model.index, track.pose, scene,
                                           cfg.piecewise_inlier)
        assert track.baseline_inliers == track.inliers == midx.size > 0


def test_negative_iteration_caps_are_rejected():
    for key in ("general_max_iters", "piecewise_max_iters"):
        with pytest.raises(ValueError, match="iteration caps"):
            register.RegistrationConfig(**{key: -1})


@pytest.fixture(scope="module")
def occluded_pair(coarse_scene):
    """Frame 1 clear, frame 2 behind a box over vertebrae 2-4 (about 33 mm apart)."""
    occluder = sim.Occluder(2, 2, (0.0, 0.0, 300.0), (40.0, 40.0, 20.0))
    rec = sim.render_recording(coarse_scene,
                               sim.RecordingSpec(frames=2, occluders=[occluder]),
                               seed=0)
    first = register.register_initial_frame(rec.frame(1), coarse_scene.models,
                                            sim.oracle_segmenter,
                                            register.RegistrationConfig())
    return first, rec.frame(2)


def test_occluded_middle_vertebrae_hold_while_the_others_update(
        occluded_pair, coarse_scene, default_cfg):
    first, frame = occluded_pair
    state = register.process_interaction_frame(first, frame, coarse_scene.models,
                                               sim.oracle_segmenter, default_cfg)
    for vid, track in state.vertebrae.items():
        before = first.vertebrae[vid]
        if vid in (2, 3, 4):
            assert not track.updated
            assert track.inliers < default_cfg.update_gate * before.baseline_inliers
            np.testing.assert_array_equal(track.pose.q, before.pose.q)
            np.testing.assert_array_equal(track.pose.t, before.pose.t)
        else:
            assert track.updated


@pytest.fixture
def built_trees(monkeypatch):
    """Sizes of the KD-trees built while the test runs."""
    built = []
    build = cloud.NearestNeighborIndex.__init__

    def counting(self, reference):
        built.append(len(reference))
        build(self, reference)

    monkeypatch.setattr(cloud.NearestNeighborIndex, "__init__", counting)
    return built


def test_interaction_frame_builds_no_kd_tree(built_trees, occluded_pair,
                                             coarse_scene, default_cfg):
    first, frame = occluded_pair
    register.process_interaction_frame(first, frame, coarse_scene.models,
                                       sim.oracle_segmenter, default_cfg)
    # an empty cloud holds every vertebra
    blank = replace(frame, oracle_mask=np.zeros_like(frame.oracle_mask))
    state = register.process_interaction_frame(first, blank, coarse_scene.models,
                                               sim.oracle_segmenter, default_cfg)
    assert built_trees == []
    for vid, track in state.vertebrae.items():
        assert (track.updated, track.inliers) == (False, 0)
        assert track.pose is first.vertebrae[vid].pose


def test_initial_frame_builds_one_tree_over_the_coarse_subsets(
        built_trees, initial_frame, coarse_scene, default_cfg):
    models = coarse_scene.models
    register.register_initial_frame(initial_frame, models, sim.oracle_segmenter,
                                    default_cfg)
    coarse = sum(m.coarse_points.shape[0] for m in models)
    full = sum(m.reg_points.shape[0] for m in models)
    assert built_trees == [coarse]
    assert coarse < full / 2


def test_coarse_points_are_the_first_registration_point_per_2mm_voxel(coarse_scene):
    for m in coarse_scene.models:
        keep = cloud.voxel_subsample(m.reg_points, register.COARSE_VOXEL_MM)
        assert m.coarse_points.tobytes() == m.reg_points[keep].tobytes()


def test_initial_state_keeps_the_en_bloc_pose_it_refined_from(
        monkeypatch, initial_frame, coarse_scene, default_cfg):
    starts = []
    piecewise = register.piecewise_refine

    def spy_piecewise(model, t_gen, scene, cfg):
        starts.append(t_gen)
        return piecewise(model, t_gen, scene, cfg)

    def bits(pose):
        return pose.q.tobytes(), pose.t.tobytes()

    monkeypatch.setattr(register, "piecewise_refine", spy_piecewise)
    models = coarse_scene.models
    refined = register.register_initial_frame(initial_frame, models,
                                              sim.oracle_segmenter, default_cfg)
    assert [bits(t) for t in starts] == [bits(refined.en_bloc)] * len(models)
    assert all(bits(track.pose) != bits(refined.en_bloc)
               for track in refined.vertebrae.values())
    later = register.process_interaction_frame(refined, initial_frame, models,
                                               sim.oracle_segmenter, default_cfg)
    assert bits(later.en_bloc) == bits(refined.en_bloc)


def test_en_bloc_matches_the_coarse_scene_and_refinement_the_full_cloud(
        monkeypatch, initial_frame, coarse_scene, default_cfg):
    seen = {"general": [], "piecewise": []}
    general, piecewise = register.general_alignment, register.piecewise_refine

    def spy_general(index, t_init, scene, cfg):
        seen["general"].append(scene)
        return general(index, t_init, scene, cfg)

    def spy_piecewise(model, t_gen, scene, cfg):
        seen["piecewise"].append(scene)
        return piecewise(model, t_gen, scene, cfg)

    monkeypatch.setattr(register, "general_alignment", spy_general)
    monkeypatch.setattr(register, "piecewise_refine", spy_piecewise)
    register.register_initial_frame(initial_frame, coarse_scene.models,
                                    sim.oracle_segmenter, default_cfg)
    full = _initial_cloud(initial_frame)
    coarse = full[cloud.voxel_subsample(full, register.COARSE_VOXEL_MM)]
    assert [s.tobytes() for s in seen["general"]] == [coarse.tobytes()]
    assert 0 < coarse.shape[0] < full.shape[0]
    assert len(seen["piecewise"]) == len(coarse_scene.models)
    for scene in seen["piecewise"]:
        assert scene.tobytes() == full.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prior_off_by_10_degrees_and_10_mm_still_registers(
        initial_frame, coarse_scene, default_cfg, seed):
    off = sim.perturbation(np.random.default_rng(seed), np.radians(10.0), 10.0)
    state = register.register_initial_frame(initial_frame, coarse_scene.models,
                                            sim.oracle_segmenter, default_cfg,
                                            initial_perturbation=off)
    tre = [metrics.tre(initial_frame.gt_poses[m.id], state.vertebrae[m.id].pose,
                       m.landmarks) for m in coarse_scene.models]
    assert np.mean(tre) < 1.0


def _close(a, b, atol):
    """Poses ``a`` and ``b`` within ``atol`` (rad, mm) of each other."""
    angle, dist = pose_difference(a, b)
    return angle < atol and dist < atol


@pytest.fixture(scope="module")
def posed_vertebra(coarse_scene):
    """A model, its true pose, a noisy scene of it and a start 1 mm and
    1 degree off the truth, turned about the vertebra's own centre."""
    rng = np.random.default_rng(21)
    model = coarse_scene.models[2]
    truth = RigidTransform(random_unit_quat(rng), np.array([5.0, -10.0, 400.0]))
    scene = truth.apply(model.reg_points) + rng.normal(0.0, 0.2,
                                                      model.reg_points.shape)
    centre = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                            model.reg_points.mean(axis=0))
    off = sim.perturbation(rng, np.radians(1.0), 1.0)
    start = truth.compose(centre).compose(off).compose(centre.inverse())
    return model, truth, scene, start


def test_refinement_from_near_the_truth_converges_to_it(posed_vertebra, default_cfg):
    model, truth, scene, start = posed_vertebra
    assert not _close(start, truth, 0.01)
    pose, count = register.piecewise_refine(model, start, scene, default_cfg)
    assert _close(pose, truth, 0.05)
    assert count == scene.shape[0]
    track = register.VertebraTrack(start, 0, True, False)
    stepped = register.update_pose(track, model, scene, default_cfg)
    assert stepped.updated
    assert sum(pose_difference(stepped.pose, truth)) < sum(pose_difference(start, truth))


@pytest.mark.parametrize("seed", [0, 1])
def test_refinement_and_update_move_with_the_scene(posed_vertebra, default_cfg, seed):
    # moving the scene and the start pose by T moves the result by T
    model, _, scene, start = posed_vertebra
    rng = np.random.default_rng(seed)
    move = RigidTransform(random_unit_quat(rng), rng.normal(0.0, 100.0, 3))
    pose, count = register.piecewise_refine(model, start, scene, default_cfg)
    moved_pose, moved_count = register.piecewise_refine(
        model, move.compose(start), move.apply(scene), default_cfg)
    assert moved_count == count
    assert _close(moved_pose, move.compose(pose), 1e-6)

    track = register.VertebraTrack(start, 0, True, False)
    stepped = register.update_pose(track, model, scene, default_cfg)
    moved = register.update_pose(replace(track, pose=move.compose(start)), model,
                                 move.apply(scene), default_cfg)
    assert stepped.updated
    assert (moved.inliers, moved.updated) == (stepped.inliers, stepped.updated)
    assert _close(moved.pose, move.compose(stepped.pose), 1e-6)


def test_refinement_does_not_depend_on_the_order_of_the_scene(posed_vertebra,
                                                              default_cfg):
    model, _, scene, start = posed_vertebra
    order = np.random.default_rng(4).permutation(scene.shape[0])
    pose, count = register.piecewise_refine(model, start, scene, default_cfg)
    shuffled, shuffled_count = register.piecewise_refine(model, start, scene[order],
                                                         default_cfg)
    assert shuffled_count == count
    assert _close(shuffled, pose, 1e-9)


@pytest.fixture(scope="module")
def noisy_tilted_frame(coarse_scene):
    spec = sim.RecordingSpec(frames=1, depth_sigma=0.5, dropout=0.05, tilt_deg=4.0)
    return sim.render_recording(coarse_scene, spec, seed=2).frame(1)


def _state_bits(state):
    return [(vid, t.pose.q.tobytes(), t.pose.t.tobytes(), t.baseline_inliers,
             t.inliers, t.updated, t.frozen)
            for vid, t in sorted(state.vertebrae.items())] + [
        state.en_bloc.q.tobytes(), state.en_bloc.t.tobytes()]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_initial_registration_is_the_same_with_every_point_searched_each_time(
        monkeypatch, noisy_tilted_frame, coarse_scene, default_cfg, seed):
    off = sim.perturbation(np.random.default_rng(seed), np.radians(5.0), 5.0)
    args = (noisy_tilted_frame, coarse_scene.models, sim.oracle_segmenter, default_cfg)
    cached = register.register_initial_frame(*args, initial_perturbation=off)
    # no cache: every ICP iteration sends every scene point to the search
    monkeypatch.setattr(register, "QueryCache", lambda n: None)
    searched = register.register_initial_frame(*args, initial_perturbation=off)
    assert _state_bits(cached) == _state_bits(searched)


def test_en_bloc_alignment_moves_with_a_scene_shifted_by_whole_voxels(
        noisy_tilted_frame, coarse_scene, default_cfg):
    # the coarse subset's grid is anchored at the frame origin, so only a
    # shift by whole COARSE_VOXEL_MM voxels keeps the same subset
    pc = _initial_cloud(noisy_tilted_frame)
    keep = cloud.voxel_subsample(pc, register.COARSE_VOXEL_MM)
    assert not np.array_equal(cloud.voxel_subsample(pc + [1.0, 0.0, 0.0],
                                                    register.COARSE_VOXEL_MM), keep)
    combined = cloud.NearestNeighborIndex(np.vstack([m.coarse_points
                                                     for m in coarse_scene.models]))
    off = sim.perturbation(np.random.default_rng(5), np.radians(4.0), 4.0)
    prior = RigidTransform(noisy_tilted_frame.oracle_quat, cloud.centroid(pc))
    # turned about its centre and shifted, as register_initial_frame perturbs it
    t_init = RigidTransform(off.compose(prior).q, prior.t + off.t)
    base = register.general_alignment(combined, t_init, pc[keep], default_cfg)
    for voxels in ([1, 0, 0], [-2, 3, 5], [50, -25, 18]):
        shift = np.array(voxels) * register.COARSE_VOXEL_MM
        moved = pc + shift
        sub = moved[cloud.voxel_subsample(moved, register.COARSE_VOXEL_MM)]
        got = register.general_alignment(
            combined, RigidTransform(t_init.q, t_init.t + shift), sub, default_cfg)
        assert _close(got, RigidTransform(base.q, base.t + shift), 1e-9), voxels
