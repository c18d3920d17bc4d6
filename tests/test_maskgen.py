import numpy as np
import pytest

from vertereg import maskgen
from vertereg.cloud import CameraIntrinsics

INTR = CameraIntrinsics(fx=200.0, fy=200.0, cx=32.0, cy=24.0, width=64, height=48)


class TestRenderDepth:
    def test_single_point_on_principal_ray(self):
        depth = maskgen.render_depth(np.array([[0.0, 0.0, 500.0]]), INTR)
        assert (depth > 0).sum() == 1
        assert depth[24, 32] == 500.0

    def test_z_buffer_keeps_nearest(self):
        pts = np.array([[0.0, 0.0, 600.0], [0.0, 0.0, 400.0]])
        depth = maskgen.render_depth(pts, INTR)
        assert depth[24, 32] == 400.0

    def test_dense_plane(self):
        xs, ys = np.meshgrid(np.linspace(-20, 20, 200), np.linspace(-15, 15, 150))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 500.0)])
        depth = maskgen.render_depth(pts, INTR)
        covered = depth > 0
        assert covered.sum() > 100
        np.testing.assert_array_equal(depth[covered], 500.0)

    def test_behind_camera_ignored(self):
        depth = maskgen.render_depth(np.array([[0.0, 0.0, -100.0]]), INTR)
        assert (depth > 0).sum() == 0


class TestSynthMask:
    def test_equal_depths(self):
        rng = np.random.default_rng(0)
        rendered = np.where(rng.random((48, 64)) < 0.5,
                            rng.uniform(300, 700, (48, 64)), 0.0)
        mask = maskgen.synth_mask(rendered, rendered.copy())
        np.testing.assert_array_equal(mask, rendered > 0)

    def test_large_difference_everywhere(self):
        rendered = np.full((10, 10), 500.0)
        mask = maskgen.synth_mask(rendered, rendered + 15.0)
        assert not mask.any()

    def test_occluder_patch(self):
        rendered = np.full((20, 20), 500.0)
        sensor = rendered.copy()
        sensor[5:10, 5:10] = 450.0  # something 50 mm nearer
        mask = maskgen.synth_mask(rendered, sensor)
        assert not mask[5:10, 5:10].any()
        assert mask.sum() == 400 - 25

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            maskgen.synth_mask(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_match_threshold_is_strict(self):
        rendered = np.full((2, 2), 500.0)
        sensor = rendered + np.array([[0.0, maskgen.MATCH_MM - 1e-9],
                                      [maskgen.MATCH_MM, -maskgen.MATCH_MM]])
        mask = maskgen.synth_mask(rendered, sensor)
        np.testing.assert_array_equal(mask, [[True, True], [False, False]])

    def test_requires_both_valid(self):
        rendered = np.full((5, 5), 500.0)
        sensor = rendered.copy()
        sensor[2, 2] = 0.0
        rendered[1, 1] = 0.0
        mask = maskgen.synth_mask(rendered, sensor)
        assert not mask[2, 2] and not mask[1, 1]


class TestSmoothMask:
    def test_isolated_pixel_removed(self):
        mask = np.zeros((31, 31), bool)
        mask[15, 15] = True
        assert not maskgen.smooth_mask(mask).any()  # 1/225 < 0.5

    def test_all_true_interior_survives(self):
        mask = np.ones((40, 40), bool)
        out = maskgen.smooth_mask(mask)
        assert out[10:30, 10:30].all()

    def test_rectangle_boundary_erosion_bounded(self):
        mask = np.zeros((60, 60), bool)
        mask[10:50, 10:50] = True
        out = maskgen.smooth_mask(mask)
        assert out[17:43, 17:43].all()          # interior intact (<= 7 px erosion)
        assert not (out & ~mask).any()          # no dilation beyond the rectangle

    def test_window_count_characterization(self):
        # pointwise content of the stability property: a pixel survives
        # exactly when its 15x15 window holds at least ceil(225/2) = 113
        # true pixels; checked against an integral-image counting oracle
        rng = np.random.default_rng(8)
        for _ in range(5):
            mask = rng.random((48, 56)) < rng.uniform(0.3, 0.7)
            out = maskgen.smooth_mask(mask)
            padded = np.pad(mask.astype(np.int64), 7)
            csum = padded.cumsum(axis=0).cumsum(axis=1)
            csum = np.pad(csum, ((1, 0), (1, 0)))
            h, w = mask.shape
            counts = (csum[15:15 + h, 15:15 + w] - csum[:h, 15:15 + w]
                      - csum[15:15 + h, :w] + csum[:h, :w])
            np.testing.assert_array_equal(out, counts >= 113)

    def test_empty_mask_stable(self):
        empty = np.zeros((20, 20), bool)
        np.testing.assert_array_equal(maskgen.smooth_mask(empty), empty)

