import numpy as np
import pytest

from conftest import brute_force_depth
from vertereg import maskgen
from vertereg.cloud import CameraIntrinsics

INTR = CameraIntrinsics(fx=200.0, fy=200.0, cx=32.0, cy=24.0, width=64, height=48)


def _cloud(n, u_range, v_range, z_range, seed):
    """Points that land on pixels drawn from the ranges, several per pixel."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(*z_range, n)
    u = rng.integers(*u_range, n) + rng.uniform(-0.45, 0.45, n)
    v = rng.integers(*v_range, n) + rng.uniform(-0.45, 0.45, n)
    return np.column_stack([(u - INTR.cx) * z / INTR.fx, (v - INTR.cy) * z / INTR.fy, z])


# clouds whose points fall behind the sensor, off each edge or all off the
# image, beside ones that splat inside it only
CLOUDS = {
    "inside only": _cloud(400, (10, 30), (5, 20), (300, 700), 1),
    "one pixel": _cloud(50, (63, 64), (0, 1), (300, 700), 2),
    "behind the sensor too": np.vstack([_cloud(300, (0, 64), (0, 48), (300, 700), 3),
                                        [[1.0, 1.0, 0.0], [0.0, 0.0, -5.0],
                                         [10.0, -3.0, -400.0]]]),
    "off the left edge": _cloud(300, (-20, 20), (0, 48), (300, 700), 4),
    "off the right edge": _cloud(300, (40, 90), (0, 48), (300, 700), 5),
    "off the top edge": _cloud(300, (0, 64), (-30, 10), (300, 700), 6),
    "off the bottom edge": _cloud(300, (0, 64), (30, 80), (300, 700), 7),
    "off every edge": _cloud(2000, (-40, 100), (-40, 90), (-300, 700), 8),
    "all off the image": _cloud(300, (70, 200), (-50, 100), (300, 700), 9),
    "none": np.zeros((0, 3)),
}


@pytest.mark.parametrize("name", CLOUDS)
def test_render_depth_equals_a_full_image_brute_force_z_buffer(name):
    want = brute_force_depth(CLOUDS[name], INTR)
    assert maskgen.render_depth(CLOUDS[name], INTR).tobytes() == want.tobytes()
    if name in ("all off the image", "none"):
        assert not want.any()
    else:
        assert want.any()


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
            np.testing.assert_array_equal(maskgen.smooth_mask(mask),
                                          _window_counts(mask) >= 113)

    @pytest.mark.parametrize("rows, cols", [
        (np.s_[:20], np.s_[:20]), (np.s_[:20], np.s_[-20:]),
        (np.s_[-20:], np.s_[:20]), (np.s_[-20:], np.s_[-20:]),
        (np.s_[:9], np.s_[10:40]), (np.s_[-9:], np.s_[10:40]),
        (np.s_[10:35], np.s_[:9]), (np.s_[10:35], np.s_[-9:]),
        (np.s_[:], np.s_[:]), (np.s_[20:28], np.s_[25:33])],
        ids=["top left", "top right", "bottom left", "bottom right", "top",
             "bottom", "left", "right", "everywhere", "interior"])
    def test_masks_at_each_border_and_corner_keep_the_window_count_rule(self, rows,
                                                                        cols):
        rng = np.random.default_rng(9)
        for density in (1.0, 0.8, 0.55):
            mask = np.zeros((48, 56), bool)
            mask[rows, cols] = rng.random((48, 56))[rows, cols] < density
            np.testing.assert_array_equal(maskgen.smooth_mask(mask),
                                          _window_counts(mask) >= 113)

    def test_empty_mask_stable(self):
        empty = np.zeros((20, 20), bool)
        np.testing.assert_array_equal(maskgen.smooth_mask(empty), empty)


def _window_counts(mask):
    """True pixels in each pixel's 15x15 window, zero-padded, over the whole image."""
    padded = np.pad(mask.astype(np.int64), 7)
    csum = padded.cumsum(axis=0).cumsum(axis=1)
    csum = np.pad(csum, ((1, 0), (1, 0)))
    h, w = mask.shape
    return (csum[15:15 + h, 15:15 + w] - csum[:h, 15:15 + w]
            - csum[15:15 + h, :w] + csum[:h, :w])
