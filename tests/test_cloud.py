import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import random_unit_quat
from vertereg import cloud, maskgen
from vertereg.cloud import CameraIntrinsics
from vertereg.geom import RigidTransform, axis_angle_quat


INTR = CameraIntrinsics(fx=300.0, fy=300.0, cx=64.0, cy=48.0, width=128, height=96)


class TestIntrinsics:
    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0, cy=0, width=10, height=10)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=20, cy=0, width=10, height=10)

    def test_principal_ray_projects_to_the_principal_point(self):
        ray = INTR.rays(np.array([[INTR.cx, INTR.cy]]))
        np.testing.assert_array_equal(ray, [[0.0, 0.0, 1.0]])
        assert INTR.project(*(ray[0] * 500.0)) == (INTR.cx, INTR.cy)

    def test_project_inverts_rays(self):
        rng = np.random.default_rng(15)
        px = np.column_stack([rng.uniform(0.0, INTR.width, 500),
                              rng.uniform(0.0, INTR.height, 500)])
        d = rng.uniform(300.0, 700.0, (500, 1))
        u, v = INTR.project(*(INTR.rays(px) * d).T)
        np.testing.assert_allclose(np.column_stack([u, v]), px, rtol=0, atol=1e-9)


def _depth_to_cloud_2d(depth, intr, mask):
    """The 2-D np.nonzero back-projection that depth_to_cloud replaced."""
    v, u = np.nonzero((depth > 0) & mask)
    d = depth[v, u]
    return np.column_stack([d * (u - intr.cx) / intr.fx,
                            d * (v - intr.cy) / intr.fy, d])


class TestDepthToCloud:
    def test_principal_ray(self):
        depth = np.zeros((96, 128))
        depth[48, 64] = 500.0
        pts = cloud.depth_to_cloud(depth, INTR, depth > 0)
        np.testing.assert_allclose(pts, [[0.0, 0.0, 500.0]])

    def test_all_false_mask(self):
        depth = np.full((96, 128), 400.0)
        pts = cloud.depth_to_cloud(depth, INTR, np.zeros((96, 128), dtype=bool))
        assert pts.shape == (0, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cloud.depth_to_cloud(np.zeros((10, 10)), INTR, np.ones((10, 10), bool))
        with pytest.raises(ValueError):
            cloud.depth_to_cloud(np.zeros((96, 128)), INTR, np.zeros((5, 5), bool))

    def test_count_bounded_by_valid_pixels(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(100, 800, (96, 128))
        depth[rng.random((96, 128)) < 0.4] = 0.0
        pts = cloud.depth_to_cloud(depth, INTR, np.ones((96, 128), bool))
        assert pts.shape[0] == int((depth > 0).sum())

    def test_flat_indices_give_the_bytes_of_the_2d_formula(self):
        rng = np.random.default_rng(12)
        depth = rng.uniform(100, 800, (96, 128))
        depth[rng.random((96, 128)) < 0.3] = 0.0
        masks = [rng.random((96, 128)) < 0.5, np.zeros((96, 128), bool),
                 np.ones((96, 128), bool), depth > 0]
        for mask in masks:
            want = _depth_to_cloud_2d(depth, INTR, mask)
            got = cloud.depth_to_cloud(depth, INTR, mask)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_non_contiguous_depth_view(self):
        rng = np.random.default_rng(13)
        big = rng.uniform(100, 800, (192, 256))
        big[rng.random((192, 256)) < 0.3] = 0.0
        depth = big[::2, 1::2]
        assert not depth.flags.c_contiguous
        mask = rng.random((96, 128)) < 0.5
        for m in (mask, depth > 0):
            got = cloud.depth_to_cloud(depth, INTR, m)
            assert got.tobytes() == _depth_to_cloud_2d(depth, INTR, m).tobytes()

    def test_render_round_trip(self):
        # points on distinct pixels survive a render/back-project cycle to
        # within half a pixel footprint
        rng = np.random.default_rng(1)
        z = rng.uniform(400, 600, 200)
        u = rng.integers(2, 126, 200)
        v = rng.integers(2, 94, 200)
        keep = np.unique(v * 128 + u, return_index=True)[1]
        pts = np.column_stack([z * (u - INTR.cx) / INTR.fx,
                               z * (v - INTR.cy) / INTR.fy, z])[keep]
        depth = maskgen.render_depth(pts, INTR)
        back = cloud.depth_to_cloud(depth, INTR, depth > 0)
        assert back.shape == pts[np.lexsort((pts[:, 0], pts[:, 1]))].shape
        # exact grid placement: back-projection is lossless here
        a = pts[np.lexsort((u[keep], v[keep]))]
        np.testing.assert_allclose(np.sort(back, axis=0), np.sort(a, axis=0),
                                   atol=1e-9)

    def test_render_round_trip_offgrid(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(-30, 30, 300),
                               rng.uniform(-20, 20, 300),
                               rng.uniform(450, 550, 300)])
        depth = maskgen.render_depth(pts, INTR)
        back = cloud.depth_to_cloud(depth, INTR, depth > 0)
        # every reconstructed point lies within half a pixel footprint of a true point
        _, _, dist = cloud.NearestNeighborIndex(pts).query(back, np.inf)
        footprint = 550.0 / INTR.fx
        assert dist.max() <= 0.5 * footprint * math.sqrt(2.0) + 1e-9


class TestCentroid:
    def test_single_point(self):
        np.testing.assert_allclose(cloud.centroid([[1.0, 2.0, 3.0]]), [1, 2, 3])

    def test_two_points(self):
        np.testing.assert_allclose(cloud.centroid([[0.0, 0, 0], [2.0, 0, 0]]),
                                   [1, 0, 0])

    def test_empty(self):
        with pytest.raises(cloud.EmptyCloudError):
            cloud.centroid(np.zeros((0, 3)))

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 100, (1000, 3))
        oracle = np.array([math.fsum(pts[:, k]) / 1000 for k in range(3)])
        np.testing.assert_allclose(cloud.centroid(pts), oracle, atol=1e-9)


class TestLargestComponent:
    def test_single_blob_unchanged(self):
        mask = np.zeros((10, 10), bool)
        mask[2:5, 2:5] = True
        np.testing.assert_array_equal(cloud.largest_component(mask), mask)

    def test_keeps_larger_blob(self):
        mask = np.zeros((12, 12), bool)
        mask[1:3, 1:6] = True       # 10 pixels
        mask[8:9, 8:11] = True      # 3 pixels
        out = cloud.largest_component(mask)
        expected = np.zeros_like(mask)
        expected[1:3, 1:6] = True
        np.testing.assert_array_equal(out, expected)

    def test_empty_mask(self):
        mask = np.zeros((6, 6), bool)
        np.testing.assert_array_equal(cloud.largest_component(mask), mask)

    def test_diagonal_is_connected(self):
        mask = np.eye(5, dtype=bool)
        mask[4, 0] = True  # separate single pixel
        out = cloud.largest_component(mask)
        assert out.sum() == 5  # the diagonal counts as one 8-connected blob

    def test_tie_break_row_major(self):
        mask = np.zeros((8, 8), bool)
        mask[0, 0:3] = True
        mask[6, 4:7] = True
        out = cloud.largest_component(mask)
        assert out[0, 0] and not out[6, 4]

    def test_idempotent_and_subset(self):
        rng = np.random.default_rng(4)
        mask = rng.random((40, 40)) < 0.4
        once = cloud.largest_component(mask)
        assert not (once & ~mask).any()
        np.testing.assert_array_equal(cloud.largest_component(once), once)


def _voxel_keys(points, size):
    return [tuple(math.floor(c / size) for c in p) for p in points]


class TestVoxelSubsample:
    @pytest.mark.parametrize("size", [0.7, 2.0, 5.0])
    def test_first_point_of_every_occupied_voxel(self, size):
        rng = np.random.default_rng(4)
        pts = rng.normal(0.0, 6.0, (800, 3))
        keys = _voxel_keys(pts, size)
        first = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)

        got = cloud.voxel_subsample(pts, size)
        assert got.tolist() == sorted(first.values())
        kept = [keys[i] for i in got]
        assert len(set(kept)) == len(kept)
        assert set(kept) == set(keys)
        assert 1 < got.size < pts.shape[0]

    def test_grid_is_anchored_at_the_origin(self):
        pts = np.array([[-0.1, 0.5, 0.5], [0.1, 0.5, 0.5], [1.9, 0.5, 0.5]])
        assert cloud.voxel_subsample(pts, 2.0).tolist() == [0, 1]
        assert cloud.voxel_subsample(pts + 1.0, 2.0).tolist() == [0, 2]

    def test_one_voxel_keeps_its_first_point_and_sparse_clouds_keep_all(self):
        rng = np.random.default_rng(5)
        inside = rng.uniform(0.1, 1.9, (50, 3))
        assert cloud.voxel_subsample(inside, 2.0).tolist() == [0]
        sparse = np.arange(30, dtype=float)[:, None] * [3.0, -5.0, 7.0]
        assert cloud.voxel_subsample(sparse, 2.0).tolist() == list(range(30))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            cloud.voxel_subsample(np.zeros((2, 3)), 0.0)


class TestNearestNeighbors:
    def test_exact_hit(self):
        ref = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        qidx, ridx, dist = cloud.NearestNeighborIndex(ref).query([[5.0, 0, 0]], 1.0)
        assert list(qidx) == [0] and list(ridx) == [1]
        assert dist[0] == 0.0

    def test_max_dist_zero_disjoint(self):
        ref = np.array([[0.0, 0, 0]])
        qidx, _, _ = cloud.NearestNeighborIndex(ref).query([[1.0, 0, 0]], 0.0)
        assert qidx.size == 0

    def test_empty_reference(self):
        with pytest.raises(cloud.EmptyCloudError):
            cloud.NearestNeighborIndex(np.zeros((0, 3)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        ref = rng.uniform(0, 100, (5000, 3))
        queries = rng.uniform(0, 100, (1000, 3))
        qidx, ridx, dist = cloud.NearestNeighborIndex(ref).query(queries, 5.0)
        full = np.linalg.norm(queries[:, None] - ref[None], axis=-1)
        brute_idx = full.argmin(axis=1)
        brute_dist = full.min(axis=1)
        keep = brute_dist < 5.0
        np.testing.assert_array_equal(qidx, np.nonzero(keep)[0])
        np.testing.assert_array_equal(ridx, brute_idx[keep])
        np.testing.assert_allclose(dist, brute_dist[keep], atol=1e-9)

    @pytest.mark.parametrize("max_dist", [2.0, 2.5, 5.0, np.inf])
    def test_pruned_query_equals_unpruned_tree_query(self, max_dist):
        # queries outside the reference's box widened by max_dist are never
        # sent to the tree; the result must be what the whole query gives
        rng = np.random.default_rng(11)
        ref = rng.normal(0.0, [20.0, 40.0, 10.0], (3000, 3))
        tree = cKDTree(ref)
        index = cloud.NearestNeighborIndex(ref)
        lo, hi = ref.min(axis=0), ref.max(axis=0)
        # points on and just around each face of the widened box, level with
        # the reference point that sets that face
        faces = []
        for k in range(3):
            for r, face in ((ref[ref[:, k].argmin()], lo[k] - max_dist),
                            (ref[ref[:, k].argmax()], hi[k] + max_dist)):
                if np.isfinite(face):
                    for x in (np.nextafter(face, -np.inf), face, np.nextafter(face, np.inf)):
                        q = r.copy()
                        q[k] = x
                        faces.append(q)
        for _ in range(10):
            pose = RigidTransform(random_unit_quat(rng), rng.uniform(-40.0, 40.0, 3))
            queries = np.vstack([pose.apply(rng.normal(0.0, 30.0, (2000, 3))),
                                 np.reshape(faces, (-1, 3))])
            dist, idx = tree.query(queries, k=1, distance_upper_bound=max_dist)
            found = dist < max_dist
            qidx, ridx, d = index.query(queries, max_dist)
            np.testing.assert_array_equal(qidx, np.flatnonzero(found))
            np.testing.assert_array_equal(ridx, idx[found])
            assert d.tobytes() == dist[found].tobytes()
        if faces:
            # the points just inside the faces do match
            assert index.query(np.array(faces), max_dist)[0].size >= 6

    def test_column_prune_keeps_points_exactly_on_the_padded_faces(self):
        # the six 1-D compares must send the tree what the (N, 3) compare
        # sent it: points on a padded face go, one ulp outside does not
        rng = np.random.default_rng(14)
        ref = rng.normal(0.0, 10.0, (500, 3))
        index = cloud.NearestNeighborIndex(ref)
        max_dist = 2.0
        pad = max_dist * (1.0 + 1e-9)
        lo = np.nextafter(ref.min(axis=0) - pad, -np.inf)
        hi = np.nextafter(ref.max(axis=0) + pad, np.inf)
        queries = [rng.normal(0.0, 15.0, (300, 3))]
        for k in range(3):
            for face, out in ((lo[k], -np.inf), (hi[k], np.inf)):
                for x in (face, np.nextafter(face, out)):
                    q = ref.mean(axis=0)
                    q[k] = x
                    queries.append(q[None])
        queries = np.vstack(queries)
        near = np.flatnonzero(((queries >= lo) & (queries <= hi)).all(axis=1))
        assert np.isin(300 + 2 * np.arange(6), near).all()
        assert not np.isin(301 + 2 * np.arange(6), near).any()

        sent = []
        tree = index._tree

        class Spy:
            def query(self, x, **kwargs):
                sent.append(x.copy())
                return tree.query(x, **kwargs)

        index._tree = Spy()
        qidx, ridx, d = index.query(queries, max_dist)
        assert sent[0].tobytes() == queries[near].tobytes()
        dist, idx = tree.query(queries[near], k=1, distance_upper_bound=max_dist)
        found = dist < max_dist
        np.testing.assert_array_equal(qidx, near[found])
        np.testing.assert_array_equal(ridx, idx[found])
        assert d.tobytes() == dist[found].tobytes()

    def test_distances_nonincreasing_when_reference_grows(self):
        rng = np.random.default_rng(6)
        small = rng.uniform(0, 50, (200, 3))
        extra = rng.uniform(0, 50, (300, 3))
        queries = rng.uniform(0, 50, (100, 3))
        _, _, d_small = cloud.NearestNeighborIndex(small).query(queries, np.inf)
        _, _, d_big = cloud.NearestNeighborIndex(np.vstack([small, extra])).query(
            queries, np.inf)
        assert (d_big <= d_small + 1e-12).all()


def _lattice(spacing: float, n: int) -> np.ndarray:
    g = np.arange(-n, n + 1) * spacing
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def _cache_case(kind: str, gate: float, rng: np.random.Generator):
    """A reference cloud and a scene around it, with points just outside
    the reference's box widened by ``gate`` so that motion carries them in.

    On a lattice the scene sits on half-spacing offsets, so many points have
    two or more nearest reference points at exactly the same distance.
    """
    if kind == "random":
        ref = rng.normal(0.0, [12.0, 20.0, 6.0], (600, 3))
        scene = ref[rng.integers(0, len(ref), 300)] + rng.normal(0.0, 1.5, (300, 3))
    else:
        ref = _lattice(1.0, 5)
        rng.shuffle(ref)
        scene = rng.integers(-12, 13, (300, 3)) * 0.5
    lo, hi = ref.min(axis=0) - gate, ref.max(axis=0) + gate
    around = rng.uniform(lo - 6.0, hi + 6.0, (400, 3))
    outside = ~((around >= lo) & (around <= hi)).all(axis=1)
    return ref, np.vstack([scene, around[outside]])


# one rigid motion of the scene: (translation mm, rotation deg, on the grid);
# a motion on the grid has no rotation and moves by whole half-millimetres,
# so it keeps the lattice scene's exact ties
_MOTION = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2.0), st.booleans())


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "lattice"]), gate=st.sampled_from([2.0, 5.0]),
       seed=st.integers(0, 2**32 - 1), motions=st.lists(_MOTION, min_size=1, max_size=12))
def test_a_cached_query_returns_the_bytes_of_the_uncached_one(kind, gate, seed, motions):
    rng = np.random.default_rng(seed)
    ref, queries = _cache_case(kind, gate, rng)
    index = cloud.NearestNeighborIndex(ref)
    cache = cloud.QueryCache(len(queries))
    for step, (mm, deg, grid) in enumerate([(0.0, 0.0, True)] + motions):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        if grid:
            motion = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                                    np.round(direction * mm * 2.0) / 2.0)
        else:
            motion = RigidTransform(axis_angle_quat(rng.normal(size=3), np.radians(deg)),
                                    direction * mm)
        queries = motion.apply(queries)
        got = index.query(queries, gate, cache)
        want = index.query(queries, gate)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), step


def test_a_lattice_scene_has_exact_ties_and_cached_points():
    # the property above only exercises what its cases reach: here the
    # lattice gives neighbours at one distance, and a still scene keeps
    # most of its answers without the tree
    rng = np.random.default_rng(4)
    ref, queries = _cache_case("lattice", 2.0, rng)
    index = cloud.NearestNeighborIndex(ref)
    dist, _ = index._tree.query(queries, k=2, distance_upper_bound=2.0)
    assert (dist[:, 0] == dist[:, 1]).sum() > 100
    cache = cloud.QueryCache(len(queries))
    index.query(queries, 2.0, cache)
    sent = []
    tree = index._tree

    class Spy:
        def query(self, x, **kwargs):
            sent.append(len(x))
            return tree.query(x, **kwargs)

    index._tree = Spy()
    moved = queries + 1e-3
    got = index.query(moved, 2.0, cache)
    want = cloud.NearestNeighborIndex(ref).query(moved, 2.0)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert 0 < sum(sent) < 0.5 * len(queries)


def test_a_cache_serves_one_index_one_gate_and_one_scene_size():
    rng = np.random.default_rng(2)
    ref = rng.normal(0.0, 10.0, (100, 3))
    index = cloud.NearestNeighborIndex(ref)
    cache = cloud.QueryCache(50)
    queries = rng.normal(0.0, 10.0, (50, 3))
    index.query(queries, 2.0, cache)
    for other, gate, q in ((cloud.NearestNeighborIndex(ref), 2.0, queries),
                           (index, 5.0, queries), (index, 2.0, queries[:49])):
        with pytest.raises(ValueError):
            other.query(q, gate, cache)
