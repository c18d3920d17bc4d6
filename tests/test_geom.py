import math

import numpy as np
import pytest

from conftest import random_unit_quat
from vertereg import geom
from vertereg.geom import RigidTransform


def random_transform(rng):
    return RigidTransform(random_unit_quat(rng), rng.normal(0, 50, 3))


def _quat_to_matrix_reference(q):
    """quat_to_matrix on numpy float64 scalars, as it was first written."""
    w, x, y, z = geom.quat_normalize(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _shepperd_branch(m):
    if m[0, 0] + m[1, 1] + m[2, 2] > 0.0:
        return 0
    if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        return 1
    return 2 if m[1, 1] > m[2, 2] else 3


def _matrix_to_quat_reference(m):
    """matrix_to_quat on numpy float64 scalars, as it was first written."""
    branch = _shepperd_branch(m)
    if branch == 0:
        s_ = np.sqrt(m[0, 0] + m[1, 1] + m[2, 2] + 1.0) * 2.0
        q = [0.25 * s_, (m[2, 1] - m[1, 2]) / s_, (m[0, 2] - m[2, 0]) / s_,
             (m[1, 0] - m[0, 1]) / s_]
    elif branch == 1:
        s_ = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = [(m[2, 1] - m[1, 2]) / s_, 0.25 * s_, (m[0, 1] + m[1, 0]) / s_,
             (m[0, 2] + m[2, 0]) / s_]
    elif branch == 2:
        s_ = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = [(m[0, 2] - m[2, 0]) / s_, (m[0, 1] + m[1, 0]) / s_, 0.25 * s_,
             (m[1, 2] + m[2, 1]) / s_]
    else:
        s_ = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = [(m[1, 0] - m[0, 1]) / s_, (m[0, 2] + m[2, 0]) / s_,
             (m[1, 2] + m[2, 1]) / s_, 0.25 * s_]
    return geom.quat_normalize(np.array(q))


def _umeyama_reference(src, dst):
    """umeyama with mean(axis=0) centroids and the diag(1, 1, d) flip."""
    n = src.shape[0]
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cov = (dst - mu_d).T @ (src - mu_s) / n
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    return r, mu_d - r @ mu_s


class TestGeodesicAngle:
    def test_identity(self):
        q = geom.quat_normalize(np.array([0.3, -0.5, 0.1, 0.8]))
        assert geom.geodesic_angle(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.array([1.0, 0, 0, 0])
        b = np.array([0.0, 1, 0, 0])
        assert geom.geodesic_angle(a, b) == pytest.approx(math.pi, abs=1e-12)

    def test_double_cover(self):
        rng = np.random.default_rng(1)
        q = random_unit_quat(rng)
        assert geom.geodesic_angle(q, -q) == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            geom.geodesic_angle(np.zeros(4), np.array([1.0, 0, 0, 0]))

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_unit_quat(rng), random_unit_quat(rng)
            ab = geom.geodesic_angle(a, b)
            assert ab == pytest.approx(geom.geodesic_angle(b, a), abs=1e-12)
            assert 0.0 <= ab <= math.pi

    def test_z_rotation_distance(self):
        rng = np.random.default_rng(3)
        for alpha in (-3.0, -1.2, 0.0, 0.4, 2.9, math.pi):
            q = random_unit_quat(rng)
            rotated = geom.quat_mul(geom.axis_angle_quat([0, 0, 1], alpha), q)
            assert geom.geodesic_angle(q, rotated) == pytest.approx(abs(alpha), abs=1e-9)


class TestZRotation:
    """``axis_angle_quat`` about the z axis, the simplest rotation it builds."""

    def test_zero(self):
        np.testing.assert_allclose(geom.axis_angle_quat([0, 0, 1], 0.0), [1, 0, 0, 0],
                                   atol=1e-15)

    def test_pi(self):
        np.testing.assert_allclose(geom.axis_angle_quat([0, 0, 1], math.pi),
                                   [0, 0, 0, 1], atol=1e-15)

    def test_composition_adds_angles(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(-1.5, 1.5, size=2)
            lhs = geom.quat_mul(geom.axis_angle_quat([0, 0, 1], a),
                                geom.axis_angle_quat([0, 0, 1], b))
            np.testing.assert_allclose(lhs, geom.axis_angle_quat([0, 0, 1], a + b),
                                       atol=1e-12)


class TestUmeyama:
    def test_identity(self):
        rng = np.random.default_rng(5)
        src = rng.normal(0, 10, (8, 3))
        t = geom.umeyama(src, src)
        angle, dist = geom.pose_difference(t, RigidTransform.identity())
        assert angle < 1e-9 and dist < 1e-9

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t_known = random_transform(rng)
            src = rng.normal(0, 30, (10, 3))
            recovered = geom.umeyama(src, t_known.apply(src))
            angle, dist = geom.pose_difference(t_known, recovered)
            assert angle < 1e-9
            assert dist < 1e-9

    def test_collinear_rejected(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(geom.DegenerateConfigurationError):
            geom.umeyama(pts, pts + 1.0)

    def test_too_few_points(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0]])
        with pytest.raises(geom.DegenerateConfigurationError):
            geom.umeyama(pts, pts)

    def test_reflection_corrected(self):
        # a noisy near-planar set must still give a proper rotation
        rng = np.random.default_rng(7)
        src = rng.normal(0, 10, (20, 3))
        src[:, 2] *= 1e-6
        t_known = random_transform(rng)
        recovered = geom.umeyama(src, t_known.apply(src))
        assert np.linalg.det(geom.quat_to_matrix(recovered.q)) == pytest.approx(1.0, abs=1e-9)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(8)
        src = rng.normal(0, 20, (12, 3))
        dst = random_transform(rng).apply(src) + rng.normal(0, 0.5, src.shape)
        g = random_transform(rng)
        base = geom.umeyama(src, dst)
        conj = geom.umeyama(g.apply(src), g.apply(dst))
        expected = g.compose(base).compose(g.inverse())
        angle, dist = geom.pose_difference(conj, expected)
        assert angle < 1e-9 and dist < 1e-9


    def test_same_bytes_as_the_reference_formulas(self):
        rng = np.random.default_rng(15)
        reflections = 0
        for i in range(60):
            n = int(rng.integers(3, 2000))
            src = rng.normal(rng.normal(0, 50, 3), rng.uniform(0.5, 40), (n, 3))
            dst = random_transform(rng).apply(src) + rng.normal(0, 1.0, (n, 3))
            if i % 3 == 0:
                # a mirrored target needs the reflection fix
                dst[:, 2] *= -1.0
            u, _, vt = np.linalg.svd((dst - dst.mean(axis=0)).T
                                     @ (src - src.mean(axis=0)))
            reflections += np.linalg.det(u) * np.linalg.det(vt) < 0
            r, t = _umeyama_reference(src, dst)
            got = geom.umeyama(src, dst)
            assert got.q.tobytes() == geom.matrix_to_quat(r).tobytes()
            assert got.t.tobytes() == t.tobytes()
        assert reflections >= 10


class TestRigidTransform:
    def test_compose_then_invert_is_identity(self):
        rng = np.random.default_rng(9)
        t = random_transform(rng)
        angle, dist = geom.pose_difference(t.compose(t.inverse()),
                                           RigidTransform.identity())
        assert angle < 1e-9 and dist < 1e-9

    def test_apply_identity(self):
        p = np.array([3.0, -4.0, 5.0])
        np.testing.assert_array_equal(RigidTransform.identity().apply(p), p)

    @pytest.mark.parametrize("n", [0, 1, 2286])
    def test_apply_to_a_cloud_is_the_broadcast_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(13)
        t = random_transform(rng)
        pts = rng.normal(0, 60, (n, 3))
        r = geom.quat_to_matrix(t.q)
        got = t.apply(pts)
        assert got.shape == (n, 3)
        assert got.tobytes() == (pts @ r.T + t.t).tobytes()

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b = random_transform(rng), random_transform(rng)
            p = rng.normal(0, 30, 3)
            np.testing.assert_allclose(a.compose(b).apply(p),
                                       a.apply(b.apply(p)), atol=1e-9)

    def test_inverse_of_composition(self):
        rng = np.random.default_rng(11)
        a, b = random_transform(rng), random_transform(rng)
        lhs = a.compose(b).inverse()
        rhs = b.inverse().compose(a.inverse())
        angle, dist = geom.pose_difference(lhs, rhs)
        assert angle < 1e-9 and dist < 1e-9

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(12)
        t = random_transform(rng)
        pts = rng.normal(0, 40, (30, 3))
        mapped = t.apply(pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        d1 = np.linalg.norm(mapped[:, None] - mapped[None], axis=-1)
        np.testing.assert_allclose(d0, d1, atol=1e-9)

    def test_normalize(self):
        t = RigidTransform(np.array([2.0, 0, 0, 0]), np.zeros(3)).normalized()
        np.testing.assert_allclose(t.q, [1, 0, 0, 0], atol=1e-15)

    def test_apply_same_bytes_as_the_transposed_view(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            t = random_transform(rng)
            r = _quat_to_matrix_reference(t.q)
            pts = rng.normal(0, 80, (int(rng.integers(1, 3000)), 3))
            assert t.apply(pts).tobytes() == (pts @ r.T + t.t).tobytes()
            assert t.apply(pts[0]).tobytes() == (r @ pts[0] + t.t).tobytes()


class TestQuaternionMatrix:
    def test_same_bytes_as_numpy_scalar_arithmetic(self):
        rng = np.random.default_rng(17)
        branches = set()
        for i in range(500):
            q = rng.normal(size=4) * rng.uniform(0.1, 10.0)
            if i % 5 == 0:
                q[i % 4] = 0.0
            r = _quat_to_matrix_reference(q)
            assert geom.quat_to_matrix(q).tobytes() == r.tobytes()
            branches.add(_shepperd_branch(r))
            assert geom.matrix_to_quat(r).tobytes() == _matrix_to_quat_reference(r).tobytes()
        assert branches == {0, 1, 2, 3}


class TestHemisphereAlign:
    def test_flips_negative_dot(self):
        q = np.array([1.0, 0, 0, 0])
        np.testing.assert_array_equal(geom.hemisphere_align(q, -q), q)

    def test_keeps_positive_dot(self):
        rng = np.random.default_rng(14)
        q = random_unit_quat(rng)
        np.testing.assert_array_equal(geom.hemisphere_align(q, q), q)
