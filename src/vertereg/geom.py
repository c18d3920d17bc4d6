"""Quaternion and rigid-transform algebra.

Conventions used throughout the package:

- Quaternions are scalar-first numpy arrays ``[w, x, y, z]``. ``q`` and
  ``-q`` encode the same rotation; every metric here respects that double
  cover.
- Frames are right-handed, points are column vectors, all lengths are in
  millimetres.
- ``RigidTransform`` acts on a point as ``R @ p + t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateConfigurationError(ValueError):
    """Point sets too thin (collinear / rank-deficient) for a unique fit."""


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of a (not necessarily unit) quaternion."""
    # Python floats round like numpy's float64 scalars and cost a fraction
    w, x, y, z = quat_normalize(q).tolist()
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion of a proper rotation matrix (Shepperd's method)."""
    m = np.asarray(m, dtype=float).tolist()   # as in quat_to_matrix
    tr = m[0][0] + m[1][1] + m[2][2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([
            0.25 * s,
            (m[2][1] - m[1][2]) / s,
            (m[0][2] - m[2][0]) / s,
            (m[1][0] - m[0][1]) / s,
        ])
    elif m[0][0] > m[1][1] and m[0][0] > m[2][2]:
        s = np.sqrt(1.0 + m[0][0] - m[1][1] - m[2][2]) * 2.0
        q = np.array([
            (m[2][1] - m[1][2]) / s,
            0.25 * s,
            (m[0][1] + m[1][0]) / s,
            (m[0][2] + m[2][0]) / s,
        ])
    elif m[1][1] > m[2][2]:
        s = np.sqrt(1.0 + m[1][1] - m[0][0] - m[2][2]) * 2.0
        q = np.array([
            (m[0][2] - m[2][0]) / s,
            (m[0][1] + m[1][0]) / s,
            0.25 * s,
            (m[1][2] + m[2][1]) / s,
        ])
    else:
        s = np.sqrt(1.0 + m[2][2] - m[0][0] - m[1][1]) * 2.0
        q = np.array([
            (m[1][0] - m[0][1]) / s,
            (m[0][2] + m[2][0]) / s,
            (m[1][2] + m[2][1]) / s,
            0.25 * s,
        ])
    return quat_normalize(q)


def axis_angle_quat(axis: np.ndarray, angle: float) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` radians about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    h = angle / 2.0
    return np.concatenate(([np.cos(h)], np.sin(h) * axis))


def hemisphere_align(q_ref: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Flip the sign of ``q`` so that ⟨q_ref, q⟩ >= 0.

    Required before any component-wise interpolation or filtering because
    of the quaternion double cover.
    """
    if float(np.dot(q_ref, q)) < 0.0:
        return -np.asarray(q, dtype=float)
    return np.asarray(q, dtype=float)


def geodesic_angle(q_t: np.ndarray, q_p: np.ndarray) -> float:
    """Rotation distance 2·arccos|⟨q_t, q_p⟩| in radians, in [0, π].

    Both arguments are normalized internally; a zero-norm quaternion is
    rejected.
    """
    q_t = quat_normalize(q_t)
    q_p = quat_normalize(q_p)
    d = abs(float(np.dot(q_t, q_p)))
    return 2.0 * np.arccos(min(d, 1.0))


@dataclass(frozen=True)
class RigidTransform:
    """Rigid pose: unit quaternion rotation + translation in mm.

    ``compose(A, B)`` applies B first: ``compose(A, B).apply(p) ==
    A.apply(B.apply(p))``.
    """

    q: np.ndarray
    t: np.ndarray

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    def normalized(self) -> "RigidTransform":
        return RigidTransform(quat_normalize(self.q), np.asarray(self.t, dtype=float))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        r = quat_to_matrix(self.q)
        return RigidTransform(
            quat_normalize(quat_mul(self.q, other.q)),
            r @ np.asarray(other.t, dtype=float) + np.asarray(self.t, dtype=float),
        )

    def inverse(self) -> "RigidTransform":
        qi = quat_conj(quat_normalize(self.q))
        ri = quat_to_matrix(qi)
        return RigidTransform(qi, -(ri @ np.asarray(self.t, dtype=float)))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points (3,) or (N, 3) through R @ p + t."""
        return transform_points(quat_to_matrix(self.q), self.t, points)


def transform_points(r: np.ndarray, t: np.ndarray, points: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Points (3,) or (N, 3) mapped through r @ p + t, as RigidTransform.apply
    maps them; for a caller that reuses one rotation matrix. An (N, 3)
    result is written into ``out`` when given, with the same bytes."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return r @ pts + t
    # a C-contiguous r.T gives the same bytes as the transposed view in
    # a third of the time, and three column adds the same bytes as the
    # (N, 3) + (3,) broadcast in about two thirds of it
    out = np.matmul(pts, r.T.copy(), out=out)
    out[:, 0] += t[0]
    out[:, 1] += t[1]
    out[:, 2] += t[2]
    return out


def pose_difference(a: RigidTransform, b: RigidTransform) -> tuple[float, float]:
    """(rotation angle rad, translation distance mm) between two poses."""
    angle = geodesic_angle(a.q, b.q)
    dist = float(np.linalg.norm(np.asarray(a.t) - np.asarray(b.t)))
    return angle, dist


def umeyama(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid alignment of corresponded point sets.

    Returns T minimizing Σ‖T·src_i − dst_i‖² (rotation + translation, no
    scale) via SVD of the cross-covariance, with the determinant-sign
    correction so the rotation is proper.

    Raises DegenerateConfigurationError for fewer than 3 points or a
    collinear configuration.
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ValueError(f"point set shapes differ: {src.shape} vs {dst.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfigurationError(f"need at least 3 point pairs, got {n}")

    # einsum sums the rows in the same order as mean(axis=0), so the bits
    # are the same, at a third of the cost
    mu_s = np.einsum("ij->j", src) / n
    mu_d = np.einsum("ij->j", dst) / n
    cov = (dst - mu_d).T @ (src - mu_s) / n
    u, s, vt = np.linalg.svd(cov)
    if s[1] <= max(s[0] * 1e-12, 1e-300):
        raise DegenerateConfigurationError("point configuration is collinear or rank-deficient")
    # u @ diag(1, 1, d) @ vt: scaling u's last column by d = ±1 is exact
    u[:, 2] *= np.sign(np.linalg.det(u) * np.linalg.det(vt))
    r = u @ vt
    t = mu_d - r @ mu_s
    return RigidTransform(matrix_to_quat(r), t)
