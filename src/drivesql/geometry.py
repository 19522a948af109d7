"""Quaternion and vector helpers for pose math.

Conventions used throughout the package: quaternions are stored as
``(w, x, y, z)``, the frame is right handed, and ``rotate`` applies the
active rotation ``q v q*``. Local frames put x forward, y left, z up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import QuaternionError

UNIT_NORM_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Vec3:
    """A point or displacement in 3-space."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z]


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion ``w + xi + yj + zk``.

    Inputs may drift from unit norm by at most ``UNIT_NORM_TOLERANCE``;
    rotation entry points renormalize internally. A zero quaternion or a
    larger drift is a domain error.
    """

    w: float
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        # Hamilton product.
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def as_list(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_yaw(yaw: float) -> "Quaternion":
        """Rotation about +z by ``yaw`` radians."""
        half = 0.5 * yaw
        return Quaternion(math.cos(half), 0.0, 0.0, math.sin(half))


def _unit(w: float, x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """The components of ``w + xi + yj + zk`` divided by its norm."""
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n == 0.0:
        raise QuaternionError("zero quaternion has no rotation")
    if abs(n - 1.0) > UNIT_NORM_TOLERANCE:
        raise QuaternionError(
            f"quaternion norm {n:.6f} drifts more than {UNIT_NORM_TOLERANCE} from 1"
        )
    return w / n, x / n, y / n, z / n


def _rotated(q: Quaternion, inverse: bool, vx: float, vy: float, vz: float) -> Vec3:
    """``u v u*`` for ``u`` the normalized ``q``, or, when ``inverse``, the
    normalized conjugate of the normalized ``q``, on plain floats.

    The terms are the two Hamilton products ``(u * (0, v)) * u*``, in their
    order and with their zero terms, so every bit of the result, the sign of
    a zero included, is the one the ``Quaternion`` operators give.
    """
    w, x, y, z = _unit(q.w, q.x, q.y, q.z)
    if inverse:
        w, x, y, z = _unit(w, -x, -y, -z)
    a = w * 0.0 - x * vx - y * vy - z * vz
    b = w * vx + x * 0.0 + y * vz - z * vy
    c = w * vy - x * vz + y * 0.0 + z * vx
    d = w * vz + x * vy - y * vx + z * 0.0
    return Vec3(
        a * -x + b * w + c * -z - d * -y,
        a * -y - b * -z + c * w + d * -x,
        a * -z + b * -y - c * -x + d * w,
    )


def rotate(q: Quaternion, v: Vec3) -> Vec3:
    """Apply the active rotation ``q v q*``."""
    return _rotated(q, False, v.x, v.y, v.z)


def rotate_inverse(q: Quaternion, v: Vec3) -> Vec3:
    """Apply the inverse rotation, mapping a world vector into q's frame."""
    return _rotated(q, True, v.x, v.y, v.z)


def planar_norm(v: Vec3) -> float:
    """Length of the xy projection, ignoring z."""
    return math.hypot(v.x, v.y)


def relative_motion(p_from: Vec3, r_from: Quaternion, p_to: Vec3) -> Vec3:
    """Displacement from one pose to a later position, in the pose frame.

    Component 0 is longitudinal (forward positive) and component 1 lateral
    (left positive) with respect to the ``r_from`` orientation.
    """
    return _rotated(r_from, True, p_to.x - p_from.x, p_to.y - p_from.y, p_to.z - p_from.z)
