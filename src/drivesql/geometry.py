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

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise QuaternionError("zero quaternion has no rotation")
        if abs(n - 1.0) > UNIT_NORM_TOLERANCE:
            raise QuaternionError(
                f"quaternion norm {n:.6f} drifts more than "
                f"{UNIT_NORM_TOLERANCE} from 1"
            )
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

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


def rotate(q: Quaternion, v: Vec3) -> Vec3:
    """Apply the active rotation ``q v q*``."""
    u = q.normalized()
    p = Quaternion(0.0, v.x, v.y, v.z)
    r = u * p * u.conjugate()
    return Vec3(r.x, r.y, r.z)


def rotate_inverse(q: Quaternion, v: Vec3) -> Vec3:
    """Apply the inverse rotation, mapping a world vector into q's frame."""
    return rotate(q.normalized().conjugate(), v)


def planar_norm(v: Vec3) -> float:
    """Length of the xy projection, ignoring z."""
    return math.hypot(v.x, v.y)


def relative_motion(p_from: Vec3, r_from: Quaternion, p_to: Vec3) -> Vec3:
    """Displacement from one pose to a later position, in the pose frame.

    Component 0 is longitudinal (forward positive) and component 1 lateral
    (left positive) with respect to the ``r_from`` orientation.
    """
    return rotate_inverse(r_from, p_to - p_from)
