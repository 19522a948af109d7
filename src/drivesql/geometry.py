"""Quaternion and vector helpers for pose math.

Conventions used throughout the package: quaternions are stored as
``(w, x, y, z)``, the frame is right handed, and ``rotate`` applies the
active rotation ``q v q*``. Local frames put x forward, y left, z up.

``Vec3`` and ``Quaternion`` are named tuples: the database loader builds
hundreds of thousands of them straight from checked lists. Reading a
named-tuple field by name costs more than unpacking the tuple, so the
per-call helpers below unpack.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import QuaternionError

UNIT_NORM_TOLERANCE = 1e-3


class Vec3(NamedTuple):
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
        x, y, z = self
        return [x, y, z]  # sized exactly, where ``list(self)`` leaves room to grow


class Quaternion(NamedTuple):
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
        w1, x1, y1, z1 = self
        w2, x2, y2, z2 = other
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def as_list(self) -> list[float]:
        w, x, y, z = self
        return [w, x, y, z]

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
    w, x, y, z = q
    w, x, y, z = _unit(w, x, y, z)
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
    x, y, z = v
    return _rotated(q, False, x, y, z)


def rotate_inverse(q: Quaternion, v: Vec3) -> Vec3:
    """Apply the inverse rotation, mapping a world vector into q's frame."""
    x, y, z = v
    return _rotated(q, True, x, y, z)


def planar_norm(v: Vec3) -> float:
    """Length of the xy projection, ignoring z."""
    x, y, _ = v
    return math.hypot(x, y)


def relative_motion(p_from: Vec3, r_from: Quaternion, p_to: Vec3) -> Vec3:
    """Displacement from one pose to a later position, in the pose frame.

    Component 0 is longitudinal (forward positive) and component 1 lateral
    (left positive) with respect to the ``r_from`` orientation.
    """
    fx, fy, fz = p_from
    tx, ty, tz = p_to
    return _rotated(r_from, True, tx - fx, ty - fy, tz - fz)
