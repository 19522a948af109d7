import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from drivesql.errors import QuaternionError
from drivesql.geometry import (
    UNIT_NORM_TOLERANCE,
    Quaternion,
    Vec3,
    planar_norm,
    relative_motion,
    rotate,
    rotate_inverse,
)

from _oracles import quat_to_matrix, relative_motion_oracle, rotate_inverse_oracle, rotate_oracle

SQ2 = math.sqrt(2.0) / 2.0


def random_unit_quaternion(rng):
    while True:
        w, x, y, z = (rng.gauss(0, 1) for _ in range(4))
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n > 1e-6:
            return Quaternion(w / n, x / n, y / n, z / n)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_rotate_inverse_identity():
    assert rotate_inverse(Quaternion.identity(), Vec3(1, 2, 0)) == Vec3(1, 2, 0)


def test_rotate_inverse_90_yaw():
    # Expected value from the 3x3 matrix oracle, frozen below.
    q = Quaternion(SQ2, 0.0, 0.0, SQ2)
    expected = rotate_inverse_oracle((q.w, q.x, q.y, q.z), (1.0, 0.0, 0.0))
    assert expected == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)
    got = rotate_inverse(q, Vec3(1, 0, 0))
    assert (got.x, got.y, got.z) == pytest.approx(expected, abs=1e-12)


def test_rotate_inverse_zero_vector():
    rng = random.Random(1)
    for _ in range(20):
        q = random_unit_quaternion(rng)
        assert rotate_inverse(q, Vec3(0, 0, 0)) == Vec3(0, 0, 0)


def test_zero_quaternion_rejected():
    with pytest.raises(QuaternionError):
        rotate_inverse(Quaternion(0, 0, 0, 0), Vec3(1, 0, 0))


def test_norm_drift_tolerated_then_rejected():
    v = Vec3(1, 2, 3)
    slightly_off = Quaternion(1.0005, 0, 0, 0)
    out = rotate_inverse(slightly_off, v)
    assert (out.x, out.y, out.z) == pytest.approx((1, 2, 3), rel=1e-9)
    with pytest.raises(QuaternionError):
        rotate_inverse(Quaternion(1.1, 0, 0, 0), v)


def test_rotation_matches_matrix_oracle():
    rng = random.Random(42)
    for _ in range(300):
        q = random_unit_quaternion(rng)
        v = Vec3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
        want = rotate_oracle((q.w, q.x, q.y, q.z), (v.x, v.y, v.z))
        got = rotate(q, v)
        assert (got.x, got.y, got.z) == pytest.approx(want, abs=1e-9)
        want_inv = rotate_inverse_oracle((q.w, q.x, q.y, q.z), (v.x, v.y, v.z))
        got_inv = rotate_inverse(q, v)
        assert (got_inv.x, got_inv.y, got_inv.z) == pytest.approx(want_inv, abs=1e-9)


def test_norm_preservation_and_composition():
    rng = random.Random(7)
    for _ in range(200):
        q = random_unit_quaternion(rng)
        v = Vec3(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-100, 100))
        out = rotate_inverse(q, v)
        assert out.norm() == pytest.approx(v.norm(), rel=1e-9, abs=1e-12)
        back = rotate(q, out)
        assert (back.x, back.y, back.z) == pytest.approx((v.x, v.y, v.z), abs=1e-9)


def test_planar_norm_345():
    assert planar_norm(Vec3(3, 4, 7)) == pytest.approx(5.0, abs=1e-12)
    assert planar_norm(Vec3(0, 0, 0)) == 0.0


@given(finite, finite, finite)
def test_planar_norm_matches_hypot(x, y, z):
    assert planar_norm(Vec3(x, y, z)) == pytest.approx(math.hypot(x, y), abs=1e-12)


def test_relative_motion_trivial_cases():
    rng = random.Random(3)
    for _ in range(20):
        q = random_unit_quaternion(rng)
        p = Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), 0)
        out = relative_motion(p, q, p)
        assert (out.x, out.y, out.z) == pytest.approx((0, 0, 0), abs=1e-12)
    out = relative_motion(Vec3(2, 2, 0), Quaternion.identity(), Vec3(7, 2, 0))
    assert (out.x, out.y, out.z) == pytest.approx((5, 0, 0), abs=1e-12)


def test_relative_motion_rigid_invariance():
    rng = random.Random(11)
    for _ in range(100):
        p_from = Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-2, 2))
        p_to = Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-2, 2))
        r_from = random_unit_quaternion(rng)
        base = relative_motion(p_from, r_from, p_to)

        g = random_unit_quaternion(rng)
        t = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-3, 3))
        moved_from = rotate(g, p_from) + t
        moved_to = rotate(g, p_to) + t
        moved_rot = g * r_from
        moved = relative_motion(moved_from, moved_rot, moved_to)
        assert (moved.x, moved.y, moved.z) == pytest.approx(
            (base.x, base.y, base.z), abs=1e-9
        )


def test_relative_motion_matches_oracle():
    rng = random.Random(23)
    for _ in range(200):
        p_from = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-5, 5))
        p_to = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-5, 5))
        q = random_unit_quaternion(rng)
        want = relative_motion_oracle(p_from, (q.w, q.x, q.y, q.z), p_to)
        got = relative_motion(Vec3(*p_from), q, Vec3(*p_to))
        assert (got.x, got.y, got.z) == pytest.approx(want, abs=1e-9)


def test_quaternion_from_yaw_matches_matrix():
    for yaw in (0.0, 0.5, -1.2, math.pi / 2, math.pi):
        q = Quaternion.from_yaw(yaw)
        m = quat_to_matrix((q.w, q.x, q.y, q.z))
        assert m[0][0] == pytest.approx(math.cos(yaw), abs=1e-12)
        assert m[1][0] == pytest.approx(math.sin(yaw), abs=1e-12)
        assert m[2][2] == pytest.approx(1.0, abs=1e-12)


# The rotations as they were written on ``Quaternion`` objects: normalize,
# conjugate and two Hamilton products, each a new frozen record. The float
# helper behind ``rotate``, ``rotate_inverse`` and ``relative_motion`` must
# give the very same bits, and refuse a quaternion with the same message.


def _reference_normalized(q):
    n = q.norm()
    if n == 0.0:
        raise QuaternionError("zero quaternion has no rotation")
    if abs(n - 1.0) > UNIT_NORM_TOLERANCE:
        raise QuaternionError(
            f"quaternion norm {n:.6f} drifts more than {UNIT_NORM_TOLERANCE} from 1"
        )
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def _reference_rotate(q, v):
    u = _reference_normalized(q)
    r = u * Quaternion(0.0, v.x, v.y, v.z) * u.conjugate()
    return Vec3(r.x, r.y, r.z)


def _reference_rotate_inverse(q, v):
    return _reference_rotate(_reference_normalized(q).conjugate(), v)


def _reference_relative_motion(p_from, r_from, p_to):
    return _reference_rotate_inverse(r_from, p_to - p_from)


def _bits(v):
    """Each component with its sign, so that 0.0 and -0.0 differ."""
    return tuple((c, math.copysign(1.0, c)) for c in (v.x, v.y, v.z))


def _outcome(call, *args):
    try:
        return _bits(call(*args))
    except QuaternionError as err:
        return str(err)


# Zeros of both signs, units, tiny and subnormal values, and a yaw-only
# quaternion's exact zeros all reach the arithmetic.
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -5e-324, 3.0)


def _component(rng):
    return rng.choice(_SPECIAL) if rng.random() < 0.3 else rng.gauss(0.0, 1.0)


def _case(rng):
    q = [_component(rng) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    if n and rng.random() < 0.9:  # mostly unit, sometimes drifting or zero
        q = [c / n for c in q]
    v = [_component(rng) * rng.choice((1.0, 40.0)) for _ in range(6)]
    return Quaternion(*q), Vec3(*v[:3]), Vec3(*v[3:])


def test_float_rotation_matches_the_quaternion_arithmetic_bit_for_bit():
    rng = random.Random(19)
    cases = [_case(rng) for _ in range(3000)]
    # Every sign pattern of zeros and units, where a dropped or reordered
    # zero term shows as the sign of a zero in the result.
    signed = (0.0, -0.0, 1.0, -1.0)
    for q in itertools.product(signed, repeat=4):
        for v in itertools.product(signed, repeat=3):
            cases.append((Quaternion(*q), Vec3(*v), Vec3(*(-c for c in v))))
    refused = 0
    for q, a, b in cases:
        for ours, reference, args in (
            (rotate, _reference_rotate, (q, a)),
            (rotate_inverse, _reference_rotate_inverse, (q, a)),
            (relative_motion, _reference_relative_motion, (a, q, b)),
        ):
            want = _outcome(reference, *args)
            assert _outcome(ours, *args) == want, (ours.__name__, args)
            refused += isinstance(want, str)
    assert refused  # the refusals were compared too


@pytest.mark.parametrize(
    "q, message",
    [
        (Quaternion(0.0, 0.0, 0.0, 0.0), "zero quaternion has no rotation"),
        (Quaternion(-0.0, 0.0, -0.0, 0.0), "zero quaternion has no rotation"),
        (Quaternion(1.1, 0.0, 0.0, 0.0), "quaternion norm 1.100000 drifts more than 0.001 from 1"),
    ],
)
def test_float_rotation_refuses_as_the_quaternion_arithmetic(q, message):
    v = Vec3(1.0, -0.0, 2.0)
    for ours, reference, args in (
        (rotate, _reference_rotate, (q, v)),
        (rotate_inverse, _reference_rotate_inverse, (q, v)),
        (relative_motion, _reference_relative_motion, (v, q, v)),
    ):
        assert _outcome(reference, *args) == message
        assert _outcome(ours, *args) == message
