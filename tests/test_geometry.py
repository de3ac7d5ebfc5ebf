import numpy as np
import pytest

from fusionsim.geometry import (
    CameraIntrinsics,
    Pose,
    check_symmetric,
    inverse,
    rotation_from_rpy_deg,
    transform_gaussian,
    transform_point,
)


def random_pose(rng):
    return Pose.from_rpy_deg(rng.uniform(-10, 10, size=3),
                             roll=rng.uniform(-180, 180),
                             pitch=rng.uniform(-90, 90),
                             yaw=rng.uniform(-180, 180))


class TestTransformPoint:
    def test_identity(self):
        p = transform_point(Pose.identity(), [1.0, 2.0, 3.0])
        assert np.allclose(p, [1, 2, 3], atol=1e-12)

    def test_quarter_turn_yaw(self):
        pose = Pose.from_rpy_deg([0, 0, 0], yaw=90.0)
        p = transform_point(pose, [1.0, 0.0, 0.0])
        assert np.allclose(p, [0, 1, 0], atol=1e-12)

    def test_pure_translation(self):
        pose = Pose(np.eye(3), [5.0, -2.0, 1.0])
        p = transform_point(pose, [1.0, 1.0, 1.0])
        assert np.allclose(p, [6, -1, 2], atol=1e-12)


class TestInverse:
    def test_identity(self):
        inv = inverse(Pose.identity())
        assert np.allclose(inv.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(inv.translation, 0, atol=1e-12)

    def test_pure_translation(self):
        inv = inverse(Pose(np.eye(3), [5.0, 0.0, 0.0]))
        assert np.allclose(inv.translation, [-5, 0, 0], atol=1e-12)

    def test_round_trip_many_points(self):
        rng = np.random.default_rng(1)
        pose = random_pose(rng)
        inv = inverse(pose)
        for _ in range(100):
            p = rng.uniform(-50, 50, size=3)
            back = transform_point(inv, transform_point(pose, p))
            assert np.abs(back - p).max() < 1e-9

    def test_round_trip_many_poses(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            pose = random_pose(rng)
            p = rng.uniform(-100, 100, size=3)
            back = transform_point(inverse(pose), transform_point(pose, p))
            assert np.abs(back - p).max() < 1e-9


class TestTransformGaussian:
    def test_identity(self):
        mean = np.arange(6.0)
        cov = np.diag([1.0, 4, 1, 1, 1, 1])
        m, c = transform_gaussian(Pose.identity(), mean, cov)
        assert np.allclose(m, mean, atol=1e-12)
        assert np.allclose(c, cov, atol=1e-12)

    def test_quarter_turn_permutes_position_block(self):
        pose = Pose.from_rpy_deg([0, 0, 0], yaw=90.0)
        cov = np.diag([1.0, 4.0, 1.0, 1.0, 1.0, 1.0])
        _, c = transform_gaussian(pose, np.zeros(6), cov)
        # hand congruence: x variance 1 moves to y, y variance 4 moves to x
        assert np.allclose(np.diag(c)[:3], [4.0, 1.0, 1.0], atol=1e-9)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pose = random_pose(rng)
            a = rng.normal(size=(6, 6))
            cov = a @ a.T
            _, c = transform_gaussian(pose, rng.normal(size=6), cov)
            assert np.trace(c) == pytest.approx(np.trace(cov), rel=1e-9)

    def test_psd_in_psd_out(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pose = random_pose(rng)
            a = rng.normal(size=(6, 6))
            cov = a @ a.T
            _, c = transform_gaussian(pose, np.zeros(6), cov)
            assert np.allclose(c, c.T)
            assert np.linalg.eigvalsh(c).min() > -1e-9

    def test_velocity_not_translated(self):
        pose = Pose(np.eye(3), [10.0, 0.0, 0.0])
        mean = np.array([0.0, 0, 0, 1, 2, 3])
        m, _ = transform_gaussian(pose, mean, np.eye(6))
        assert np.allclose(m[:3], [10, 0, 0])
        assert np.allclose(m[3:], [1, 2, 3])


class TestCheckSymmetric:
    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_stack_of_symmetric_matrices_passes(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(k, 6, 6))
        check_symmetric(np.tile(np.eye(6), (k, 1, 1)))
        check_symmetric(a + a.swapaxes(-1, -2))

    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_one_asymmetric_matrix_in_a_stack_is_rejected(self, k):
        for bad in range(k):
            stack = np.tile(np.eye(6), (k, 1, 1))
            stack[bad, 0, 1] = 1e-3
            with pytest.raises(ValueError, match="covariance asymmetry"):
                check_symmetric(stack)


class TestPoseValidation:
    def test_rejects_non_orthonormal(self):
        r = np.eye(3)
        r[0, 0] = 1.001
        with pytest.raises(ValueError, match="rotation not orthonormal"):
            Pose(r, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match=r"rotation must be proper \(det = \+1\)"):
            Pose(r, np.zeros(3))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200, -1.5])
    def test_rejects_an_entry_outside_the_unit_interval(self, entry):
        # refused before R'R is formed: a huge entry raises no overflow warning
        r = np.eye(3)
        r[1, 2] = entry
        with pytest.raises(ValueError, match=r"rotation not orthonormal \(an entry"):
            Pose(r, np.zeros(3))

    def test_the_proper_rotation_verdict_is_det_s(self):
        # the check's triple product (r0 x r1) . r2 refuses exactly what
        # np.linalg.det did, on rotations, reflections and scaled or
        # perturbed ones, each away from the edge of a 1e-9 tolerance
        rng = np.random.default_rng(12)
        seen = set()
        for k in range(3000):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            r = (q if k % 2 else -q) * (1.0 + rng.uniform(-6e-10, 6e-10))
            r += rng.choice([0.0, 1e-12, 1e-10, 1e-6]) * rng.normal(size=(3, 3))
            det = np.linalg.det(r)
            err = np.abs(r.T @ r - np.eye(3)).max()
            if min(abs(abs(det - 1.0) - 1e-9), abs(err - 1e-9)) < 1e-11:
                continue
            expected = ("orthonormal" if np.abs(r).max() > 1.0 + 1e-9 or err > 1e-9
                        else "proper" if abs(det - 1.0) > 1e-9 else None)
            try:
                Pose(r, np.zeros(3))
                verdict = None
            except ValueError as e:
                verdict = "proper" if "proper" in str(e) else "orthonormal"
            assert verdict == expected
            seen.add(verdict)
        assert seen == {None, "proper", "orthonormal"}

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError, match="focal lengths must be positive"):
            CameraIntrinsics(fx=-1, fy=1, cx=10, cy=10, width=100, height=100)
        with pytest.raises(ValueError, match="principal point must lie inside the image"):
            CameraIntrinsics(fx=1, fy=1, cx=200, cy=10, width=100, height=100)


def test_rpy_composition_order():
    # yaw applies last: a point on +x under yaw 90 ends on +y regardless of roll
    r = rotation_from_rpy_deg(45.0, 0.0, 90.0)
    p = r @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(p, [0, 1, 0], atol=1e-12)
