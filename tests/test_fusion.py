import itertools
import math

import numpy as np
import pytest

from fusionsim.fusion import (
    Association,
    assign,
    frustum_associate,
    radar_measurement_cov,
    synthesize,
)
from fusionsim.geometry import OPTICAL_FROM_BODY, CameraIntrinsics, Pose
from fusionsim.sensing import SensorNoiseConfig

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0, width=1920, height=1080)
# radar body coords straight into the optical frame (co-located, boresights aligned)
CAM_FROM_RADAR = Pose(OPTICAL_FROM_BODY, np.zeros(3))
RADAR_CFG = SensorNoiseConfig(range_sigma=0.15, azimuth_sigma=0.02)


def bbox(umin, vmin, umax, vmax, score=1.0):
    """A camera row."""
    return (umin, vmin, umax, vmax, score)


def radar_point(x, y, z, speed=0.0):
    """A radar row."""
    return (x, y, z, speed, 20.0)


def rows(*dets):
    """Camera or radar rows as one sensing array."""
    return np.array(dets, dtype=float).reshape(-1, 5)


def oracle_best_assignment(cost: np.ndarray) -> float:
    """Exhaustive maximum-cardinality min-cost assignment total."""
    n, m = cost.shape
    rows, cols = (range(n), range(m))
    best_cost = math.inf
    best_card = -1
    small, large, transposed = (rows, cols, False) if n <= m else (cols, rows, True)
    k = len(list(small))
    for subset in itertools.permutations(large, k):
        total, card = 0.0, 0
        for i, j in zip(small, subset):
            c = cost[i, j] if not transposed else cost[j, i]
            if math.isfinite(c):
                total += c
                card += 1
        if card > best_card or (card == best_card and total < best_cost):
            best_card, best_cost = card, total
    return best_cost if best_card > 0 else 0.0


class TestAssign:
    def test_two_by_two(self):
        pairs = assign(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert sorted(pairs) == [(0, 0), (1, 1)]

    def test_single_cell(self):
        assert assign(np.array([[5.0]])) == [(0, 0)]

    def test_all_infinite(self):
        assert assign(np.full((2, 2), np.inf)) == []

    def test_empty(self):
        assert assign(np.zeros((0, 3))) == []
        assert assign(np.zeros((3, 0))) == []

    def test_matches_permutation_oracle(self):
        # integer-valued costs keep float sums order-independent, so the
        # totals can be compared exactly
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            cost = rng.integers(0, 100, size=(n, m)).astype(float)
            pairs = assign(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == oracle_best_assignment(cost)

    def test_matches_oracle_with_forbidden_cells(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            cost = rng.integers(0, 50, size=(n, m)).astype(float)
            cost[rng.uniform(size=(n, m)) < 0.4] = np.inf
            pairs = assign(cost)
            assert all(math.isfinite(cost[i, j]) for i, j in pairs)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == oracle_best_assignment(cost)

    def test_maximal_no_finite_pair_left(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            cost = rng.uniform(0, 10, size=(n, m))
            cost[rng.uniform(size=(n, m)) < 0.5] = np.inf
            pairs = assign(cost)
            rows = {i for i, _ in pairs}
            cols = {j for _, j in pairs}
            for i in range(n):
                for j in range(m):
                    if i not in rows and j not in cols:
                        assert not math.isfinite(cost[i, j])


class TestFrustumAssociate:
    def test_point_at_box_center(self):
        box = bbox(900, 500, 1020, 580)
        # optical (0, 0, 10) is radar body (10, 0, 0): projects to the principal point
        pt = radar_point(10.0, 0.0, 0.0)
        a = frustum_associate(rows(box), rows(pt), K, CAM_FROM_RADAR)
        assert a.pairs == [(0, 0)]
        assert a.unmatched_radar == []

    def test_point_outside_all_boxes(self):
        box = bbox(100, 100, 200, 200)
        pt = radar_point(10.0, 0.0, 0.0)  # projects to (960, 540)
        a = frustum_associate(rows(box), rows(pt), K, CAM_FROM_RADAR)
        assert a.pairs == []
        assert a.unmatched_radar == [0]

    def test_two_boxes_two_points_containment(self):
        left = bbox(400, 440, 700, 640)
        right = bbox(1200, 440, 1500, 640)
        # radar body (z fwd, x right in optical): y left positive => left of image
        pt_left = radar_point(10.0, 4.0, 0.0)    # u = 960 - 400 = 560
        pt_right = radar_point(10.0, -4.0, 0.0)  # u = 1360
        a = frustum_associate(rows(left, right), rows(pt_right, pt_left), K, CAM_FROM_RADAR)
        assert sorted(a.pairs) == [(0, 1), (1, 0)]

    def test_point_behind_camera_unmatched(self):
        box = bbox(900, 500, 1020, 580)
        pt = radar_point(-10.0, 0.0, 0.0)
        a = frustum_associate(rows(box), rows(pt), K, CAM_FROM_RADAR)
        assert a.pairs == [] and a.unmatched_radar == [0]

    def test_empty_inputs(self):
        a = frustum_associate(rows(), rows(), K, CAM_FROM_RADAR)
        assert a == Association([], [])

    def test_partition_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            boxes = []
            for _ in range(int(rng.integers(0, 5))):
                u, v = rng.uniform(0, 1700), rng.uniform(0, 900)
                boxes.append(bbox(u, v, u + rng.uniform(30, 200), v + rng.uniform(30, 150)))
            points = [radar_point(rng.uniform(5, 60), rng.uniform(-20, 20), rng.uniform(-2, 2))
                      for _ in range(int(rng.integers(0, 5)))]
            a = frustum_associate(rows(*boxes), rows(*points), K, CAM_FROM_RADAR)
            b_idx = [i for i, _ in a.pairs]
            r_idx = [j for _, j in a.pairs] + a.unmatched_radar
            assert len(set(b_idx)) == len(b_idx) and set(b_idx) <= set(range(len(boxes)))
            assert sorted(r_idx) == list(range(len(points)))


class TestSynthesize:
    def test_pair_keeps_radar_position(self):
        pt = radar_point(10.0, 0.0, 0.0, speed=-1.5)
        a = Association([(0, 0)], [])
        dets = synthesize(a, rows(pt), Pose.identity(), RADAR_CFG)
        assert len(dets) == 1
        assert np.allclose(dets.positions[0], [10, 0, 0], atol=1e-12)

    def test_unmatched_radar_becomes_radar_only(self):
        pt = radar_point(10.0, 0.0, 0.0)
        dets = synthesize(Association([], [0]), rows(pt), Pose.identity(), RADAR_CFG)
        assert len(dets) == 1
        assert np.allclose(dets.positions[0], [10, 0, 0], atol=1e-12)

    def test_rows_are_pairs_then_radar_only(self):
        pts = rows(radar_point(10.0, 0.0, 0.0), radar_point(20.0, 0.0, 0.0),
                   radar_point(30.0, 0.0, 0.0))
        dets = synthesize(Association([(0, 2), (1, 0)], [1]), pts, Pose.identity(), RADAR_CFG)
        assert dets.positions[:, 0].tolist() == [30.0, 10.0, 20.0]

    def test_unmatched_bbox_yields_nothing(self):
        dets = synthesize(Association([], []), rows(), Pose.identity(), RADAR_CFG)
        assert len(dets) == 0
        assert dets.positions.shape == (0, 3) and dets.covs.shape == (0, 3, 3)

    def test_radar_only_cov_is_4x(self):
        pt = radar_point(20.0, 5.0, 1.0)
        fused = synthesize(Association([(0, 0)], []), rows(pt), Pose.identity(), RADAR_CFG)
        ronly = synthesize(Association([], [0]), rows(pt), Pose.identity(), RADAR_CFG)
        assert np.allclose(ronly.covs, 4.0 * fused.covs, rtol=1e-12)

    def test_cov_polar_shape(self):
        # point straight down the x axis: radial = x, tangents = y (azimuth), z (elevation)
        pt = radar_point(10.0, 0.0, 0.0)
        cov = radar_measurement_cov(rows(pt)[:, :3], RADAR_CFG)[0]
        assert cov[0, 0] == pytest.approx(RADAR_CFG.range_sigma**2, rel=1e-12)
        assert cov[1, 1] == pytest.approx((10.0 * RADAR_CFG.azimuth_sigma) ** 2, rel=1e-12)
        assert cov[2, 2] == pytest.approx((10.0 * RADAR_CFG.azimuth_sigma) ** 2, rel=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_agent_frame_mapping(self):
        # radar mounted 1 m forward, yawed 90 deg: body x maps to agent y
        mount = Pose.from_rpy_deg([1.0, 0.0, 0.0], yaw=90.0)
        pt = radar_point(10.0, 0.0, 0.0)
        d = synthesize(Association([], [0]), rows(pt), mount, RADAR_CFG)
        assert np.allclose(d.positions[0], [1.0, 10.0, 0.0], atol=1e-9)

    def test_noise_free_single_object_exact(self):
        # end to end: one object, noise-free sensors, fused detection at truth
        from fusionsim.sensing import Truth, camera_observe, radar_observe
        obj = Truth((1,), np.array([[12.0, 1.0, 0.0]]), np.zeros((1, 3)), np.full((1, 3), 2.0))
        rng = np.random.default_rng(0)
        cam_pose = Pose.identity()
        boxes = camera_observe(K, cam_pose, obj, SensorNoiseConfig(), rng)
        points = radar_observe(Pose.identity(), obj, SensorNoiseConfig(), rng)
        cam_from_radar = Pose(OPTICAL_FROM_BODY, np.zeros(3))
        a = frustum_associate(boxes, points, K, cam_from_radar)
        assert len(a.pairs) == 1
        dets = synthesize(a, points, Pose.identity(), SensorNoiseConfig())
        assert len(dets) == 1
        assert np.abs(dets.positions[0] - obj.positions[0]).max() < 1e-9
