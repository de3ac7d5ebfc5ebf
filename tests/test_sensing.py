import math

import numpy as np
import pytest

from fusionsim.bus import canonical_dumps
from fusionsim.geometry import CameraIntrinsics, Pose
from fusionsim.sensing import (
    CLUTTER_SCORE,
    CLUTTER_SNR_DB,
    TRUE_SCORE,
    TRUE_SNR_DB,
    SensorNoiseConfig,
    Truth,
    camera_observe,
    radar_observe,
)

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0, width=1920, height=1080)
NOISE_OFF = SensorNoiseConfig()

# camera body x-forward at origin; world x is the viewing direction
CAM_POSE = Pose.identity()


def cube(obj_id, position, velocity=(0, 0, 0), extent=(2.0, 2.0, 2.0)):
    """One object as (id, position, velocity, extent)."""
    return obj_id, position, velocity, extent


def truth(*objects):
    """The ground-truth batch of ``cube`` objects, in order."""
    ids, *vectors = zip(*objects) if objects else ((),) * 4
    return Truth(ids, *(np.array(v, dtype=float).reshape(-1, 3) for v in vectors))


class TestCameraObserve:
    def test_on_axis_cube_bbox(self):
        # 2x2x2 m cube 10 m ahead on the optical axis: corners at +-1 m
        # project to +-100 px around the principal point
        obj = cube(1, [10.0, 0.0, 0.0])
        dets = camera_observe(K, CAM_POSE, truth(obj), NOISE_OFF, np.random.default_rng(0))
        assert len(dets) == 1
        assert dets[0, :4].tolist() == pytest.approx((860.0, 440.0, 1060.0, 640.0), abs=1e-9)
        assert dets[0, 4] == TRUE_SCORE

    def test_behind_camera_empty(self):
        obj = cube(1, [-10.0, 0.0, 0.0])
        dets = camera_observe(K, CAM_POSE, truth(obj), NOISE_OFF, np.random.default_rng(0))
        assert dets.shape == (0, 5)

    def test_p_detect_zero_empty(self):
        cfg = SensorNoiseConfig(p_detect=0.0)
        objs = truth(*[cube(i, [10.0 + 5 * i, 0, 0]) for i in range(4)])
        assert camera_observe(K, CAM_POSE, objs, cfg, np.random.default_rng(0)).shape == (0, 5)

    def test_rows_are_a_new_float_array_per_call(self):
        # boxes first, in object order, then clutter; an empty tick is a
        # (0, 5) array too, and no two calls share memory
        cfg = SensorNoiseConfig(clutter_rate=3.0)
        objs = truth(cube(1, [10, 0, 0]), cube(2, [15, 5, 0]))
        rng = np.random.default_rng(4)
        dets = camera_observe(K, CAM_POSE, objs, cfg, rng)
        assert dets.dtype == np.float64 and dets.ndim == 2 and dets.shape[1] == 5
        assert dets[:2, 4].tolist() == [TRUE_SCORE] * 2
        assert set(dets[2:, 4].tolist()) <= {CLUTTER_SCORE}
        assert (dets[:, 0] < dets[:, 2]).all() and (dets[:, 1] < dets[:, 3]).all()
        empty = [camera_observe(K, CAM_POSE, truth(), NOISE_OFF, rng) for _ in range(2)]
        assert [e.shape for e in empty] == [(0, 5), (0, 5)]
        assert empty[0] is not empty[1] and empty[0].base is None
        assert not np.shares_memory(dets, camera_observe(K, CAM_POSE, objs, cfg, rng))

    def test_determinism_bit_exact(self):
        cfg = SensorNoiseConfig(pixel_sigma=2.0, p_detect=0.8, clutter_rate=1.0)
        objs = truth(cube(1, [10, 1, 0]), cube(2, [20, -2, 0.5]))
        outs = []
        for _ in range(2):
            dets = camera_observe(K, CAM_POSE, objs, cfg, np.random.default_rng(123))
            outs.append(canonical_dumps(dets.tolist()))
        assert outs[0] == outs[1]

    def test_noise_off_counts_visible(self):
        cfg = NOISE_OFF
        objs = truth(cube(1, [10, 0, 0]), cube(2, [15, 5, 0]), cube(3, [-5, 0, 0]))
        dets = camera_observe(K, CAM_POSE, objs, cfg, np.random.default_rng(0))
        assert len(dets) == 2

    def test_empirical_detection_frequency(self):
        cfg = SensorNoiseConfig(p_detect=0.7)
        obj = truth(cube(1, [10, 0, 0]))
        rng = np.random.default_rng(11)
        hits = sum(len(camera_observe(K, CAM_POSE, obj, cfg, rng)) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.7) <= 0.02

    def test_empirical_clutter_rate(self):
        cfg = SensorNoiseConfig(clutter_rate=1.5)
        rng = np.random.default_rng(12)
        total = sum(len(camera_observe(K, CAM_POSE, truth(), cfg, rng)) for _ in range(10_000))
        assert abs(total / 10_000 - 1.5) <= 0.05 * 1.5

    def test_occlusion_near_hides_far(self):
        # far cube fully inside the near cube's box and deeper: occluded
        near = cube(1, [10.0, 0, 0], extent=(4.0, 4.0, 4.0))
        far = cube(2, [30.0, 0, 0], extent=(2.0, 2.0, 2.0))
        dets = camera_observe(K, CAM_POSE, truth(near, far), NOISE_OFF, np.random.default_rng(0))
        assert len(dets) == 1
        assert dets[0, 0] < 900  # the near, larger box

    def test_side_by_side_not_occluded(self):
        a = cube(1, [10.0, -3.0, 0])
        b = cube(2, [30.0, 3.0, 0])
        dets = camera_observe(K, CAM_POSE, truth(a, b), NOISE_OFF, np.random.default_rng(0))
        assert len(dets) == 2

    def test_radar_stream_unaffected_by_camera_noise(self):
        # independent generator streams: camera noise config cannot matter
        objs = truth(cube(1, [10, 2, 0], velocity=(1, 0, 0)))
        radar_cfg = SensorNoiseConfig(range_sigma=0.15, azimuth_sigma=0.02, speed_sigma=0.1)
        outs = []
        for pixel_sigma in (0.5, 25.0):
            cam_rng = np.random.default_rng(50)
            radar_rng = np.random.default_rng(60)
            camera_observe(K, CAM_POSE, objs,
                           SensorNoiseConfig(pixel_sigma=pixel_sigma), cam_rng)
            pts = radar_observe(CAM_POSE, objs, radar_cfg, radar_rng)
            outs.append(canonical_dumps(pts.tolist()))
        assert outs[0] == outs[1]


class TestRadarObserve:
    def test_three_four_five(self):
        obj = cube(1, [3.0, 4.0, 0.0])
        pts = radar_observe(Pose.identity(), truth(obj), NOISE_OFF, np.random.default_rng(0))
        assert pts.shape == (1, 5)
        assert np.allclose(pts[0, :3], [3, 4, 0], atol=1e-12)
        assert np.linalg.norm(pts[0, :3]) == pytest.approx(5.0, abs=1e-12)
        assert pts[0, 3] == pytest.approx(0.0, abs=1e-12)
        assert pts[0, 4] == TRUE_SNR_DB

    def test_max_range_excludes(self):
        cfg = SensorNoiseConfig(max_range=100.0)
        obj = cube(1, [200.0, 0, 0])
        pts = radar_observe(Pose.identity(), truth(obj), cfg, np.random.default_rng(0))
        assert pts.shape == (0, 5)

    def test_rows_are_a_new_float_array_per_call(self):
        # returns first, in object order, then clutter with zero radial
        # speed; every position is finite with range > 0, and no two calls
        # share memory
        cfg = SensorNoiseConfig(clutter_rate=3.0)
        objs = truth(cube(1, [10, 1, 0], velocity=(-1, 0, 0)), cube(2, [40, -9, 1]))
        rng = np.random.default_rng(8)
        pts = radar_observe(Pose.identity(), objs, cfg, rng)
        assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 5
        assert pts[:2, 4].tolist() == [TRUE_SNR_DB] * 2
        assert len(pts) > 2 and set(pts[2:, 4].tolist()) == {CLUTTER_SNR_DB}
        assert (pts[2:, 3] == 0.0).all()
        assert np.isfinite(pts[:, :3]).all() and (np.linalg.norm(pts[:, :3], axis=1) > 0).all()
        empty = [radar_observe(Pose.identity(), truth(), NOISE_OFF, rng) for _ in range(2)]
        assert [e.shape for e in empty] == [(0, 5), (0, 5)]
        assert empty[0] is not empty[1] and empty[0].base is None
        assert not np.shares_memory(pts, radar_observe(Pose.identity(), objs, cfg, rng))

    def test_head_on_closing_speed(self):
        obj = cube(1, [10.0, 0, 0], velocity=(-2.0, 0, 0))
        pts = radar_observe(Pose.identity(), truth(obj), NOISE_OFF, np.random.default_rng(0))
        assert pts[0, 3] == pytest.approx(-2.0, abs=1e-12)

    def test_sensor_velocity_enters_relative_speed(self):
        obj = cube(1, [10.0, 0, 0], velocity=(0.0, 0, 0))
        pts = radar_observe(Pose.identity(), truth(obj), NOISE_OFF, np.random.default_rng(0),
                            sensor_velocity=(2.0, 0, 0))
        assert pts[0, 3] == pytest.approx(-2.0, abs=1e-12)

    def test_fov_excludes(self):
        cfg = SensorNoiseConfig(fov_azimuth=math.radians(60))
        inside = cube(1, [10.0, 2.0, 0])    # ~11 deg
        outside = cube(2, [10.0, 10.0, 0])  # 45 deg > half-width 30... inside? no: 45 > 30
        pts = radar_observe(Pose.identity(), truth(inside, outside), cfg, np.random.default_rng(0))
        assert len(pts) == 1

    def test_determinism(self):
        cfg = SensorNoiseConfig(range_sigma=0.2, azimuth_sigma=0.02, speed_sigma=0.1,
                                p_detect=0.9, clutter_rate=0.7)
        objs = truth(cube(1, [10, 1, 0], velocity=(1, 2, 0)), cube(2, [40, -9, 1]))
        outs = []
        for _ in range(2):
            pts = radar_observe(Pose.identity(), objs, cfg, np.random.default_rng(5))
            outs.append(canonical_dumps(pts.tolist()))
        assert outs[0] == outs[1]

    def test_noise_reconstruction_consistency(self):
        # with noise the point still sits near truth at the sigma scale
        cfg = SensorNoiseConfig(range_sigma=0.1, azimuth_sigma=0.01)
        position = [20.0, 5.0, 1.0]
        obj = truth(cube(1, position))
        rng = np.random.default_rng(9)
        errs = []
        for _ in range(500):
            pts = radar_observe(Pose.identity(), obj, cfg, rng)
            errs.append(np.linalg.norm(pts[0, :3] - position))
        assert np.mean(errs) < 0.5


class TestPresetsAndValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="pixel_sigma must be >= 0"):
            SensorNoiseConfig(pixel_sigma=-1)
        with pytest.raises(ValueError, match=r"p_detect must be in \[0, 1\]"):
            SensorNoiseConfig(p_detect=1.5)
