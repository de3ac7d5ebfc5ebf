"""Synthetic camera and radar models observing ground-truth boxes.

These stand in for real detectors, datasets and hardware.  Both sensors
draw from an explicitly passed generator, so callers own determinism and
can run per-sensor streams in parallel.

Ground truth at one time is one ``Truth`` batch: ``ids``, a tuple of
unique ints, and three C-contiguous float64 ``(n, 3)`` arrays whose row i
belongs to ``ids[i]``: ``positions`` (world, meters), ``velocities``
(world, m/s) and ``extents`` (full box dims (l, w, h) in meters, each
> 0).  ``scenario.world_at`` builds one per time, as new arrays, from
the ``scenario.World`` a run builds once from its checked objects: every
cv motion evaluated in one ``p0 + v * t``, any other by its own rule.
The replay loader builds one per truth line, checked there; nothing
writes to a batch once it is built.

Each tick's measurements are one new float64 ``(n, 5)`` array, one row
per box or return, in draw order:

* a camera row is ``[umin, vmin, umax, vmax, score]``: a box in pixels
  with ``umin < umax`` and ``vmin < vmax``, and a score in [0, 1];
* a radar row is ``[x, y, z, radial_speed, snr]``: a finite position in
  the radar body frame with range > 0 (meters), the radial speed (m/s,
  negative when approaching) and the SNR (dB).

The sensor models meet these conditions by construction; a replay file
is checked against them when it is loaded.

Camera bounding boxes are the hull of the eight box corners projected at
the center's depth (a billboard at the object center), clipped to the
image.  That keeps the box model cheap, total for any object in front of
the camera, and consistent with its hand-checkable geometry.

Occlusion: an object is dropped for the camera when a nearer object's
(noise-free, clipped) box covers at least 85% of its box; radar sees
through everything.

Each tick handles all objects in a few stacked array operations: the
camera computes every center, box corner and clipped box at once and
occlusion as one (n, n) cover-and-depth mask; the radar computes every
body-frame position, range and radial speed at once.  Only the draws
stay in a loop over the objects that pass, in row order: per object one
``rng.random()`` to detect it, then, if detected, one
``rng.standard_normal(k)``, k its positive noise sigmas, a component
being ``0.0 + sigma * z``.  Clutter follows: one ``rng.poisson`` if
``clutter_rate`` > 0, then one ``rng.random((n, k))``, a value in [a, b)
being ``a + (b - a) * u``.  These equal the older ``uniform()``,
``uniform(a, b)`` and ``normal(0.0, sigma)`` draws bit for bit, as numpy
computes those so and a size-k draw reads the stream as k scalar calls
(``tests/test_draws.py``).

The stacked forms give every row the bits the per-object computation
gives.  A stacked ``R @ p[..., None]`` runs the same matrix-vector
product per row as ``R @ p``, and ``geometry.norms`` the same dot
product per row as ``np.linalg.norm``; ``P @ R.T``, ``einsum`` and
``norm(P, axis=1)`` sum in another order and differ in the last bit on
a tenth to a third of random inputs.  Elementwise arithmetic is exact
in either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    OPTICAL_FROM_BODY,
    CameraIntrinsics,
    Pose,
    inverse,
    norms,
    transform_point,
)

OCCLUSION_COVER = 0.85
CLUTTER_BOX_MIN = 20.0   # px, camera clutter box size range
CLUTTER_BOX_MAX = 120.0

# Fixed scores / SNR; nothing downstream thresholds on them, but they keep
# real and clutter returns distinguishable in dumps.
TRUE_SCORE = 1.0
CLUTTER_SCORE = 0.5
TRUE_SNR_DB = 20.0
CLUTTER_SNR_DB = 5.0


class Truth(NamedTuple):
    """Ground truth at one time: row i of each array belongs to ``ids[i]``."""

    ids: tuple[int, ...]
    positions: np.ndarray    # (n, 3) world, meters
    velocities: np.ndarray   # (n, 3) world, m/s
    extents: np.ndarray      # (n, 3) full box dims (l, w, h), meters, each > 0


@dataclass(frozen=True)
class SensorNoiseConfig:
    pixel_sigma: float = 0.0       # px, camera bbox edge noise
    range_sigma: float = 0.0       # m
    azimuth_sigma: float = 0.0     # rad; also used for elevation
    speed_sigma: float = 0.0       # m/s
    p_detect: float = 1.0
    clutter_rate: float = 0.0      # Poisson mean false alarms per frame
    fov_azimuth: float = math.tau  # rad, full width, radar only
    max_range: float = 200.0       # m, radar only

    def __post_init__(self):
        for name in ("pixel_sigma", "range_sigma", "azimuth_sigma", "speed_sigma", "clutter_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("fov_azimuth", "max_range"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError("p_detect must be in [0, 1]")


# Device-named presets.  Rates and noise figures are plausible defaults for
# this class of hardware, not measured characteristics.
CAMERA_PRESETS: dict[str, dict] = {
    "blackfly-s": {
        "rate": 10.0,
        "noise": SensorNoiseConfig(pixel_sigma=2.0, p_detect=0.95, clutter_rate=0.1),
        "intrinsics": CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0,
                                       width=1920, height=1080),
    },
}

RADAR_PRESETS: dict[str, dict] = {
    "iwr1443": {
        "rate": 20.0,
        "noise": SensorNoiseConfig(range_sigma=0.15, azimuth_sigma=0.02,
                                   speed_sigma=0.1, p_detect=0.95,
                                   clutter_rate=0.2,
                                   fov_azimuth=math.radians(100.0),
                                   max_range=100.0),
    },
}


# Signs of the eight box corners about the box center.
_CORNER_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                         dtype=float)


def camera_candidates(K: CameraIntrinsics, sensor_pose: Pose, truth: Truth
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free clipped boxes: (truth row indices, (n, 4) boxes as rows
    of (umin, vmin, umax, vmax), center depths), in row order.

    Includes every object whose center is in front of the camera and
    projects inside the image and whose clipped box is not empty;
    occlusion is not applied here.
    """
    opt_from_world = (sensor_pose.rotation @ OPTICAL_FROM_BODY.T).T
    cam_origin = sensor_pose.translation
    positions = truth.positions
    centers = (opt_from_world @ (positions - cam_origin)[:, :, None])[:, :, 0]
    idx = np.flatnonzero(centers[:, 2] > 1e-6)
    x, y, z = centers[idx].T
    cu = K.fx * x / z + K.cx
    cv = K.fy * y / z + K.cy
    inside = (0.0 <= cu) & (cu < K.width) & (0.0 <= cv) & (cv < K.height)
    idx, z = idx[inside], z[inside]
    half = truth.extents[idx] / 2.0
    corners = positions[idx, None, :] + _CORNER_SIGNS * half[:, None, :]
    corners_opt = (corners - cam_origin) @ opt_from_world.T
    u = K.fx * corners_opt[:, :, 0] / z[:, None] + K.cx
    v = K.fy * corners_opt[:, :, 1] / z[:, None] + K.cy
    boxes = np.stack([np.maximum(u.min(axis=1), 0.0), np.maximum(v.min(axis=1), 0.0),
                      np.minimum(u.max(axis=1), float(K.width)),
                      np.minimum(v.max(axis=1), float(K.height))], axis=1)
    keep = (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
    return idx[keep], boxes[keep], z[keep]


def _occluded(boxes: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Per box: whether a box at a smaller depth covers at least
    ``OCCLUSION_COVER`` of its area."""
    iu = np.maximum(0.0, np.minimum(boxes[:, None, 2], boxes[None, :, 2])
                    - np.maximum(boxes[:, None, 0], boxes[None, :, 0]))
    iv = np.maximum(0.0, np.minimum(boxes[:, None, 3], boxes[None, :, 3])
                    - np.maximum(boxes[:, None, 1], boxes[None, :, 1]))
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    cover = iu * iv / area[:, None]
    return ((depths[None, :] < depths[:, None]) & (cover >= OCCLUSION_COVER)).any(axis=1)


def visible_object_ids(K: CameraIntrinsics, sensor_pose: Pose, truth: Truth) -> list[int]:
    """Ids of objects the camera could see (in image, not occluded)."""
    idx, boxes, depths = camera_candidates(K, sensor_pose, truth)
    return [truth.ids[i] for i in idx[~_occluded(boxes, depths)].tolist()]


def measurement_rows(rows) -> np.ndarray:
    """One tick's measurement rows as a new float64 array; ``(0, 5)`` when
    there are none."""
    return np.array(rows, dtype=float) if rows else np.empty((0, 5))


def camera_observe(K: CameraIntrinsics, sensor_pose: Pose, truth: Truth,
                   cfg: SensorNoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """Noisy 2D boxes for the objects visible from ``sensor_pose``, as
    camera rows ``[umin, vmin, umax, vmax, score]``.

    ``sensor_pose`` is world-from-body for the camera body frame (x
    forward); the optical-axis remap happens internally.  Draws: per
    visible, unoccluded object, the detect draw, then 4 edge noises if
    ``pixel_sigma`` > 0; per clutter box, width, height, center u and v.
    """
    _, boxes, depths = camera_candidates(K, sensor_pose, truth)
    width, height, sigma = float(K.width), float(K.height), cfg.pixel_sigma

    rows = []
    for bbox, hidden in zip(boxes.tolist(), _occluded(boxes, depths).tolist()):
        if hidden or rng.random() >= cfg.p_detect:
            continue
        if sigma > 0:
            bbox = [b + (0.0 + sigma * z) for b, z in zip(bbox, rng.standard_normal(4).tolist())]
        umin, vmin, umax, vmax = bbox
        umin, umax = min(max(umin, 0.0), width), min(max(umax, 0.0), width)
        vmin, vmax = min(max(vmin, 0.0), height), min(max(vmax, 0.0), height)
        if umin >= umax or vmin >= vmax:
            continue  # noise collapsed the box; counts as a miss
        rows.append((umin, vmin, umax, vmax, TRUE_SCORE))

    n_clutter = int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate > 0 else 0
    span = CLUTTER_BOX_MAX - CLUTTER_BOX_MIN
    for uw, uh, uu, uv in rng.random((n_clutter, 4)).tolist():
        w, h = CLUTTER_BOX_MIN + span * uw, CLUTTER_BOX_MIN + span * uh
        cu, cv = width * uu, height * uv  # a + (b - a) * u for a = 0
        umin, umax = max(cu - w / 2, 0.0), min(cu + w / 2, width)
        vmin, vmax = max(cv - h / 2, 0.0), min(cv + h / 2, height)
        if umin < umax and vmin < vmax:
            rows.append((umin, vmin, umax, vmax, CLUTTER_SCORE))
    return measurement_rows(rows)


def radar_observe(sensor_pose: Pose, truth: Truth, cfg: SensorNoiseConfig,
                  rng: np.random.Generator, sensor_velocity=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Noisy 3D point returns (one per object), as radar rows ``[x, y, z,
    radial_speed, snr]`` in the radar body frame.

    Objects outside the azimuth field of view (full width
    ``cfg.fov_azimuth``) or beyond ``cfg.max_range`` are excluded.  Range
    and azimuth get their own sigmas; elevation reuses the azimuth sigma
    (coarse-elevation radar).  Radial speed is the line-of-sight component
    of object velocity relative to the sensor.  Draws: per object in
    view, the detect draw, then ``noisy_polar``'s noise and the speed
    noise, each if its sigma is positive; per clutter return, range and
    azimuth.
    """
    body_from_world = inverse(sensor_pose)
    sensor_vel = np.asarray(sensor_velocity, dtype=float).reshape(3)
    idx, p_body, ranges = in_range(body_from_world, truth.positions, cfg.max_range)
    v_rel = truth.velocities[idx] - sensor_vel
    v_rel_body = (body_from_world.rotation @ v_rel[:, :, None])[:, :, 0]
    radial_speeds = ((p_body / ranges[:, None])[:, None, :] @ v_rel_body[:, :, None])[:, 0, 0]

    half_fov, speed_sigma = cfg.fov_azimuth / 2.0, cfg.speed_sigma
    k = polar_draws(cfg) + (speed_sigma > 0)
    rows = []
    for p, rng_true, radial in zip(p_body.tolist(), ranges.tolist(), radial_speeds.tolist()):
        az = math.atan2(p[1], p[0])
        if abs(az) > half_fov or rng.random() >= cfg.p_detect:
            continue
        z = iter(rng.standard_normal(k).tolist())
        pos = noisy_polar(p, rng_true, az, z, cfg)
        if speed_sigma > 0:
            radial += 0.0 + speed_sigma * next(z)
        rows.append((*pos, radial, TRUE_SNR_DB))

    n_clutter = int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate > 0 else 0
    for ur, ua in rng.random((n_clutter, 2)).tolist():
        az = -half_fov + (half_fov + half_fov) * ua
        rows.append((*_from_polar(max(cfg.max_range * ur, 1e-3), az, 0.0), 0.0, CLUTTER_SNR_DB))
    return measurement_rows(rows)


def in_range(body_from_world: Pose, positions: np.ndarray,
             max_range: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row indices, body-frame positions, ranges) of the ``(n, 3)`` world
    positions whose range from the sensor is above 1e-9 m and at most
    ``max_range``, in row order, in one stacked transform."""
    p_body = transform_point(body_from_world, positions)
    ranges = norms(p_body)
    idx = np.flatnonzero((ranges > 1e-9) & (ranges <= max_range))
    return idx, p_body[idx], ranges[idx]


def polar_draws(cfg: SensorNoiseConfig) -> int:
    """How many standard normals ``noisy_polar`` takes."""
    return (cfg.range_sigma > 0) + 2 * (cfg.azimuth_sigma > 0)


def noisy_polar(p, r_true: float, az: float, z, cfg: SensorNoiseConfig
                ) -> tuple[float, float, float]:
    """Body-frame point ``p`` (range ``r_true``, azimuth ``az``) with
    polar noise ``0.0 + sigma * next(z)``, ``z`` the object's standard
    normals: range, azimuth, then elevation (on the azimuth sigma), each
    if its sigma is positive.  Noisy ranges are floored at 1 um."""
    el = math.atan2(p[2], math.hypot(p[0], p[1]))
    if cfg.range_sigma > 0:
        r_true += 0.0 + cfg.range_sigma * next(z)
    if cfg.azimuth_sigma > 0:
        az += 0.0 + cfg.azimuth_sigma * next(z)
        el += 0.0 + cfg.azimuth_sigma * next(z)
    return _from_polar(max(r_true, 1e-6), az, el)


def _from_polar(r: float, az: float, el: float) -> tuple[float, float, float]:
    return (r * math.cos(el) * math.cos(az), r * math.cos(el) * math.sin(az),
            r * math.sin(el))

