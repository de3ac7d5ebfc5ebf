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

Each tick handles all objects in a few stacked array operations, its
draws included: the camera computes every center, box corner and clipped
box at once and occlusion as one (n, n) cover-and-depth mask; the radar
computes every body-frame position, range and radial speed at once.
``detected`` makes a tick's draws, for the camera, the radar and the edge
worker alike: the n candidates (visible, unoccluded boxes, or returns in
range and in the field of view, in row order) take one ``rng.random(n)``,
a candidate being detected when its value is below ``p_detect``; the m
detected ones take one ``rng.standard_normal((m, k))``, k their positive
noise sigmas, row by row, a component being ``0.0 + sigma * z``.  Clutter
follows: one ``rng.poisson`` if ``clutter_rate`` > 0, then one
``rng.random((c, k))``, a value in [a, b) being ``a + (b - a) * u``.
These equal per-object ``uniform()``, ``uniform(a, b)`` and ``normal(0.0,
sigma)`` calls bit for bit, as numpy computes those so and a stacked draw
reads the stream as scalar calls in row-major order
(``tests/test_draws.py``).

The stacked forms give every row the bits the per-object computation
gives.  A stacked ``R @ p[..., None]`` runs the same matrix-vector
product per row as ``R @ p``, and ``geometry.norms`` the same dot
product per row as ``np.linalg.norm``; ``P @ R.T``, ``einsum`` and
``norm(P, axis=1)`` sum in another order and differ in the last bit on
a tenth to a third of random inputs.  Elementwise arithmetic is exact
in either form.  Angles stay on libm: each azimuth and elevation is a
``math.atan2`` (over ``math.hypot``) per object, since numpy's SIMD
``arctan2`` and ``hypot`` differ from libm in the last bit on some inputs
of some CPUs; the stacked ``np.sin`` and ``np.cos`` are libm's, which
``tests/test_draws.py`` pins.
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


def camera_observe(K: CameraIntrinsics, sensor_pose: Pose, truth: Truth,
                   cfg: SensorNoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """Noisy 2D boxes for the objects visible from ``sensor_pose``, as
    camera rows ``[umin, vmin, umax, vmax, score]``.

    ``sensor_pose`` is world-from-body for the camera body frame (x
    forward); the optical-axis remap happens internally.  Draws:
    ``detected``'s, the visible, unoccluded boxes being the candidates and
    ``pixel_sigma`` each edge's sigma; per clutter box, width, height,
    center u and v.  A box that noise collapses counts as a miss.
    """
    _, boxes, depths = camera_candidates(K, sensor_pose, truth)
    width, height = float(K.width), float(K.height)
    boxes = detected(boxes[~_occluded(boxes, depths)], cfg.p_detect, (cfg.pixel_sigma,) * 4, rng)
    n_true = len(boxes)

    n_clutter = int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate > 0 else 0
    if n_clutter:
        span = CLUTTER_BOX_MAX - CLUTTER_BOX_MIN
        # per clutter box (w, h, center u, center v), each a + (b - a) * u
        whc = np.array([CLUTTER_BOX_MIN, CLUTTER_BOX_MIN, 0.0, 0.0]) \
            + np.array([span, span, width, height]) * rng.random((n_clutter, 4))
        half, center = whc[:, :2] / 2, whc[:, 2:]
        boxes = np.concatenate([boxes, np.hstack([center - half, center + half])])
    rows = np.empty((len(boxes), 5))
    rows[:, :4] = np.minimum(np.maximum(boxes, 0.0), (width, height, width, height))
    rows[:n_true, 4], rows[n_true:, 4] = TRUE_SCORE, CLUTTER_SCORE
    return rows[(rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3])]


def radar_observe(sensor_pose: Pose, truth: Truth, cfg: SensorNoiseConfig,
                  rng: np.random.Generator, sensor_velocity=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Noisy 3D point returns (one per object), as radar rows ``[x, y, z,
    radial_speed, snr]`` in the radar body frame.

    Objects outside the azimuth field of view (full width
    ``cfg.fov_azimuth``) or beyond ``cfg.max_range`` are excluded.  Range
    and azimuth get their own sigmas; elevation reuses the azimuth sigma
    (coarse-elevation radar).  Radial speed is the line-of-sight component
    of object velocity relative to the sensor.  Draws: ``detected``'s, the
    objects in view being the candidates and each one's range, azimuth,
    elevation and radial speed its noisy values; per clutter return, range
    and azimuth.
    """
    body_from_world = inverse(sensor_pose)
    sensor_vel = np.asarray(sensor_velocity, dtype=float).reshape(3)
    idx, p_body, ranges = in_range(body_from_world, truth.positions, cfg.max_range)
    v_rel = truth.velocities[idx] - sensor_vel
    v_rel_body = (body_from_world.rotation @ v_rel[:, :, None])[:, :, 0]
    radial = ((p_body / ranges[:, None])[:, None, :] @ v_rel_body[:, :, None])[:, 0, 0]
    half_fov = cfg.fov_azimuth / 2.0
    # rows of [range, azimuth, elevation, radial speed, snr]
    polar = np.array([ranges, *polar_angles(p_body), radial, [TRUE_SNR_DB] * len(ranges)]).T
    polar = detected(polar[np.abs(polar[:, 1]) <= half_fov], cfg.p_detect,
                     (*polar_sigmas(cfg), cfg.speed_sigma), rng)

    n_clutter = int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate > 0 else 0
    if n_clutter:
        ur, ua = rng.random((n_clutter, 2)).T
        zeros = [0.0] * n_clutter
        clutter = np.array([np.maximum(cfg.max_range * ur, 1e-3),
                            -half_fov + (half_fov + half_fov) * ua, zeros, zeros,
                            [CLUTTER_SNR_DB] * n_clutter]).T
        polar = np.concatenate([polar, clutter])
    return from_polar(polar)


def in_range(body_from_world: Pose, positions: np.ndarray,
             max_range: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row indices, body-frame positions, ranges) of the ``(n, 3)`` world
    positions whose range from the sensor is above 1e-9 m and at most
    ``max_range``, in row order, in one stacked transform."""
    p_body = transform_point(body_from_world, positions)
    ranges = norms(p_body)
    idx = np.flatnonzero((ranges > 1e-9) & (ranges <= max_range))
    return idx, p_body[idx], ranges[idx]


def detected(candidates: np.ndarray, p_detect: float, sigmas: tuple[float, ...],
             rng: np.random.Generator) -> np.ndarray:
    """The rows of ``candidates`` that are detected, as a new array, with
    noise on each column whose sigma in ``sigmas`` is positive.

    The draws of a tick: one ``rng.random(n)`` for the n candidates, row
    i detected when its value is below ``p_detect``; then one
    ``rng.standard_normal((m, k))`` for the m detected rows and their k
    noisy columns, each value becoming ``value + (0.0 + sigma * z)``.
    When the noisy columns are the leading k, as on every shipped sensor
    and the edge worker, they are added to through a slice, which costs
    less than gathering and scattering them by index.
    """
    rows = candidates[rng.random(len(candidates)) < p_detect]
    noisy = [j for j, sigma in enumerate(sigmas) if sigma > 0]
    z = rng.standard_normal((len(rows), len(noisy)))
    columns = slice(len(noisy)) if noisy == list(range(len(noisy))) else noisy
    rows[:, columns] += 0.0 + [sigmas[j] for j in noisy] * z
    return rows


def polar_sigmas(cfg: SensorNoiseConfig) -> tuple[float, float, float]:
    """The sigmas of range, azimuth and elevation; elevation reuses the
    azimuth sigma (coarse-elevation radar)."""
    return cfg.range_sigma, cfg.azimuth_sigma, cfg.azimuth_sigma


def polar_angles(p: np.ndarray) -> tuple[list[float], list[float]]:
    """Azimuths and elevations of the ``(m, 3)`` body-frame points ``p``,
    from libm per point."""
    x, y, z = p.T.tolist()
    return list(map(math.atan2, y, x)), list(map(math.atan2, z, map(math.hypot, x, y)))


def from_polar(rows: np.ndarray) -> np.ndarray:
    """``rows`` with its first three columns, range (floored at 1 um),
    azimuth and elevation, turned in place into body-frame x, y and z."""
    r = np.maximum(rows[:, 0], 1e-6)
    cos, sin = np.cos(rows[:, 1:3]), np.sin(rows[:, 1:3])
    horizontal = r * cos[:, 1]
    rows[:, 0], rows[:, 1] = horizontal * cos[:, 0], horizontal * sin[:, 0]
    rows[:, 2] = r * sin[:, 1]
    return rows
