"""Local camera-radar late fusion.

Radar points are projected into the image through the camera model;
points landing strictly inside a 2D box are candidate matches, scored by
pixel distance from the box center normalized by the box diagonal.  A
one-to-one assignment over candidates then yields fused 3D detections
carrying the radar position and a polar-shaped measurement covariance.

Each step is one stacked computation per flush: association projects
all points and scores all box-point pairs in one cost matrix; synthesis
maps all points and builds all covariances with one
``radar_measurement_cov``, which the edge worker shares; and
``transform_detections`` maps a batch into another frame with one
``R @ p``, one ``R @ C @ R.T`` and one symmetrize.  Each row keeps the
bits of the per-detection computation: the matrix products are the same
BLAS products per row (see ``sensing``), and variances are squared as
Python floats, because a Python float's ``**`` is libm ``pow``, which
rounds about one square in a thousand differently from numpy's array
``**``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import CameraIntrinsics, Pose, norms, symmetrize, transform_point
from .sensing import Detection2D, RadarPoint, SensorNoiseConfig

PAIR_COST_GATE = 0.5
RADAR_ONLY_SCORE = 0.3
RADAR_ONLY_COV_SCALE = 4.0

SOURCE_FUSED = "camera+radar"
SOURCE_RADAR = "radar-only"

# Component i of a x b is a[_NEXT[i]] b[_PREV[i]] - a[_PREV[i]] b[_NEXT[i]].
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


@dataclass(frozen=True)
class Detection3D:
    position: np.ndarray      # meters; frame is the caller's (agent by default)
    radial_speed: float
    cov: np.ndarray           # 3x3 position covariance, m^2
    source: str
    score: float
    timestamp: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float).reshape(3, 3))

    def to_dict(self) -> dict:
        return {
            "position": self.position.tolist(),
            "radial_speed": self.radial_speed,
            "cov": self.cov.tolist(),
            "source": self.source,
            "score": self.score,
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_dict(d: dict) -> "Detection3D":
        return Detection3D(np.array(d["position"]), d["radial_speed"],
                           np.array(d["cov"]), d["source"], d["score"], d["timestamp"])


@dataclass(frozen=True)
class Association:
    pairs: list[tuple[int, int]]       # (bbox index, radar index)
    unmatched_bboxes: list[int]
    unmatched_radar: list[int]


def assign(cost: np.ndarray) -> list[tuple[int, int]]:
    """Min-cost one-to-one assignment over the finite cells of ``cost``.

    Infinite cells are forbidden.  Among assignments using the maximum
    number of finite cells, total cost is minimized (the standard
    Kuhn-Munkres behavior with large-value masking), so no finite-cost
    row/column pair is ever left mutually unassigned.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    finite = np.isfinite(cost)
    if not finite.any():
        return []
    big = max(1.0, float(np.abs(cost[finite]).max())) * (min(cost.shape) + 1)
    masked = np.where(finite, cost, big)
    rows, cols = linear_sum_assignment(masked)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if finite[r, c]]


def frustum_associate(bboxes: list[Detection2D], points: list[RadarPoint],
                      K: CameraIntrinsics, cam_from_radar: Pose) -> Association:
    """Match radar points to 2D boxes by projected containment.

    ``cam_from_radar`` maps radar body coordinates into the camera optical
    frame.  Candidate pairs need the projected pixel strictly inside the
    box, in front of the camera (depth above 1e-6 m); cost is center
    distance over box diagonal, gated at 0.5.  All points are projected in
    one stacked transform and all pairs scored in one cost matrix.
    """
    n, m = len(bboxes), len(points)
    cost = np.full((n, m), np.inf)
    if n and m:
        x, y, z = transform_point(cam_from_radar,
                                  np.array([point.position for point in points])).T
        front = z > 1e-6
        z = np.where(front, z, 1.0)  # behind-camera pixels are masked below
        u = K.fx * x / z + K.cx
        v = K.fy * y / z + K.cy
        umin, vmin, umax, vmax = np.array([det.bbox for det in bboxes], dtype=float).T[:, :, None]
        inside = front & (umin < u) & (u < umax) & (vmin < v) & (v < vmax)
        diag = np.hypot(umax - umin, vmax - vmin)
        dist = np.hypot(u - (umin + umax) / 2.0, v - (vmin + vmax) / 2.0) / diag
        cost = np.where(inside, dist, np.inf)

    pairs = [(i, j) for i, j in assign(cost) if cost[i, j] <= PAIR_COST_GATE]
    used_b = {i for i, _ in pairs}
    used_r = {j for _, j in pairs}
    return Association(
        pairs=pairs,
        unmatched_bboxes=[i for i in range(n) if i not in used_b],
        unmatched_radar=[j for j in range(m) if j not in used_r],
    )


def radar_measurement_cov(positions: np.ndarray, cfg: SensorNoiseConfig) -> np.ndarray:
    """Polar noise covariances of radar points, in the radar body frame.

    Takes an (N, 3) stack of body-frame positions (each with range > 0)
    and returns the (N, 3, 3) covariances, each diagonal in (radial,
    tangential-azimuth, tangential-elevation) axes: range_sigma^2
    radially and (range * azimuth_sigma)^2 on both tangents.
    """
    r = norms(positions)
    radial = positions / r[:, None]
    # t_az = z x radial, normalized; any horizontal tangent serves when
    # the point is straight up or down
    t_az = np.zeros_like(radial)
    t_az[:, 0] = -radial[:, 1]
    t_az[:, 1] = radial[:, 0]
    t_norm = norms(t_az)
    flat = t_norm < 1e-9
    t_az /= np.where(flat, 1.0, t_norm)[:, None]
    t_az[flat] = (1.0, 0.0, 0.0)
    # columns: radial, t_az, t_el = radial x t_az; every cross-product
    # entry multiplies by t_az's zero z entry as np.cross does, so signed
    # zeros come out as in the per-point form
    basis = np.empty((len(r), 3, 3))
    basis[:, :, 0] = radial
    basis[:, :, 1] = t_az
    basis[:, :, 2] = radial[:, _NEXT] * t_az[:, _PREV] - radial[:, _PREV] * t_az[:, _NEXT]
    var = np.empty_like(radial)
    var[:, 0] = cfg.range_sigma**2
    var[:, 1] = var[:, 2] = [(ri * cfg.azimuth_sigma)**2 for ri in r.tolist()]
    return symmetrize((basis * var[:, None, :]) @ basis.swapaxes(-1, -2))


def synthesize(assoc: Association, bboxes: list[Detection2D],
               points: list[RadarPoint], agent_from_radar: Pose,
               cfg: SensorNoiseConfig) -> list[Detection3D]:
    """Fused 3D detections in the agent frame.

    Matched pairs carry the box score; unmatched radar points become
    radar-only detections with score 0.3 and 4x the measurement
    covariance.  Unmatched boxes yield nothing (no depth available).
    ``cfg`` is the radar's noise config, which shapes the covariance.
    Positions and covariances of all detections are built in one
    stacked transform.
    """
    picks = [(j, bboxes[i].score, SOURCE_FUSED, 1.0, bboxes[i].timestamp)
             for i, j in assoc.pairs]
    picks += [(j, RADAR_ONLY_SCORE, SOURCE_RADAR, RADAR_ONLY_COV_SCALE, points[j].timestamp)
              for j in assoc.unmatched_radar]
    if not picks:
        return []
    radar = np.array([points[j].position for j, *_ in picks])
    positions = transform_point(agent_from_radar, radar)
    r_ar = agent_from_radar.rotation
    scale = np.array([pick[3] for pick in picks])[:, None, None]
    covs = symmetrize(scale * (r_ar @ radar_measurement_cov(radar, cfg) @ r_ar.T))
    return [Detection3D(pos, points[j].radial_speed, cov, source, score, t)
            for (j, score, source, _, t), pos, cov in zip(picks, positions, covs)]


def transform_detections(pose: Pose, detections: list[Detection3D]) -> list[Detection3D]:
    """Detections mapped from ``pose``'s local frame into its parent frame
    in one stacked transform: positions by the pose, covariances by
    R C R', re-symmetrized."""
    if not detections:
        return []
    positions = transform_point(pose, np.array([d.position for d in detections]))
    r = pose.rotation
    covs = symmetrize(r @ np.array([d.cov for d in detections]) @ r.T)
    return [Detection3D(pos, d.radial_speed, cov, d.source, d.score, d.timestamp)
            for d, pos, cov in zip(detections, positions, covs)]
