"""Local camera-radar late fusion.

Radar points are projected into the image through the camera model;
points landing strictly inside a 2D box are candidate matches, scored by
pixel distance from the box center normalized by the box diagonal.  A
one-to-one assignment over candidates then yields fused 3D detections
carrying the radar position and a polar-shaped measurement covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import BehindCamera, CameraIntrinsics, Pose, project_to_image, symmetrize, transform_point
from .sensing import Detection2D, RadarPoint, SensorNoiseConfig

PAIR_COST_GATE = 0.5
RADAR_ONLY_SCORE = 0.3
RADAR_ONLY_COV_SCALE = 4.0

SOURCE_FUSED = "camera+radar"
SOURCE_RADAR = "radar-only"


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
            "position": [float(x) for x in self.position],
            "radial_speed": self.radial_speed,
            "cov": [[float(v) for v in row] for row in self.cov],
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
    box; cost is center distance over box diagonal, gated at 0.5.
    """
    n, m = len(bboxes), len(points)
    cost = np.full((n, m), np.inf)
    pixels: list[tuple[float, float] | None] = []
    for point in points:
        p_cam = transform_point(cam_from_radar, point.position)
        try:
            pixels.append(project_to_image(K, p_cam))
        except BehindCamera:
            pixels.append(None)
    for i, det in enumerate(bboxes):
        umin, vmin, umax, vmax = det.bbox
        cu, cv = (umin + umax) / 2.0, (vmin + vmax) / 2.0
        diag = float(np.hypot(umax - umin, vmax - vmin))
        for j, pix in enumerate(pixels):
            if pix is None:
                continue
            u, v = pix
            if umin < u < umax and vmin < v < vmax:
                cost[i, j] = np.hypot(u - cu, v - cv) / diag

    pairs = [(i, j) for i, j in assign(cost) if cost[i, j] <= PAIR_COST_GATE]
    used_b = {i for i, _ in pairs}
    used_r = {j for _, j in pairs}
    return Association(
        pairs=pairs,
        unmatched_bboxes=[i for i in range(n) if i not in used_b],
        unmatched_radar=[j for j in range(m) if j not in used_r],
    )


def radar_measurement_cov(point: RadarPoint, cfg: SensorNoiseConfig) -> np.ndarray:
    """Polar noise covariance of a radar point, in the radar body frame.

    Diagonal in (radial, tangential-azimuth, tangential-elevation) axes:
    range_sigma^2 radially and (range * azimuth_sigma)^2 on both tangents.
    """
    r = point.range
    rx, ry, rz = (point.position / r).tolist()
    # t_az = z x radial; the norm stays numpy's, whose sum can differ
    # from a float one in the last bit
    norm = float(np.linalg.norm(np.array([-ry, rx, 0.0])))
    if norm < 1e-9:  # looking straight up/down; any horizontal tangent works
        tx, ty, tz = 1.0, 0.0, 0.0
    else:
        tx, ty, tz = -ry / norm, rx / norm, 0.0
    # t_el = radial x t_az in np.cross's terms, tz kept, so each entry
    # rounds as before; the columns of basis are radial, t_az, t_el
    basis = np.array([[rx, tx, ry * tz - rz * ty],
                      [ry, ty, rz * tx - rx * tz],
                      [rz, tz, rx * ty - ry * tx]])
    sig_t = r * cfg.azimuth_sigma
    var = np.array([cfg.range_sigma**2, sig_t**2, sig_t**2])
    return symmetrize((basis * var) @ basis.T)


def synthesize(assoc: Association, bboxes: list[Detection2D],
               points: list[RadarPoint], agent_from_radar: Pose,
               cfg: SensorNoiseConfig) -> list[Detection3D]:
    """Fused 3D detections in the agent frame.

    Matched pairs carry the box score; unmatched radar points become
    radar-only detections with score 0.3 and 4x the measurement
    covariance.  Unmatched boxes yield nothing (no depth available).
    ``cfg`` is the radar's noise config, which shapes the covariance.
    """
    r_ar = agent_from_radar.rotation
    out: list[Detection3D] = []

    def build(j: int, score: float, source: str, scale: float, t: float) -> Detection3D:
        point = points[j]
        pos = transform_point(agent_from_radar, point.position)
        cov = scale * (r_ar @ radar_measurement_cov(point, cfg) @ r_ar.T)
        return Detection3D(pos, point.radial_speed, symmetrize(cov), source, score, t)

    for i, j in assoc.pairs:
        out.append(build(j, bboxes[i].score, SOURCE_FUSED, 1.0, bboxes[i].timestamp))
    for j in assoc.unmatched_radar:
        out.append(build(j, RADAR_ONLY_SCORE, SOURCE_RADAR, RADAR_ONLY_COV_SCALE,
                         points[j].timestamp))
    return out
