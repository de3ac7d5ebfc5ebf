"""Local camera-radar late fusion.

The inputs are one tick's sensing arrays (see ``sensing``): camera rows
``[umin, vmin, umax, vmax, score]`` and radar rows ``[x, y, z,
radial_speed, snr]``; fusion reads only the boxes and the positions.
Radar points are projected into the image through the camera model;
points landing strictly inside a 2D box are candidate matches, scored by
pixel distance from the box center normalized by the box diagonal.  A
one-to-one assignment over candidates then yields fused 3D detections:
the radar position and a polar-shaped measurement covariance.

``assign`` is the one assignment solver of the program (tracker gates,
track-to-track pairing, CLEAR-MOT matching and OSPA use it too).  It is
Crouse's shortest augmenting path (IEEE TAES 52(4), 2016), the algorithm
of scipy's ``linear_sum_assignment``, run on the finite cells only: each
row may also end on a private dummy column at the cost of leaving it
unmatched.  When every row's least cell is a different column, those
cells are the answer and no path is searched.  The pairs equal scipy's
whenever the optimal set of finite pairs is unique; on exact ties the
solver returns an optimal assignment chosen by scipy's tie rule (the
lowest reduced cost wins; among equal costs, a free column wins).

Fused detections travel as one ``Detections`` batch of stacked positions
and covariances, built once per flush and read by the tracker as arrays.
Each step is one stacked computation per flush: association projects
all points and scores all box-point pairs in one cost matrix; synthesis
maps all points and builds all covariances with one
``radar_measurement_cov``, which the edge worker shares; and
``Detections.to_parent`` maps a batch into another frame with one
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

from .geometry import CameraIntrinsics, Pose, norms, symmetrize, transform_point
from .sensing import SensorNoiseConfig

PAIR_COST_GATE = 0.5
RADAR_ONLY_COV_SCALE = 4.0

# Component i of a x b is a[_NEXT[i]] b[_PREV[i]] - a[_PREV[i]] b[_NEXT[i]].
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


@dataclass(frozen=True)
class Detections:
    """A batch of fused 3D detections in one frame (the caller's; the agent
    frame out of ``synthesize``): row i is a detection at ``positions[i]``
    (meters) with position covariance ``covs[i]`` (m^2)."""

    positions: np.ndarray     # (N, 3)
    covs: np.ndarray          # (N, 3, 3)

    def __len__(self) -> int:
        return len(self.positions)

    def to_parent(self, pose: Pose) -> "Detections":
        """The batch mapped from ``pose``'s local frame into its parent
        frame in one stacked transform: positions by the pose, covariances
        by R C R', re-symmetrized."""
        r = pose.rotation
        return Detections(transform_point(pose, self.positions),
                          symmetrize(r @ self.covs @ r.T))


@dataclass(frozen=True)
class Association:
    pairs: list[tuple[int, int]]       # (bbox index, radar index)
    unmatched_radar: list[int]


_INF = float("inf")
# Matrices of fewer cells than this are scanned as Python floats; larger
# ones have their finite cells found by numpy.  On the assignment inputs of
# the benchmark workloads the Python scan is faster below 30 cells in 97% of
# calls and slower from 40 cells up in 84%.
_SCAN_CELLS = 40


def assign(cost: np.ndarray, miss: float | None = None) -> list[tuple[int, int]]:
    """Min-cost one-to-one assignment over the finite cells of ``cost``.

    Infinite and NaN cells are forbidden.  Among assignments using the
    maximum number of finite cells, total cost is minimized (the standard
    Kuhn-Munkres behavior with large-value masking), so no finite-cost
    row/column pair is ever left mutually unassigned.  With ``miss``, a
    line may instead stay unmatched at cost ``miss``: cells at or above
    it are dropped and the sum of (cost - miss) over the pairs is
    minimized, which is the dense problem whose cells are clipped at
    ``miss``.  Pairs come sorted by row.

    The solver follows scipy's ``linear_sum_assignment``: a matrix with
    more rows than columns is transposed, rows are augmented in order by
    Crouse's shortest augmenting path with the reduced cost ``min_val + c
    - u[i] - v[j]``, the lowest reduced cost wins and, among equal costs,
    a free column wins, and a row's first scan runs its columns from the
    last to the first.  Two reductions keep the work on the finite cells:
    each row's scan sees only its finite cells plus a private dummy column
    at cost ``miss`` (for the masked problem, a value above any total of
    finite cells), so a search never leaves its connected component; and
    when the rows' least cells all lie in different columns, they are the
    answer (each row's first scan would end there).  The result is
    scipy's whenever the optimal set of finite pairs is unique; on exact
    ties it is an optimal assignment chosen by the rule above.
    """
    cost = np.asarray(cost, dtype=float)
    tall = cost.shape[0] > cost.shape[1]
    if tall:
        cost = cost.T
    rows, width = cost.shape
    if cost.size < _SCAN_CELLS:
        hi = _INF if miss is None else miss
        cells = [(*divmod(k, width), x) for k, x in enumerate(cost.ravel().tolist())
                 if hi > x > -_INF]
    else:
        keep = np.isfinite(cost)
        if miss is not None:
            keep &= cost < miss
        r, c = np.nonzero(keep)
        cells = list(zip(r.tolist(), c.tolist(), cost[r, c].tolist()))
    least: dict[int, tuple[int, float]] = {}
    for i, j, x in cells:
        if i not in least or x < least[i][1]:
            least[i] = (j, x)
    if len({j for j, _ in least.values()}) == len(least):
        pairs = [(i, j) for i, (j, _) in least.items()]
    else:
        if miss is None:
            miss = max(1.0, max([abs(x) for _, _, x in cells])) * (rows + 1)
        scans: dict[int, list[tuple[int, float]]] = {}
        for i, j, x in reversed(cells):
            scans.setdefault(i, []).append((j, x))
        col4row = _augment(dict(reversed(scans.items())), width, miss)
        pairs = sorted((i, j) for i, j in col4row.items() if j < width)
    return sorted((j, i) for i, j in pairs) if tall else pairs


def _augment(scans: dict[int, list[tuple[int, float]]], width: int,
             miss: float) -> dict[int, int]:
    """Crouse's shortest augmenting paths, row by row in ``scans`` order.

    ``scans[i]`` lists row i's finite cells (column, cost); row i's
    dummy is column ``width + i``, at cost ``miss``.  Returns each row's
    column.  Dual values, reduced costs and the choice of the next column
    are scipy's ``augmenting_path`` and ``solve``, over the columns a
    search has reached instead of all of them.
    """
    v = [0.0] * (width + max(scans) + 1)
    row4col = [-1] * len(v)
    u: dict[int, float] = {}
    col4row: dict[int, int] = {}
    for cur, cells in scans.items():
        min_val = ui = 0.0
        i = cur
        spc = {j: min_val + x - ui - v[j] for j, x in cells}  # reached, not yet final
        path = dict.fromkeys(spc, cur)
        final: dict[int, float] = {}
        visited: list[int] = []
        while True:
            j = width + i
            spc[j] = min_val + miss - ui - v[j]
            path[j] = i
            lowest = _INF
            for c, s in spc.items():
                if s < lowest or (s == lowest and row4col[c] == -1):
                    lowest = s
                    j = c
            min_val = final[j] = spc.pop(j)
            i = row4col[j]
            if i == -1:
                break
            visited.append(i)
            ui = u[i]
            for c, x in scans[i]:
                if c not in final:
                    r = min_val + x - ui - v[c]
                    if r < spc.get(c, _INF):
                        spc[c] = r
                        path[c] = i
        u[cur] = min_val
        for i in visited:
            u[i] += min_val - final[col4row[i]]
        for c, s in final.items():
            v[c] -= min_val - s
        while True:  # augment along the path back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row.get(i)
            if i == cur:
                break
    return col4row


def frustum_associate(boxes: np.ndarray, points: np.ndarray,
                      K: CameraIntrinsics, cam_from_radar: Pose) -> Association:
    """Match radar points to 2D boxes by projected containment.

    ``boxes`` are camera rows and ``points`` radar rows; only
    ``boxes[:, :4]`` and ``points[:, :3]`` are read.  ``cam_from_radar``
    maps radar body coordinates into the camera optical frame.  Candidate
    pairs need the projected pixel strictly inside the box, in front of
    the camera (depth above 1e-6 m); cost is center distance over box
    diagonal, gated at 0.5.  All points are projected in one stacked
    transform and all pairs scored in one cost matrix.
    """
    n, m = len(boxes), len(points)
    cost = np.full((n, m), np.inf)
    if n and m:
        x, y, z = transform_point(cam_from_radar, points[:, :3]).T
        front = z > 1e-6
        z = np.where(front, z, 1.0)  # behind-camera pixels are masked below
        u = K.fx * x / z + K.cx
        v = K.fy * y / z + K.cy
        umin, vmin, umax, vmax = boxes[:, :4].T[:, :, None]
        inside = front & (umin < u) & (u < umax) & (vmin < v) & (v < vmax)
        # square roots of sums of squares, whose bits IEEE arithmetic fixes
        # on every CPU, as those of np.hypot's SIMD kernels are not
        du, dv, wu, wv = u - (umin + umax) / 2.0, v - (vmin + vmax) / 2.0, umax - umin, vmax - vmin
        dist = np.sqrt(du * du + dv * dv) / np.sqrt(wu * wu + wv * wv)
        cost = np.where(inside, dist, np.inf)

    pairs = [(i, j) for i, j in assign(cost) if cost[i, j] <= PAIR_COST_GATE]
    used = {j for _, j in pairs}
    return Association(pairs, [j for j in range(m) if j not in used])


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


def synthesize(assoc: Association, points: np.ndarray, agent_from_radar: Pose,
               cfg: SensorNoiseConfig) -> Detections:
    """Fused 3D detections in the agent frame, as one batch.

    ``points`` are the radar rows ``assoc`` indexes; only their positions
    (``points[rows, :3]``) are read.  Rows are the matched radar points,
    in pair order, then the unmatched ones, which become radar-only
    detections with 4x the measurement covariance.  Unmatched boxes yield
    nothing (no depth available).  ``cfg`` is the radar's noise config,
    which shapes the covariance.  The batch is built in the radar frame
    and mapped into the agent frame by ``Detections.to_parent``.
    """
    rows = [j for _, j in assoc.pairs] + assoc.unmatched_radar
    radar = points[rows, :3]
    scale = np.array([1.0] * len(assoc.pairs)
                     + [RADAR_ONLY_COV_SCALE] * len(assoc.unmatched_radar))[:, None, None]
    return Detections(radar, scale * radar_measurement_cov(radar, cfg)).to_parent(agent_from_radar)
