"""Perception, tracking and motion-prediction scoring.

Matching uses 3D center distance at a fixed radius (no oriented boxes
exist in the pipeline, so distance is the honest criterion).  Tracking
follows the CLEAR conventions: MOTA folds misses, false positives and
identity switches into one number, MOTP is the mean matched distance.
Cardinality-aware set error comes from OSPA.

Motion prediction is scored for all matches of a sample at once:
``prediction_error`` takes the (M, K, 3) predicted waypoints of M
matched tracks, the true positions at their (M, K) times, and returns
per-row ADE and FDE and the mask of rows scored, in a fixed number of
array operations.  Each row gets the bits the per-waypoint computation
gives: an error is ``geometry.norms`` of the difference, which equals
``np.linalg.norm`` of that one vector bit for bit, and the ADE is the
mean over the row's contiguous K axis, which numpy sums in the order
``np.mean`` sums the row's errors as a list.  ``distances`` keeps the
same rule for every pair of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fusion import assign
from .geometry import norms

DEFAULT_MATCH_RADIUS = 2.0  # meters
DEFAULT_OSPA_CUTOFF = 5.0
DEFAULT_OSPA_ORDER = 1.0


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class FrameMatchResult:
    t: float
    matches: list[tuple[int, int, float]]   # (gt id, estimate id, distance m)
    fp: int
    fn: int
    gt_count: int


def match_frame(gt: list[tuple[int, np.ndarray]], est: list[tuple[int, np.ndarray]],
                radius: float = DEFAULT_MATCH_RADIUS,
                prev: dict[int, int] | None = None,
                t: float = 0.0) -> FrameMatchResult:
    """Match ground truth to estimates by center distance within ``radius``.

    Carry-over first: a gt keeps last frame's estimate id when that
    estimate still exists and is still within radius; the remainder is
    solved optimally.  ``prev`` maps gt id to last frame's matched
    estimate id.
    """
    if radius <= 0:
        raise MetricsError("radius must be > 0")
    prev = prev or {}
    est_ids = [e for e, _ in est]
    est_col = {eid: j for j, eid in enumerate(est_ids)}
    if len(est_col) != len(est):
        raise MetricsError("estimate ids must be unique within a frame")
    gt_ids = [g for g, _ in gt]
    if len(set(gt_ids)) != len(gt_ids):
        raise MetricsError("gt ids must be unique within a frame")
    dist = distances([p for _, p in gt], [p for _, p in est])

    matches: list[tuple[int, int, float]] = []
    used_est: set[int] = set()
    carried: set[int] = set()
    for i, gid in enumerate(gt_ids):
        eid = prev.get(gid)
        if eid is None or eid not in est_col or eid in used_est:
            continue
        d = float(dist[i, est_col[eid]])
        if d <= radius:
            matches.append((gid, eid, d))
            used_est.add(eid)
            carried.add(gid)

    rest_gt = [i for i, gid in enumerate(gt_ids) if gid not in carried]
    rest_est = [j for j, eid in enumerate(est_ids) if eid not in used_est]
    rest = dist[np.ix_(rest_gt, rest_est)]
    cost = np.where(rest <= radius, rest, np.inf)
    for i, j in assign(cost):
        matches.append((gt_ids[rest_gt[i]], est_ids[rest_est[j]], float(cost[i, j])))

    matched_gt = {g for g, _, _ in matches}
    matched_est = {e for _, e, _ in matches}
    return FrameMatchResult(
        t=t,
        matches=sorted(matches),
        fp=len(est) - len(matched_est),
        fn=len(gt) - len(matched_gt),
        gt_count=len(gt),
    )


def distances(a, b) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two lists of 3D points."""
    a = np.asarray(a, dtype=float).reshape(-1, 3).T.copy()
    b = np.asarray(b, dtype=float).reshape(-1, 3).T.copy()
    # numpy subtracts axis-major (3, n) copies about 4x faster than (n, 3)
    # rows broadcast over a 3-long inner axis
    diff = (a[:, :, None] - b[:, None, :]).transpose(1, 2, 0)
    # matmul sums the squares in the order np.linalg.norm's dot does, so each
    # entry equals norm(a[i] - b[j]) bit for bit
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


def clear_mot(frames: list[FrameMatchResult]) -> tuple[float | None, float | None, int]:
    """(MOTA, MOTP, identity switches) over a frame sequence.

    MOTA = 1 - (FN + FP + IDSW) / GT, None when no ground truth exists;
    MOTP is the mean matched distance, None when nothing ever matched.
    A switch is counted when a gt id's matched estimate id differs from
    its previous matched frame.
    """
    total_gt = sum(f.gt_count for f in frames)
    total_fp = sum(f.fp for f in frames)
    total_fn = sum(f.fn for f in frames)
    idsw = 0
    last_est: dict[int, int] = {}
    dists: list[float] = []
    for f in frames:
        for gid, eid, d in f.matches:
            if gid in last_est and last_est[gid] != eid:
                idsw += 1
            last_est[gid] = eid
            dists.append(d)
    mota = None if total_gt == 0 else 1.0 - (total_fn + total_fp + idsw) / total_gt
    motp = None if not dists else float(np.mean(dists))
    return mota, motp, idsw


def ospa(a: list[np.ndarray], b: list[np.ndarray],
         c: float = DEFAULT_OSPA_CUTOFF, p: float = DEFAULT_OSPA_ORDER) -> float:
    """Optimal subpattern assignment distance between two point sets.

    Localization errors are truncated at the cutoff ``c`` and cardinality
    mismatch is charged ``c`` per unmatched point; the result never
    exceeds ``c``.  The assignment is solved over the cells below the
    cutoff, each point of the smaller set free to stay unmatched at the
    cutoff cost, which has the optimum of the dense truncated problem.
    """
    if c <= 0 or p < 1:
        raise MetricsError("need cutoff c > 0 and order p >= 1")
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    if m == 0:
        return c
    d = np.minimum(c, distances(a, b)) ** p
    # the value of every cut-off cell, from numpy's array ** as d's cells
    # are (Python's c ** p can round differently); the solver gets it as a
    # Python float, whose arithmetic is faster than numpy scalars'
    cut = (np.full(1, float(c)) ** p)[0]
    pairs = dict(assign(d, miss=float(cut)))
    loc = sum(d[i, pairs[i]] if i in pairs else cut for i in range(m))
    return float(((loc + c**p * (n - m)) / n) ** (1.0 / p))


def prediction_error(waypoints: np.ndarray, times: np.ndarray, truth: np.ndarray,
                     duration: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADE and FDE of M predicted trajectories, one row each.

    ``waypoints`` and ``truth`` are the (M, K, 3) predicted and true
    positions at the (M, K) waypoint ``times``.  Returns the (M,) ADE, the
    mean error over a row's waypoints, the (M,) FDE, its last waypoint's
    error, and the (M,) mask of rows scored: a row with a waypoint time
    outside [0, duration] is not.
    """
    m, k = times.shape
    if k == 0:
        raise MetricsError("no waypoints to score")
    errors = norms((waypoints - truth).reshape(-1, 3)).reshape(m, k)
    outside = (times > duration + 1e-9) | (times < -1e-9)
    return errors.mean(axis=1), errors[:, -1], ~outside.any(axis=1)


@dataclass
class MetricsAggregator:
    """Accumulates per-frame match results and OSPA samples during a run."""

    radius: float = DEFAULT_MATCH_RADIUS
    ospa_cutoff: float = DEFAULT_OSPA_CUTOFF
    ospa_order: float = DEFAULT_OSPA_ORDER
    frames: list[FrameMatchResult] = field(default_factory=list)
    ospa_series: list[tuple[float, float]] = field(default_factory=list)
    ade_samples: list[float] = field(default_factory=list)
    fde_samples: list[float] = field(default_factory=list)
    _prev: dict[int, int] = field(default_factory=dict)

    def sample(self, t: float, gt: list[tuple[int, np.ndarray]],
               est: list[tuple[int, np.ndarray]]) -> FrameMatchResult:
        frame = match_frame(gt, est, self.radius, self._prev, t=t)
        for gid, eid, _ in frame.matches:
            self._prev[gid] = eid
        self.frames.append(frame)
        self.ospa_series.append(
            (t, ospa([p for _, p in gt], [p for _, p in est],
                     self.ospa_cutoff, self.ospa_order)))
        return frame

    def add_prediction(self, ade: float, fde: float) -> None:
        self.ade_samples.append(ade)
        self.fde_samples.append(fde)

    def report(self) -> dict:
        mota, motp, idsw = clear_mot(self.frames)
        total_gt = sum(f.gt_count for f in self.frames)
        tp = sum(len(f.matches) for f in self.frames)
        fp = sum(f.fp for f in self.frames)
        precision = None if tp + fp == 0 else tp / (tp + fp)
        recall = None if total_gt == 0 else tp / total_gt
        return {
            "precision": precision,
            "recall": recall,
            "mota": mota,
            "motp": motp,
            "id_switches": idsw,
            "ade": None if not self.ade_samples else float(np.mean(self.ade_samples)),
            "fde": None if not self.fde_samples else float(np.mean(self.fde_samples)),
            "ospa_mean": None if not self.ospa_series else
                float(np.mean([v for _, v in self.ospa_series])),
            "frames": len(self.frames),
            "gt_total": total_gt,
            "tp_total": tp,
            "fp_total": fp,
            "fn_total": sum(f.fn for f in self.frames),
        }
