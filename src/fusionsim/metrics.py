"""Perception, tracking and motion-prediction scoring.

Matching uses 3D center distance at a fixed radius (no oriented boxes
exist in the pipeline, so distance is the honest criterion).  Tracking
follows the CLEAR MOT conventions (Bernardin & Stiefelhagen, 2008): MOTA
folds misses, false positives and identity switches into one number,
MOTP is the mean matched distance.  Cardinality-aware set error comes
from OSPA (Schuhmacher, Vo & Vo, 2008) of order 1, its cutoff the one
parameter.

A sample computes one (N, M) ``distances`` matrix from its N true to
its M estimated positions, and both ``match_frame`` and ``ospa`` read
it.  OSPA puts the smaller set on the rows, so with more truths than
estimates it reads the matrix transposed.  That is bit for bit the
matrix of the sets swapped: each entry's difference is exactly negated,
and its squares are the same.

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


def match_frame(gt_ids, est_ids, dist: np.ndarray, radius: float = DEFAULT_MATCH_RADIUS,
                prev: dict[int, int] | None = None) -> list[tuple[int, int, float]]:
    """Match ground truth to estimates by center distance within ``radius``:
    the sorted (gt id, estimate id, distance) triples, one per match, read
    from the (N, M) ``dist`` of ``gt_ids`` to ``est_ids``.

    Carry-over first: a gt keeps last frame's estimate id when that
    estimate still exists and is still within radius; the remainder is
    solved optimally.  ``prev`` maps gt id to last frame's matched
    estimate id.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    prev = prev or {}
    est_col = {eid: j for j, eid in enumerate(est_ids)}
    if len(est_col) != len(est_ids):
        raise ValueError("estimate ids must be unique within a frame")
    if len(set(gt_ids)) != len(gt_ids):
        raise ValueError("gt ids must be unique within a frame")

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
    return sorted(matches)


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


def ospa(dist: np.ndarray, c: float = DEFAULT_OSPA_CUTOFF) -> float:
    """Optimal subpattern assignment distance, of order 1, between two
    point sets, from their (N, M) ``distances``.

    Localization errors are truncated at the cutoff ``c`` and cardinality
    mismatch is charged ``c`` per unmatched point; the result never
    exceeds ``c``.  The smaller set indexes the rows: with more rows than
    columns, ``dist`` is read transposed.  The assignment is solved over
    the cells below the cutoff, each point of the smaller set free to stay
    unmatched at the cutoff cost, which has the optimum of the dense
    truncated problem.
    """
    if c <= 0:
        raise ValueError("need cutoff c > 0")
    if dist.shape[0] > dist.shape[1]:
        dist = dist.T
    m, n = dist.shape
    if n == 0:
        return 0.0
    if m == 0:
        return c
    d = np.minimum(c, dist)
    pairs = dict(assign(d, miss=float(c)))
    loc = sum(d[i, pairs[i]] if i in pairs else c for i in range(m))
    return float((loc + c * (n - m)) / n)


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
        raise ValueError("no waypoints to score")
    errors = norms((waypoints - truth).reshape(-1, 3)).reshape(m, k)
    outside = (times > duration + 1e-9) | (times < -1e-9)
    return errors.mean(axis=1), errors[:, -1], ~outside.any(axis=1)


@dataclass
class MetricsAggregator:
    """Scores a run one sample at a time.  It keeps the CLEAR-MOT counts
    as running totals, with each gt id's last matched estimate id for the
    identity switches, every matched distance in sample order for MOTP,
    the OSPA series and the prediction errors."""

    radius: float = DEFAULT_MATCH_RADIUS
    ospa_cutoff: float = DEFAULT_OSPA_CUTOFF
    gt_total: int = 0
    fp_total: int = 0
    fn_total: int = 0
    id_switches: int = 0
    matched: list[float] = field(default_factory=list)
    ospa_series: list[tuple[float, float]] = field(default_factory=list)
    ade_samples: list[float] = field(default_factory=list)
    fde_samples: list[float] = field(default_factory=list)
    _prev: dict[int, int] = field(default_factory=dict)

    @property
    def frames(self) -> int:
        """The samples scored: each appends one OSPA value."""
        return len(self.ospa_series)

    def sample(self, t: float, truth_ids, truth_positions: np.ndarray,
               est_ids, est_positions: np.ndarray) -> list[tuple[int, int, float]]:
        """Score the estimates at ``t`` against the truth: the ids and their
        (N, 3) and (M, 3) positions.  Returns the frame's matches."""
        dist = distances(truth_positions, est_positions)
        matches = match_frame(truth_ids, est_ids, dist, self.radius, self._prev)
        for gid, eid, d in matches:
            # a switch: the gt id's last match, in any earlier frame, was another estimate
            if self._prev.get(gid, eid) != eid:
                self.id_switches += 1
            self._prev[gid] = eid
            self.matched.append(d)
        self.gt_total += len(truth_ids)
        self.fp_total += len(est_ids) - len(matches)
        self.fn_total += len(truth_ids) - len(matches)
        self.ospa_series.append((t, ospa(dist, self.ospa_cutoff)))
        return matches

    def add_prediction(self, ade: float, fde: float) -> None:
        self.ade_samples.append(ade)
        self.fde_samples.append(fde)

    def report(self) -> dict:
        """Precision and recall; MOTA = 1 - (FN + FP + IDSW) / GT, None
        without ground truth; MOTP, the mean matched distance, None when
        nothing matched; the mean ADE, FDE and OSPA; and the totals."""
        gt, tp, fp, fn = self.gt_total, len(self.matched), self.fp_total, self.fn_total
        return {
            "precision": None if tp + fp == 0 else tp / (tp + fp),
            "recall": None if gt == 0 else tp / gt,
            "mota": None if gt == 0 else 1.0 - (fn + fp + self.id_switches) / gt,
            "motp": None if not self.matched else float(np.mean(self.matched)),
            "id_switches": self.id_switches,
            "ade": None if not self.ade_samples else float(np.mean(self.ade_samples)),
            "fde": None if not self.fde_samples else float(np.mean(self.fde_samples)),
            "ospa_mean": None if not self.ospa_series else
                float(np.mean([v for _, v in self.ospa_series])),
            "frames": self.frames,
            "gt_total": gt,
            "tp_total": tp,
            "fp_total": fp,
            "fn_total": fn,
        }
