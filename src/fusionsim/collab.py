"""Collaborative V2V/V2I track fusion.

Remote platforms broadcast their confirmed tracks in their own frame,
stamped with a world-from-sender pose.  On receipt the tracks are
CV-predicted to the local clock, mapped into the receiver's tracking
frame, associated to local tracks by position Mahalanobis distance, and
fused by covariance intersection, which stays consistent when the
cross-platform correlation is unknown.  Fusion builds new tracks and
replaces the tracker's list; it is outside rollback (see ``Tracker``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import payload_array, payload_field
from .geometry import NonPSD, Pose, check_symmetric, symmetrize, transform_gaussian
from .tracker import (
    CONFIRMED,
    TENTATIVE,
    Track,
    Tracker,
    chi2_quantile,
    eig_regular,
    gate_cost,
    kalman_predict,
    position_d2,
    spawn,
)
from .fusion import assign

DEFAULT_STALENESS = 1.0  # seconds
ROOT_STEPS = 100   # safeguarded Newton iterations for the CI weight
ROOT_TOL = 1e-12


class CollabError(Exception):
    pass


class StaleMessage(CollabError):
    pass


class NonInvertible(CollabError):
    pass


@dataclass(frozen=True)
class RemoteTrackMsg:
    sender_id: str
    sender_pose: Pose            # world-from-sender
    timestamp: float
    tracks: list[tuple[int, np.ndarray, np.ndarray]]  # (remote id, mean6, cov6x6)

    def to_payload(self) -> dict:
        return {
            "sender_id": self.sender_id,
            "sender_pose": self.sender_pose.to_payload(),
            "timestamp": self.timestamp,
            "tracks": [
                {
                    "remote_id": rid,
                    "mean": mean.tolist(),
                    "cov": cov.tolist(),
                }
                for rid, mean, cov in self.tracks
            ],
        }

    @staticmethod
    def from_payload(d: dict) -> "RemoteTrackMsg":
        pose = Pose.from_payload(d["sender_pose"])
        tracks = [(payload_field(tr, "remote_id", int), payload_array(tr["mean"], (6,)),
                   payload_array(tr["cov"], (6, 6)))
                  for tr in payload_field(d, "tracks", list)]
        return RemoteTrackMsg(payload_field(d, "sender_id", str), pose,
                              payload_field(d, "timestamp", float), tracks)


@dataclass
class CollabState:
    """Receiver-side counters.

    ``singular`` counts the track pairs a gate found with a singular
    summed position covariance (rcond below 1e-12).  Such a pair is never
    fused or merged, and its remote track is skipped (see
    ``tracker.gate_cost``).  Its key is reported only once it is non-zero,
    so healthy runs report the same keys.
    """

    received: int = 0
    stale: int = 0
    fused: int = 0
    spawned: int = 0
    merged: int = 0
    rejected: int = 0
    singular: int = 0

    def counters(self) -> dict:
        out = {"received": self.received, "stale": self.stale,
               "fused": self.fused, "spawned": self.spawned,
               "merged": self.merged, "rejected": self.rejected}
        if self.singular:
            out["singular"] = self.singular
        return out


def align(msg: RemoteTrackMsg, t_now: float, q: float,
          staleness: float = DEFAULT_STALENESS) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Remote tracks predicted to ``t_now`` and mapped into the world frame
    the receiver tracks in.

    Each track is CV-predicted in the sender frame with the same process
    noise the trackers use, then mapped by the world-from-sender pose.
    Raises StaleMessage when the message is older than ``staleness``,
    NonPSD for an asymmetric covariance and CollabError for a message from
    the future or a non-finite track.
    """
    age = t_now - msg.timestamp
    if age < -1e-9:
        raise CollabError(f"message from the future: {age:+.3f} s")
    if age > staleness:
        raise StaleMessage(f"message age {age:.3f} s exceeds bound {staleness:.3f} s")
    out = []
    for rid, mean, cov in msg.tracks:
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        # NaN passes the symmetry check and would reach the CI guards
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise CollabError(f"remote track {rid} is not finite")
        check_symmetric(cov)
        mean_p, cov_p = kalman_predict(mean, cov, max(age, 0.0), q)
        out.append((rid, *transform_gaussian(msg.sender_pose, mean_p, cov_p)))
    return out


def t2t_associate(local: list[Track],
                  remote: list[tuple[np.ndarray, np.ndarray]],
                  gate_prob: float = 0.99,
                  state: CollabState | None = None) -> tuple[list[tuple[int, int]], list[int]]:
    """One-to-one local/remote pairing on position-block Mahalanobis distance.

    Cost is d^2 = Δ'(P_loc + P_rem)^-1 Δ over the position blocks, gated at
    the chi-square quantile for 3 dof by ``tracker.gate_cost``.  Returns
    the (local, remote) pairs and the remote tracks skipped for a pair
    with a singular summed covariance, which ``state`` counts.
    """
    cost, skipped, singular = gate_cost(
        [tr.mean for tr in local], [tr.cov for tr in local],
        [mean for mean, _ in remote], [cov for _, cov in remote], chi2_quantile(gate_prob, 3))
    if state is not None:
        state.singular += singular
    return assign(cost), skipped


def _check_invertible(p: np.ndarray, label: str) -> None:
    if not eig_regular(p):
        raise NonInvertible(f"{label} has rcond below 1e-12")


def _slope_root(c: list[float], d: list[float]) -> float:
    """Root in (0, 1) of the fused-trace slope s(w) = -sum c d / (1 + w d)^2.

    s rises from s(0) < 0 to s(1) > 0, so Newton steps that leave the
    bracket of the sign change fall back to bisection.  Plain floats: the
    dimension is at most 6 and array calls would cost more than the sums.
    """
    lo, hi, w = 0.0, 1.0, 0.5
    for _ in range(ROOT_STEPS):
        s = ds = 0.0
        for ci, di in zip(c, d):
            u = 1.0 / (1.0 + w * di)
            t = ci * di * u * u
            s -= t
            ds += 2.0 * t * di * u
        if s > 0.0:
            hi = w
        elif s < 0.0:
            lo = w
        else:
            return w
        nxt = w - s / ds
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - w) <= ROOT_TOL:
            return nxt
        w = nxt
    return w


def ci_omega(pa: np.ndarray, pb: np.ndarray) -> float:
    """Covariance-intersection weight minimizing the fused trace.

    Closed form of Reinhardt, Noack & Hanebeck, "Closed-form optimization
    of covariance intersection for low-dimensional matrices" (FUSION
    2012).  The generalized eigenvectors of A = Pa^-1 and B = Pb^-1
    (A v = lam B v with V'BV = I) diagonalize every fused information
    matrix w A + (1-w) B at once, so

        tr P(w) = sum_i |v_i|^2 / (1 + w (lam_i - 1)),

    which is convex in w.  The weight is 0 if its slope at 0 is >= 0, 1 if
    its slope at 1 is <= 0, and otherwise the slope's root.  The
    candidates 0.5, 0, 1 and that weight are then compared by the traces
    of their re-inverted information matrices and the first minimum wins,
    so identical inputs give exactly 0.5 and a strictly dominating input
    exactly 0 or 1.  Raises NonInvertible when either input is
    ill-conditioned or the pair is not positive definite.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    _check_invertible(pa, "Pa")
    _check_invertible(pb, "Pb")
    pa_inv = np.linalg.inv(pa)
    pb_inv = np.linalg.inv(pb)
    # B = LL' with L = M^-T for the Cholesky factor Pb = MM', so the
    # symmetric problem L^-1 A L^-T = M'AM needs no further inverse and
    # V = L^-T W = MW
    try:
        m = np.linalg.cholesky(pb)
    except np.linalg.LinAlgError:
        raise NonInvertible("Pb is not positive definite")
    lam, w = np.linalg.eigh(m.T @ pa_inv @ m)
    if lam[0] <= 0.0:
        raise NonInvertible("Pa is not positive definite")
    v = m @ w
    c = (v * v).sum(axis=0).tolist()
    d = (lam - 1.0).tolist()
    if sum(ci * di for ci, di in zip(c, d)) <= 0.0:
        best = 0.0
    elif sum(ci * di / (1.0 + di) ** 2 for ci, di in zip(c, d)) >= 0.0:
        best = 1.0
    else:
        best = _slope_root(c, d)

    candidates = np.array([0.5, 0.0, 1.0, best])
    info = candidates[:, None, None] * pa_inv + (1.0 - candidates)[:, None, None] * pb_inv
    traces = np.trace(np.linalg.inv(info), axis1=1, axis2=2)
    return float(candidates[int(np.argmin(traces))])


def ci_fuse(xa: np.ndarray, pa: np.ndarray, xb: np.ndarray, pb: np.ndarray,
            omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Covariance intersection of two estimates at a given weight.

    P = (w Pa^-1 + (1-w) Pb^-1)^-1 and the matching information-weighted
    mean.  The boundaries return the corresponding input exactly.
    """
    if not 0.0 <= omega <= 1.0:
        raise CollabError(f"omega {omega} outside [0, 1]")
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    if omega == 1.0:
        return xa.copy(), pa.copy()
    if omega == 0.0:
        return xb.copy(), pb.copy()
    _check_invertible(pa, "Pa")
    _check_invertible(pb, "Pb")
    pa_inv = np.linalg.inv(pa)
    pb_inv = np.linalg.inv(pb)
    info = omega * pa_inv + (1.0 - omega) * pb_inv
    _check_invertible(info, "fused information matrix")
    p = np.linalg.inv(info)
    x = p @ (omega * (pa_inv @ xa) + (1.0 - omega) * (pb_inv @ xb))
    return x, symmetrize(p)


def covi_step(tracker: Tracker, msgs: list[RemoteTrackMsg], t_now: float,
              state: CollabState, staleness: float = DEFAULT_STALENESS) -> None:
    """Fold a batch of remote track messages into the local tracker.

    Aligned remote tracks that associate with a local track replace it by
    its sighting (``Track.sighted``) at the CI fusion; remote tracks
    gating with no local track spawn tentative local tracks carrying the
    remote covariance.  A remote track that gates with some local track
    but lost the one-to-one assignment is a duplicate view of a known
    object and is dropped, which keeps re-broadcast loops from breeding
    phantom tracks.  Fusion and spawning follow the tracker's own hit and
    spawn rules, so both count as a sighting for M-of-N confirmation.
    Association, the spawn check and the duplicate merge all gate at the
    tracker's ``gate_prob``; prediction uses its ``q``.  A remote track in
    a pair with a singular summed covariance is neither fused nor spawned,
    and the pair is counted (``tracker.gate_cost``).  Per-message
    failures are counted and never abort the step: a message too old to
    use counts as stale, and a malformed one (a non-finite or asymmetric
    track, a timestamp from the future) as rejected.  Each message assigns
    ``tracker.tracks`` and ``next_id`` once.
    """
    cfg = tracker.config
    gamma = chi2_quantile(cfg.gate_prob, 3)
    for msg in msgs:
        state.received += 1
        try:
            aligned = align(msg, t_now, cfg.q, staleness)
        except StaleMessage:
            state.stale += 1
            continue
        except (CollabError, NonPSD):
            state.rejected += 1
            continue
        tracks = list(tracker.tracks)
        pairs, skipped = t2t_associate(tracks, [(m, c) for _, m, c in aligned],
                                       cfg.gate_prob, state)
        done = set(skipped)  # fused, or skipped for a singular pair
        for i, j in pairs:
            tr = tracks[i]
            _, mean_r, cov_r = aligned[j]
            try:
                w = ci_omega(tr.cov, cov_r)
                fused = ci_fuse(tr.mean, tr.cov, mean_r, cov_r, w)
            except NonInvertible:
                continue
            tracks[i] = tr.sighted(*fused).confirm(cfg.confirm_m)
            state.fused += 1
            done.add(j)
        next_id = tracker.next_id
        for j, (_, mean_r, cov_r) in enumerate(aligned):
            if j in done:
                continue
            cost, skip, singular = gate_cost([tr.mean for tr in tracks], [tr.cov for tr in tracks],
                                             [mean_r], [cov_r], gamma)
            state.singular += singular
            if skip or np.isfinite(cost).any():
                continue
            tracks.append(spawn(next_id, mean_r, symmetrize(cov_r), t_now, cfg))
            next_id += 1
            state.spawned += 1
        tracker.tracks, tracker.next_id = tracks, next_id
    _merge_duplicates(tracker, state)


def _merge_duplicates(tracker: Tracker, state: CollabState) -> None:
    """CI-merge local track pairs that mutually gate on position.

    Repeated remote fusion can keep an accidental twin of a well-tracked
    object alive indefinitely (the remote feed alternates between the
    pair); folding such pairs into the elder track keeps one estimate per
    object without touching genuinely distinct neighbors.  A new elder
    takes the old one's list position in the one assignment of the pass.

    All pairs are gated in one call up front, and an elder's row of it
    is read in the elder's turn.  Only elders are replaced, each in its
    own turn, so the elder and every younger live track are then still
    the published tracks that call gated.  After a merge the younger
    live tracks are gated again against the moved elder.  A pair with a
    singular summed covariance is inf, so never merged, and is counted.
    """
    gamma = chi2_quantile(tracker.config.gate_prob, 3)
    tracks = sorted(tracker.tracks, key=lambda tr: tr.id)
    means, covs = [tr.mean for tr in tracks], [tr.cov for tr in tracks]
    d2_all, singular = position_d2(means, covs, means, covs, gamma)
    state.singular += int(np.triu(singular, 1).sum())
    dead: set[int] = set()
    elders: dict[int, Track] = {}
    for i, a in enumerate(tracks):
        if a.id in dead:
            continue
        d2 = d2_all[i]
        for k in range(i + 1, len(tracks)):
            b = tracks[k]
            if b.id in dead or d2[k] > gamma:
                continue
            try:
                w = ci_omega(a.cov, b.cov)
                a = a.with_estimate(*ci_fuse(a.mean, a.cov, b.mean, b.cov, w))
            except NonInvertible:
                continue
            a.misses = min(a.misses, b.misses)
            if b.status == CONFIRMED and a.status == TENTATIVE:
                a.status = CONFIRMED
            elders[a.id] = a
            dead.add(b.id)
            state.merged += 1
            # the elder moved: gate the younger live tracks against its new estimate
            live = [m for m in range(k + 1, len(tracks)) if tracks[m].id not in dead]
            d2_live, singular = position_d2([a.mean], [a.cov], [tracks[m].mean for m in live],
                                            [tracks[m].cov for m in live], gamma)
            state.singular += int(singular.sum())
            d2[live] = d2_live[0]
    if dead:
        tracker.tracks = [elders.get(tr.id, tr) for tr in tracker.tracks
                          if tr.id not in dead]
