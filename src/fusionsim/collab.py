"""Collaborative V2V/V2I track fusion.

Remote platforms broadcast their confirmed tracks in their own frame,
stamped with a world-from-sender pose.  On receipt the tracks are
CV-predicted to the local clock, mapped into the receiver's tracking
frame, associated to local tracks by position Mahalanobis distance, and
fused by covariance intersection (CI), which stays consistent when the
cross-platform correlation is unknown.  Fusion builds a new track batch
(``tracker.Tracks``) and replaces the tracker's; it is outside rollback
(see ``Tracker``).

A message (``RemoteTrackMsg``) holds the sender's tracks as one
``RemoteTracks`` stack, on the bus too (see ``bus``), so a received
message is one stack from end to end: ``align`` reads the stack as it
came off the wire, predicts and maps all its tracks in one call each, and
CI has one path, run once per message over the stack of its matched
pairs.  ``ci_omega`` checks each pair, inverts its inputs, finds its
weight and inverts the candidate information matrices; ``ci_fuse``
reuses that work for the fused estimates.  A pair that fails a check is
left out without touching the rest of the stack, and every other pair
gives bit for bit what it gives in a stack of its own: numpy's linear
algebra and ``@`` work slice by slice, and the weight search runs per
pair on Python floats.  The duplicate merge calls the same two functions
on stacks of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .bus import payload_array, payload_field, payload_ints
from .geometry import NonPSD, Pose, check_symmetric, symmetrize, transform_gaussian
from .tracker import (
    Tracker,
    Tracks,
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


@dataclass(frozen=True)
class RemoteTracks:
    """A sender's tracks as one stack, in the sender's frame: ``ids``
    (k ints), ``means`` (k, 6) and ``covs`` (k, 6, 6); ``len()`` is k."""

    ids: tuple[int, ...]
    means: np.ndarray
    covs: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class RemoteTrackMsg:
    sender_pose: Pose            # world-from-sender
    timestamp: float
    tracks: RemoteTracks

    def to_payload(self) -> dict:
        return {"sender_pose": self.sender_pose.to_payload(), "timestamp": self.timestamp,
                "ids": list(self.tracks.ids), "means": self.tracks.means.tolist(),
                "covs": self.tracks.covs.tolist()}

    @staticmethod
    def from_payload(d: dict) -> "RemoteTrackMsg":
        ids = payload_ints(d, "ids")
        tracks = RemoteTracks(tuple(ids), payload_array(d["means"], (len(ids), 6)),
                              payload_array(d["covs"], (len(ids), 6, 6)))
        return RemoteTrackMsg(Pose.from_payload(d["sender_pose"]),
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
        return {k: v for k, v in asdict(self).items() if v or k != "singular"}


def align(msg: RemoteTrackMsg, t_now: float, q: float,
          staleness: float = DEFAULT_STALENESS) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 6) means and (k, 6, 6) covariances of the message's tracks,
    predicted to ``t_now`` and mapped into the world frame the receiver
    tracks in.

    The tracks are CV-predicted in the sender frame with the same process
    noise the trackers use, in one stacked ``kalman_predict``, then mapped
    by the world-from-sender pose in one stacked ``transform_gaussian``.
    Raises StaleMessage when the message is older than ``staleness``,
    NonPSD for an asymmetric covariance, before or after the prediction,
    and CollabError for a message from the future or a non-finite track.
    """
    age = t_now - msg.timestamp
    if age < -1e-9:
        raise CollabError(f"message from the future: {age:+.3f} s")
    if age > staleness:
        raise StaleMessage(f"message age {age:.3f} s exceeds bound {staleness:.3f} s")
    tracks = msg.tracks
    # NaN passes the symmetry check and would reach the CI checks
    finite = np.isfinite(tracks.means).all(axis=1) & np.isfinite(tracks.covs).all(axis=(1, 2))
    if not finite.all():
        raise CollabError(f"remote track {tracks.ids[int(np.argmin(finite))]} is not finite")
    check_symmetric(tracks.covs)
    means, covs = kalman_predict(tracks.means, tracks.covs, max(age, 0.0), q)
    return transform_gaussian(msg.sender_pose, means, covs)


def t2t_associate(local: Tracks, means: np.ndarray, covs: np.ndarray,
                  gate_prob: float = 0.99,
                  state: CollabState | None = None) -> tuple[list[tuple[int, int]], list[int]]:
    """One-to-one pairing of local tracks with the remote tracks of stacked
    ``means`` and ``covs``, on position-block Mahalanobis distance.

    Cost is d^2 = Δ'(P_loc + P_rem)^-1 Δ over the position blocks, gated at
    the chi-square quantile for 3 dof by ``tracker.gate_cost``.  Returns
    the (local, remote) pairs and the remote tracks skipped for a pair
    with a singular summed covariance, which ``state`` counts.
    """
    cost, skipped, singular = gate_cost(local.means, local.covs, means, covs,
                                        chi2_quantile(gate_prob, 3))
    if state is not None:
        state.singular += singular
    return assign(cost), skipped


def _trace_minimum(c: list[float], d: list[float]) -> float:
    """The weight w in [0, 1] minimizing tr P(w) = sum c / (1 + w d).

    Its slope s(w) = -sum c d / (1 + w d)^2 rises with w.  The weight is 0
    if s(0) >= 0, 1 if s(1) <= 0, and otherwise the root of s, where
    Newton steps that leave the bracket of the sign change fall back to
    bisection.  Plain floats: the dimension is at most 6 and array calls
    would cost more than the sums.
    """
    if sum(ci * di for ci, di in zip(c, d)) <= 0.0:
        return 0.0
    if sum(ci * di / (1.0 + di) ** 2 for ci, di in zip(c, d)) >= 0.0:
        return 1.0
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


def _cholesky(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of matrices, and which matrices
    have one; the identity stands in for the factor of any other.

    ``np.linalg.cholesky`` raises for the whole stack when one matrix is
    not positive definite, so such a stack is factored again one matrix
    at a time, each giving the bits it gives in the stack.
    """
    try:
        return np.linalg.cholesky(p), np.ones(len(p), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    factors = np.empty(p.shape)
    ok = np.ones(len(p), dtype=bool)
    for n, pn in enumerate(p):
        try:
            factors[n] = np.linalg.cholesky(pn)
        except np.linalg.LinAlgError:
            factors[n] = np.eye(p.shape[-1])
            ok[n] = False
    return factors, ok


class CiPairs(NamedTuple):
    """What ``ci_omega`` found for the pairs of a stack that passed every
    check, in stack order, and what ``ci_fuse`` reuses of it.

    ``index`` holds their positions in the stack, ``omega`` their weights
    w, ``pa`` and ``pb`` their inputs and ``pa_inv`` and ``pb_inv`` the
    inverses of those.  ``info`` is the fused information matrix
    w Pa^-1 + (1-w) Pb^-1, the candidate that won the trace comparison,
    and ``cov`` its inverse, the fused covariance.
    """

    index: np.ndarray
    omega: np.ndarray
    pa: np.ndarray
    pb: np.ndarray
    pa_inv: np.ndarray
    pb_inv: np.ndarray
    info: np.ndarray
    cov: np.ndarray


def ci_omega(pa: np.ndarray, pb: np.ndarray) -> CiPairs:
    """Covariance-intersection weights minimizing the fused trace, for a
    stack of k pairs of (d, d) covariances Pa and Pb.

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
    exactly 0 or 1.

    The checks, inverses, factorizations and eigendecompositions run once
    over the stack, and the weight search per pair.  A pair is left out of
    the result when either input has rcond below 1e-12 or the pair is not
    positive definite; the others are unaffected.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    k = len(pa)
    ok = eig_regular(np.concatenate((pa, pb))).reshape(2, k).all(axis=0)
    if not ok.all():
        # the identity stands in for a left-out pair, so no call below fails on it
        eye = np.eye(pa.shape[-1])
        pa = np.where(ok[:, None, None], pa, eye)
        pb = np.where(ok[:, None, None], pb, eye)
    pa_inv, pb_inv = np.linalg.inv(np.stack((pa, pb)))
    # B = LL' with L = M^-T for the Cholesky factor Pb = MM', so the
    # symmetric problem L^-1 A L^-T = M'AM needs no further inverse and
    # V = L^-T W = MW
    m, factored = _cholesky(pb)
    lam, w = np.linalg.eigh(m.swapaxes(-1, -2) @ pa_inv @ m)
    ok &= factored & (lam[:, 0] > 0.0)
    index = np.flatnonzero(ok)
    if len(index) < k:
        pa, pb, pa_inv, pb_inv, m, w, lam = (
            a[index] for a in (pa, pb, pa_inv, pb_inv, m, w, lam))
    v = m @ w
    c = (v * v).sum(axis=-2).tolist()
    d = (lam - 1.0).tolist()
    candidates = np.array([[0.5, 0.0, 1.0, _trace_minimum(cn, dn)]
                           for cn, dn in zip(c, d)]).reshape(-1, 4)
    info = (candidates[..., None, None] * pa_inv[:, None]
            + (1.0 - candidates)[..., None, None] * pb_inv[:, None])
    covs = np.linalg.inv(info)
    rows = np.arange(len(index))
    win = np.argmin(np.trace(covs, axis1=-2, axis2=-1), axis=-1)
    return CiPairs(index, candidates[rows, win], pa, pb, pa_inv, pb_inv,
                   info[rows, win], covs[rows, win])


def ci_fuse(xa: np.ndarray, xb: np.ndarray,
            ci: CiPairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariance intersection of a stack of pairs of means ``xa`` and
    ``xb`` with the covariances and weights ``ci_omega`` found for it.

    Each fused pair gets P = (w Pa^-1 + (1-w) Pb^-1)^-1 and the matching
    information-weighted mean; the boundaries w = 1 and w = 0 return the
    corresponding input exactly.  P and the inverses are those of ``ci``:
    ``ci_omega`` ran the same ``inv`` on the same operands.  A pair inside
    the boundaries whose fused information matrix has rcond below 1e-12
    is not fused.  Returns the stack positions of the fused pairs, in
    order, with their means and covariances.
    """
    w = ci.omega
    xa = np.asarray(xa, dtype=float)[ci.index]
    xb = np.asarray(xb, dtype=float)[ci.index]
    one = w == 1.0
    x = np.where(one[:, None], xa, xb)
    p = np.where(one[:, None, None], ci.pa, ci.pb)
    inside = np.flatnonzero((0.0 < w) & (w < 1.0))
    if not len(inside):
        return ci.index, x, p
    regular = eig_regular(ci.info[inside])
    n = inside[regular]
    wn = w[n, None]
    mix = (wn * (ci.pa_inv[n] @ xa[n, :, None])[..., 0]
           + (1.0 - wn) * (ci.pb_inv[n] @ xb[n, :, None])[..., 0])
    x[n] = (ci.cov[n] @ mix[..., None])[..., 0]
    p[n] = symmetrize(ci.cov[n])
    if regular.all():
        return ci.index, x, p
    fused = np.ones(len(w), dtype=bool)
    fused[inside[~regular]] = False
    return ci.index[fused], x[fused], p[fused]


def covi_step(tracker: Tracker, msgs: list[RemoteTrackMsg], t_now: float,
              state: CollabState, staleness: float = DEFAULT_STALENESS) -> None:
    """Fold a batch of remote track messages into the local tracker.

    Aligned remote tracks that associate with a local track replace it by
    its sighting (``Tracks.sighted``) at the CI fusion; remote tracks
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
    track, a timestamp from the future) as rejected.  A matched pair that
    CI cannot fuse is neither fused nor spawned.

    Each message is one stack: it is aligned in one call, its matched
    pairs go through one ``ci_omega`` and one ``ci_fuse``, each pair
    reading its local track as it was before the message, and its
    unmatched remote tracks are gated in one call against the tracks as
    they were before any spawn, then each against the tracks spawned
    before it.  Each message assigns ``tracker.tracks`` and ``next_id``
    once.
    """
    cfg = tracker.config
    gamma = chi2_quantile(cfg.gate_prob, 3)
    for msg in msgs:
        state.received += 1
        try:
            means_r, covs_r = align(msg, t_now, cfg.q, staleness)
        except StaleMessage:
            state.stale += 1
            continue
        except (CollabError, NonPSD):
            state.rejected += 1
            continue
        tracks = tracker.tracks
        pairs, skipped = t2t_associate(tracks, means_r, covs_r, cfg.gate_prob, state)
        done = set(skipped)  # fused, or skipped for a singular pair
        if pairs:
            rows, cols = (list(line) for line in zip(*pairs))
            ci = ci_omega(tracks.covs[rows], covs_r[cols])
            fused, means, covs = ci_fuse(tracks.means[rows], means_r[cols], ci)
            fused = fused.tolist()
            tracks = tracks.sighted([rows[n] for n in fused], means, covs, cfg.confirm_m)
            done.update(cols[n] for n in fused)
            state.fused += len(fused)
        fresh = [j for j in range(len(msg.tracks)) if j not in done]
        born = [fresh[n] for n in _spawning(tracks, means_r[fresh], covs_r[fresh], gamma, state)]
        if born:
            tracks = tracks.then(spawn(tracker.next_id, means_r[born], symmetrize(covs_r[born]),
                                       t_now, cfg))
        state.spawned += len(born)
        tracker.tracks, tracker.next_id = tracks, tracker.next_id + len(born)
    _merge_duplicates(tracker, state)


def _spawning(tracks: Tracks, means: np.ndarray, covs: np.ndarray, gamma: float,
              state: CollabState) -> list[int]:
    """Which of a message's unmatched remote tracks spawn, as positions in
    the stacked ``means`` and ``covs``, in order.

    A remote track spawns when it gates at ``gamma`` with none of
    ``tracks`` and none of the tracks spawned before it, and forms a
    singular pair with none of them (``tracker.gate_cost``); ``state``
    counts the singular pairs.  All are gated against ``tracks`` in one
    call, then each against the tracks spawned before it, which carry its
    predecessors' means and symmetrized covariances.
    """
    cost, skipped, singular = gate_cost(tracks.means, tracks.covs, means, covs, gamma)
    state.singular += singular
    clear = ~np.isfinite(cost).any(axis=0)
    clear[skipped] = False
    born: list[int] = []
    for j, spawns in enumerate(clear.tolist()):
        if born:
            cost, skipped, singular = gate_cost(means[born], symmetrize(covs[born]),
                                                means[j:j + 1], covs[j:j + 1], gamma)
            state.singular += singular
            spawns = spawns and not skipped and not np.isfinite(cost).any()
        if spawns:
            born.append(j)
    return born


def _merge_duplicates(tracker: Tracker, state: CollabState) -> None:
    """CI-merge local track pairs that mutually gate on position.

    Repeated remote fusion can keep an accidental twin of a well-tracked
    object alive indefinitely (the remote feed alternates between the
    pair); folding such pairs into the elder track keeps one estimate per
    object without touching genuinely distinct neighbors.  A new elder
    takes the old one's row in the one assignment of the pass.

    All pairs are gated in one call up front, and an elder's row of it
    is read in the elder's turn.  Only elders are replaced, each in its
    own turn, so the elder and every younger live track are then still
    the published tracks that call gated.  After a merge the younger
    live tracks are gated again against the moved elder.  A pair with a
    singular summed covariance is inf, so never merged, and is counted.
    Each merge is a CI of a stack of one pair, since it moves the elder
    that the next pair reads.
    """
    gamma = chi2_quantile(tracker.config.gate_prob, 3)
    tracks = tracker.tracks  # in id order: an elder comes before its juniors
    means, covs = tracks.means.copy(), tracks.covs.copy()
    misses, confirmed = tracks.misses.copy(), tracks.confirmed.copy()
    d2_all, singular = position_d2(means, covs, means, covs, gamma)
    if singular.any():
        state.singular += int(np.triu(singular, 1).sum())
    n = len(tracks)
    dead = np.zeros(n, dtype=bool)
    for i in range(n):
        if dead[i]:
            continue
        d2 = d2_all[i]
        for k in range(i + 1, n):
            if dead[k] or d2[k] > gamma:
                continue
            fused, x, p = ci_fuse(means[i:i + 1], means[k:k + 1],
                                  ci_omega(covs[i:i + 1], covs[k:k + 1]))
            if not len(fused):
                continue
            means[i], covs[i] = x[0], p[0]
            misses[i] = min(misses[i], misses[k])
            confirmed[i] |= confirmed[k]
            dead[k] = True
            state.merged += 1
            # the elder moved: gate the younger live tracks against its new estimate
            live = [m for m in range(k + 1, n) if not dead[m]]
            d2_live, singular = position_d2(means[i:i + 1], covs[i:i + 1], means[live],
                                            covs[live], gamma)
            state.singular += int(singular.sum())
            d2[live] = d2_live[0]
    if dead.any():
        tracker.tracks = Tracks(tracks.ids, means, covs, confirmed, misses, tracks.window,
                                tracks.stamps).take(~dead)
