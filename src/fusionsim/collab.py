"""Collaborative V2V/V2I track fusion.

Remote platforms broadcast their confirmed tracks in their own frame,
stamped with a world-from-sender pose.  On receipt the tracks are
CV-predicted to the local clock, mapped into the receiver's tracking
frame, associated to local tracks by position Mahalanobis distance, and
fused by covariance intersection (CI), which stays consistent when the
cross-platform correlation is unknown.  A remote track is associated
first with the local track it last fused into or spawned
(``CollabState.links``).  That one gate decides every remote track: it
fuses when paired, spawns when it gates no local track, and is dropped
as a duplicate view when it gates one but lost the assignment (see
``covi_step``).  Fusion builds a new track batch
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
pair on Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .bus import TRACKS_PAYLOAD
from .geometry import Pose, check_symmetric, symmetrize, transform_gaussian
from .tracker import (
    Tracker,
    Tracks,
    eig_regular,
    gate_cost,
    kalman_predict,
    spawn,
)
from .fusion import assign

DEFAULT_STALENESS = 1.0  # seconds
ROOT_STEPS = 100   # safeguarded Newton iterations for the CI weight
ROOT_TOL = 1e-12


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
    sender: str                  # the sending agent, named by the frame's topic
    sender_pose: Pose            # world-from-sender
    timestamp: float
    tracks: RemoteTracks

    def to_payload(self) -> bytes:
        pose, tracks = self.sender_pose, self.tracks
        return TRACKS_PAYLOAD.write((self.timestamp, len(tracks)),
                                    (pose.rotation, pose.translation, tracks.ids, tracks.means,
                                     tracks.covs))

    @staticmethod
    def from_payload(data: bytes, sender: str) -> "RemoteTrackMsg":
        (timestamp, _), (rotation, translation, ids, means, covs) = TRACKS_PAYLOAD.read(data)
        check_symmetric(covs)
        return RemoteTrackMsg(sender, Pose(rotation, translation), timestamp,
                              RemoteTracks(tuple(ids.tolist()), means, covs))


@dataclass
class CollabState:
    """Receiver-side counters, and the link table.

    ``received`` counts the messages a flush read, ``stale`` those too
    old to align, and ``fused`` and ``spawned`` the remote tracks that
    fused or spawned.  No message is refused here: a frame the bus
    readers or the engine refuse never reaches a flush, and counts as
    the bus's ``malformed`` (see ``bus``).

    ``singular`` counts the track pairs a gate found with a singular
    summed position covariance (rcond below 1e-12).  Such a pair is never
    fused, and its remote track is skipped (see ``tracker.gate_cost``).
    Its key is reported only once it is non-zero, so healthy runs report
    the same keys.

    ``links`` maps (sender, remote id) to the id of the local track that
    remote track last fused into or spawned.  A sender never reuses an
    id.  It is not a counter, so ``counters`` leaves it out.
    """

    received: int = 0
    stale: int = 0
    fused: int = 0
    spawned: int = 0
    singular: int = 0
    links: dict[tuple[str, int], int] = field(default_factory=dict)

    def counters(self) -> dict:
        return {k: v for k, v in vars(self).items()
                if k != "links" and (v or k != "singular")}


def align(msg: RemoteTrackMsg, t_now: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 6) means and (k, 6, 6) covariances of the message's tracks,
    predicted to ``t_now`` and mapped into the world frame the receiver
    tracks in.

    The tracks are CV-predicted in the sender frame with the same process
    noise the trackers use, in one stacked ``kalman_predict``, then mapped
    by the world-from-sender pose in one stacked ``transform_gaussian``,
    which re-symmetrizes the covariances.  Nothing is refused here: the
    message passed delivery (see ``bus``), so its numbers are finite and
    bounded, its covariances symmetric and its timestamp at most
    ``t_now``.
    """
    tracks = msg.tracks
    means, covs = kalman_predict(tracks.means, tracks.covs, t_now - msg.timestamp, q)
    return transform_gaussian(msg.sender_pose, means, covs)


def t2t_associate(local: Tracks, means: np.ndarray, covs: np.ndarray, gamma: float,
                  state: CollabState | None = None,
                  linked: Sequence[int] = ()) -> tuple[list[tuple[int, int]], list[int]]:
    """One-to-one pairing of local tracks with the remote tracks of stacked
    ``means`` and ``covs``, on position-block Mahalanobis distance, and
    which remote tracks spawn.

    Cost is d^2 = Δ'(P_loc + P_rem)^-1 Δ over the position blocks, gated at
    ``gamma``, the tracker's ``TrackerConfig.gamma``, by ``tracker.gate_cost``.
    ``linked`` gives, per remote track, the local row it is linked to, or
    -1.  A remote track pairs with its linked row first when the two gate;
    a row takes at most one such pair, that of the first remote track in
    order.  The other rows and remote tracks then go through one
    ``assign``.  Returns the (local, remote) pairs, sorted by local row,
    and the remote tracks that gate no local track and form no singular
    pair, in order: these spawn.  A remote track in a singular pair is
    skipped, and ``state`` counts the pair.
    """
    cost, skipped, singular, _ = gate_cost(local.means, local.covs, means, covs, gamma)
    if state is not None:
        state.singular += singular
    gated = np.isfinite(cost).any(axis=0)
    gated[skipped] = True
    spawns = np.flatnonzero(~gated).tolist()
    first: dict[int, int] = {}
    for j, i in enumerate(linked):
        if i >= 0 and i not in first and cost[i, j] < np.inf:
            first[i] = j
    if not first:
        return assign(cost), spawns
    cost[list(first)] = np.inf
    cost[:, list(first.values())] = np.inf
    return sorted([*first.items(), *assign(cost)]), spawns


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
    """Fold a batch of remote track messages into the local tracker, at
    its clock ``t_now`` (``Tracker.last_time``).

    One gate decides every aligned remote track: ``t2t_associate`` gates
    the message against the local tracks once, at the tracker's
    ``TrackerConfig.gamma``, and

    * a remote track paired with a local track replaces it by its
      sighting (``Tracks.sighted``) at the CI fusion;
    * one in a pair with a singular summed covariance is skipped, and the
      pair is counted (``tracker.gate_cost``);
    * one that gates no local track spawns a tentative local track
      carrying the remote covariance;
    * one that gates some local track but lost the one-to-one assignment
      is a duplicate view of a known object and is dropped, which keeps
      re-broadcast loops from breeding phantom tracks.

    A paired remote track that CI cannot fuse is neither fused nor
    spawned.  Fusion and spawning follow the tracker's own hit and spawn
    rules, so both count as a sighting for M-of-N confirmation;
    prediction uses the tracker's ``q``.  A message older than
    ``staleness`` is counted as stale and skipped; every other message
    passed delivery (see ``bus``) and is aligned as it is.

    Each fusion and spawn links its (sender, remote id) to its local track
    in ``state.links``, which association tries first (``t2t_associate``),
    so a remote track keeps fusing into one local track rather than
    breeding a twin.  A step with messages first drops the links to dead
    tracks; a step without messages changes nothing.

    Each message is one stack: it is aligned in one call and gated in
    one, and its matched pairs go through one ``ci_omega`` and one
    ``ci_fuse``, each pair reading its local track as it was before the
    message.  Each message assigns ``tracker.tracks`` and ``next_id``
    once, so the next message is gated against its fusions and spawns.
    """
    if not msgs:
        return
    cfg = tracker.config
    alive = set(tracker.tracks.ids.tolist())
    links = state.links = {key: lid for key, lid in state.links.items() if lid in alive}
    for msg in msgs:
        state.received += 1
        if t_now - msg.timestamp > staleness:
            state.stale += 1
            continue
        means_r, covs_r = align(msg, t_now, cfg.q)
        tracks = tracker.tracks
        ids = tracks.ids.tolist()
        keys = [(msg.sender, rid) for rid in msg.tracks.ids]
        row_of = {lid: i for i, lid in enumerate(ids)}
        linked = [row_of.get(links.get(key), -1) for key in keys]
        pairs, spawns = t2t_associate(tracks, means_r, covs_r, cfg.gamma, state, linked)
        if pairs:
            rows, cols = np.array(pairs, dtype=np.intp).T
            ci = ci_omega(tracks.covs.take(rows, axis=0), covs_r.take(cols, axis=0))
            fused, means, covs = ci_fuse(tracks.means.take(rows, axis=0),
                                         means_r.take(cols, axis=0), ci)
            rows, cols = rows[fused], cols[fused]
            tracks = tracks.sighted(rows, means, covs, cfg.confirm_m)
            links.update((keys[j], ids[i]) for i, j in zip(rows.tolist(), cols.tolist()))
            state.fused += len(fused)
        if spawns:
            tracks = tracks.then(spawn(tracker.next_id, means_r[spawns],
                                       symmetrize(covs_r[spawns]), cfg))
            links.update((keys[j], tracker.next_id + n) for n, j in enumerate(spawns))
        state.spawned += len(spawns)
        tracker.tracks, tracker.next_id = tracks, tracker.next_id + len(spawns)
