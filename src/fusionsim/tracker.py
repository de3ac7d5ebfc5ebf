"""Multi-object tracking over batches of fused 3D detections.

Global-nearest-neighbor Kalman tracking: constant-velocity prediction,
Mahalanobis gating at ``TrackerConfig.gamma``, one-to-one assignment on
gated squared distances, M-of-N confirmation, and miss-based deletion.
State layout is [px, py, pz, vx, vy, vz].

A step costs a fixed number of array operations rather than one Python
call per track or pair: the tracks are one ``Tracks`` batch of stacked
ids, estimates and lifecycle state.  Gating is one all-pairs call,
``position_d2``, whose matrix work grows with tracks + detections and
the few pairs a gate could pass, not with their product.  It proves
regularity per side: one sure-pass bound over every track's and
detection's position block, and when both sides of a pair pass, their
sum S is positive definite and regular; only a pair with a doubtful
side has its own S tested.  In calls of more than ``_FEW_PAIRS`` pairs
an exact pre-gate then leaves out a positive definite pair with
Δ_k² > 2 γ S_kk on some axis k, at the caller's chi-square quantile γ:
d2 >= Δ_k² / S_kk > 2γ by Cauchy–Schwarz, and the factor 2 covers the
computed d2's relative error, about cond·eps <= 1e-4 for any S with
rcond >= 1e-12, so the pair fails the gate whether inverted or not.  S
is built and inverted only for the pairs left, and d2 is Δ'(S^-1 Δ).
``gate_cost`` holds the one rule for a pair whose S fails the rcond
test: it is never matched, and its measurement is skipped and counted.
Collaboration (``collab``) gates through it too.  Predict and update
are stacked as well: ``kalman_predict`` and ``kalman_update`` take
leading batch axes, so ``predict`` moves every track and ``update``
corrects every matched pair in one call each, with the same arithmetic
per track as a single-track call, and scores every track's hit or miss
as one array transition.  Each matrix a step needs is built once: the
motion model is cached by (dt, q) (``motion_model``), and the update
reads each matched pair's S^-1 from the gate instead of inverting S
again.

The tracker also keeps one key-ordered history of the batches inside its
horizon, each as (key, detections, state after it).  A batch steps at
its key's time and at no other, so key order is time order, and a
delayed (out-of-sequence) detection batch is integrated exactly:
restore the state before its key, then replay it and every later batch
(Bar-Shalom, IEEE TAES 38(3), 2002).  An in-order batch has nothing to
replay; see ``Tracker`` and ``offload.integrate``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .fusion import Detections, assign

# The gate's 3-dof chi-square quantiles by gate_prob, embedded so gating
# needs no stats dependency; tests cross-check them against scipy.
GATE_QUANTILES = {0.95: 7.815, 0.99: 11.345}

# A track's status as its output line names it.
TENTATIVE = "tentative"
CONFIRMED = "confirmed"

NEW_TRACK_VEL_STD = 20.0  # m/s; bootstrap velocity uncertainty
_NEW_TRACK_VEL_COV = NEW_TRACK_VEL_STD**2 * np.eye(3)
_NEW_TRACK_VEL_COV.flags.writeable = False

# Batch keys order detection batches globally: (time, lane, tiebreak).
LANE_LOCAL = 0
LANE_EDGE = 1

BatchKey = tuple[float, int, int]


@dataclass(frozen=True)
class TrackerConfig:
    q: float = 1.0                 # process-noise intensity, m^2/s^3
    confirm_m: int = 3
    confirm_n: int = 5
    max_misses: int = 5
    gate_prob: float = 0.99
    snapshot_horizon: float = 1.0  # seconds of state history kept for rollback

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q must be > 0")
        if not 1 <= self.confirm_m <= self.confirm_n:
            raise ValueError("need 1 <= confirm_m <= confirm_n")
        if self.max_misses < 1:
            raise ValueError("max_misses must be >= 1")
        # a negative horizon prunes what every late batch replays from
        if not self.snapshot_horizon >= 0:
            raise ValueError("snapshot_horizon must be >= 0")
        if self.gate_prob not in GATE_QUANTILES:
            raise ValueError(f"no embedded chi-square quantile for gate_prob={self.gate_prob}")

    @property
    def gamma(self) -> float:
        """The gate threshold: the 3-dof chi-square quantile of ``gate_prob``."""
        return GATE_QUANTILES[self.gate_prob]


@dataclass(frozen=True)
class Tracks:
    """A batch of Gaussian tracks with their lifecycle state; row i is one
    track.  A value: once it is in ``Tracker.tracks`` or a stored state
    nothing writes to its arrays, and every transition builds new ones.

    ``window`` holds each track's last ``confirm_n`` sightings, oldest
    first, with False before the track existed: M-of-N confirmation
    counts its True entries.  Every estimate of a batch is for one time:
    in ``Tracker.tracks`` and every stored state, ``Tracker.last_time``.
    """

    ids: np.ndarray        # (n,) int
    means: np.ndarray      # (n, 6)
    covs: np.ndarray       # (n, 6, 6)
    confirmed: np.ndarray  # (n,) bool; tentative where False
    misses: np.ndarray     # (n,) int, consecutive
    window: np.ndarray     # (n, confirm_n) bool

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "Tracks":
        """The tracks at the indices ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Tracks(self.ids.take(rows), self.means.take(rows, axis=0),
                      self.covs.take(rows, axis=0), self.confirmed.take(rows),
                      self.misses.take(rows), self.window.take(rows, axis=0))

    def then(self, other: "Tracks") -> "Tracks":
        """These tracks followed by ``other``'s."""
        return Tracks(np.concatenate((self.ids, other.ids)),
                      np.concatenate((self.means, other.means)),
                      np.concatenate((self.covs, other.covs)),
                      np.concatenate((self.confirmed, other.confirmed)),
                      np.concatenate((self.misses, other.misses)),
                      np.concatenate((self.window, other.window)))

    def sighted(self, rows, means: np.ndarray, covs: np.ndarray, confirm_m: int,
                others_miss: bool = False) -> "Tracks":
        """The hit transition of the tracks at the indices ``rows``: they
        take the estimates ``means`` and ``covs``, no misses and a sighting
        in their window.  With ``others_miss`` (a step's scoring) every
        other track takes a miss and a gap in its window; without, it is
        unchanged.  Then M-of-N confirmation: a tentative track is
        confirmed once its window holds ``confirm_m`` sightings."""
        rows = np.asarray(rows, dtype=np.intp)
        hit = np.zeros(len(self), dtype=bool)
        hit[rows] = True
        new_means, new_covs = self.means.copy(), self.covs.copy()
        new_means[rows], new_covs[rows] = means, covs
        misses = self.misses + 1 if others_miss else self.misses.copy()
        misses[rows] = 0
        window = np.concatenate((self.window[:, 1:], hit[:, None]), axis=1)
        if not others_miss:
            window = np.where(hit[:, None], window, self.window)
        return Tracks(self.ids, new_means, new_covs,
                      self.confirmed | (window.sum(axis=1) >= confirm_m), misses, window)


def spawn(first_id: int, means: np.ndarray, covs: np.ndarray,
          config: TrackerConfig) -> Tracks:
    """Tracks born from one sighting each at the stacked ``means`` and
    ``covs``, with ids from ``first_id`` up; confirmed at once when
    ``confirm_m`` is 1."""
    n = len(means)
    window = np.zeros((n, config.confirm_n), dtype=bool)
    window[:, -1] = True
    return Tracks(np.arange(first_id, first_id + n), means, covs,
                  np.full(n, config.confirm_m == 1), np.zeros(n, dtype=int), window)


_POS = np.arange(3)
_VEL = _POS + 3


def cv_transition(dt: float) -> np.ndarray:
    f = np.eye(6)
    f[_POS, _VEL] = dt
    return f


def process_noise(dt: float, q: float) -> np.ndarray:
    """White-acceleration noise: per-axis blocks [[dt^4/4, dt^3/2], [dt^3/2, dt^2]] * q."""
    noise = np.zeros((6, 6))
    noise[_POS, _POS] = q * (dt**4 / 4.0)
    noise[_POS, _VEL] = noise[_VEL, _POS] = q * (dt**3 / 2.0)
    noise[_VEL, _VEL] = q * dt**2
    return noise


# Motion models ``motion_model`` keeps: a run steps with a few distinct
# (dt, q), its sensor periods and the gaps between sensors, and an edge
# result's rollback or a remote track's age adds a few more per step.
_MOTION_MODELS = 64


@lru_cache(maxsize=_MOTION_MODELS)
def motion_model(dt: float, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F, F' and Q of a CV step of ``dt`` seconds at noise ``q``, as
    ``cv_transition`` and ``process_noise`` build them, read-only and
    cached by (dt, q): the least recently used beyond ``_MOTION_MODELS``
    is dropped.  -0.0 and 0.0 are one key, so ``kalman_predict`` looks a
    step up by ``dt + 0.0`` and ``q + 0.0``, which turns -0.0 into 0.0."""
    f, noise = cv_transition(dt), process_noise(dt, q)
    f.flags.writeable = noise.flags.writeable = False
    return f, f.T, noise


def kalman_predict(mean: np.ndarray, cov: np.ndarray, dt: float,
                   q: float) -> tuple[np.ndarray, np.ndarray]:
    """CV prediction of one (6,) mean and (6, 6) covariance, or of stacks
    of them with the same leading axes."""
    f, f_t, noise = motion_model(dt + 0.0, q + 0.0)
    return (f @ mean[..., None])[..., 0], f @ cov @ f_t + noise


# Up to this many matrices the sure-pass bound runs on Python floats, one
# matrix at a time, beyond it on arrays: on the gate calls of the four
# benchmark workloads the two cost the same near 28 to 31 matrices, about
# 0.7 us a matrix against 21 us a call (CPython 3.11, numpy 2.4, x86-64).
# ``position_d2`` runs it on a call's N + M position blocks.
_FEW_MATRICES = 32


def _sure(blocks: np.ndarray) -> np.ndarray:
    """Whether each 3x3 matrix in a stack passes the sure-pass bound of
    ``_regularity``, which proves it positive definite with rcond > 4e-9."""
    flat = blocks.reshape(-1, 9)
    if len(flat) <= _FEW_MATRICES:
        sure = np.array([_surely_regular(*m) for m in flat.tolist()], dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # extremes fail the range test
            sure = _surely_regular(*flat.T)
    return sure.reshape(blocks.shape[:-2])


def _regularity(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sure, regular) flags of each S in a stack of them: ``sure`` where S
    passes the sure-pass bound below, which proves it positive definite,
    and ``regular`` where its rcond is at least 1e-12 (every sure S is
    regular).

    rcond comes from ``eig_regular``, which reads the lower triangle, but
    only for the matrices that fail the sure-pass bound.  With a, b, c
    the diagonal, x, y, z the lower off-diagonal entries s10, s21, s20
    and tol = 1e-9 tr, the bound asks for each 2x2 principal minor
    > tol tr and det > tol tr^2, with tr in (1e-80, 1e80).  The minors
    give ab > 0 and bc > 0, so a, b, c share a sign, which tr > 0 makes
    positive; S is then positive definite by Sylvester's criterion, every
    entry is at most tr in size, so rounding moves no minor by more than
    about 1e-14 of its margin, and the range keeps every product clear of
    underflow and overflow.  For a positive definite S, lambda_max <= tr
    and lambda_min = det / (lambda_2 lambda_3) >= 4 det / tr^2, since
    lambda_2 lambda_3 <= ((lambda_2 + lambda_3) / 2)^2 <= tr^2 / 4; so
    rcond >= 4 det / tr^3 > 4e-9, and ``eigvalsh`` would pass S too.
    """
    sure = _sure(s)
    if sure.all():
        return sure, sure
    doubtful = ~sure
    regular = sure.copy()
    regular[doubtful] = eig_regular(s[doubtful])
    return sure, regular


def eig_regular(s: np.ndarray) -> np.ndarray:
    """Whether a symmetric matrix, or each one in a stack, has rcond
    |lambda|min / |lambda|max above 1e-12, from ``eigvalsh`` on its
    lower triangle.  For a symmetric matrix this is 1 / cond: the singular
    values are the |lambda|."""
    w = np.abs(np.linalg.eigvalsh(s))
    return ~(w.min(axis=-1) <= w.max(axis=-1) * 1e-12)


def _surely_regular(a, _01, _02, x, b, _12, z, y, c):
    """The sure-pass bound of ``_regularity`` on the row-major entries of
    one S (floats) or of a stack (arrays, elementwise); only the lower
    triangle is read."""
    tr = a + b + c
    margin = 1e-9 * tr * tr  # tol tr
    minor_bc = b * c - y * y
    det = a * minor_bc - x * (x * c - y * z) + z * (x * y - b * z)
    return ((1e-80 < tr) & (tr < 1e80) & (a * b - x * x > margin)
            & (minor_bc > margin) & (a * c - z * z > margin)
            & (det > margin * tr))


# Up to this many pairs, inverting every regular pair's S costs less than
# the pre-gate's masks and its gather and scatter of the pairs it keeps:
# on the gate calls of the four benchmark workloads the two cost the same
# near 40 to 44 pairs (CPython 3.11, numpy 2.4, x86-64).
_FEW_PAIRS = 40


def position_d2(means_a, covs_a, means_b, covs_b,
                gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs squared Mahalanobis distances over the position blocks,
    exact wherever a gate at ``gamma`` could pass them.

    Takes N stacked means and covariances for side a and M for side b
    (state or position dimension, at least 3) and returns ``(d2,
    singular, inverses)``: d2 is the (N, M) matrix of Δ'S^-1 Δ with Δ =
    x_a - x_b and S = P_a + P_b, ``singular`` the (N, M) mask of pairs
    whose S has rcond below 1e-12, and ``inverses`` the (N, M, 3, 3)
    stack of S^-1, set for each pair that was solved and so for every
    finite d2.  Every pair is tested; a singular pair is inf in d2 and
    never solved, and each caller decides what it means.

    Regularity is proved per side: the sure-pass bound of ``_regularity``
    runs once over the N + M position blocks.  A block A that passes it
    is positive definite with λmin(A) > 4e-9 tr(A), so when both sides
    pass, λmin(A + B) >= λmin(A) + λmin(B) (Weyl) > 4e-9 tr(S) >= 4e-9
    λmax(S), and S is regular; by Minkowski's determinant inequality,
    det(A + B)^(1/k) >= det(A)^(1/k) + det(B)^(1/k) on each k x k
    principal block, S meets the bound's margins as well.  Only a pair
    with a side that fails the bound (zero, rank-one, indefinite or not
    finite) gets ``_regularity`` on its own S, so ``singular`` is the
    pairwise test's verdict on every pair.

    Pre-gate: for a positive definite S, Cauchy–Schwarz gives d2 >=
    Δ_k² / S_kk on each axis k.  A pair proven positive definite with
    Δ_k² > 2 γ S_kk on some axis, S_kk = A_kk + B_kk, is inf without an
    inverse: its exact d2 exceeds 2γ, and the d2 computed through the
    inverse of an S with rcond >= 1e-12 errs by about cond·eps <= 1e-4
    relative, so the factor 2 leaves it far above γ, and it would fail
    any gate at γ anyway.  Its trace form, |Δ|² > 2 γ tr(S), implies the
    per-axis one.  It runs above ``_FEW_PAIRS`` pairs; below, inverting
    every regular pair costs less.  S is built only for the pairs solved,
    each as P_a + P_b, and they are inverted together: each entry equals
    the per-pair ``delta @ (inv(s) @ delta)`` bit for bit, and each
    inverse the per-pair ``inv(s)``.
    """
    n, m = len(means_a), len(means_b)
    if n == 0 or m == 0:
        return np.zeros((n, m)), np.zeros((n, m), dtype=bool), np.empty((n, m, 3, 3))
    pos_a = np.asarray(means_a, dtype=float)[:, :3]
    pos_b = np.asarray(means_b, dtype=float)[:, :3]
    pa = np.asarray(covs_a, dtype=float)[:, :3, :3]
    pb = np.asarray(covs_b, dtype=float)[:, :3, :3]
    blocks = np.concatenate((pa, pb))
    sure = _sure(blocks)
    singular = np.zeros((n, m), dtype=bool)
    proven = None  # every S is positive definite: both its sides are sure
    if not sure.all():
        proven = sure[:n, None] & sure[None, n:]
        rows, cols = np.nonzero(~proven)
        proven[rows, cols], regular = _regularity(pa[rows] + pb[cols])
        singular[rows, cols] = ~regular
    if n * m <= _FEW_PAIRS:
        if proven is None or not singular.any():
            d2, inverses = _quadratic(pa[:, None] + pb[None, :], pos_a[:, None] - pos_b[None, :])
            return d2, singular, inverses
        solve = ~singular
    else:
        # (3, N, M) stacks of Δ_k² and of 2γ S_kk, from axis-major copies
        # of the sides: numpy broadcasts over a 3-long inner axis slowly
        pos = np.concatenate((pos_a, pos_b)).T.copy()
        diag = blocks.diagonal(axis1=1, axis2=2).T.copy()
        delta2 = pos[:, :n, None] - pos[:, None, n:]
        delta2 *= delta2
        bound = diag[:, :n, None] + diag[:, None, n:]
        bound *= 2.0 * gamma
        far = (delta2 > bound).any(axis=0)
        solve = ~far if proven is None else ~(singular | (proven & far))
    d2 = np.full((n, m), np.inf)
    inverses = np.empty((n, m, 3, 3))
    rows, cols = np.nonzero(solve)
    if len(rows):
        d2[rows, cols], inverses[rows, cols] = _quadratic(pa[rows] + pb[cols],
                                                          pos_a[rows] - pos_b[cols])
    return d2, singular, inverses


def gate_cost(means_t, covs_t, means_m, covs_m,
              gamma: float) -> tuple[np.ndarray, list[int], int, np.ndarray]:
    """The one gate rule, for tracks (rows) against measurements (columns):
    the tracker's detections, and remote tracks in collaboration.

    Returns ``(cost, skipped, singular, inverses)``: ``cost`` is the
    ``position_d2`` matrix where an entry is at most ``gamma`` and inf
    elsewhere, and ``inverses`` its S^-1 stack, set wherever ``cost`` is
    finite; a matched pair's update reads its S^-1 there.  A pair
    whose S has rcond below 1e-12 is never matched, and its measurement is
    skipped: the whole column is inf and its index is in ``skipped``, so
    the caller neither matches nor spawns it.  A spawn would put a
    zero-covariance twin next to the track it is singular with.
    ``singular`` counts the singular pairs.
    """
    d2, singular, inverses = position_d2(means_t, covs_t, means_m, covs_m, gamma)
    cost = np.where(d2 <= gamma, d2, np.inf)
    if not singular.any():
        return cost, [], 0, inverses
    skipped = singular.any(axis=0)
    cost[:, skipped] = np.inf
    return cost, np.flatnonzero(skipped).tolist(), int(singular.sum()), inverses


def _quadratic(s: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """delta' S^-1 delta of each S and delta in stacks of them, and the
    S^-1 stack it was computed with."""
    inverses = np.linalg.inv(s)
    # matmul, not einsum: it sums the three products in the per-pair order
    return (delta[..., None, :] @ (inverses @ delta[..., None]))[..., 0, 0], inverses


_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


def kalman_update(mean: np.ndarray, cov: np.ndarray, z: np.ndarray, r: np.ndarray,
                  s_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form position update of a 6-state CV track, or of stacks of
    (6,) means, (6, 6) covariances, (3,) measurements, (3, 3) noises and
    (3, 3) innovation inverses with the same leading axes.

    ``s_inv`` is the inverse of S = P_pp + R, the position block of
    ``cov`` plus ``r``, as ``np.linalg.inv`` gives it.  The gate computed
    it for every pair it solved (``gate_cost``), the same operands added
    in the same order, so S is neither rebuilt nor tested here: a matched
    pair's S passed the gate's regularity test.  H = [I 0] selects the
    position block, so HPH', PH', Hx and KH are written as slices: the
    products with H's exact 0/1 entries they replace added only exact
    zeros.
    """
    k = cov[..., :, :3] @ s_inv
    mean_new = mean + (k @ (z - mean[..., :3])[..., None])[..., 0]
    kh = np.zeros(cov.shape)
    kh[..., :, :3] = k
    ikh = _EYE6 - kh
    cov_new = ikh @ cov @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2)
    return mean_new, (cov_new + cov_new.swapaxes(-1, -2)) / 2.0


def predict(tracks: Tracks, dt: float, q: float) -> Tracks:
    """The tracks CV-predicted dt seconds ahead, in one stacked
    ``kalman_predict``."""
    if dt < 0:
        raise ValueError("predict needs dt >= 0")
    means, covs = kalman_predict(tracks.means, tracks.covs, dt, q)
    return Tracks(tracks.ids, means, covs, tracks.confirmed, tracks.misses, tracks.window)


def update(tracks: Tracks, rows, detections: Detections, inverses: np.ndarray,
           confirm_m: int) -> Tracks:
    """The scoring of a step (``Tracks.sighted``): track ``rows[i]`` is
    measurement-updated by row i of ``detections``, with the innovation
    inverse ``inverses[i]`` the gate computed for the pair, in one
    stacked ``kalman_update``, and sighted; every other track misses."""
    rows = np.asarray(rows, dtype=np.intp)
    means, covs = kalman_update(tracks.means.take(rows, axis=0), tracks.covs.take(rows, axis=0),
                                detections.positions, detections.covs, inverses)
    return tracks.sighted(rows, means, covs, confirm_m, others_miss=True)


def gate(tracks: Tracks, detections: Detections,
         gamma: float) -> tuple[np.ndarray, list[int], int, np.ndarray]:
    """``gate_cost`` of predicted tracks (rows) against a detection batch
    (columns) at ``gamma``, the tracker's ``TrackerConfig.gamma``: the
    gated cost matrix, the detections skipped for a singular pair, the
    number of singular pairs, and each gated pair's innovation inverse."""
    return gate_cost(tracks.means, tracks.covs, detections.positions, detections.covs, gamma)


def predict_waypoints(means: np.ndarray, stamp: float, horizon: float,
                      dt: float) -> tuple[np.ndarray, np.ndarray]:
    """CV waypoint extrapolation of M tracks at once: their (M, 6) ``means``,
    the estimates at the time ``stamp``.

    Returns the (M, K) waypoint times ``stamp + k dt`` and the (M, K, 3)
    positions ``pos + vel (k dt)``, k = 1 .. K, K = floor(horizon / dt),
    each with the bits the same arithmetic gives one track and one k.
    """
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be > 0")
    steps = int(math.floor(horizon / dt + 1e-9))
    ahead = np.arange(1, steps + 1) * dt
    return (np.tile(stamp + ahead, (len(means), 1)),
            means[:, None, :3] + means[:, None, 3:] * ahead[:, None])


class Tracker:
    """Owns the live track set and the keyed batch history.

    ``step`` is the plain in-order update of one ``Detections`` batch.
    ``process_batch`` applies a batch at its global key, stepping at the
    key's time ``key[0]``; it is the one way a batch reaches the tracker
    and the only writer of ``_history``, the key-ordered list of (key,
    detections, state after the batch) for every batch inside the
    horizon.  A batch after every entry steps from the live state and
    has nothing to replay.  An earlier one restores the state stored just
    before its position and replays itself and every later batch in key
    order, all or nothing.  A batch before every entry replays from the
    initial state while the history is whole; once the first entry has
    been pruned, the batches it held are gone and such a batch is refused.

    ``singular`` counts the track x detection pairs with a singular
    innovation covariance, whose detections ``step`` skipped (see
    ``gate_cost``).  It is part of the stored state, so a replayed batch
    counts its pairs once.

    ``tracks`` is one ``Tracks`` batch, and a value: a step builds a new
    batch and never writes to a published one, so a stored state holds
    the batch itself and a restore puts it back.  Its rows are in id
    order: a new track's id is above every earlier one's, and no
    transition reorders rows.  Remote-track fusion (``collab.covi_step``)
    replaces ``tracks`` after the batch's entry was stored and is not
    replayed; that is why an in-order batch steps from the live state
    rather than from the newest entry.  It is sound only because a
    ``cr-covi`` tracker never receives a late batch, so it never rolls
    back.  A remote batch lane would lift that limit; no workload
    combines the two modes, and doing so would add an option.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: Tracks = spawn(1, np.empty((0, 6)), np.empty((0, 6, 6)), self.config)
        self.next_id = 1
        self.last_time: float | None = None
        self.singular = 0
        self._history: list[tuple[BatchKey, Detections, tuple]] = []
        self._genesis: tuple | None = self._capture()  # None once history was pruned

    # -- core in-order step -------------------------------------------------

    def step(self, detections: Detections, t: float) -> None:
        cfg = self.config
        if self.last_time is not None:
            dt = t - self.last_time
            if dt < -1e-12:
                raise ValueError(f"step time went backwards: {self.last_time} -> {t}")
            dt = max(dt, 0.0)
        else:
            dt = 0.0
        predicted = predict(self.tracks, dt, cfg.q)
        cost, skipped, singular, inverses = gate(predicted, detections, cfg.gamma)
        rows, cols = np.array(assign(cost), dtype=np.intp).reshape(-1, 2).T
        matched = Detections(detections.positions.take(cols, axis=0),
                             detections.covs.take(cols, axis=0))
        tracks = update(predicted, rows, matched, inverses[rows, cols], cfg.confirm_m)
        alive = tracks.misses <= cfg.max_misses
        if not alive.all():
            tracks = tracks.take(alive.nonzero()[0])

        taken = set(cols.tolist()).union(skipped)
        fresh = np.array([j for j in range(len(detections)) if j not in taken], dtype=np.intp)
        if len(fresh):
            means = np.zeros((len(fresh), 6))
            means[:, :3] = detections.positions.take(fresh, axis=0)
            covs = np.zeros((len(fresh), 6, 6))
            covs[:, :3, :3] = detections.covs.take(fresh, axis=0)
            covs[:, 3:, 3:] = _NEW_TRACK_VEL_COV
            tracks = tracks.then(spawn(self.next_id, means, covs, cfg))

        self.tracks, self.next_id, self.last_time = tracks, self.next_id + len(fresh), t
        self.singular += singular

    # -- batch-keyed processing with rollback-replay ------------------------

    @property
    def newest_key(self) -> BatchKey | None:
        return self._history[-1][0] if self._history else None

    @property
    def cutoff(self) -> float:
        """The time before which no batch is kept: ``snapshot_horizon``
        before the last step, -inf before the first.  Once a batch was
        pruned, every batch before the cutoff is refused."""
        if self.last_time is None:
            return -math.inf
        return self.last_time - self.config.snapshot_horizon

    def process_batch(self, key: BatchKey, detections: Detections) -> bool:
        """Apply a detection batch at its global key, stepping at the key's
        time; returns False when the batch predates every retained entry
        and the history was pruned.  All or nothing: a step that raises
        leaves the tracker as it was before the call."""
        history = self._history
        pos = bisect_left(history, key, key=itemgetter(0))
        later = history[pos:]
        if later and later[0][0] == key:
            raise ValueError(f"duplicate batch key {key}")
        held = self._capture()
        if later:
            start = history[pos - 1][2] if pos else self._genesis
            if start is None:
                return False
            self._restore(start)
        # the list is replaced, not edited, until every step succeeded
        self._history = history[:pos]
        try:
            for k, dets in [(key, detections)] + [entry[:2] for entry in later]:
                self.step(dets, k[0])
                self._history.append((k, dets, self._capture()))
        except BaseException:
            self._history = history
            self._restore(held)
            raise
        cutoff = self.cutoff
        stale = 0
        while stale < len(self._history) - 1 and self._history[stale][0][0] < cutoff:
            stale += 1
        if stale:
            del self._history[:stale]
            self._genesis = None  # the earliest batches are gone
        return True

    def _capture(self) -> tuple:
        return self.tracks, self.next_id, self.last_time, self.singular

    def _restore(self, state: tuple) -> None:
        self.tracks, self.next_id, self.last_time, self.singular = state

    # -- views ---------------------------------------------------------------

    def confirmed(self) -> Tracks:
        return self.tracks.take(self.tracks.confirmed.nonzero()[0])
