"""Multi-object tracking over batches of fused 3D detections.

Global-nearest-neighbor Kalman tracking: constant-velocity prediction,
Mahalanobis gating against a chi-square quantile, one-to-one assignment on
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
solve's relative error, about cond·eps <= 1e-4 for any S with rcond >=
1e-12, so the pair fails the gate whether solved or not.  S is built
and solved only for the pairs left.  ``gate_cost`` holds the one rule
for a pair whose S fails the rcond test: it is never matched, and its
measurement is skipped and counted.  Collaboration (``collab``) gates
through it too.  Predict and update are stacked as well:
``kalman_predict`` and ``kalman_update`` take leading batch axes, so
``predict`` moves every track and ``update`` corrects every matched pair
in one call each, with the same arithmetic per track as a single-track
call, and scores every track's hit or miss as one array transition.

The tracker also keeps one key-ordered history of the batches inside its
horizon, each with the state after it, so a delayed (out-of-sequence)
detection batch is integrated exactly: restore the state before its key,
then replay it and every later batch (Bar-Shalom, IEEE TAES 38(3), 2002).
An in-order batch has nothing to replay; see ``Tracker`` and
``offload.integrate``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .fusion import Detections, assign

# Chi-square quantiles for dof 1..9, embedded so gating needs no stats
# dependency; tests cross-check them against an independent implementation.
CHI2_QUANTILES = {
    0.95: {1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070,
           6: 12.592, 7: 14.067, 8: 15.507, 9: 16.919},
    0.99: {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086,
           6: 16.812, 7: 18.475, 8: 20.090, 9: 21.666},
}

# A track's status as its output line names it.
TENTATIVE = "tentative"
CONFIRMED = "confirmed"

NEW_TRACK_VEL_STD = 20.0  # m/s; bootstrap velocity uncertainty

# Batch keys order detection batches globally: (time, lane, tiebreak).
LANE_LOCAL = 0
LANE_EDGE = 1

BatchKey = tuple[float, int, int]


class TrackerError(Exception):
    pass


def chi2_quantile(prob: float, dof: int) -> float:
    try:
        return CHI2_QUANTILES[prob][dof]
    except KeyError:
        raise TrackerError(f"no embedded chi-square quantile for prob={prob}, dof={dof}")


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
            raise TrackerError("q must be > 0")
        if not 1 <= self.confirm_m <= self.confirm_n:
            raise TrackerError("need 1 <= confirm_m <= confirm_n")
        if self.max_misses < 1:
            raise TrackerError("max_misses must be >= 1")
        chi2_quantile(self.gate_prob, 3)  # the gate's; raises if none is embedded


@dataclass(frozen=True)
class Tracks:
    """A batch of Gaussian tracks with their lifecycle state; row i is one
    track.  A value: once it is in ``Tracker.tracks`` or a stored state
    nothing writes to its arrays, and every transition builds new ones.

    ``window`` holds each track's last ``confirm_n`` sightings, oldest
    first, with False before the track existed: M-of-N confirmation
    counts its True entries.  ``stamps`` is the time each estimate is for.
    """

    ids: np.ndarray        # (n,) int
    means: np.ndarray      # (n, 6)
    covs: np.ndarray       # (n, 6, 6)
    confirmed: np.ndarray  # (n,) bool; tentative where False
    misses: np.ndarray     # (n,) int, consecutive
    window: np.ndarray     # (n, confirm_n) bool
    stamps: np.ndarray     # (n,) float

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "Tracks":
        """The tracks at ``rows`` (indices or a mask), in that order."""
        return Tracks(self.ids[rows], self.means[rows], self.covs[rows], self.confirmed[rows],
                      self.misses[rows], self.window[rows], self.stamps[rows])

    def then(self, other: "Tracks") -> "Tracks":
        """These tracks followed by ``other``'s."""
        return Tracks(np.concatenate((self.ids, other.ids)),
                      np.concatenate((self.means, other.means)),
                      np.concatenate((self.covs, other.covs)),
                      np.concatenate((self.confirmed, other.confirmed)),
                      np.concatenate((self.misses, other.misses)),
                      np.concatenate((self.window, other.window)),
                      np.concatenate((self.stamps, other.stamps)))

    def sighted(self, rows: list[int], means: np.ndarray, covs: np.ndarray, confirm_m: int,
                others_miss: bool = False) -> "Tracks":
        """The hit transition of the tracks at ``rows``: they take the
        estimates ``means`` and ``covs``, no misses and a sighting in their
        window.  With ``others_miss`` (a step's scoring) every other track
        takes a miss and a gap in its window; without, it is unchanged.
        Then M-of-N confirmation: a tentative track is confirmed once its
        window holds ``confirm_m`` sightings."""
        hit = np.zeros(len(self), dtype=bool)
        hit[rows] = True
        new_means, new_covs = self.means.copy(), self.covs.copy()
        new_means[rows], new_covs[rows] = means, covs
        window = np.concatenate((self.window[:, 1:], hit[:, None]), axis=1)
        if not others_miss:
            window = np.where(hit[:, None], window, self.window)
        return Tracks(self.ids, new_means, new_covs,
                      self.confirmed | (window.sum(axis=1) >= confirm_m),
                      np.where(hit, 0, self.misses + int(others_miss)), window, self.stamps)


def spawn(first_id: int, means: np.ndarray, covs: np.ndarray, stamp: float,
          config: TrackerConfig) -> Tracks:
    """Tracks born from one sighting each at the stacked ``means`` and
    ``covs``, with ids from ``first_id`` up; confirmed at once when
    ``confirm_m`` is 1."""
    n = len(means)
    window = np.zeros((n, config.confirm_n), dtype=bool)
    window[:, -1] = True
    return Tracks(np.arange(first_id, first_id + n), means, covs,
                  np.full(n, config.confirm_m == 1), np.zeros(n, dtype=int), window,
                  np.full(n, stamp))


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


def kalman_predict(mean: np.ndarray, cov: np.ndarray, dt: float,
                   q: float) -> tuple[np.ndarray, np.ndarray]:
    """CV prediction of one (6,) mean and (6, 6) covariance, or of stacks
    of them with the same leading axes."""
    f = cv_transition(dt)
    return (f @ mean[..., None])[..., 0], f @ cov @ f.T + process_noise(dt, q)


# Up to this many matrices the sure-pass bound runs on Python floats, one
# matrix at a time, beyond it on arrays: the two cost the same near 30
# matrices (timeit, CPython 3.11, numpy 2.4, x86-64).  ``position_d2``
# runs it on a call's N + M position blocks.
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


# Up to this many pairs, solving every regular pair costs less than the
# pre-gate's masks and its gather and scatter of the pairs it keeps: on
# the gate calls of an urban-covi run, where most pairs are near enough
# to be solved either way, the two cost the same near 64 to 96 pairs
# (timeit, CPython 3.11, numpy 2.4, x86-64).
_FEW_PAIRS = 64


def position_d2(means_a, covs_a, means_b, covs_b,
                gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs squared Mahalanobis distances over the position blocks,
    exact wherever a gate at ``gamma`` could pass them.

    Takes N stacked means and covariances for side a and M for side b
    (state or position dimension, at least 3) and returns ``(d2,
    singular)``: d2 is the (N, M) matrix of Δ'S^-1 Δ with Δ = x_a - x_b
    and S = P_a + P_b, and ``singular`` the (N, M) mask of pairs whose S
    has rcond below 1e-12.  Every pair is tested; a singular pair is inf
    in d2 and never solved, and each caller decides what it means.

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
    Δ_k² > 2 γ S_kk on some axis, S_kk = A_kk + B_kk, is inf without a
    solve: its exact d2 exceeds 2γ, and a solve of an S with rcond >=
    1e-12 errs by about cond·eps <= 1e-4 relative, so the factor 2
    leaves its computed d2 far above γ, and it would fail any gate at γ
    anyway.  Its trace form, |Δ|² > 2 γ tr(S), implies the per-axis one.
    It runs above ``_FEW_PAIRS`` pairs; below, solving every regular
    pair costs less.  S is built only for the pairs solved, each as
    P_a + P_b, and they are solved together: each entry equals the
    per-pair ``delta @ solve(s, delta)`` bit for bit.
    """
    n, m = len(means_a), len(means_b)
    if n == 0 or m == 0:
        return np.zeros((n, m)), np.zeros((n, m), dtype=bool)
    pos_a = np.asarray(means_a, dtype=float)[:, :3]
    pos_b = np.asarray(means_b, dtype=float)[:, :3]
    pa = np.asarray(covs_a, dtype=float)[:, :3, :3]
    pb = np.asarray(covs_b, dtype=float)[:, :3, :3]
    blocks = np.concatenate((pa, pb))
    sure = _sure(blocks)
    proven = sure[:n, None] & sure[None, n:]  # positive definite
    regular = proven
    if not proven.all():
        rows, cols = np.nonzero(~proven)
        regular = proven.copy()
        proven[rows, cols], regular[rows, cols] = _regularity(pa[rows] + pb[cols])
    solve = regular
    if n * m > _FEW_PAIRS:
        # (3, N, M) stacks of Δ_k² and of 2γ S_kk, from axis-major copies
        # of the sides: numpy broadcasts over a 3-long inner axis slowly
        pos = np.concatenate((pos_a, pos_b)).T.copy()
        diag = blocks.diagonal(axis1=1, axis2=2).T.copy()
        delta2 = pos[:, :n, None] - pos[:, None, n:]
        delta2 *= delta2
        bound = diag[:, :n, None] + diag[:, None, n:]
        bound *= 2.0 * gamma
        solve = regular & ~(proven & (delta2 > bound).any(axis=0))
    elif solve.all():
        return _quadratic(pa[:, None] + pb[None, :], pos_a[:, None] - pos_b[None, :]), ~regular
    d2 = np.full((n, m), np.inf)
    rows, cols = np.nonzero(solve)
    if len(rows):
        d2[rows, cols] = _quadratic(pa[rows] + pb[cols], pos_a[rows] - pos_b[cols])
    return d2, ~regular


def gate_cost(means_t, covs_t, means_m, covs_m,
              gamma: float) -> tuple[np.ndarray, list[int], int]:
    """The one gate rule, for tracks (rows) against measurements (columns):
    the tracker's detections, and remote tracks in collaboration.

    Returns ``(cost, skipped, singular)``: ``cost`` is the ``position_d2``
    matrix where an entry is at most ``gamma`` and inf elsewhere.  A pair
    whose S has rcond below 1e-12 is never matched, and its measurement is
    skipped: the whole column is inf and its index is in ``skipped``, so
    the caller neither matches nor spawns it.  A spawn would put a
    zero-covariance twin next to the track it is singular with.
    ``singular`` counts the singular pairs.
    """
    d2, singular = position_d2(means_t, covs_t, means_m, covs_m, gamma)
    cost = np.where(d2 <= gamma, d2, np.inf)
    if not singular.any():
        return cost, [], 0
    skipped = singular.any(axis=0)
    cost[:, skipped] = np.inf
    return cost, np.flatnonzero(skipped).tolist(), int(singular.sum())


def _quadratic(s: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta' S^-1 delta of each S and delta in stacks of them."""
    x = np.linalg.solve(s, delta[..., None])
    # matmul, not einsum: it sums the three products in the per-pair order
    return (delta[..., None, :] @ x)[..., 0, 0]


def kalman_update(mean: np.ndarray, cov: np.ndarray, z: np.ndarray,
                  r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form position update of a 6-state CV track, or of stacks of
    (6,) means, (6, 6) covariances, (3,) measurements and (3, 3) noises
    with the same leading axes.

    H = [I 0] selects the position block, so HPH', PH', Hx and I - KH are
    written as slices: the products with H's exact 0/1 entries they
    replace added only exact zeros.  S is not tested here: a matched
    pair's S is bit for bit the S its gate passed (``gate_cost``), the same
    operands added in the same order.
    """
    s = cov[..., :3, :3] + r
    k = cov[..., :, :3] @ np.linalg.inv(s)
    mean_new = mean + (k @ (z - mean[..., :3])[..., None])[..., 0]
    ikh = np.zeros(cov.shape)
    ikh[..., :, :3] = -k
    ikh += np.eye(6)
    cov_new = ikh @ cov @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2)
    return mean_new, (cov_new + cov_new.swapaxes(-1, -2)) / 2.0


def predict(tracks: Tracks, dt: float, q: float) -> Tracks:
    """The tracks CV-predicted dt seconds ahead, in one stacked
    ``kalman_predict``."""
    if dt < 0:
        raise TrackerError("predict needs dt >= 0")
    means, covs = kalman_predict(tracks.means, tracks.covs, dt, q)
    return Tracks(tracks.ids, means, covs, tracks.confirmed, tracks.misses, tracks.window,
                  tracks.stamps + dt)


def update(tracks: Tracks, rows: list[int], detections: Detections,
           confirm_m: int) -> Tracks:
    """The scoring of a step (``Tracks.sighted``): track ``rows[i]`` is
    measurement-updated by row i of ``detections``, in one stacked
    ``kalman_update``, and sighted; every other track misses."""
    means, covs = kalman_update(tracks.means[rows], tracks.covs[rows],
                                detections.positions, detections.covs)
    return tracks.sighted(rows, means, covs, confirm_m, others_miss=True)


def gate(tracks: Tracks, detections: Detections,
         gate_prob: float = 0.99) -> tuple[np.ndarray, list[int], int]:
    """``gate_cost`` of predicted tracks (rows) against a detection batch
    (columns) at the chi-square quantile of ``gate_prob``: the gated cost
    matrix, the detections skipped for a singular pair, and the number of
    singular pairs."""
    return gate_cost(tracks.means, tracks.covs, detections.positions, detections.covs,
                     chi2_quantile(gate_prob, 3))


def predict_waypoints(means: np.ndarray, stamps: np.ndarray, horizon: float,
                      dt: float) -> tuple[np.ndarray, np.ndarray]:
    """CV waypoint extrapolation of M tracks at once: their (M, 6) ``means``,
    each the estimate at its time in the (M,) ``stamps``.

    Returns the (M, K) waypoint times ``stamp + k dt`` and the (M, K, 3)
    positions ``pos + vel (k dt)``, k = 1 .. K, K = floor(horizon / dt),
    each with the bits the same arithmetic gives one track and one k.
    """
    if horizon <= 0 or dt <= 0:
        raise TrackerError("horizon and dt must be > 0")
    steps = int(math.floor(horizon / dt + 1e-9))
    ahead = np.arange(1, steps + 1) * dt
    return (stamps[:, None] + ahead,
            means[:, None, :3] + means[:, None, 3:] * ahead[:, None])


class Tracker:
    """Owns the live track set and the keyed batch history.

    ``step`` is the plain in-order update of one ``Detections`` batch.
    ``process_batch`` applies a batch at its global key; it is the one way a batch reaches
    the tracker and the only writer of ``_history``, the key-ordered list
    of (key, detections, t, state after the batch) for every batch inside
    the horizon.  A batch after every entry steps from the live state and
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
    transition reorders rows.  Remote-track fusion (``collab.covi_step``
    and its duplicate merge) replaces ``tracks`` after the batch's entry
    was stored and is not replayed; that is why an in-order batch steps
    from the live state rather than from the newest entry.  It is sound
    only because a ``cr-covi`` tracker never receives a late batch, so it
    never rolls back.  A remote batch lane would lift that limit; no
    workload combines the two modes, and doing so would add an option.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: Tracks = spawn(1, np.empty((0, 6)), np.empty((0, 6, 6)), 0.0, self.config)
        self.next_id = 1
        self.last_time: float | None = None
        self.singular = 0
        self._history: list[tuple[BatchKey, Detections, float, tuple]] = []
        self._genesis: tuple | None = self._capture()  # None once history was pruned

    # -- core in-order step -------------------------------------------------

    def step(self, detections: Detections, t: float) -> None:
        cfg = self.config
        if self.last_time is not None:
            dt = t - self.last_time
            if dt < -1e-12:
                raise TrackerError(f"step time went backwards: {self.last_time} -> {t}")
            dt = max(dt, 0.0)
        else:
            dt = 0.0
        predicted = predict(self.tracks, dt, cfg.q)
        cost, skipped, singular = gate(predicted, detections, cfg.gate_prob)
        pairs = assign(cost)
        rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
        matched = Detections(detections.positions[cols], detections.covs[cols])
        tracks = update(predicted, rows, matched, cfg.confirm_m)
        alive = tracks.misses <= cfg.max_misses
        if not alive.all():
            tracks = tracks.take(alive)

        taken = set(cols).union(skipped)
        fresh = [j for j in range(len(detections)) if j not in taken]
        if fresh:
            means = np.zeros((len(fresh), 6))
            means[:, :3] = detections.positions[fresh]
            covs = np.zeros((len(fresh), 6, 6))
            covs[:, :3, :3] = detections.covs[fresh]
            covs[:, 3:, 3:] = NEW_TRACK_VEL_STD**2 * np.eye(3)
            tracks = tracks.then(spawn(self.next_id, means, covs, t, cfg))

        self.tracks, self.next_id, self.last_time = tracks, self.next_id + len(fresh), t
        self.singular += singular

    # -- batch-keyed processing with rollback-replay ------------------------

    @property
    def newest_key(self) -> BatchKey | None:
        return self._history[-1][0] if self._history else None

    def process_batch(self, key: BatchKey, detections: Detections,
                      t: float) -> bool:
        """Apply a detection batch at its global key; returns False when the
        batch predates every retained entry and the history was pruned.
        All or nothing: a step that raises leaves the tracker as it was
        before the call."""
        history = self._history
        pos = bisect_left(history, key, key=itemgetter(0))
        later = history[pos:]
        if later and later[0][0] == key:
            raise TrackerError(f"duplicate batch key {key}")
        held = self._capture()
        if later:
            start = history[pos - 1][3] if pos else self._genesis
            if start is None:
                return False
            self._restore(start)
        # the list is replaced, not edited, until every step succeeded
        self._history = history[:pos]
        try:
            for k, dets, tt in [(key, detections, t)] + [entry[:3] for entry in later]:
                self.step(dets, tt)
                self._history.append((k, dets, tt, self._capture()))
        except BaseException:
            self._history = history
            self._restore(held)
            raise
        cutoff = self.last_time - self.config.snapshot_horizon
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
        return self.tracks.take(self.tracks.confirmed)
