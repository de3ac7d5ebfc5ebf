"""The stacked collaboration step equals per-track and per-pair references,
bit for bit.

``align`` predicts and maps all tracks of a message at once, covariance
intersection runs once over the stack of a message's matched pairs, and
association decides which remote tracks spawn from one all-pairs gate.  The
references below are the per-track and per-pair forms they replaced, kept
here as the specification (the weight search, per pair in both, is
shared): every property compares floats with ``==``
(``np.array_equal``), never with a tolerance, because the run outputs
are required to stay byte-identical.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fusionsim.collab import (
    CollabState,
    RemoteTrackMsg,
    RemoteTracks,
    _trace_minimum,
    align,
    ci_fuse,
    ci_omega,
    t2t_associate,
)
from fusionsim.geometry import Pose, symmetrize
from fusionsim.tracker import (
    GATE_QUANTILES,
    TrackerConfig,
    eig_regular,
    gate_cost,
    kalman_predict,
    spawn,
)

seeds = st.integers(0, 2**32 - 1)


# -- per-track and per-pair references -------------------------------------------


def ref_transform_gaussian(pose, mean, cov):
    r = pose.rotation
    out_mean = np.empty(6)
    out_mean[:3] = r @ mean[:3] + pose.translation
    out_mean[3:] = r @ mean[3:]
    t = np.zeros((6, 6))
    t[:3, :3] = r
    t[3:, 3:] = r
    return out_mean, symmetrize(t @ cov @ t.T)


def ref_align(msg, t_now, q):
    out = []
    for mean, cov in zip(msg.tracks.means, msg.tracks.covs):
        mean_p, cov_p = kalman_predict(mean, cov, max(t_now - msg.timestamp, 0.0), q)
        out.append(ref_transform_gaussian(msg.sender_pose, mean_p, cov_p))
    return out


def ref_ci_omega(pa, pb):
    """The weight of one pair, or None where a check fails."""
    if not (eig_regular(pa) and eig_regular(pb)):
        return None
    pa_inv = np.linalg.inv(pa)
    pb_inv = np.linalg.inv(pb)
    try:
        m = np.linalg.cholesky(pb)
    except np.linalg.LinAlgError:
        return None
    lam, w = np.linalg.eigh(m.T @ pa_inv @ m)
    if lam[0] <= 0.0:
        return None
    v = m @ w
    c = (v * v).sum(axis=0).tolist()
    d = (lam - 1.0).tolist()
    candidates = np.array([0.5, 0.0, 1.0, _trace_minimum(c, d)])
    info = candidates[:, None, None] * pa_inv + (1.0 - candidates)[:, None, None] * pb_inv
    traces = np.trace(np.linalg.inv(info), axis1=1, axis2=2)
    return float(candidates[int(np.argmin(traces))])


def ref_ci_fuse(xa, pa, xb, pb, omega):
    """The fused (mean, cov) of one pair at its weight, or None where the
    fused information matrix fails its check."""
    if omega == 1.0:
        return xa.copy(), pa.copy()
    if omega == 0.0:
        return xb.copy(), pb.copy()
    pa_inv = np.linalg.inv(pa)
    pb_inv = np.linalg.inv(pb)
    info = omega * pa_inv + (1.0 - omega) * pb_inv
    if not eig_regular(info):
        return None
    p = np.linalg.inv(info)
    x = p @ (omega * (pa_inv @ xa) + (1.0 - omega) * (pb_inv @ xb))
    return x, symmetrize(p)


def ref_spawning(tracks, means, covs, gamma):
    """(spawned positions, singular pairs), one pair of a track and a
    remote track at a time: a remote track spawns when it gates no track
    and is singular with none."""
    born, singular_pairs = [], 0
    for j, (mean, cov) in enumerate(zip(means, covs)):
        spawns = True
        for track_mean, track_cov in zip(tracks.means, tracks.covs):
            cost, skip, singular, _ = gate_cost([track_mean], [track_cov], [mean], [cov], gamma)
            singular_pairs += singular
            spawns = spawns and not skip and not np.isfinite(cost).any()
        if spawns:
            born.append(j)
    return born, singular_pairs


# -- draws ------------------------------------------------------------------------


def random_psd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + 0.1 * np.eye(dim))


def random_pose(rng):
    return Pose.from_rpy_deg(rng.normal(0.0, 20.0, 3), *rng.uniform(-180.0, 180.0, 3))


# Kinds of CI pair: "identical" must give exactly 0.5, "a_dominates" and
# "b_dominates" exactly 1 and 0, and "ill" (rcond below 1e-12),
# "indefinite_a" (fails the eigenvalue check), "indefinite_b" (fails
# the Cholesky factorization) and "zero" are left out.
PAIR_KINDS = ("random", "identical", "a_dominates", "b_dominates", "ill", "indefinite_a",
              "indefinite_b", "zero")


def ci_pair(rng, kind, dim):
    pa = random_psd(rng, dim, scale=float(rng.uniform(0.05, 20.0)))
    pb = random_psd(rng, dim, scale=float(rng.uniform(0.05, 20.0)))
    if kind == "identical":
        pb = pa.copy()
    elif kind == "a_dominates":
        pb = pa + random_psd(rng, dim)
    elif kind == "b_dominates":
        pa = pb + random_psd(rng, dim)
    elif kind == "ill":
        pa = np.diag(np.r_[1.0, np.full(dim - 1, 1e-14)]) if dim > 1 else np.zeros((1, 1))
    elif kind == "indefinite_a":
        u = np.eye(dim)[rng.integers(dim)]
        pa = pa - (np.trace(pa) + 1.0) * np.outer(u, u)
    elif kind == "indefinite_b":
        u = np.eye(dim)[rng.integers(dim)]
        pb = pb - (np.trace(pb) + 1.0) * np.outer(u, u)
    elif kind == "zero":
        pb = np.zeros((dim, dim))
    return pa, pb


# -- properties -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 8), age=st.floats(0.0, 1.0))
@example(seed=0, n=0, age=0.0)
def test_align_matches_per_track_reference(seed, n, age):
    rng = np.random.default_rng(seed)
    tracks = RemoteTracks(tuple(rng.integers(1, 1000, n).tolist()),
                          rng.normal(0.0, 30.0, (n, 6)),
                          np.array([random_psd(rng, 6) for _ in range(n)]).reshape(n, 6, 6))
    msg = RemoteTrackMsg("rsu1", random_pose(rng), 5.0, tracks)
    q = float(rng.uniform(0.1, 3.0))
    means, covs = align(msg, 5.0 + age, q)
    ref = ref_align(msg, 5.0 + age, q)
    assert means.shape == (n, 6) and covs.shape == (n, 6, 6)
    for (mean, cov), m, c in zip(ref, means, covs):
        assert np.array_equal(mean, m) and np.array_equal(cov, c)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, dim=st.integers(1, 6),
       kinds=st.lists(st.sampled_from(PAIR_KINDS), min_size=1, max_size=7))
@example(seed=1, dim=6, kinds=["random", "indefinite_b", "identical"])
@example(seed=2, dim=3, kinds=["a_dominates", "ill", "b_dominates"])
@example(seed=3, dim=6, kinds=["random", "indefinite_a", "zero", "random"])
def test_ci_matches_per_pair_reference(seed, dim, kinds):
    rng = np.random.default_rng(seed)
    pairs = [ci_pair(rng, kind, dim) for kind in kinds]
    pa = np.array([a for a, _ in pairs])
    pb = np.array([b for _, b in pairs])
    xa = rng.normal(0.0, 10.0, (len(kinds), dim))
    xb = rng.normal(0.0, 10.0, (len(kinds), dim))

    weights = [ref_ci_omega(a, b) for a, b in pairs]
    ci = ci_omega(pa, pb)
    assert ci.index.tolist() == [n for n, w in enumerate(weights) if w is not None]
    assert ci.omega.tolist() == [w for w in weights if w is not None]

    fused = [(n, ref_ci_fuse(xa[n], pa[n], xb[n], pb[n], w)) for n, w in enumerate(weights)
             if w is not None]
    fused = [(n, f) for n, f in fused if f is not None]
    index, means, covs = ci_fuse(xa, xb, ci)
    assert index.tolist() == [n for n, _ in fused]
    for (_, (mean, cov)), m, c in zip(fused, means, covs):
        assert np.array_equal(mean, m) and np.array_equal(cov, c)

    for kind, w in zip(kinds, weights):
        if kind == "identical":
            assert w == 0.5
        elif kind == "a_dominates":
            assert w == 1.0
        elif kind == "b_dominates":
            assert w == 0.0
        elif kind != "random":
            assert w is None


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 12), m=st.integers(0, 8), spread=st.floats(0.5, 40.0))
@example(seed=0, n=0, m=0, spread=1.0)
@example(seed=4, n=12, m=8, spread=3.0)
def test_spawn_check_matches_per_remote_reference(seed, n, m, spread):
    # remote tracks close to the tracks, some with zero covariance, so
    # that some gate, some are singular and some spawn
    rng = np.random.default_rng(seed)
    gamma = GATE_QUANTILES[0.99]

    def cov():
        return np.zeros((6, 6)) if rng.uniform() < 0.2 else random_psd(rng, 6, 0.3)

    local = [(np.r_[rng.uniform(-spread, spread, 3), np.zeros(3)], cov()) for _ in range(n)]
    tracks = spawn(1, np.array([m for m, _ in local]).reshape(-1, 6),
                   np.array([c for _, c in local]).reshape(-1, 6, 6), TrackerConfig())
    means = np.array([np.r_[rng.uniform(-spread, spread, 3), np.zeros(3)]
                      for _ in range(m)]).reshape(-1, 6)
    covs = np.array([cov() for _ in range(m)]).reshape(-1, 6, 6)
    state = CollabState()
    _, born = t2t_associate(tracks, means, covs, gamma, state)
    assert (born, state.singular) == ref_spawning(tracks, means, covs, gamma)
